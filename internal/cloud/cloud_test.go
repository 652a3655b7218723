package cloud

import (
	"bytes"
	"context"
	"testing"
)

// launch admits client and fails the test on error.
func launch(t *testing.T, p *Pool, client, compat, nonce string) *VM {
	t.Helper()
	vm, err := p.Acquire(context.Background(), nil, Request{Key: keyOf(client), ClientID: client, GPU: compat, Nonce: []byte(nonce)})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestLaunchSelectsDeviceTree(t *testing.T) {
	p := newTestPool(PoolConfig{})
	vm := launch(t, p, "client-1", "arm,mali-g71-mp8", "nonce")
	if vm.DeviceTree.Compatible != "arm,mali-g71-mp8" {
		t.Fatalf("devicetree = %q", vm.DeviceTree.Compatible)
	}
	if len(vm.SessionKey) != 32 {
		t.Fatalf("session key %d bytes", len(vm.SessionKey))
	}
	if p.ActiveVMs() != 1 {
		t.Fatalf("active VMs = %d", p.ActiveVMs())
	}
}

func TestOneVMPerClient(t *testing.T) {
	p := newTestPool(PoolConfig{})
	vm := launch(t, p, "client-1", "arm,mali-g71-mp8", "n")
	if _, err := p.Acquire(context.Background(), nil, Request{Key: keyOf("client-1"), ClientID: "client-1", GPU: "arm,mali-g71-mp8", Nonce: []byte("n")}); err == nil {
		t.Fatal("second concurrent VM for the same client allowed")
	}
	// A different client gets its own VM.
	launch(t, p, "client-2", "arm,mali-g72-mp12", "n")
	p.Release(vm)
	launch(t, p, "client-1", "arm,mali-g71-mp8", "n")
}

func TestUnknownGPURejected(t *testing.T) {
	p := newTestPool(PoolConfig{})
	if _, err := p.Acquire(context.Background(), nil, Request{Key: keyOf("c"), ClientID: "c", GPU: "nvidia,gtx-4090", Nonce: []byte("n")}); err == nil {
		t.Fatal("launched VM for a GPU the image cannot drive")
	}
}

func TestAttestationMeasurementMatchesClientExpectation(t *testing.T) {
	img := DefaultImage()
	p := NewPool(img, PoolConfig{})
	want, err := ExpectedMeasurement(img, "arm,mali-g71-mp8")
	if err != nil {
		t.Fatal(err)
	}
	vm := launch(t, p, "c", "arm,mali-g71-mp8", "n")
	if vm.Measurement != want {
		t.Fatal("VM measurement differs from client's expected measurement")
	}
	// A different devicetree yields a different measurement: the client
	// detects a VM configured for the wrong GPU.
	other, _ := ExpectedMeasurement(img, "arm,mali-g52-mp2")
	if other == want {
		t.Fatal("measurements do not bind the devicetree")
	}
}

func TestSessionKeysUniquePerLaunch(t *testing.T) {
	p := newTestPool(PoolConfig{})
	vm1 := launch(t, p, "c1", "arm,mali-g71-mp8", "same-nonce")
	vm2 := launch(t, p, "c2", "arm,mali-g71-mp8", "same-nonce")
	if bytes.Equal(vm1.SessionKey, vm2.SessionKey) {
		t.Fatal("two sessions share a key")
	}
}

func TestReleaseScrubsSessionKey(t *testing.T) {
	p := newTestPool(PoolConfig{})
	vm := launch(t, p, "c", "arm,mali-g71-mp8", "n")
	key := append([]byte(nil), vm.SessionKey...)
	p.Release(vm)
	if bytes.Equal(key, vm.SessionKey) {
		t.Fatal("session key survived VM release")
	}
}
