// Package cloud models the GPU-less recording service of GR-T (§3.2, §6): a
// fleet of lean VM images that each contain one GPU software stack, booted
// with a per-GPU devicetree so the kernel loads the right driver for the
// client's physical GPU, attested to the client, and dedicated to exactly
// one client TEE per recording session.
package cloud

import (
	"crypto/sha256"
	"fmt"

	"gpurelay/internal/grterr"
	"gpurelay/internal/mali"
)

// DeviceTree describes the GPU node a VM is booted with — the mechanism (§6)
// that lets one VM image serve many GPU SKUs: the tree names the compatible
// string; the kernel binds the matching driver even though no physical GPU
// is present in the cloud.
type DeviceTree struct {
	Compatible string
	// RegBase and IRQ mirror the fields a real mali devicetree node
	// carries; they are forwarded to the client rather than a local
	// device.
	RegBase uint64
	IRQ     int
}

// Image is a VM image: one GPU stack variant plus the devicetrees it can
// boot with.
type Image struct {
	Name string
	// Stack names the GPU stack variant (framework + runtime + driver),
	// e.g. "acl-20.05/libmali/bifrost-r24".
	Stack string
	// DeviceTrees maps GPU compatible strings to bootable trees.
	DeviceTrees map[string]DeviceTree
}

// DefaultImage covers the Bifrost family, as one kbase driver release does.
func DefaultImage() *Image {
	dts := map[string]DeviceTree{}
	for compatible := range mali.Catalog {
		dts[compatible] = DeviceTree{Compatible: compatible, RegBase: 0xE82C0000, IRQ: 65}
	}
	return &Image{Name: "grt-bifrost", Stack: "acl-20.05/libmali/bifrost-r24", DeviceTrees: dts}
}

// VM is one launched, single-tenant recording VM.
type VM struct {
	ID          string
	Image       *Image
	DeviceTree  DeviceTree
	Measurement [32]byte
	ClientID    string
	SessionKey  []byte
	// Device is the physical GPU slot this VM's session records against.
	// The back-pointer survives crash teardown, so the resilience layer can
	// mark the device degraded or dead no matter how the VM itself was
	// released.
	Device *Device

	// pool and part are where the VM was launched, so Release and Crash
	// route back without a lookup; released (guarded by pool.mu) makes
	// both idempotent.
	pool     *Pool
	part     *partition
	released bool
}

// measurement computes the attestation measurement of an image+devicetree
// combination (standing in for SEV/SGX launch measurements, §3.1).
func measurement(img *Image, dt DeviceTree) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|%x|%d", img.Name, img.Stack, dt.Compatible, dt.RegBase, dt.IRQ)
	var m [32]byte
	copy(m[:], h.Sum(nil))
	return m
}

// ExpectedMeasurement lets a client precompute the measurement it will
// accept for a given image and GPU.
func ExpectedMeasurement(img *Image, gpuCompatible string) ([32]byte, error) {
	dt, ok := img.DeviceTrees[gpuCompatible]
	if !ok {
		return [32]byte{}, fmt.Errorf("cloud: image %q has no devicetree for %q: %w",
			img.Name, gpuCompatible, grterr.ErrSKUMismatch)
	}
	return measurement(img, dt), nil
}
