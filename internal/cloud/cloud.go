// Package cloud models the GPU-less recording service of GR-T (§3.2, §6): a
// fleet of lean VM images that each contain one GPU software stack, booted
// with a per-GPU devicetree so the kernel loads the right driver for the
// client's physical GPU, attested to the client, and dedicated to exactly
// one client TEE per recording session.
package cloud

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"sync"

	"gpurelay/internal/grterr"
	"gpurelay/internal/mali"
	"gpurelay/internal/obs"
	"gpurelay/internal/tee"
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
	// The back-pointer survives shard routing and crash teardown, so the
	// resilience layer can mark the device degraded or dead no matter how
	// the VM itself was released.
	Device *Device

	released bool
}

// Service is the cloud recording service.
type Service struct {
	mu     sync.Mutex
	images map[string]*Image
	// active tracks each client's live VM. VMs are never shared or reused
	// across clients, and a client holds one at a time (§3.1).
	active map[string]*VM
	seq    int

	// Device inventory (device.go): one entry per physical GPU slot ever
	// attached. Launch assigns the first free healthy device and grows the
	// inventory when none is available.
	devices   []*Device
	devPrefix string
	devReg    *obs.Registry
}

// NewService creates a service hosting the given images. Clients may hold
// one VM at a time (the paper's single-session model).
func NewService(images ...*Image) *Service {
	s := &Service{images: map[string]*Image{}, active: map[string]*VM{}}
	for _, img := range images {
		s.images[img.Name] = img
	}
	return s
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

// Launch boots a dedicated VM for a client: the devicetree matching the
// client's GPU is selected, the VM is measured, and a session key is derived
// from the measurement and both nonces. A client can hold only one VM at a
// time, and VMs are never shared or reused across clients (§3.1).
func (s *Service) Launch(clientID, imageName, gpuCompatible string, clientNonce []byte) (*VM, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active[clientID] != nil {
		return nil, fmt.Errorf("cloud: client %q already holds a recording VM: %w",
			clientID, grterr.ErrSessionLimit)
	}
	img, ok := s.images[imageName]
	if !ok {
		return nil, fmt.Errorf("cloud: unknown image %q", imageName)
	}
	dt, ok := img.DeviceTrees[gpuCompatible]
	if !ok {
		return nil, fmt.Errorf("cloud: image %q cannot drive GPU %q: %w",
			imageName, gpuCompatible, grterr.ErrSKUMismatch)
	}
	cloudNonce := make([]byte, 16)
	if _, err := rand.Read(cloudNonce); err != nil {
		return nil, err
	}
	s.seq++
	m := measurement(img, dt)
	vm := &VM{
		ID:          fmt.Sprintf("vm-%04d", s.seq),
		Image:       img,
		DeviceTree:  dt,
		Measurement: m,
		ClientID:    clientID,
		SessionKey:  tee.DeriveSessionKey(m, clientNonce, cloudNonce),
		Device:      s.assignDevice(),
	}
	s.active[clientID] = vm
	return vm, nil
}

// Release tears a VM down after its single recording session. Releasing an
// already-released VM is a no-op.
func (s *Service) Release(vm *VM) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if vm.released {
		return
	}
	if s.active[vm.ClientID] == vm {
		delete(s.active, vm.ClientID)
	}
	vm.released = true
	if vm.Device != nil {
		vm.Device.setBusy(false)
	}
	// The recording never persists cloud-side: no caching across clients
	// (§3.1), so the session key is scrubbed with the VM.
	for i := range vm.SessionKey {
		vm.SessionKey[i] = 0
	}
}

// ActiveVMs reports the number of live recording sessions.
func (s *Service) ActiveVMs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active)
}
