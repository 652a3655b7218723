package cloud

import (
	"fmt"
	"sync"
	"time"

	"gpurelay/internal/obs"
)

// DeviceState is the health of one physical GPU behind the pool.
type DeviceState int

const (
	// DeviceHealthy devices are offered to new sessions.
	DeviceHealthy DeviceState = iota
	// DeviceDegraded devices took an uncorrectable ECC fault. They are
	// never offered to new sessions again — a migrated session must land
	// on different silicon — but their VM teardown is orderly.
	DeviceDegraded
	// DeviceDead devices fell off the bus (XID 79). Permanently gone.
	DeviceDead
)

func (s DeviceState) String() string {
	switch s {
	case DeviceHealthy:
		return "healthy"
	case DeviceDegraded:
		return "degraded"
	case DeviceDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Device is one physical GPU slot behind the pool. The paper's cloud has
// no physical GPUs — the "device" is the client's, relayed — but the fleet
// still schedules sessions onto per-VM GPU attachments, and it is these
// attachments whose health the Navarch-style events degrade. A Device keeps
// its own mutex (never its partition's) so health reports arriving from the
// resilience layer work however the VM itself was released.
type Device struct {
	id  string
	reg *obs.Registry

	mu         sync.Mutex
	state      DeviceState
	busy       bool
	throttled  time.Duration
	sbe, dbe   int
	fallOffs   int
	migrations int
}

// DeviceInfo is a point-in-time snapshot of one device's health books.
type DeviceInfo struct {
	ID         string        `json:"id"`
	State      string        `json:"state"`
	Busy       bool          `json:"busy"`
	Throttled  time.Duration `json:"throttled_ns"`
	ECCSBE     int           `json:"ecc_sbe"`
	ECCDBE     int           `json:"ecc_dbe"`
	FallOffs   int           `json:"falloffs"`
	Migrations int           `json:"migrations"`
}

// ID returns the device's fleet-unique identifier, prefixed with its
// partition (e.g. "s2/gpu-01").
func (d *Device) ID() string { return d.id }

// State returns the device's current health state.
func (d *Device) State() DeviceState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// Info snapshots the device's books.
func (d *Device) Info() DeviceInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DeviceInfo{
		ID: d.id, State: d.state.String(), Busy: d.busy,
		Throttled: d.throttled, ECCSBE: d.sbe, ECCDBE: d.dbe,
		FallOffs: d.fallOffs, Migrations: d.migrations,
	}
}

func (d *Device) lbl() obs.Label { return obs.L("device", d.id) }

// claim marks a healthy, idle device busy and reports whether it did.
func (d *Device) claim() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != DeviceHealthy || d.busy {
		return false
	}
	d.busy = true
	return true
}

func (d *Device) free() {
	d.mu.Lock()
	d.busy = false
	d.mu.Unlock()
}

// AddThrottle books virtual time the device spent thermally throttled. A
// throttled device stays healthy — the cap is the recovery mechanism.
func (d *Device) AddThrottle(t time.Duration) {
	if t <= 0 {
		return
	}
	d.mu.Lock()
	d.throttled += t
	d.mu.Unlock()
	d.reg.Add(obs.MDeviceThrottleNS, int64(t), d.lbl())
}

// AddSBE books corrected single-bit ECC faults. Corrected faults keep the
// device healthy; the count is what a fleet operator trends.
func (d *Device) AddSBE(n int) {
	if n <= 0 {
		return
	}
	d.mu.Lock()
	d.sbe += n
	d.mu.Unlock()
	d.reg.Add(obs.MDeviceECCErrors, int64(n), d.lbl(), obs.L("kind", "sbe"))
}

// MarkDBE books an uncorrectable double-bit ECC fault and degrades the
// device: it is never offered to a new session again, which is what makes a
// re-admitted session land on different silicon.
func (d *Device) MarkDBE() {
	d.mu.Lock()
	d.dbe++
	if d.state == DeviceHealthy {
		d.state = DeviceDegraded
	}
	d.mu.Unlock()
	d.reg.Add(obs.MDeviceECCErrors, 1, d.lbl(), obs.L("kind", "dbe"))
	d.reg.GaugeSet(obs.MDeviceDegraded, 1, d.lbl())
}

// MarkFallOff books an XID-79 bus fall-off: the device is dead, permanently.
func (d *Device) MarkFallOff() {
	d.mu.Lock()
	d.fallOffs++
	d.state = DeviceDead
	d.mu.Unlock()
	d.reg.Add(obs.MDeviceFallOffs, 1, d.lbl())
	d.reg.GaugeSet(obs.MDeviceDead, 1, d.lbl())
}

// NoteMigration books one session migrated OFF this device after it died
// under them.
func (d *Device) NoteMigration() {
	d.mu.Lock()
	d.migrations++
	d.mu.Unlock()
	d.reg.Add(obs.MDeviceMigrations, 1, d.lbl())
}

// Devices snapshots the health books of every device the pool has ever
// attached: partition order, then attachment order.
func (p *Pool) Devices() []DeviceInfo {
	var devs []*Device
	for _, pt := range p.parts {
		pt.mu.Lock()
		devs = append(devs, pt.devices...)
		pt.mu.Unlock()
	}
	out := make([]DeviceInfo, len(devs))
	for i, d := range devs {
		out[i] = d.Info()
	}
	return out
}

// assignDevice claims the first free healthy device of pt or attaches a new
// one. Dead and degraded devices are never offered again, so a session
// re-admitted after ErrDeviceLost lands on different silicon by
// construction.
func (p *Pool) assignDevice(pt *partition) *Device {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	for _, d := range pt.devices {
		if d.claim() {
			return d
		}
	}
	d := &Device{id: fmt.Sprintf("s%d/gpu-%02d", pt.index, len(pt.devices)), reg: p.fleet, busy: true}
	pt.devices = append(pt.devices, d)
	return d
}
