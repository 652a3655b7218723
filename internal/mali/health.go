package mali

import (
	"time"

	"gpurelay/internal/gpumem"
)

// HealthInjector is the device-health hook the GPU model consults at every
// unit of device work (job-chain execution, internal-operation poll ticks).
// faultsim.Session implements it structurally — mali does not import
// faultsim, mirroring how netsim declares its FaultInjector.
//
// now is the virtual clock; base is the unperturbed duration of the unit of
// work being charged (so the injector can keep its own books of stretched
// time across resume attempts). stretch multiplies the work's virtual
// duration (thermal throttle; ≥ 1). sbe counts corrected single-bit ECC
// faults to tally. A non-nil dbe orders the device to poison the recorded
// region named dbeRegion ("" = first), raise a fault IRQ, and die. A
// non-nil fallOff kills the device outright and permanently (XID 79).
type HealthInjector interface {
	DeviceTick(now, base time.Duration) (stretch float64, sbe int, dbeRegion string, dbe, fallOff error)
}

// RegionResolver maps a fault plan's region name to the physical range an
// uncorrectable ECC fault poisons. An empty name selects the session's
// first recorded region; ok=false skips poisoning (nothing mapped yet).
type RegionResolver func(name string) (pa gpumem.PA, size uint64, ok bool)

// DeviceLost is the panic value raised out of ReadReg/WriteReg when the
// device dies under the session — an uncorrectable ECC fault or a bus
// fall-off. record.RunContext recovers it at the session boundary and
// surfaces Err (which wraps grterr.ErrDeviceLost) so the resilience layer
// can migrate the session to a different device.
type DeviceLost struct{ Err error }

func (d DeviceLost) Error() string { return d.Err.Error() }

// AttachHealth arms device-health injection.
func (g *GPU) AttachHealth(h HealthInjector, resolve RegionResolver) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.health, g.resolveRegion = h, resolve
}

// checkDead panics if the device already fell off the bus: a dead GPU
// answers no MMIO. Callers hold g.mu; the deferred unlock in
// ReadReg/WriteReg runs during unwinding.
func (g *GPU) checkDead() {
	if g.dead {
		panic(DeviceLost{Err: g.deadErr})
	}
}

// healthTick charges one unit of device work against the health plan and
// returns its (possibly throttle-stretched) duration. Callers hold g.mu.
//
// Only durations stretch under thermal throttle — never event content or
// poll iteration counts — so a throttled session seals a recording
// byte-identical to an unthrottled one; the stretch shows up in GPU busy
// time and the energy bill instead.
func (g *GPU) healthTick(base time.Duration) time.Duration {
	if g.health == nil {
		return base
	}
	g.checkDead()
	stretch, sbe, region, dbe, fallOff := g.health.DeviceTick(g.clock.Now(), base)
	g.stats.ECCSBE += sbe
	if fallOff != nil {
		g.dead, g.deadErr = true, fallOff
		g.stats.FallOffs++
		g.gpuIRQRaw |= GPUIRQFault
		panic(DeviceLost{Err: fallOff})
	}
	if dbe != nil {
		g.stats.ECCDBE++
		g.poisonRegion(region)
		g.gpuIRQRaw |= GPUIRQFault
		// The chain in flight (if any) dies with a read fault in the IRQ
		// high half, like any other failed job.
		for i := range g.slots {
			if g.slots[i].status == JSStatusActive {
				g.slots[i].status = JSStatusJobReadFault
				g.slots[i].head = 0
				g.stats.Faults++
				g.jobIRQRaw |= 1 << uint(16+i)
			}
		}
		panic(DeviceLost{Err: dbe})
	}
	if stretch > 1 {
		extra := time.Duration(float64(base) * (stretch - 1))
		g.stats.Throttled += extra
		return base + extra
	}
	return base
}

// poisonRegion flips one byte per page of the resolved region — the
// deterministic footprint of a double-bit ECC scrub failure. The attempt
// dies before sealing anything, so the corruption can never reach a signed
// recording; the flip exists so a hypothetical continue-and-seal bug would
// fail closed under verification instead of silently shipping bad bytes.
func (g *GPU) poisonRegion(name string) {
	if g.resolveRegion == nil {
		return
	}
	pa, size, ok := g.resolveRegion(name)
	if !ok || size == 0 {
		return
	}
	var b [1]byte
	for off := uint64(0); off < size; off += gpumem.PageSize {
		g.pool.Read(pa+gpumem.PA(off), b[:])
		b[0] ^= 0x80
		g.pool.Write(pa+gpumem.PA(off), b[:])
	}
}
