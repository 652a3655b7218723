// Package mali models a Mali Bifrost-family mobile GPU at the level GR-T
// interacts with it: the MMIO register file, the power state machine, the
// job manager, the GPU MMU with its per-address-space page tables, interrupt
// lines, and cache/TLB maintenance operations that the driver polls on.
//
// The model is deliberately behavioural, not cycle-accurate: operations that
// take hardware time (power transitions, cache flushes, address-space
// commands) complete after a small number of status polls, which is what
// produces the polling loops that §4.3 of the paper offloads; GPU job
// execution advances the virtual clock by a duration derived from the
// shader's arithmetic.
package mali

import (
	"fmt"
	"sync"
	"time"

	"gpurelay/internal/gpumem"
	"gpurelay/internal/mali/isa"
	"gpurelay/internal/timesim"
)

// Job descriptor layout in shared memory. Descriptors chain through NextVA,
// and one slot submission executes the whole chain — the Mali "job chain"
// model.
const (
	JobDescMagic = 0x4A4F4231 // "JOB1"
	JobDescSize  = 64
)

// pollLatency is how many status polls an internal GPU operation (power
// transition, flush, AS command) stays busy for, and busyOpTime is the
// virtual time each such operation takes.
const (
	pollLatency = 2
	busyOpTime  = 2 * time.Microsecond
)

// perJobOverhead is the fixed hardware cost of fetching, scheduling and
// retiring one job chain, independent of the shader's arithmetic.
const perJobOverhead = 20 * time.Microsecond

type slotState struct {
	headNext   uint64
	configNext uint32
	flushNext  uint32
	head       uint64
	config     uint32
	status     uint32
}

type asState struct {
	transtab    uint64
	memattr     uint64
	lockaddr    uint64
	status      uint32
	activePolls int
	faultStatus uint32
	faultAddr   uint64
}

// Stats aggregates hardware-side counters used by tests and experiments.
type Stats struct {
	JobsExecuted int
	Faults       int
	Resets       int
	FLOPs        int64
	Instructions int64
	FastPathed   int64
	// Busy is total virtual time the GPU spent executing jobs and
	// maintenance operations, for the energy model.
	Busy time.Duration
	// Throttled is the share of Busy attributable to thermal throttling:
	// the extra virtual time work took because the clocks were capped.
	// The energy model bills it at the throttled (lower) power draw.
	Throttled time.Duration
	// ECC and bus health (device-health injection; health.go).
	ECCSBE   int // corrected single-bit ECC faults
	ECCDBE   int // uncorrectable double-bit ECC faults (fatal)
	FallOffs int // XID-79-style bus fall-offs (fatal, permanent)
}

// GPU is one instance of the hardware model. All register accesses go
// through ReadReg/WriteReg — that is the interposition boundary the whole
// system is built on.
type GPU struct {
	mu    sync.Mutex
	sku   *SKU
	pool  *gpumem.Pool
	clock timesim.Time

	gpuIRQRaw, gpuIRQMask uint32
	jobIRQRaw, jobIRQMask uint32
	mmuIRQRaw, mmuIRQMask uint32

	shaderReady, tilerReady, l2Ready uint32
	shaderTrans, tilerTrans, l2Trans uint32
	transPolls                       int

	resetPolls int
	cachePolls int

	shaderConfig, tilerConfig, l2MMUConfig uint32

	latestFlushID  uint32
	flushRandState uint64

	slots  []slotState
	spaces []asState

	// Device-health injection (health.go). dead flips on a bus fall-off
	// and never clears: a fallen-off GPU answers no MMIO again.
	health        HealthInjector
	resolveRegion RegionResolver
	dead          bool
	deadErr       error

	stats Stats
}

// New creates a powered-off GPU of the given SKU attached to the shared
// memory pool. flushSeed seeds the nondeterministic component of
// LATEST_FLUSH_ID; two record runs with different seeds observe different
// flush IDs, which is what defeats speculation on job-submission commits
// (§7.3).
func New(sku *SKU, pool *gpumem.Pool, clock timesim.Time, flushSeed uint64) *GPU {
	if sku == nil || pool == nil || clock == nil {
		panic("mali: nil SKU, pool, or clock")
	}
	g := &GPU{
		sku: sku, pool: pool, clock: clock,
		flushRandState: flushSeed | 1,
		slots:          make([]slotState, sku.JobSlots),
		spaces:         make([]asState, sku.AddressSpaces),
	}
	return g
}

// SKU returns the hardware model identity.
func (g *GPU) SKU() *SKU { return g.sku }

// Pool returns the shared memory the GPU is attached to.
func (g *GPU) Pool() *gpumem.Pool { return g.pool }

// Stats returns a snapshot of the hardware counters.
func (g *GPU) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

func (g *GPU) xorshift() uint32 {
	x := g.flushRandState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	g.flushRandState = x
	return uint32(x)
}

// PendingIRQ reports the masked interrupt lines (job, gpu, mmu). The client
// kernel or GPUShim polls this after operations to decide whether to invoke
// interrupt handlers — the moral equivalent of the physical IRQ wires into
// the GIC.
func (g *GPU) PendingIRQ() (job, gpu, mmu uint32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.jobIRQRaw & g.jobIRQMask, g.gpuIRQRaw & g.gpuIRQMask, g.mmuIRQRaw & g.mmuIRQMask
}

// HardReset forcibly returns the GPU to its power-on state, as the TEE does
// before and after every replay session to scrub hardware state (§3.2).
func (g *GPU) HardReset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.reset()
	g.resetPolls = 0
	g.gpuIRQRaw = 0
}

func (g *GPU) reset() {
	g.shaderReady, g.tilerReady, g.l2Ready = 0, 0, 0
	g.shaderTrans, g.tilerTrans, g.l2Trans = 0, 0, 0
	g.transPolls, g.cachePolls = 0, 0
	g.jobIRQRaw, g.mmuIRQRaw = 0, 0
	g.jobIRQMask, g.gpuIRQMask, g.mmuIRQMask = 0, 0, 0
	g.shaderConfig, g.tilerConfig, g.l2MMUConfig = 0, 0, 0
	for i := range g.slots {
		g.slots[i] = slotState{}
	}
	for i := range g.spaces {
		g.spaces[i] = asState{}
	}
	g.stats.Resets++
}

func (g *GPU) slotOf(r Reg) (int, Reg, bool) {
	if r < jobSlotBase || r >= jobSlotBase+Reg(len(g.slots))*jobSlotStride {
		return 0, 0, false
	}
	return int((r - jobSlotBase) / jobSlotStride), (r - jobSlotBase) % jobSlotStride, true
}

func (g *GPU) asOf(r Reg) (int, Reg, bool) {
	if r < asBase || r >= asBase+Reg(len(g.spaces))*asStride {
		return 0, 0, false
	}
	return int((r - asBase) / asStride), (r - asBase) % asStride, true
}

// ReadReg reads an MMIO register with full side effects (status polls tick
// internal operations forward; some reads take hardware time).
func (g *GPU) ReadReg(r Reg) uint32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.checkDead()
	switch r {
	case GPU_ID:
		return g.sku.ProductID
	case L2_FEATURES:
		return g.sku.L2Features
	case TILER_FEATURES:
		return g.sku.TilerFeatures
	case MEM_FEATURES:
		return g.sku.MemFeatures
	case MMU_FEATURES:
		return g.sku.MMUFeatures
	case AS_PRESENT:
		return uint32(1)<<uint(g.sku.AddressSpaces) - 1
	case JS_PRESENT:
		return uint32(1)<<uint(g.sku.JobSlots) - 1
	case THREAD_MAX_THREADS:
		return g.sku.ThreadMaxThreads
	case THREAD_MAX_WORKGROUP:
		return g.sku.ThreadMaxWorkgroup
	case THREAD_MAX_BARRIER:
		return g.sku.ThreadMaxBarrierSize
	case THREAD_FEATURES:
		return g.sku.ThreadFeatures
	case TEXTURE_FEATURES_0, TEXTURE_FEATURES_1, TEXTURE_FEATURES_2:
		return 0x00FE001E
	case COHERENCY_FEATURES:
		return 0x1 // ACE-Lite
	case SHADER_PRESENT_LO:
		return g.sku.CoreMask()
	case SHADER_PRESENT_HI, TILER_PRESENT_HI, L2_PRESENT_HI, SHADER_READY_HI, TILER_READY_HI, L2_READY_HI:
		return 0
	case TILER_PRESENT_LO:
		return 0x1
	case L2_PRESENT_LO:
		return 0x1
	case SHADER_READY_LO:
		return g.shaderReady
	case TILER_READY_LO:
		return g.tilerReady
	case L2_READY_LO:
		return g.l2Ready
	case SHADER_PWRTRANS_LO, TILER_PWRTRANS_LO, L2_PWRTRANS_LO:
		return g.tickPowerTransition(r)
	case SHADER_CONFIG:
		return g.shaderConfig
	case TILER_CONFIG:
		return g.tilerConfig
	case L2_MMU_CONFIG:
		return g.l2MMUConfig
	case GPU_IRQ_RAWSTAT:
		g.tickReset()
		g.tickCacheClean()
		return g.gpuIRQRaw
	case GPU_IRQ_MASK:
		return g.gpuIRQMask
	case GPU_IRQ_STATUS:
		g.tickReset()
		g.tickCacheClean()
		return g.gpuIRQRaw & g.gpuIRQMask
	case GPU_STATUS:
		if g.cachePolls > 0 {
			return GPUStatusActive
		}
		return 0
	case LATEST_FLUSH_ID:
		return g.latestFlushID
	case JOB_IRQ_RAWSTAT:
		return g.jobIRQRaw
	case JOB_IRQ_MASK:
		return g.jobIRQMask
	case JOB_IRQ_STATUS:
		return g.jobIRQRaw & g.jobIRQMask
	case JOB_IRQ_JS_STATE:
		var st uint32
		for i, s := range g.slots {
			if s.status == JSStatusActive {
				st |= 1 << uint(i)
			}
		}
		return st
	case MMU_IRQ_RAWSTAT:
		return g.mmuIRQRaw
	case MMU_IRQ_MASK:
		return g.mmuIRQMask
	case MMU_IRQ_STATUS:
		return g.mmuIRQRaw & g.mmuIRQMask
	}
	if slot, off, ok := g.slotOf(r); ok {
		return g.readJS(slot, off)
	}
	if as, off, ok := g.asOf(r); ok {
		return g.readAS(as, off)
	}
	return 0
}

func (g *GPU) readJS(slot int, off Reg) uint32 {
	s := &g.slots[slot]
	switch off {
	case JS_HEAD_LO:
		return uint32(s.head)
	case JS_HEAD_HI:
		return uint32(s.head >> 32)
	case JS_TAIL_LO:
		return uint32(s.head)
	case JS_TAIL_HI:
		return uint32(s.head >> 32)
	case JS_STATUS:
		return s.status
	case JS_CONFIG:
		return s.config
	case JS_HEAD_NEXT_LO:
		return uint32(s.headNext)
	case JS_HEAD_NEXT_HI:
		return uint32(s.headNext >> 32)
	case JS_CONFIG_NEXT:
		return s.configNext
	}
	return 0
}

func (g *GPU) readAS(as int, off Reg) uint32 {
	a := &g.spaces[as]
	switch off {
	case AS_TRANSTAB_LO:
		return uint32(a.transtab)
	case AS_TRANSTAB_HI:
		return uint32(a.transtab >> 32)
	case AS_MEMATTR_LO:
		return uint32(a.memattr)
	case AS_MEMATTR_HI:
		return uint32(a.memattr >> 32)
	case AS_STATUS:
		if a.activePolls > 0 {
			a.activePolls--
			if a.activePolls == 0 {
				g.opDone()
			}
			return ASStatusActive
		}
		return 0
	case AS_FAULTSTATUS:
		return a.faultStatus
	case AS_FAULTADDRESS_LO:
		return uint32(a.faultAddr)
	case AS_FAULTADDRESS_HI:
		return uint32(a.faultAddr >> 32)
	}
	return 0
}

// opDone accounts the hardware time of a completed internal operation.
// Under a thermal-throttle window the operation takes longer — this is how
// throttling stretches poll loops — but the iteration count the recording
// captures is untouched.
func (g *GPU) opDone() {
	d := g.healthTick(busyOpTime)
	g.clock.Advance(d)
	g.stats.Busy += d
}

func (g *GPU) tickPowerTransition(r Reg) uint32 {
	var trans *uint32
	var ready *uint32
	switch r {
	case SHADER_PWRTRANS_LO:
		trans, ready = &g.shaderTrans, &g.shaderReady
	case TILER_PWRTRANS_LO:
		trans, ready = &g.tilerTrans, &g.tilerReady
	case L2_PWRTRANS_LO:
		trans, ready = &g.l2Trans, &g.l2Ready
	}
	if *trans == 0 {
		return 0
	}
	if g.transPolls > 0 {
		g.transPolls--
		return *trans
	}
	// Transition completes: the transitioning bits flip in READY.
	*ready ^= *trans
	*trans = 0
	g.gpuIRQRaw |= GPUIRQPowerChanged | GPUIRQPowerChangedAll
	g.opDone()
	return 0
}

func (g *GPU) tickReset() {
	if g.resetPolls > 0 {
		g.resetPolls--
		if g.resetPolls == 0 {
			g.gpuIRQRaw |= GPUIRQResetCompleted
			g.opDone()
		}
	}
}

func (g *GPU) tickCacheClean() {
	if g.cachePolls > 0 {
		g.cachePolls--
		if g.cachePolls == 0 {
			g.gpuIRQRaw |= GPUIRQCleanCachesCompleted
			g.latestFlushID += 1 + g.xorshift()%3
			g.opDone()
		}
	}
}

// WriteReg writes an MMIO register with full side effects: commands start
// state machines, job-slot start commands execute job chains.
func (g *GPU) WriteReg(r Reg, v uint32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.checkDead()
	switch r {
	case GPU_IRQ_CLEAR:
		g.gpuIRQRaw &^= v
		return
	case GPU_IRQ_MASK:
		g.gpuIRQMask = v
		return
	case GPU_COMMAND:
		g.gpuCommand(v)
		return
	case JOB_IRQ_CLEAR:
		g.jobIRQRaw &^= v
		return
	case JOB_IRQ_MASK:
		g.jobIRQMask = v
		return
	case MMU_IRQ_CLEAR:
		g.mmuIRQRaw &^= v
		return
	case MMU_IRQ_MASK:
		g.mmuIRQMask = v
		return
	case SHADER_PWRON_LO:
		g.startPowerTransition(&g.shaderTrans, g.shaderReady, v&g.sku.CoreMask(), true)
		return
	case TILER_PWRON_LO:
		g.startPowerTransition(&g.tilerTrans, g.tilerReady, v&0x1, true)
		return
	case L2_PWRON_LO:
		g.startPowerTransition(&g.l2Trans, g.l2Ready, v&0x1, true)
		return
	case SHADER_PWROFF_LO:
		g.startPowerTransition(&g.shaderTrans, g.shaderReady, v&g.sku.CoreMask(), false)
		return
	case TILER_PWROFF_LO:
		g.startPowerTransition(&g.tilerTrans, g.tilerReady, v&0x1, false)
		return
	case L2_PWROFF_LO:
		g.startPowerTransition(&g.l2Trans, g.l2Ready, v&0x1, false)
		return
	case SHADER_CONFIG:
		g.shaderConfig = v
		return
	case TILER_CONFIG:
		g.tilerConfig = v
		return
	case L2_MMU_CONFIG:
		g.l2MMUConfig = v
		return
	case PWR_KEY, PWR_OVERRIDE0, PWR_OVERRIDE1, COHERENCY_ENABLE, JOB_IRQ_THROTTLE:
		return // accepted, no modeled effect
	}
	if slot, off, ok := g.slotOf(r); ok {
		g.writeJS(slot, off, v)
		return
	}
	if as, off, ok := g.asOf(r); ok {
		g.writeAS(as, off, v)
		return
	}
}

func (g *GPU) gpuCommand(v uint32) {
	switch v {
	case GPUCommandSoftReset, GPUCommandHardReset:
		g.reset()
		g.resetPolls = pollLatency
	case GPUCommandCleanCaches, GPUCommandCleanInvCaches:
		g.cachePolls = pollLatency
	}
}

func (g *GPU) startPowerTransition(trans *uint32, ready uint32, mask uint32, on bool) {
	var change uint32
	if on {
		change = mask &^ ready // bits not yet ready
	} else {
		change = mask & ready // bits currently ready
	}
	if change == 0 {
		// Already in the requested state; hardware still reports the
		// power-changed interrupt.
		g.gpuIRQRaw |= GPUIRQPowerChanged
		return
	}
	*trans |= change
	g.transPolls = pollLatency
}

func (g *GPU) writeJS(slot int, off Reg, v uint32) {
	s := &g.slots[slot]
	switch off {
	case JS_HEAD_NEXT_LO:
		s.headNext = s.headNext&^uint64(0xFFFFFFFF) | uint64(v)
	case JS_HEAD_NEXT_HI:
		s.headNext = s.headNext&uint64(0xFFFFFFFF) | uint64(v)<<32
	case JS_CONFIG_NEXT:
		s.configNext = v
	case JS_FLUSH_ID_NEXT:
		s.flushNext = v
	case JS_COMMAND_NEXT:
		if v == JSCommandStart {
			s.head, s.config = s.headNext, s.configNext
			s.headNext, s.configNext = 0, 0
			g.runJobChain(slot)
		}
	case JS_COMMAND:
		if v == JSCommandSoftStop || v == JSCommandHardStop {
			s.status = JSStatusIdle
		}
	}
}

func (g *GPU) writeAS(as int, off Reg, v uint32) {
	a := &g.spaces[as]
	switch off {
	case AS_TRANSTAB_LO:
		a.transtab = a.transtab&^uint64(0xFFFFFFFF) | uint64(v)
	case AS_TRANSTAB_HI:
		a.transtab = a.transtab&uint64(0xFFFFFFFF) | uint64(v)<<32
	case AS_MEMATTR_LO:
		a.memattr = a.memattr&^uint64(0xFFFFFFFF) | uint64(v)
	case AS_MEMATTR_HI:
		a.memattr = a.memattr&uint64(0xFFFFFFFF) | uint64(v)<<32
	case AS_LOCKADDR_LO:
		a.lockaddr = a.lockaddr&^uint64(0xFFFFFFFF) | uint64(v)
	case AS_LOCKADDR_HI:
		a.lockaddr = a.lockaddr&uint64(0xFFFFFFFF) | uint64(v)<<32
	case AS_COMMAND:
		switch v {
		case ASCommandUpdate, ASCommandLock, ASCommandUnlock, ASCommandFlushPT, ASCommandFlushMem:
			a.activePolls = pollLatency
			if v == ASCommandFlushMem {
				g.latestFlushID += 1 + g.xorshift()%3
			}
		}
	case AS_FAULTSTATUS:
		a.faultStatus = 0
	}
}

// mem returns the interpreter memory view for an address space.
func (g *GPU) mem(as int) isa.Mem {
	return isa.Mem{
		Pool: g.pool,
		Walker: gpumem.Walker{
			Pool:   g.pool,
			Format: g.sku.PTFormat,
			Root:   gpumem.PA(g.spaces[as].transtab),
		},
	}
}

// runJobChain executes the descriptor chain at the slot's head. Execution is
// synchronous in virtual time: the clock advances by the chain's modeled
// duration and the completion (or failure) interrupt is raised before the
// write returns — faithful to the serialized, queue-length-1 discipline GR-T
// imposes (§5).
func (g *GPU) runJobChain(slot int) {
	s := &g.slots[slot]
	as := int(s.config & JSConfigASMask)
	if as >= len(g.spaces) {
		g.failJob(slot, JSStatusJobConfigFault)
		return
	}
	s.status = JSStatusActive
	mem := g.mem(as)
	var totalFLOPs int64
	duration := time.Duration(0)
	va := gpumem.VA(s.head)
	for hops := 0; va != 0; hops++ {
		if hops > 4096 {
			g.failJob(slot, JSStatusJobConfigFault)
			return
		}
		desc, err := mem.ReadBytes(va, JobDescSize, gpumem.PTERead)
		if err != nil {
			g.failJobFault(slot, as, err)
			return
		}
		magic := le32(desc[0:])
		if magic != JobDescMagic {
			g.failJob(slot, JSStatusJobReadFault)
			return
		}
		shaderVA := gpumem.VA(le64(desc[8:]))
		nextVA := gpumem.VA(le64(desc[16:]))
		res, err := isa.Execute(mem, shaderVA, g.sku.ProductID)
		if err != nil {
			g.failJobFault(slot, as, err)
			return
		}
		totalFLOPs += res.FLOPs
		g.stats.Instructions += int64(res.Instructions)
		g.stats.FastPathed += int64(res.FastPathed)
		duration += perJobOverhead + time.Duration(float64(res.FLOPs)/(g.sku.GFLOPS*1e9)*float64(time.Second))
		va = nextVA
	}
	// Health plan: an ECC/fall-off fault due now kills the chain (and the
	// device) here; a thermal window stretches the chain's latency.
	duration = g.healthTick(duration)
	g.clock.Advance(duration)
	g.stats.Busy += duration
	g.stats.JobsExecuted++
	g.stats.FLOPs += totalFLOPs
	s.status = JSStatusDone
	s.head = 0
	g.jobIRQRaw |= 1 << uint(slot)
}

func (g *GPU) failJob(slot int, status uint32) {
	s := &g.slots[slot]
	s.status = status
	s.head = 0
	g.stats.Faults++
	g.jobIRQRaw |= 1 << uint(16+slot) // failure bits live in the high half
}

func (g *GPU) failJobFault(slot, as int, err error) {
	if f, ok := err.(*isa.Fault); ok {
		a := &g.spaces[as]
		a.faultStatus = JSStatusTranslationFault
		a.faultAddr = uint64(f.VA)
		g.mmuIRQRaw |= 1 << uint(as)
	}
	g.failJob(slot, JSStatusTranslationFault)
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64(b []byte) uint64 {
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32
}

// EncodeJobDesc writes a job descriptor into buf (JobDescSize bytes).
func EncodeJobDesc(buf []byte, shaderVA, nextVA gpumem.VA) {
	if len(buf) < JobDescSize {
		panic(fmt.Sprintf("mali: job descriptor buffer too small: %d", len(buf)))
	}
	for i := 0; i < JobDescSize; i++ {
		buf[i] = 0
	}
	putLE32(buf[0:], JobDescMagic)
	putLE64(buf[8:], uint64(shaderVA))
	putLE64(buf[16:], uint64(nextVA))
}

func putLE32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putLE64(b []byte, v uint64) {
	putLE32(b, uint32(v))
	putLE32(b[4:], uint32(v>>32))
}
