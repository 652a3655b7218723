package mali

import (
	"fmt"
	"math"
	"testing"
	"time"

	"gpurelay/internal/gpumem"
	"gpurelay/internal/mali/isa"
	"gpurelay/internal/timesim"
)

func newTestGPU(t *testing.T) (*GPU, *gpumem.Pool, *timesim.Clock) {
	t.Helper()
	clock := timesim.NewClock()
	pool := gpumem.NewPool(64 << 20)
	return New(G71MP8, pool, clock, 12345), pool, clock
}

func TestDiscoveryRegisters(t *testing.T) {
	g, _, _ := newTestGPU(t)
	if got := g.ReadReg(GPU_ID); got != G71MP8.ProductID {
		t.Fatalf("GPU_ID = %#x, want %#x", got, G71MP8.ProductID)
	}
	if got := g.ReadReg(SHADER_PRESENT_LO); got != 0xFF {
		t.Fatalf("SHADER_PRESENT = %#x, want 0xFF for MP8", got)
	}
	if got := g.ReadReg(THREAD_MAX_THREADS); got != 2048 {
		t.Fatalf("THREAD_MAX_THREADS = %d", got)
	}
	if got := g.ReadReg(AS_PRESENT); got != 0xFF {
		t.Fatalf("AS_PRESENT = %#x", got)
	}
}

func TestSKUsDifferInDiscovery(t *testing.T) {
	clock := timesim.NewClock()
	pool := gpumem.NewPool(1 << 20)
	a := New(G71MP8, pool, clock, 1)
	b := New(G52MP2, pool, clock, 1)
	if a.ReadReg(GPU_ID) == b.ReadReg(GPU_ID) {
		t.Fatal("different SKUs share GPU_ID")
	}
	if a.ReadReg(SHADER_PRESENT_LO) == b.ReadReg(SHADER_PRESENT_LO) {
		t.Fatal("different core counts share SHADER_PRESENT")
	}
}

func TestSoftResetSequence(t *testing.T) {
	g, _, _ := newTestGPU(t)
	g.WriteReg(GPU_COMMAND, GPUCommandSoftReset)
	// Completion takes a few polls of the raw status, like hardware.
	polls := 0
	for g.ReadReg(GPU_IRQ_RAWSTAT)&GPUIRQResetCompleted == 0 {
		polls++
		if polls > 10 {
			t.Fatal("reset never completed")
		}
	}
	if polls == 0 {
		t.Fatal("reset completed instantly; polling loops would vanish")
	}
	g.WriteReg(GPU_IRQ_CLEAR, GPUIRQResetCompleted)
	if g.ReadReg(GPU_IRQ_RAWSTAT)&GPUIRQResetCompleted != 0 {
		t.Fatal("IRQ clear did not clear reset bit")
	}
	if g.Stats().Resets != 1 {
		t.Fatalf("Resets = %d", g.Stats().Resets)
	}
}

func TestPowerStateMachine(t *testing.T) {
	g, _, _ := newTestGPU(t)
	if g.ReadReg(SHADER_READY_LO) != 0 {
		t.Fatal("shaders ready before power-on")
	}
	g.WriteReg(SHADER_PWRON_LO, 0xFF)
	polls := 0
	for g.ReadReg(SHADER_PWRTRANS_LO) != 0 {
		polls++
		if polls > 10 {
			t.Fatal("power transition stuck")
		}
	}
	if polls == 0 {
		t.Fatal("power transition completed without polling")
	}
	if got := g.ReadReg(SHADER_READY_LO); got != 0xFF {
		t.Fatalf("SHADER_READY = %#x after power-on", got)
	}
	if g.ReadReg(GPU_IRQ_RAWSTAT)&GPUIRQPowerChangedAll == 0 {
		t.Fatal("no POWER_CHANGED_ALL interrupt")
	}
	// Power off again.
	g.WriteReg(GPU_IRQ_CLEAR, 0xFFFFFFFF)
	g.WriteReg(SHADER_PWROFF_LO, 0xFF)
	for g.ReadReg(SHADER_PWRTRANS_LO) != 0 {
	}
	if got := g.ReadReg(SHADER_READY_LO); got != 0 {
		t.Fatalf("SHADER_READY = %#x after power-off", got)
	}
}

func TestPowerOnAlreadyOn(t *testing.T) {
	g, _, _ := newTestGPU(t)
	g.WriteReg(SHADER_PWRON_LO, 0xFF)
	for g.ReadReg(SHADER_PWRTRANS_LO) != 0 {
	}
	g.WriteReg(GPU_IRQ_CLEAR, 0xFFFFFFFF)
	g.WriteReg(SHADER_PWRON_LO, 0xFF) // no-op power request
	if g.ReadReg(SHADER_PWRTRANS_LO) != 0 {
		t.Fatal("no-op power request started a transition")
	}
	if g.ReadReg(GPU_IRQ_RAWSTAT)&GPUIRQPowerChanged == 0 {
		t.Fatal("no-op power request must still raise POWER_CHANGED")
	}
}

func TestASCommandPolling(t *testing.T) {
	g, _, _ := newTestGPU(t)
	g.WriteReg(ASReg(0, AS_COMMAND), ASCommandFlushMem)
	polls := 0
	for g.ReadReg(ASReg(0, AS_STATUS))&ASStatusActive != 0 {
		polls++
		if polls > 10 {
			t.Fatal("AS command stuck active")
		}
	}
	if polls == 0 {
		t.Fatal("AS command completed without polling")
	}
}

func TestLatestFlushIDNondeterministic(t *testing.T) {
	g, _, _ := newTestGPU(t)
	seen := map[uint32]bool{}
	for i := 0; i < 5; i++ {
		g.WriteReg(ASReg(0, AS_COMMAND), ASCommandFlushMem)
		for g.ReadReg(ASReg(0, AS_STATUS))&ASStatusActive != 0 {
		}
		id := g.ReadReg(LATEST_FLUSH_ID)
		if seen[id] {
			t.Fatalf("LATEST_FLUSH_ID repeated value %d", id)
		}
		seen[id] = true
	}
}

func TestFlushSeedChangesIDs(t *testing.T) {
	run := func(seed uint64) []uint32 {
		clock := timesim.NewClock()
		pool := gpumem.NewPool(1 << 20)
		g := New(G71MP8, pool, clock, seed)
		var ids []uint32
		for i := 0; i < 4; i++ {
			g.WriteReg(GPU_COMMAND, GPUCommandCleanCaches)
			for g.ReadReg(GPU_IRQ_RAWSTAT)&GPUIRQCleanCachesCompleted == 0 {
			}
			g.WriteReg(GPU_IRQ_CLEAR, GPUIRQCleanCachesCompleted)
			ids = append(ids, g.ReadReg(LATEST_FLUSH_ID))
		}
		return ids
	}
	a, b := run(1), run(99)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical flush ID sequences")
	}
}

// buildJob sets up page tables, a shader, buffers and a job descriptor, and
// returns the descriptor VA. It mimics what the GPU runtime does.
func buildJob(t *testing.T, g *GPU, pool *gpumem.Pool) (descVA gpumem.VA, outVA gpumem.VA, pt *gpumem.PageTable) {
	t.Helper()
	pt, err := gpumem.NewPageTable(pool, g.SKU().PTFormat)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(size uint64, flags gpumem.PTEFlag, va gpumem.VA) gpumem.PA {
		pa, err := pool.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.MapRange(va, pa, (size+gpumem.PageSize-1)&^uint64(gpumem.PageSize-1), flags); err != nil {
			t.Fatal(err)
		}
		return pa
	}
	const (
		inVA     = gpumem.VA(0x1000000)
		shaderVA = gpumem.VA(0x2000000)
		descV    = gpumem.VA(0x3000000)
		outV     = gpumem.VA(0x4000000)
	)
	inPA := alloc(gpumem.PageSize, gpumem.PTERead, inVA)
	shaderPA := alloc(gpumem.PageSize, gpumem.PTERead|gpumem.PTEExec, shaderVA)
	descPA := alloc(gpumem.PageSize, gpumem.PTERead|gpumem.PTEExec, descV)
	alloc(gpumem.PageSize, gpumem.PTERead|gpumem.PTEWrite, outV)

	for i, v := range []float32{1, -2, 3, -4} {
		pool.Write32(inPA+gpumem.PA(4*i), math.Float32bits(v))
	}
	// Shader: copy 4 floats in, scale by 2.
	buf := make([]byte, isa.HeaderSize+isa.InstrSize)
	isa.EncodeHeader(isa.Header{ProductID: g.SKU().ProductID, NumInstr: 1}, buf)
	(&isa.Instr{
		Op: isa.OpScale, Src0: inVA, Dst: outV,
		P: [10]uint32{4, math.Float32bits(2.0)},
	}).Encode(buf[isa.HeaderSize:])
	pool.Write(shaderPA, buf)

	desc := make([]byte, JobDescSize)
	EncodeJobDesc(desc, shaderVA, 0)
	pool.Write(descPA, desc)
	return descV, outV, pt
}

func submit(g *GPU, pt *gpumem.PageTable, descVA gpumem.VA, slot int) {
	g.WriteReg(ASReg(0, AS_TRANSTAB_LO), uint32(pt.Root()))
	g.WriteReg(ASReg(0, AS_TRANSTAB_HI), uint32(uint64(pt.Root())>>32))
	g.WriteReg(ASReg(0, AS_COMMAND), ASCommandUpdate)
	for g.ReadReg(ASReg(0, AS_STATUS))&ASStatusActive != 0 {
	}
	g.WriteReg(JSReg(slot, JS_HEAD_NEXT_LO), uint32(descVA))
	g.WriteReg(JSReg(slot, JS_HEAD_NEXT_HI), uint32(uint64(descVA)>>32))
	g.WriteReg(JSReg(slot, JS_CONFIG_NEXT), 0) // AS 0
	g.WriteReg(JSReg(slot, JS_COMMAND_NEXT), JSCommandStart)
}

func TestJobExecution(t *testing.T) {
	g, pool, clock := newTestGPU(t)
	descVA, outVA, pt := buildJob(t, g, pool)
	g.WriteReg(JOB_IRQ_MASK, 0xFFFFFFFF)

	before := clock.Now()
	submit(g, pt, descVA, 1)

	job, _, _ := g.PendingIRQ()
	if job&(1<<1) == 0 {
		t.Fatalf("no completion IRQ for slot 1: %#x", job)
	}
	if g.ReadReg(JSReg(1, JS_STATUS)) != JSStatusDone {
		t.Fatalf("JS_STATUS = %#x", g.ReadReg(JSReg(1, JS_STATUS)))
	}
	if clock.Now() == before {
		t.Fatal("job execution took no virtual time")
	}
	// Verify the compute effect: out = 2*in.
	w := gpumem.Walker{Pool: pool, Format: g.SKU().PTFormat, Root: pt.Root()}
	pa, _, ok := w.Translate(outVA)
	if !ok {
		t.Fatal("out VA unmapped")
	}
	want := []float32{2, -4, 6, -8}
	for i := range want {
		if got := math.Float32frombits(pool.Read32(pa + gpumem.PA(4*i))); got != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, got, want[i])
		}
	}
	st := g.Stats()
	if st.JobsExecuted != 1 || st.Faults != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Acknowledge.
	g.WriteReg(JOB_IRQ_CLEAR, job)
	if j, _, _ := g.PendingIRQ(); j != 0 {
		t.Fatalf("IRQ still pending after clear: %#x", j)
	}
}

func TestJobChainExecutesAllLinks(t *testing.T) {
	g, pool, _ := newTestGPU(t)
	descVA, _, pt := buildJob(t, g, pool)
	// Build a second descriptor chained after the first.
	pa2, err := pool.Alloc(gpumem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	const desc2VA = gpumem.VA(0x5000000)
	if err := pt.MapRange(desc2VA, pa2, gpumem.PageSize, gpumem.PTERead|gpumem.PTEExec); err != nil {
		t.Fatal(err)
	}
	// Rewrite first descriptor to chain to the second; the second reuses
	// the same shader (read it back from the first).
	w := gpumem.Walker{Pool: pool, Format: g.SKU().PTFormat, Root: pt.Root()}
	descPA, _, _ := w.Translate(descVA)
	raw := make([]byte, JobDescSize)
	pool.Read(descPA, raw)
	shaderVA := gpumem.VA(le64(raw[8:]))
	EncodeJobDesc(raw, shaderVA, desc2VA)
	pool.Write(descPA, raw)
	d2 := make([]byte, JobDescSize)
	EncodeJobDesc(d2, shaderVA, 0)
	pool.Write(pa2, d2)

	submit(g, pt, descVA, 0)
	if st := g.Stats(); st.JobsExecuted != 1 {
		t.Fatalf("JobsExecuted = %d, want 1 chain", st.JobsExecuted)
	}
	if st := g.Stats(); st.Instructions != 2 {
		t.Fatalf("Instructions = %d, want 2 (two chain links)", st.Instructions)
	}
}

func TestJobBadDescriptorFaults(t *testing.T) {
	g, pool, _ := newTestGPU(t)
	pt, err := gpumem.NewPageTable(pool, g.SKU().PTFormat)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := pool.Alloc(gpumem.PageSize)
	const descVA = gpumem.VA(0x1000)
	if err := pt.MapRange(descVA, pa, gpumem.PageSize, gpumem.PTERead); err != nil {
		t.Fatal(err)
	}
	pool.Write32(pa, 0xBADC0DE) // wrong magic
	g.WriteReg(JOB_IRQ_MASK, 0xFFFFFFFF)
	submit(g, pt, descVA, 0)
	job, _, _ := g.PendingIRQ()
	if job&(1<<16) == 0 {
		t.Fatalf("no failure IRQ: %#x", job)
	}
	if g.Stats().Faults != 1 {
		t.Fatalf("Faults = %d", g.Stats().Faults)
	}
}

func TestJobUnmappedDescriptorRaisesMMUFault(t *testing.T) {
	g, _, _ := newTestGPU(t)
	pt, err := gpumem.NewPageTable(g.Pool(), g.SKU().PTFormat)
	if err != nil {
		t.Fatal(err)
	}
	g.WriteReg(JOB_IRQ_MASK, 0xFFFFFFFF)
	g.WriteReg(MMU_IRQ_MASK, 0xFFFFFFFF)
	submit(g, pt, 0x600000, 0) // never mapped
	_, _, mmu := g.PendingIRQ()
	if mmu == 0 {
		t.Fatal("no MMU fault IRQ for unmapped descriptor")
	}
	if g.ReadReg(ASReg(0, AS_FAULTADDRESS_LO)) == 0 {
		t.Fatal("AS_FAULTADDRESS not latched")
	}
}

func TestCrossSKUShaderFaults(t *testing.T) {
	// A job recorded/compiled for G71 must fault when the descriptor is
	// executed by a G52 — the core reason recordings are SKU-bound.
	clock := timesim.NewClock()
	pool := gpumem.NewPool(64 << 20)
	g71 := New(G71MP8, pool, clock, 7)
	descVA, _, pt := buildJob(t, g71, pool)

	g52 := New(G52MP2, gpumem.NewPool(64<<20), clock, 7)
	// Physically copy the whole memory image across (as a naive cross-SKU
	// replay would).
	img := make([]byte, 64<<20)
	pool.Read(0, img)
	g52.Pool().Write(0, img)
	// G52 also walks a different PT format, but even with the right
	// format the shader product check fires. Use the recorded transtab.
	g52.WriteReg(JOB_IRQ_MASK, 0xFFFFFFFF)
	g52.WriteReg(ASReg(0, AS_TRANSTAB_LO), uint32(pt.Root()))
	g52.WriteReg(ASReg(0, AS_COMMAND), ASCommandUpdate)
	for g52.ReadReg(ASReg(0, AS_STATUS))&ASStatusActive != 0 {
	}
	g52.WriteReg(JSReg(0, JS_HEAD_NEXT_LO), uint32(descVA))
	g52.WriteReg(JSReg(0, JS_CONFIG_NEXT), 0)
	g52.WriteReg(JSReg(0, JS_COMMAND_NEXT), JSCommandStart)
	if g52.Stats().Faults == 0 {
		t.Fatal("cross-SKU replay executed cleanly; SKU binding lost")
	}
}

func TestHardResetScrubsState(t *testing.T) {
	g, pool, _ := newTestGPU(t)
	descVA, _, pt := buildJob(t, g, pool)
	g.WriteReg(JOB_IRQ_MASK, 0xFFFFFFFF)
	submit(g, pt, descVA, 0)
	g.HardReset()
	if j, gp, m := g.PendingIRQ(); j != 0 || gp != 0 || m != 0 {
		t.Fatal("IRQs survive hard reset")
	}
	if g.ReadReg(SHADER_READY_LO) != 0 {
		t.Fatal("power state survives hard reset")
	}
	if g.ReadReg(JSReg(0, JS_STATUS)) != JSStatusIdle {
		t.Fatal("job slot state survives hard reset")
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	g, pool, _ := newTestGPU(t)
	descVA, _, pt := buildJob(t, g, pool)
	submit(g, pt, descVA, 0)
	if g.Stats().Busy < 20*time.Microsecond {
		t.Fatalf("Busy = %v, want at least the per-job overhead", g.Stats().Busy)
	}
}

func TestRegNameCoverage(t *testing.T) {
	for _, r := range []Reg{GPU_ID, GPU_COMMAND, LATEST_FLUSH_ID, JOB_IRQ_STATUS,
		MMU_IRQ_MASK, JSReg(1, JS_COMMAND_NEXT), ASReg(3, AS_STATUS), Reg(0xFFF0)} {
		if RegName(r) == "" {
			t.Fatalf("empty name for %#x", uint32(r))
		}
	}
	if RegName(JSReg(2, JS_STATUS)) != "JS2+0x24" {
		t.Fatalf("JS naming: %q", RegName(JSReg(2, JS_STATUS)))
	}
	if RegName(ASReg(0, AS_COMMAND)) != "AS0+0x18" {
		t.Fatalf("AS naming: %q", RegName(ASReg(0, AS_COMMAND)))
	}
	// Names must not change: every offset of the three register blocks is
	// named as the function that built its table on every call named it.
	for r := Reg(0); r < 0x3000; r++ {
		if got, want := RegName(r), refRegName(r); got != want {
			t.Fatalf("RegName(%#x) = %q, want %q", uint32(r), got, want)
		}
	}
	// The DriverShim names every register it reads: a named one must cost
	// no allocation.
	for r := range regNames {
		if n := testing.AllocsPerRun(100, func() { _ = RegName(r) }); n != 0 {
			t.Fatalf("RegName(%s) allocates %v times", RegName(r), n)
		}
	}
}

// refRegName is RegName as it was when it built its table on every call,
// kept as the reference for the names.
func refRegName(r Reg) string {
	names := map[Reg]string{
		GPU_ID: "GPU_ID", L2_FEATURES: "L2_FEATURES", TILER_FEATURES: "TILER_FEATURES",
		MEM_FEATURES: "MEM_FEATURES", MMU_FEATURES: "MMU_FEATURES", AS_PRESENT: "AS_PRESENT",
		JS_PRESENT: "JS_PRESENT", GPU_IRQ_RAWSTAT: "GPU_IRQ_RAWSTAT", GPU_IRQ_CLEAR: "GPU_IRQ_CLEAR",
		GPU_IRQ_MASK: "GPU_IRQ_MASK", GPU_IRQ_STATUS: "GPU_IRQ_STATUS", GPU_COMMAND: "GPU_COMMAND",
		GPU_STATUS: "GPU_STATUS", LATEST_FLUSH_ID: "LATEST_FLUSH_ID",
		SHADER_PRESENT_LO: "SHADER_PRESENT_LO", SHADER_READY_LO: "SHADER_READY_LO",
		SHADER_PWRON_LO: "SHADER_PWRON_LO", SHADER_PWROFF_LO: "SHADER_PWROFF_LO",
		SHADER_CONFIG: "SHADER_CONFIG", TILER_CONFIG: "TILER_CONFIG", L2_MMU_CONFIG: "L2_MMU_CONFIG",
		JOB_IRQ_RAWSTAT: "JOB_IRQ_RAWSTAT", JOB_IRQ_CLEAR: "JOB_IRQ_CLEAR",
		JOB_IRQ_MASK: "JOB_IRQ_MASK", JOB_IRQ_STATUS: "JOB_IRQ_STATUS",
		MMU_IRQ_RAWSTAT: "MMU_IRQ_RAWSTAT", MMU_IRQ_CLEAR: "MMU_IRQ_CLEAR",
		MMU_IRQ_MASK: "MMU_IRQ_MASK", MMU_IRQ_STATUS: "MMU_IRQ_STATUS",
	}
	if n, ok := names[r]; ok {
		return n
	}
	if r >= jobSlotBase && r < jobSlotBase+8*jobSlotStride {
		return fmt.Sprintf("JS%d+0x%02x", (r-jobSlotBase)/jobSlotStride, uint32((r-jobSlotBase)%jobSlotStride))
	}
	if r >= asBase && r < asBase+16*asStride {
		return fmt.Sprintf("AS%d+0x%02x", (r-asBase)/asStride, uint32((r-asBase)%asStride))
	}
	return fmt.Sprintf("REG_0x%04x", uint32(r))
}

func TestJobIRQJSState(t *testing.T) {
	g, pool, _ := newTestGPU(t)
	descVA, _, pt := buildJob(t, g, pool)
	if g.ReadReg(JOB_IRQ_JS_STATE) != 0 {
		t.Fatal("JS_STATE nonzero while idle")
	}
	submit(g, pt, descVA, 2)
	// Jobs complete synchronously in virtual time; the slot is done, not
	// active.
	if g.ReadReg(JSReg(2, JS_STATUS)) != JSStatusDone {
		t.Fatal("slot 2 not done")
	}
}

func TestAllCatalogSKUsExecuteJobs(t *testing.T) {
	for name, sku := range Catalog {
		sku := sku
		t.Run(name, func(t *testing.T) {
			clock := timesim.NewClock()
			pool := gpumem.NewPool(64 << 20)
			g := New(sku, pool, clock, 3)
			descVA, _, pt := buildJob(t, g, pool)
			g.WriteReg(JOB_IRQ_MASK, 0xFFFFFFFF)
			submit(g, pt, descVA, 0)
			if st := g.Stats(); st.JobsExecuted != 1 || st.Faults != 0 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

func TestFlushIDNextWriteAccepted(t *testing.T) {
	g, _, _ := newTestGPU(t)
	g.WriteReg(JSReg(0, JS_FLUSH_ID_NEXT), 42) // accepted, no modeled effect
	g.WriteReg(PWR_KEY, 0x2968A819)            // power-key sequence: no-op
	g.WriteReg(COHERENCY_ENABLE, 1)
}
