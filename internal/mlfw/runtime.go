package mlfw

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"gpurelay/internal/gpumem"
	"gpurelay/internal/kbase"
	"gpurelay/internal/mali"
	"gpurelay/internal/mali/isa"
	"gpurelay/internal/timesim"
)

// Options tunes the runtime's execution model.
type Options struct {
	// Pipelined overlaps job N+1's preparation with job N's GPU
	// execution, as a real multi-buffered runtime does. GR-T recording
	// disables this: the dry run is serialized (§5).
	Pipelined bool
}

// DefaultOptions match the calibration discussed in EXPERIMENTS.md.
func DefaultOptions() Options { return Options{Pipelined: true} }

const (
	// stackOverheadPerJob is the CPU cost of the GPU stack preparing one
	// job (API calls, command emission, driver entry). Table 2's
	// native-vs-replay contrast comes from replay eliminating this.
	stackOverheadPerJob = 450 * time.Microsecond
	// computeSlot is the job slot compute jobs run on (Mali convention:
	// JS1).
	computeSlot = 1
)

// Command-stream sizing: each job's packet carries a fixed control header
// plus per-tile dispatch descriptors and a uniform arena, so large layers
// emit proportionally more command metastate — the scaling behind Table 1's
// per-model MemSync spread.
const (
	cmdPacketBase    = 8192
	cmdBytesPerInstr = 1536
)

// Runtime binds a Model to a device: it allocates GPU memory through the
// driver, JIT-compiles the kernels for the probed SKU, emits job descriptors
// and command packets, and runs inference one job at a time.
type Runtime struct {
	dev   *kbase.Device
	ctx   *kbase.Context
	clock timesim.Time
	model *Model
	opts  Options

	compiled *CompiledModel
	regions  []*gpumem.Region // indexed by BufRef
	shader   *gpumem.Region
	descs    *gpumem.Region
	cmds     *gpumem.Region
	descVAs  []gpumem.VA
	cmdOff   []uint64 // per-kernel offset into the command region
	cmdLen   []uint64

	lastJobElapsed time.Duration
}

// NewRuntime prepares a model for execution on dev. This is the expensive
// "first run" path a real runtime performs: buffer allocation (with its MMU
// traffic), JIT compilation, and descriptor emission.
func NewRuntime(dev *kbase.Device, clock timesim.Time, model *Model, opts Options) (*Runtime, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	ctx, err := dev.CreateContext()
	if err != nil {
		return nil, err
	}
	rt := &Runtime{dev: dev, ctx: ctx, clock: clock, model: model, opts: opts}

	rt.regions = make([]*gpumem.Region, len(model.Buffers))
	for i := range model.Buffers {
		b := &model.Buffers[i]
		r, err := ctx.Alloc(model.Name+"/"+b.Name, b.Kind, b.Bytes())
		if err != nil {
			return nil, fmt.Errorf("mlfw: allocating %s: %w", b.Name, err)
		}
		rt.regions[i] = r
	}

	// Late binding: compile for the probed SKU, with the buffer VAs the
	// driver just mapped. The JIT queries device properties once per
	// kernel (clGetDeviceInfo-style), re-reading the GPU's discovery
	// registers each time.
	for range model.Kernels {
		dev.QueryProps()
	}
	target := Target{ProductID: dev.ProductID(), Cores: dev.Cores()}
	rt.compiled, err = Compile(model, target, func(ref BufRef) gpumem.VA {
		return rt.regions[ref].VA
	})
	if err != nil {
		return nil, err
	}

	rt.shader, err = ctx.Alloc(model.Name+"/shaders", gpumem.KindShader, rt.compiled.TotalBytes())
	if err != nil {
		return nil, err
	}
	rt.descs, err = ctx.Alloc(model.Name+"/jobdescs", gpumem.KindJobDesc, uint64(len(model.Kernels))*mali.JobDescSize)
	if err != nil {
		return nil, err
	}
	rt.cmdOff = make([]uint64, len(model.Kernels))
	rt.cmdLen = make([]uint64, len(model.Kernels))
	var cmdTotal uint64
	for i, stream := range rt.compiled.Streams {
		instrs := (uint64(len(stream)) - isa.HeaderSize) / isa.InstrSize
		rt.cmdOff[i] = cmdTotal
		rt.cmdLen[i] = cmdPacketBase + instrs*cmdBytesPerInstr
		cmdTotal += rt.cmdLen[i]
	}
	rt.cmds, err = ctx.Alloc(model.Name+"/cmdstream", gpumem.KindCommands, cmdTotal)
	if err != nil {
		return nil, err
	}

	pool := dev.Pool()
	rt.descVAs = make([]gpumem.VA, len(model.Kernels))
	off := uint64(0)
	for i, stream := range rt.compiled.Streams {
		pool.Write(rt.shader.PA+gpumem.PA(off), stream)
		shaderVA := rt.shader.VA + gpumem.VA(off)
		desc := make([]byte, mali.JobDescSize)
		mali.EncodeJobDesc(desc, shaderVA, 0)
		descPA := rt.descs.PA + gpumem.PA(i*mali.JobDescSize)
		pool.Write(descPA, desc)
		rt.descVAs[i] = rt.descs.VA + gpumem.VA(i*mali.JobDescSize)
		off += uint64(len(stream))
	}
	return rt, nil
}

// Model returns the runtime's model.
func (rt *Runtime) Model() *Model { return rt.model }

// Context exposes the driver context (the recorder snapshots its regions).
func (rt *Runtime) Context() *kbase.Context { return rt.ctx }

// Region returns the mapped region of a model buffer.
func (rt *Runtime) Region(ref BufRef) *gpumem.Region { return rt.regions[ref] }

// SetInput writes the inference input into GPU memory (CPU-side write, as
// the app does through the mapped buffer).
func (rt *Runtime) SetInput(data []float32) error {
	in := rt.model.Buffers[rt.model.Input]
	if uint64(len(data)) != in.Elems {
		return fmt.Errorf("mlfw: input has %d elems, model wants %d", len(data), in.Elems)
	}
	writeF32(rt.dev.Pool(), rt.regions[rt.model.Input].PA, data)
	return nil
}

// Output reads the inference result from GPU memory.
func (rt *Runtime) Output() []float32 {
	out := rt.model.Buffers[rt.model.Output]
	return readF32(rt.dev.Pool(), rt.regions[rt.model.Output].PA, int(out.Elems))
}

// InitWeights fills every weight buffer with small deterministic
// pseudo-random values. Only used by correctness tests and replay-with-real-
// parameters paths: dry-run recording leaves weights zero (§5), which keeps
// huge models unmaterialized.
func (rt *Runtime) InitWeights(seed uint64) {
	pool := rt.dev.Pool()
	state := seed*2654435761 + 1
	next := func() float32 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return (float32(state%2048)/1024 - 1) / 8 // [-0.125, 0.125)
	}
	for i := range rt.model.Buffers {
		b := &rt.model.Buffers[i]
		if b.Kind != gpumem.KindWeights {
			continue
		}
		data := make([]float32, b.Elems)
		for j := range data {
			data[j] = next()
		}
		writeF32(pool, rt.regions[i].PA, data)
	}
}

// emitCommandPacket writes the per-job command-stream bytes: a control
// header, per-tile dispatch descriptors, and a uniform arena, derived
// deterministically from the kernel. Roughly half the packet is structured
// (compressible) and half is argument data (not), matching real command
// buffers.
func (rt *Runtime) emitCommandPacket(i int) {
	k := &rt.model.Kernels[i]
	pkt := make([]byte, rt.cmdLen[i])
	binary.LittleEndian.PutUint32(pkt[0:], 0x434D4431) // "CMD1"
	binary.LittleEndian.PutUint32(pkt[4:], uint32(i))
	binary.LittleEndian.PutUint32(pkt[8:], uint32(k.Op))
	binary.LittleEndian.PutUint64(pkt[16:], uint64(rt.descVAs[i]))
	binary.LittleEndian.PutUint64(pkt[24:], uint64(rt.regions[k.Dst].VA))
	copy(pkt[32:], k.Name)
	// Dispatch descriptors: structured, low-entropy.
	half := len(pkt) / 2
	for off := 128; off+8 <= half; off += 8 {
		binary.LittleEndian.PutUint32(pkt[off:], uint32(off/8))
		binary.LittleEndian.PutUint32(pkt[off+4:], uint32(k.Op)<<8|uint32(i&0xFF))
	}
	// Uniform arena: kernel arguments flushed verbatim, high-entropy.
	seed := uint32(i)*2654435761 + k.Count + k.InC*31 + k.K*7
	for off := half; off+4 <= len(pkt); off += 4 {
		seed = seed*1664525 + 1013904223
		binary.LittleEndian.PutUint32(pkt[off:], seed)
	}
	rt.dev.Pool().Write(rt.cmds.PA+gpumem.PA(rt.cmdOff[i]), pkt)
}

// CmdSlice returns the command-region byte range job i's packet occupies,
// for dirty-granular synchronization.
func (rt *Runtime) CmdSlice(i int) (pa gpumem.PA, size uint64) {
	return rt.cmds.PA + gpumem.PA(rt.cmdOff[i]), rt.cmdLen[i]
}

// RunResult summarizes one inference.
type RunResult struct {
	Jobs     int
	Duration time.Duration
}

// Run executes one inference: for each kernel, emit its command packet, pay
// the stack's per-job CPU cost, and submit the job chain through the driver.
// hooks are the recorder's §5 memory-synchronization points.
func (rt *Runtime) Run(hooks kbase.SyncHooks) (RunResult, error) {
	start := rt.clock.Now()
	for i := range rt.model.Kernels {
		rt.emitCommandPacket(i)
		prep := stackOverheadPerJob
		if rt.opts.Pipelined {
			// Preparation of this job overlapped the previous job's
			// execution.
			if prep > rt.lastJobElapsed {
				prep -= rt.lastJobElapsed
			} else {
				prep = 0
			}
		}
		rt.clock.Advance(prep)
		jobStart := rt.clock.Now()
		res, err := rt.dev.RunJob(rt.ctx, rt.descVAs[i], computeSlot, hooks)
		if err != nil {
			return RunResult{}, fmt.Errorf("mlfw: job %d (%s): %w", i, rt.model.Kernels[i].Name, err)
		}
		if res.Failed {
			return RunResult{}, fmt.Errorf("mlfw: job %d (%s) failed with status %#x",
				i, rt.model.Kernels[i].Name, res.Status)
		}
		rt.lastJobElapsed = rt.clock.Now() - jobStart
	}
	return RunResult{Jobs: len(rt.model.Kernels), Duration: rt.clock.Now() - start}, nil
}

// Close releases the runtime's GPU context.
func (rt *Runtime) Close() { rt.ctx.Close() }

func writeF32(pool *gpumem.Pool, pa gpumem.PA, data []float32) {
	raw := make([]byte, len(data)*4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	pool.Write(pa, raw)
}

func readF32(pool *gpumem.Pool, pa gpumem.PA, n int) []float32 {
	raw := make([]byte, n*4)
	pool.Read(pa, raw)
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}
