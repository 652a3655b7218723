package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// config is one run of one workload.
type config struct {
	seed      int64
	seconds   float64
	traced    bool
	setupReps int
	traceOut  string // Chrome trace path of a traced run; "" writes none
}

// outcome is everything one run measured. Which metrics a run prints
// depends on whether it was traced.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	measured  int     // ops behind the latency metrics
	scale     float64 // median host-speed scale of the measured loop
	endToEnd  map[string]metric
	perLayer  map[string]metric // nil for an untraced run
}

// result is the outcome as the run prints it.
func (oc *outcome) result() result {
	m := oc.endToEnd
	if oc.perLayer != nil {
		m = oc.perLayer
	}
	return result{Correct: oc.correct, Attempted: oc.attempted, Failed: oc.failed, Metrics: m}
}

// runState collects what one run measures. Ops may run on several
// goroutines at once.
type runState struct {
	seed   int64
	tr     *tracer // nil in an untraced run
	probe  *speedProbe
	spans  bool // spans are recorded now: set-up and the traced phase
	minOps int  // each closed loop runs at least this many ops

	mu        sync.Mutex
	nextOp    int
	attempted int
	failed    int
	lat       []opTime // every op in order of completion
	baseLat   []opTime // traced ops that run the untraced configuration
	samples   map[string][]float64
	delays    map[string]time.Duration
	syncs     map[string]int64
}

// opTime is one op's or set-up's host time and the middle of it, where its
// host speed is looked up.
type opTime struct {
	ms  float64
	mid time.Time
}

// opCtx is one op or set-up in flight.
type opCtx struct {
	r      *runState
	name   string // "op" or "setup"
	k      int    // index within the current loop, for alternating variants
	op     int    // run-wide number; spans of one op share it
	id     int    // span id; 0 when spans are off
	worker int
	start  time.Time
	lat    float64 // ms, once closed
	closed bool
	// variant marks a traced op that runs another configuration than the
	// untraced pass, so it stays out of the tracing-overhead comparison.
	variant bool
}

func (r *runState) begin(name string, k, worker int) *opCtx {
	r.mu.Lock()
	r.nextOp++
	o := &opCtx{r: r, name: name, k: k, op: r.nextOp, worker: worker}
	r.mu.Unlock()
	if r.spans {
		o.id = r.tr.reserve()
	}
	o.start = time.Now()
	return o
}

// restart moves an op's start past the benchmark's own per-op preparation,
// such as building the request options.
func (o *opCtx) restart() {
	if o.name == "op" {
		o.start = time.Now()
	}
}

// end closes an op's timed section, so that its gates and layer replicas
// run outside it. A set-up is timed whole, so it leaves one open.
func (o *opCtx) end() {
	if o.name == "op" {
		o.close()
	}
}

func (o *opCtx) close() {
	if o.closed {
		return
	}
	now := time.Now()
	o.closed = true
	o.lat = ms(now.Sub(o.start))
	if o.name == "op" {
		t := o.timed()
		o.r.mu.Lock()
		o.r.lat = append(o.r.lat, t)
		if o.r.spans && !o.variant {
			o.r.baseLat = append(o.r.baseLat, t)
		}
		o.r.mu.Unlock()
	}
	if o.id != 0 {
		o.r.tr.add(span{Name: o.name, ID: o.id, Parent: -1, Op: o.op, Worker: o.worker}, o.start, now)
	}
}

func (o *opCtx) timed() opTime {
	return opTime{o.lat, o.start.Add(time.Duration(o.lat * float64(time.Millisecond) / 2))}
}

// span runs fn as a call into a layer made for this op, and records a child
// span for it while spans are on.
func (o *opCtx) span(name string, fn func() error) error {
	if o.id == 0 {
		return fn()
	}
	start := time.Now()
	err := fn()
	o.r.tr.add(span{Name: name, ID: o.r.tr.reserve(), Parent: o.id, Op: o.op, Worker: o.worker}, start, time.Now())
	return err
}

// closedLoop runs op back to back on the calling goroutine until the
// deadline, and at least r.minOps times. Between ops it times the host
// speed when a sample is due.
func (r *runState) closedLoop(until time.Time, worker int, op func(o *opCtx) error) {
	for k := 0; k < r.minOps || time.Now().Before(until); k++ {
		o := r.begin("op", k, worker)
		err := op(o)
		o.close()
		r.count(err)
		r.probe.tick()
	}
}

func (r *runState) count(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "bench: failed: %v\n", err)
		}
	}
}

// note adds a per-layer sample. Only the traced pass reports them.
func (r *runState) note(name string, v float64) {
	if r.tr == nil {
		return
	}
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *runState) sample(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples[name]...)
}

// pin keeps the first value seen for key and fails any later one that
// differs. Virtual time and traffic are outputs of a deterministic
// simulation, so a difference between ops is a wrong output.
func pin[T comparable](r *runState, m map[string]T, what, key string, v T) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ref, ok := m[key]; ok && ref != v {
		return fmt.Errorf("%s: %s is %v, earlier ops gave %v", key, what, v, ref)
	}
	m[key] = v
	return nil
}

// usage is what the process has spent: the totals so far, or the
// difference over one measured loop. In the difference, wall and cpu leave
// out the host-speed samples, and scale is the loop's wall time at reference
// speed over its raw wall time.
type usage struct {
	wall, cpu      time.Duration
	alloc, mallocs uint64
	gcCPU, allCPU  float64 // seconds, from runtime/metrics
	ops            int
	scale          float64
}

// usage reads the process totals; wall is left zero.
func (r *runState) usage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	r.mu.Lock()
	defer r.mu.Unlock()
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc, mallocs: ms.Mallocs,
		gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64(),
		ops: r.attempted,
	}
}

// measure runs the loop for d between two host-speed samples.
func (r *runState) measure(inst instance, d time.Duration) usage {
	first := r.probe.sample()
	a := r.usage()
	inst.loop(r, time.Now().Add(d))
	last := r.probe.sample()
	b := r.usage()
	wall, scaled, probed := r.probe.span(first, last)
	return usage{
		wall: wall, cpu: b.cpu - a.cpu - probed,
		alloc: b.alloc - a.alloc, mallocs: b.mallocs - a.mallocs,
		gcCPU: b.gcCPU - a.gcCPU, allCPU: b.allCPU - a.allCPU,
		ops: b.ops - a.ops, scale: float64(scaled) / float64(wall),
	}
}

// execute runs one workload: set-up setupReps times (the last one is
// measured), the closed loop for cfg.seconds, and the end-of-run check. A
// traced run spends its first third untraced, for the end-to-end metrics
// and the tracing-overhead baseline, and the rest traced.
func execute(w workload, cfg config) (*outcome, error) {
	r := &runState{
		seed: cfg.seed, minOps: 1, probe: newSpeedProbe(),
		samples: map[string][]float64{},
		delays:  map[string]time.Duration{},
		syncs:   map[string]int64{},
	}
	if cfg.traced {
		r.tr = newTracer()
		r.spans = true
	}
	var inst instance
	var setups []opTime
	for i := 0; i < max(1, cfg.setupReps); i++ {
		inst = nil
		runtime.GC() // an earlier set-up's garbage is not this one's cost
		r.probe.sample()
		r.probe.sample()
		o := r.begin("setup", i, 0)
		var err error
		inst, err = w.setup(r, o)
		o.close()
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, o.timed())
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	untraced := total
	if cfg.traced {
		untraced = total / 3
	}
	r.spans = false
	runtime.GC() // nor is set-up's garbage the loop's
	u := r.measure(inst, untraced)
	r.mu.Lock()
	lat := append([]opTime(nil), r.lat...)
	r.mu.Unlock()
	if cfg.traced {
		r.spans, r.minOps = true, 2 // alternating variants need a pair
		inst.loop(r, time.Now().Add(total-untraced))
	}

	r.count(inst.check()) // the end-of-run check counts as one more attempted op

	oc := &outcome{
		correct:   r.failed == 0,
		attempted: r.attempted,
		failed:    r.failed,
		measured:  len(lat),
		scale:     u.scale,
		endToEnd:  r.endToEnd(setups, lat, u),
	}
	if cfg.traced {
		oc.perLayer = r.perLayer(lat, u)
		if cfg.traceOut != "" {
			if err := r.tr.writeChrome(cfg.traceOut); err != nil {
				return nil, fmt.Errorf("writing trace: %w", err)
			}
		}
	}
	return oc, nil
}

// endToEnd reports host times at reference host speed (speed.go).
func (r *runState) endToEnd(setups, lat []opTime, u usage) map[string]metric {
	setupMs, opMs := r.probe.scaled(setups), r.probe.scaled(lat)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ops := float64(max(1, u.ops))
	var delays, syncs []float64
	for _, d := range r.delays {
		delays = append(delays, ms(d))
	}
	for _, b := range r.syncs {
		syncs = append(syncs, float64(b)/1e3)
	}
	return map[string]metric{
		"setup_s":         {median(setupMs) / 1e3, "s"},
		"ops_per_s":       {float64(u.ops) / u.wall.Seconds() / u.scale, "1/s"},
		"op_p50_ms":       {median(opMs), "ms"},
		"op_tail_ms":      {nearestRank(opMs, tailQuantile(len(opMs))), "ms"},
		"cpu_ms_per_op":   {ms(u.cpu) / ops * u.scale, "ms"},
		"alloc_mb_per_op": {float64(u.alloc) / 1e6 / ops, "MB"},
		"rss_peak_mb":     {float64(ru.Maxrss) / 1024, "MB"}, // Linux reports KiB
		"virt_delay_ms":   {median(delays), "virtual_ms"},
		"sync_kb":         {median(syncs), "KB"},
	}
}

// perLayer derives the per-layer metrics from the traced phase's spans and
// samples. A metric whose layer the workload's ops never call reads 0.
func (r *runState) perLayer(untracedLat []opTime, u usage) map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	spans := map[string]map[int]float64{}
	for _, n := range []string{"op", "gpumem.encode", "gpumem.decode", "gpumem.capture", "gpumem.restore",
		"trace.sign", "trace.verify", "trace.audit", "replay.session", "replay.run", "mali.native"} {
		spans[n] = r.tr.perOp(n)
		if n != "op" {
			var perOp []float64
			for _, v := range spans[n] {
				perOp = append(perOp, v)
			}
			put(n+"_ms", "ms", median(perOp))
		}
	}
	var share, rest, decodeShare, exec []float64
	for op, d := range spans["op"] {
		encode, decode := spans["gpumem.encode"][op], spans["gpumem.decode"][op]
		restore := spans["gpumem.restore"][op]
		memsync := spans["gpumem.capture"][op] + encode + decode + restore
		if memsync > 0 {
			share = append(share, (encode+decode)/d)
		}
		if sign, ok := spans["trace.sign"][op]; ok {
			rest = append(rest, d-memsync-sign)
		}
		if run := spans["replay.run"][op]; run > 0 {
			decodeShare = append(decodeShare, (decode+restore)/run)
			exec = append(exec, run-decode-restore)
		}
	}
	med := func(name string) float64 { return median(r.sample(name)) }
	n := func(name string) float64 { return float64(len(r.sample(name))) }

	put("gpumem.dumps", "count", med("gpumem.dumps"))
	put("gpumem.wire_kb", "KB", med("gpumem.wire_kb"))
	put("gpumem.raw_kb", "KB", med("gpumem.raw_kb"))
	put("gpumem.compress_ratio", "ratio", med("gpumem.compress_ratio"))
	put("gpumem.share", "ratio", median(share))
	put("trace.events", "count", med("trace.events"))
	put("trace.payload_kb", "KB", med("trace.payload_kb"))
	put("record.rest_ms", "ms", median(rest))
	put("record.jobs", "count", med("record.jobs"))
	put("record.guard_violations", "count", med("record.guard_violations"))
	put("shim.commits", "count", med("shim.commits"))
	put("shim.spec_hit_rate", "ratio", med("shim.spec_hit_rate"))
	put("shim.reg_accesses_per_commit", "ratio", med("shim.reg_accesses_per_commit"))
	put("netsim.blocking_rtts", "count", med("netsim.blocking_rtts"))
	put("replay.decode_share", "ratio", median(decodeShare))
	put("replay.exec_ms", "ms", median(exec))
	put("replay.events", "count", med("replay.events"))
	put("replay.verified_reads", "count", med("replay.verified_reads"))
	put("resilience.resumes", "count", med("resilience.resumes"))
	put("ckpt.epochs", "count", med("ckpt.epochs"))
	put("ckpt.conflicts", "count", med("ckpt.conflicts"))
	put("ckpt.full_op_ms", "ms", med("ckpt.full_op"))
	put("ckpt.incremental_op_ms", "ms", med("ckpt.incremental_op"))
	scope := 0.0
	if n("op.scope") > 0 && n("op.noscope") > 0 {
		scope = med("op.scope") - med("op.noscope")
	}
	put("obs.scope_ms", "ms", scope)

	r.mu.Lock()
	reqs := float64(max(1, r.attempted-1)) // the end-of-run check is no request
	baseLat := append([]opTime(nil), r.baseLat...)
	r.mu.Unlock()
	put("castore.hit_rate", "ratio", n("castore.hit")/reqs)
	put("castore.coalesced_frac", "ratio", n("castore.coalesced")/reqs)
	put("castore.records", "1/kreq", 1000*n("castore.recorded")/reqs)
	put("castore.hit_p50_us", "us", 1000*med("castore.hit"))
	put("castore.miss_p50_ms", "ms", med("castore.recorded"))
	put("castore.coalesce_p50_ms", "ms", med("castore.coalesced"))
	put("cloud.shed_errors", "count", n("cloud.shed"))
	put("cloud.capacity_errors", "count", n("cloud.capacity"))

	gc := 0.0
	if u.allCPU > 0 {
		gc = u.gcCPU / u.allCPU
	}
	put("go.gc_cpu_frac", "ratio", gc)
	put("go.allocs_per_op", "count", float64(u.mallocs)/float64(max(1, u.ops)))
	overhead := 0.0
	if base := median(r.probe.scaled(untracedLat)); base > 0 && len(baseLat) > 0 {
		overhead = 100 * (median(r.probe.scaled(baseLat))/base - 1)
	}
	put("bench.trace_overhead_pct", "%", overhead)
	return out
}
