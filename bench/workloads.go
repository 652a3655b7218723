package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"gpurelay"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/trace"
)

// workload is one benchmark workload: a set-up that builds its inputs from
// the seed, then closed-loop ops over them.
type workload struct {
	name  string
	why   string
	setup func(r *runState, o *opCtx) (instance, error)
}

// instance is a workload after set-up.
type instance interface {
	// loop runs ops until the deadline.
	loop(r *runState, until time.Time)
	// check is the end-of-run gate.
	check() error
}

var workloads = []workload{
	{
		name:  "record-mnist",
		why:   "the online record phase at its smallest: serial range coding dominates; replay, checkpoints and the cache are bypassed",
		setup: recordSetup(gpurelay.MNIST, 7, true),
	},
	{
		name:  "record-vgg16",
		why:   "record with dumps over the 1 MB gate: the only workload on the parallel encoder and large dirty-tracked regions",
		setup: recordSetup(gpurelay.VGG16, 0, false),
	},
	{
		name:  "replay-mnist",
		why:   "the repeated offline path users pay for: dump decode, restore and GPU execution, with the record stack bypassed",
		setup: replaySetup,
	},
	{
		name:  "record-resume-mnist",
		why:   "the record layers driven another way: a checkpoint at every job, a VM crash, re-admission and a resync of the prefix",
		setup: resumeSetup,
	},
	{
		name:  "fleet-cached",
		why:   "cache-first serving under 2-way concurrency: store hits set the median, LRU-forced records and coalescing the tail",
		setup: fleetSetup,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// freshHistory gives every record op its own speculation history. One
// shared history does not settle: MNIST's virtual delay moves from 4.97 s
// to 6.13 s over 30 records, so ops would not be comparable.
func freshHistory() gpurelay.RecordOptions {
	return gpurelay.RecordOptions{History: gpurelay.NewSpeculationHistory()}
}

// recorded gates one fresh recording: the same virtual delay and sync
// traffic as every earlier record of key, and no continuous-validation trap.
// In the traced phase it also runs the layer replicas on the recording.
func (o *opCtx) recorded(key string, rec *gpurelay.Recording, st gpurelay.RecordStats) error {
	r := o.r
	if err := pin(r, r.delays, "virtual delay", key, st.RecordingDelay); err != nil {
		return err
	}
	if err := pin(r, r.syncs, "memsync bytes", key, st.MemSyncBytes); err != nil {
		return err
	}
	if st.GuardViolations != 0 {
		return fmt.Errorf("%s: %d continuous-validation traps", key, st.GuardViolations)
	}
	r.note("record.jobs", float64(st.Jobs))
	r.note("record.guard_violations", float64(st.GuardViolations))
	r.note("shim.commits", float64(st.Shim.Commits))
	if st.Shim.Commits > 0 {
		r.note("shim.spec_hit_rate", float64(st.Shim.AsyncCommits)/float64(st.Shim.Commits))
	}
	r.note("shim.reg_accesses_per_commit", st.RegAccessesPerCommit)
	r.note("netsim.blocking_rtts", float64(st.Link.BlockingRTTs))
	if !r.spans || o.name != "op" {
		return nil
	}
	return o.layers(rec)
}

// recorder is record-mnist and record-vgg16: one client recording one model
// back to back (OursMDS over WiFi, the defaults).
type recorder struct {
	model  *gpurelay.Model
	svc    *gpurelay.Service
	client *gpurelay.Client
	ref    *reference
	// pairScope makes traced ops alternate a nil and a full obs Scope, to
	// time the telemetry layer.
	pairScope bool
	last      *gpurelay.Recording
}

func recordSetup(newModel func() *gpurelay.Model, weightSeed uint64, pairScope bool) func(*runState, *opCtx) (instance, error) {
	return func(r *runState, o *opCtx) (instance, error) {
		w := &recorder{
			model:     newModel(),
			svc:       gpurelay.NewService(),
			client:    gpurelay.NewClient("bench", gpurelay.MaliG71MP8),
			pairScope: pairScope,
		}
		ref, err := newReference(newModel(), weightSeed, r.seed, 1)
		if err != nil {
			return nil, err
		}
		w.ref = ref
		// One record in set-up, so lazy initialisation is not the first op's.
		return w, w.record(o, nil)
	}
}

func (w *recorder) loop(r *runState, until time.Time) {
	r.closedLoop(until, 0, func(o *opCtx) error {
		var scope *gpurelay.Scope
		variant := "op.noscope"
		if r.spans && w.pairScope && o.k%2 == 1 {
			scope = gpurelay.NewScope(fmt.Sprintf("op-%d", o.op))
			variant, o.variant = "op.scope", true
		}
		err := w.record(o, scope)
		if r.spans && w.pairScope {
			r.note(variant, o.lat)
		}
		return err
	})
}

func (w *recorder) record(o *opCtx, scope *gpurelay.Scope) error {
	opts := freshHistory()
	opts.Obs = scope
	o.restart()
	rec, st, err := w.client.RecordContext(context.Background(), w.svc, w.model, opts)
	o.end()
	if err != nil {
		return err
	}
	w.last = rec
	return o.recorded(w.model.Name, rec, st)
}

// check replays the run's last recording against native inference.
func (w *recorder) check() error { return w.ref.replay(w.client, w.last) }

// replayer is replay-mnist: one session replaying one recording with real
// weights on seeded inputs.
type replayer struct {
	ref  *reference
	sess *gpurelay.ReplaySession
	rec  *trace.Recording
}

// replayInputs is how many distinct inputs replay-mnist cycles through.
const replayInputs = 8

func replaySetup(r *runState, o *opCtx) (instance, error) {
	ref, err := newReference(gpurelay.MNIST(), 7, r.seed, replayInputs)
	if err != nil {
		return nil, err
	}
	model := gpurelay.MNIST()
	client := gpurelay.NewClient("bench", gpurelay.MaliG71MP8)
	rec, st, err := client.RecordContext(context.Background(), gpurelay.NewService(), model, freshHistory())
	if err != nil {
		return nil, err
	}
	if err := pin(r, r.syncs, "memsync bytes", model.Name, st.MemSyncBytes); err != nil {
		return nil, err
	}
	s, err := o.verify(rec)
	if err != nil {
		return nil, err
	}
	w := &replayer{ref: ref, rec: s.rec}
	err = o.span("replay.session", func() (err error) {
		w.sess, err = client.NewReplaySession(rec)
		return err
	})
	if err != nil {
		return nil, err
	}
	return w, ref.setWeights(w.sess)
}

func (w *replayer) loop(r *runState, until time.Time) {
	r.closedLoop(until, 0, func(o *opCtx) error {
		k := o.k % replayInputs
		if err := w.sess.SetInput(w.ref.inputs[k]); err != nil {
			return err
		}
		var res gpurelay.ReplayResult
		err := o.span("replay.run", func() (err error) {
			res, err = w.sess.Run()
			return err
		})
		if err != nil {
			return err
		}
		out, err := w.sess.Output()
		o.end()
		if err != nil {
			return err
		}
		if err := sameOutput(out, w.ref.outputs[k]); err != nil {
			return err
		}
		if err := pin(r, r.delays, "virtual replay delay", "replay", res.Delay); err != nil {
			return err
		}
		r.note("replay.events", float64(res.Events))
		r.note("replay.verified_reads", float64(res.VerifiedReads))
		if !r.spans {
			return nil
		}
		if err := o.restoreChain(w.rec); err != nil {
			return err
		}
		var native []float32
		err = o.span("mali.native", func() (err error) {
			native, err = w.ref.infer(w.ref.inputs[k])
			return err
		})
		if err != nil {
			return err
		}
		return sameOutput(native, w.ref.outputs[k])
	})
}

// Every op already compares its output with native inference.
func (w *replayer) check() error { return nil }

// resumer is record-resume-mnist: RecordResumable under the vm-crash fault
// plan, with a counters-only telemetry scope per op.
type resumer struct {
	recorder
	plan *gpurelay.FaultPlan
}

func resumeSetup(r *runState, o *opCtx) (instance, error) {
	plan, err := gpurelay.ParseFaultPlan("vm-crash")
	if err != nil {
		return nil, err
	}
	ref, err := newReference(gpurelay.MNIST(), 7, r.seed, 1)
	if err != nil {
		return nil, err
	}
	w := &resumer{plan: plan, recorder: recorder{
		model:  gpurelay.MNIST(),
		svc:    gpurelay.NewService(),
		client: gpurelay.NewClient("bench", gpurelay.MaliG71MP8),
		ref:    ref,
	}}
	return w, w.record(o, gpurelay.CkptFull)
}

func (w *resumer) loop(r *runState, until time.Time) {
	r.closedLoop(until, 0, func(o *opCtx) error {
		mode, variant := gpurelay.CkptFull, "ckpt.full_op"
		if r.spans && o.k%2 == 1 {
			mode, variant = gpurelay.CkptIncremental, "ckpt.incremental_op"
			o.variant = true
		}
		err := w.record(o, mode)
		if r.spans {
			r.note(variant, o.lat)
		}
		return err
	})
}

func (w *resumer) record(o *opCtx, mode gpurelay.CkptMode) error {
	opts := gpurelay.ResilienceOptions{RecordOptions: freshHistory(), Faults: w.plan, CkptMode: mode}
	opts.Obs = gpurelay.NewScopeWith(fmt.Sprintf("op-%d", o.op), gpurelay.ScopeOptions{SpanCapacity: -1})
	o.restart()
	rec, st, err := w.client.RecordResumable(context.Background(), w.svc, w.model, opts)
	o.end()
	if err != nil {
		return err
	}
	if st.Resumes != 1 {
		return fmt.Errorf("vm-crash cost %d resumes, want 1", st.Resumes)
	}
	o.r.note("resilience.resumes", float64(st.Resumes))
	if mode == gpurelay.CkptIncremental {
		o.r.note("ckpt.epochs", float64(st.CkptEpochs))
		o.r.note("ckpt.conflicts", float64(st.CkptConflicts))
	}
	w.last = rec
	// The modes resume from different jobs, so each has its own delay.
	return o.recorded(w.model.Name+"/"+mode.String(), rec, st)
}

// fleet is fleet-cached: two client goroutines sending cache-first record
// requests to a two-shard service whose store holds six of the eight keys.
type fleet struct {
	svc     *gpurelay.Service
	keys    []string // by Zipf rank
	workers [fleetWorkers]fleetWorker
	// payload is the sealed recording every request for a key must get.
	payload map[string][]byte
}

// fleetWorker is one client goroutine's clients and models, one per key.
type fleetWorker struct {
	clients []*gpurelay.Client
	models  []*gpurelay.Model
}

const fleetWorkers = 2

// fleetKeys are the eight cache keys, {Micro, MNIST} on four GPU SKUs, in
// Zipf rank order.
var fleetKeys = []struct {
	model func() *gpurelay.Model
	sku   *gpurelay.SKU
}{
	{gpurelay.MNIST, gpurelay.MaliG71MP8}, {mlfw.Micro, gpurelay.MaliG71MP8},
	{gpurelay.MNIST, gpurelay.MaliG72MP12}, {mlfw.Micro, gpurelay.MaliG72MP12},
	{gpurelay.MNIST, gpurelay.MaliG52MP2}, {mlfw.Micro, gpurelay.MaliG52MP2},
	{gpurelay.MNIST, gpurelay.MaliG76MP10}, {mlfw.Micro, gpurelay.MaliG76MP10},
}

func fleetSetup(r *runState, o *opCtx) (instance, error) {
	f := &fleet{
		svc: gpurelay.NewServiceWith(gpurelay.ServiceConfig{
			Shards: 2, Capacity: 1, CacheEntries: 6,
			CacheSecret: []byte("gpurelay-bench-fleet-cache-secret"),
		}),
		payload: map[string][]byte{},
	}
	for g := range f.workers {
		for i, k := range fleetKeys {
			f.workers[g].clients = append(f.workers[g].clients,
				gpurelay.NewClient(fmt.Sprintf("fleet-%d-%d", g, i), k.sku))
			f.workers[g].models = append(f.workers[g].models, k.model())
		}
	}
	// Record every key once: these are the bytes, delays and traffic all
	// later requests must reproduce. Two of the eight are already evicted
	// when the loop starts.
	w := &f.workers[0]
	for i, m := range w.models {
		key := m.Name + "@" + fleetKeys[i].sku.Name
		f.keys = append(f.keys, key)
		rec, outcome, st, err := w.clients[i].RecordCachedContext(context.Background(), f.svc, m, fleetOptions(o.op))
		if err != nil {
			return nil, err
		}
		if outcome != gpurelay.CacheRecorded {
			return nil, fmt.Errorf("%s: first request was a %s, want a record", key, outcome)
		}
		f.payload[key], _, _ = rec.Bundle()
		if err := o.recorded(key, rec, st); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func fleetOptions(op int) gpurelay.RecordOptions {
	opts := freshHistory()
	opts.Obs = gpurelay.NewScopeWith(fmt.Sprintf("req-%d", op), gpurelay.ScopeOptions{SpanCapacity: -1})
	return opts
}

func (f *fleet) loop(r *runState, until time.Time) {
	var wg sync.WaitGroup
	for g := range f.workers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := newZipfStream(r.seed*fleetWorkers+int64(g), len(f.keys))
			r.closedLoop(until, g, func(o *opCtx) error { return f.request(o, g, keys.next()) })
		}(g)
	}
	wg.Wait()
}

func (f *fleet) request(o *opCtx, g, i int) error {
	w := &f.workers[g]
	key := f.keys[i]
	opts := fleetOptions(o.op)
	o.restart()
	rec, outcome, st, err := w.clients[i].RecordCachedContext(context.Background(), f.svc, w.models[i], opts)
	o.end()
	switch {
	case errors.Is(err, gpurelay.ErrShedding):
		o.r.note("cloud.shed", 1)
	case errors.Is(err, gpurelay.ErrCapacity):
		o.r.note("cloud.capacity", 1)
	}
	if err != nil {
		return err
	}
	o.r.note("castore."+string(outcome), o.lat)
	if payload, _, _ := rec.Bundle(); !bytes.Equal(payload, f.payload[key]) {
		return fmt.Errorf("%s: a %s request got different bytes", key, outcome)
	}
	if outcome == gpurelay.CacheRecorded {
		return o.recorded(key, rec, st)
	}
	return nil
}

// check requires the service to have released every VM and queue slot.
func (f *fleet) check() error {
	if n, q := f.svc.ActiveVMs(), f.svc.QueuedSessions(); n != 0 || q != 0 {
		return fmt.Errorf("%d VMs still active, %d sessions queued", n, q)
	}
	return nil
}

// zipfStream draws fleet request keys from Zipf(s=1.2) over the key ranks,
// dealt in shuffled blocks of 100 that hold each key's exact share: every
// seed sends the same key mix and only the order differs, so throughput
// does not swing with how many rare keys a seed happens to draw.
type zipfStream struct {
	rng   *rand.Rand
	block []int
	i     int
}

func newZipfStream(seed int64, n int) *zipfStream {
	const size, s = 100, 1.2
	w := make([]float64, n)
	var sum float64
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
		sum += w[k]
	}
	// Largest-remainder rounding of each key's share of the block.
	quota := make([]int, n)
	left := size
	for k := range w {
		quota[k] = int(size * w[k] / sum)
		left -= quota[k]
	}
	for ; left > 0; left-- {
		best, bestRem := 0, -1.0
		for k := range w {
			if rem := size*w[k]/sum - float64(quota[k]); rem > bestRem {
				best, bestRem = k, rem
			}
		}
		quota[best]++
	}
	z := &zipfStream{rng: rand.New(rand.NewSource(seed))}
	for k, q := range quota {
		for ; q > 0; q-- {
			z.block = append(z.block, k)
		}
	}
	z.i = len(z.block)
	return z
}

func (z *zipfStream) next() int {
	if z.i == len(z.block) {
		z.rng.Shuffle(len(z.block), func(a, b int) { z.block[a], z.block[b] = z.block[b], z.block[a] })
		z.i = 0
	}
	z.i++
	return z.block[z.i-1]
}
