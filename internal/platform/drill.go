// The fleet drill: one record session per workload on one discrete-event
// engine, admitted and attested through a sharded session manager, and
// carried across lost VMs by the resume loop every record path shares
// (record.RunResumable). Every knob — engine, shards, the cache-first
// admission path, warm start, a fault plan, instrumentation — is orthogonal
// to the recordings: a workload's seal depends only on the model, SKU, seed
// and workload index, so any drill is checked against its plain serial
// Reference drill.
package platform

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"gpurelay/internal/audit"
	"gpurelay/internal/castore"
	"gpurelay/internal/cloud"
	"gpurelay/internal/faultsim"
	"gpurelay/internal/gpumem"
	"gpurelay/internal/grterr"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/obs"
	"gpurelay/internal/record"
	"gpurelay/internal/shim"
	"gpurelay/internal/timesim"
)

const (
	// arrivalGap spaces a cached drill's client arrivals on the virtual clock.
	arrivalGap = 50 * time.Microsecond
	// faultEvery is the stride of the workloads a health plan afflicts.
	faultEvery = 4
)

// DrillOptions configures a fleet drill. The zero value of every knob but
// Model and SKU selects a plain drill: 16 sessions, each its own workload,
// admitted up front to one partition, recorded over loopback on the serial
// engine.
type DrillOptions struct {
	// Model and SKU describe the base workload; both required. Workload w
	// records Model renamed "<name>-wl-<w>": the same compute under its own
	// cache key, session key and client seed.
	Model *mlfw.Model
	SKU   *mali.SKU
	// Seed derives every workload's session key and client seed. Identical
	// options give byte-identical drills, on either engine, at any
	// GOMAXPROCS.
	Seed uint64
	// Sessions is the number of clients (0 → 16).
	Sessions int
	// Workloads > 0 selects the cache-first admission path: client i arrives
	// at (i+1)×50µs and requests workload i mod Workloads. A store hit is
	// served with no VM; a miss coalesces onto the workload's in-flight
	// record or leads it through the pool's admission core on the
	// workload's shard: on a free slot (16 VMs), from a place in the
	// shard's FIFO queue (64), starting when a release hands it the slot,
	// or not at all (shed). A resumed session waits in the same queue. Zero
	// gives every session its own workload, admitted before the engine runs.
	Workloads int
	// Shards partitions admission by consistent hashing on each workload's
	// cache key (0 → 1).
	Shards int
	// Network is every session's link (zero → loopback, or WiFi with a
	// health plan: the fault presets' instants are tuned for a session that
	// spans seconds, as an MNIST session does over WiFi).
	Network netsim.Condition
	// Parallel runs the drill on the parallel engine. A cached drill or one
	// with a health plan mutates state its sessions share, so it refuses.
	Parallel bool
	// WarmStart seeds every session's speculation history with a fleet
	// peer's validated commits (shim.History.ExportReady). Each session
	// gets a private copy, so seeding never couples sessions.
	WarmStart map[string]shim.Outcome
	// HealthPlan afflicts every fourth workload's record session with this
	// fault plan: link outages and loss, VM crashes, device-health faults. An
	// afflicted session checkpoints after every job. One that loses its
	// link, VM or GPU crashes its VM, backs off on its engine process clock,
	// re-admits (on a different GPU after a device loss) and resumes from
	// its last checkpoint, up to three times, as RecordResumable does.
	HealthPlan *faultsim.Plan
	// Instrument attaches per-session telemetry scopes, a flight recorder
	// and an engine execution trace. Instrumentation only reads the
	// timeline, so it never changes a seal.
	Instrument bool
}

// OptionError rejects inconsistent drill options. Reason is a stable token
// a CLI can report machine-readably.
type OptionError struct {
	Reason, Detail string
}

func (e *OptionError) Error() string { return "platform: drill options: " + e.Detail }

func optionError(reason, format string, args ...any) error {
	return &OptionError{Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

// Validate reports the first inconsistency in o as an *OptionError.
func (o DrillOptions) Validate() error {
	_, err := o.withDefaults()
	return err
}

func (o DrillOptions) withDefaults() (DrillOptions, error) {
	switch {
	case o.Model == nil || o.SKU == nil:
		return o, optionError("needs_model", "a drill needs a model and a SKU")
	case o.Sessions < 0:
		return o, optionError("bad_sessions", "%d sessions", o.Sessions)
	case o.Workloads < 0:
		return o, optionError("bad_workloads", "%d workloads", o.Workloads)
	case o.Shards < 0:
		return o, optionError("bad_shards", "%d shards", o.Shards)
	}
	if o.Sessions == 0 {
		o.Sessions = 16
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.Workloads > o.Sessions {
		return o, optionError("workloads_exceed_sessions",
			"%d workloads exceed %d sessions: every workload needs a client", o.Workloads, o.Sessions)
	}
	if o.Parallel && (o.Workloads > 0 || o.HealthPlan != nil) {
		return o, optionError("engine_conflict",
			"a cached drill or a drill with a health plan shares state across sessions and runs on the serial engine")
	}
	if compatOf(o.SKU) == "" {
		return o, optionError("bad_sku", "SKU %s not in catalog", o.SKU.Name)
	}
	if o.Network.Name == "" {
		o.Network = netsim.Loopback
		if o.HealthPlan != nil {
			o.Network = netsim.WiFi
		}
	}
	return o, nil
}

// compatOf is the device-tree compatible string the catalog files sku under.
func compatOf(sku *mali.SKU) string {
	for c, s := range mali.Catalog {
		if s == sku {
			return c
		}
	}
	return ""
}

// Reference is the drill whose seals are o's oracle: the plain serial drill
// recording each of o's workloads once, uncached, over loopback.
func (o DrillOptions) Reference() DrillOptions {
	n := o.Workloads
	if n == 0 {
		n = o.Sessions
	}
	return DrillOptions{Model: o.Model, SKU: o.SKU, Seed: o.Seed, Sessions: n}
}

// DrillCounts are a drill's deterministic scalar outcomes: two runs of the
// same options report equal counts.
type DrillCounts struct {
	// Records counts workloads recorded. In a cached drill, Hits are
	// admissions served from the store, Misses the rest, Coalesced the
	// misses that waited on another client's record. Shed is the pool's
	// count of admissions rejected by a full shard (grt_shard_shed_total).
	Records   int `json:"records"`
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	Coalesced int `json:"coalesced"`
	Shed      int `json:"shed"`
	// Faulted counts record sessions the health plan afflicted, Interrupted
	// those that lost their session at least once, Migrated the moves off a
	// lost device to a different VM's GPU.
	Faulted     int `json:"faulted"`
	Interrupted int `json:"interrupted"`
	Migrated    int `json:"migrated"`
	// P99AdmissionWait is the nearest-rank p99 of cached-drill leaders'
	// exact waits for a shard slot (the registry's histogram buckets the
	// queued ones); MaxShardQueue the deepest shard queue a leader joined.
	P99AdmissionWait time.Duration `json:"p99_admission_wait_ns"`
	MaxShardQueue    int           `json:"max_shard_queue"`
	// VirtualTime, Events and Batches describe the engine's timeline.
	// Batches.MaxWidth is the structural parallelism: how many sessions
	// shared a timestamp, whatever cores the host had.
	VirtualTime time.Duration      `json:"virtual_ns"`
	Events      int64              `json:"events"`
	Batches     timesim.BatchStats `json:"batches"`
}

// DrillResult is what a drill reports.
type DrillResult struct {
	DrillCounts
	// Options are the options the drill ran with, defaults filled in.
	Options DrillOptions
	// Seals are the per-workload recording HMACs in workload order. A
	// workload whose every leader was shed has a zero seal.
	Seals [][32]byte
	// Resumes counts each workload's survived session losses.
	Resumes []int
	// Wall is the host wall-clock duration of the engine run.
	Wall time.Duration
	// Service is the drill's admission pool, every VM released.
	Service *cloud.Pool
	// Fleet is the drill-wide registry (admissions, cache, devices,
	// resumes) and Health its rollup, taken after every VM was released.
	Fleet  *obs.Registry
	Health *cloud.HealthReport
	// Scopes (per workload), Flight and EngineTrace are set when
	// instrumented; obs.WriteFleetTrace exports them as one Chrome trace.
	Scopes      []*obs.Scope
	Flight      *obs.FlightRecorder
	EngineTrace *timesim.EngineTrace
}

// drillPoolSize sizes one session's pool: the model's buffers with headroom
// for metastate and page tables, but without the record path's 64 MiB
// default slack, which a thousand sessions on one host do not want.
func drillPoolSize(m *mlfw.Model) uint64 {
	size := m.TotalBytes()*3/2 + (8 << 20)
	return size &^ (gpumem.PageSize - 1)
}

// drill is one run's state. It keeps no admission state of its own: the
// pool admits, queues and sheds, and hands a queued leader's slot to the
// callback lead gave it. A cached drill's state is touched only by engine
// handlers and processes on the serial engine, so it needs no locks; on the
// parallel engine sessions touch only their own workload's slots.
type drill struct {
	o      DrillOptions
	eng    timesim.Engine
	trace  *timesim.EngineTrace
	svc    *cloud.Pool
	store  *castore.Store
	reg    *obs.Registry
	flight *obs.FlightRecorder
	compat string
	pool   uint64
	// want is the measurement every admitted VM must attest to: the
	// drill's image booted for its SKU.
	want [32]byte

	// Per workload.
	models    []*mlfw.Model
	ckeys     []castore.Key
	khash     [][32]byte
	skeys     [][]byte
	scopes    []*obs.Scope
	vms       []*cloud.VM
	seals     [][32]byte
	resume    []int
	afflicted []bool

	// Cached admission.
	inflight []bool
	pending  []int // followers awaiting each workload's publication
	waits    []time.Duration
	served   int
	counts   DrillCounts
	// ended is set once the engine has run: a slot handed over then is
	// released at once.
	ended bool
}

// Drill runs one fleet drill.
func Drill(ctx context.Context, opts DrillOptions) (*DrillResult, error) {
	d, err := newDrill(opts)
	if err != nil {
		return nil, err
	}
	return d.run(ctx)
}

// newDrill validates opts and builds the drill's engine, admission layer,
// store and per-workload state.
func newDrill(opts DrillOptions) (*drill, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &drill{o: o, reg: obs.NewRegistry(), eng: timesim.NewSerialEngine(),
		compat: compatOf(o.SKU), pool: drillPoolSize(o.Model)}
	if o.Parallel {
		d.eng = timesim.NewParallelEngine()
	}
	cached := o.Workloads > 0
	n := o.Workloads
	// An uncached drill holds every session's VM until the drill ends, so
	// each partition is sized to hold them all.
	capacity := 0
	if !cached {
		n, capacity = o.Sessions, o.Sessions
	}
	img := cloud.DefaultImage()
	if d.want, err = cloud.ExpectedMeasurement(img, d.compat); err != nil {
		return nil, err
	}
	if o.Instrument {
		d.flight = obs.NewFlightRecorder(0)
		d.trace = timesim.NewEngineTrace(0)
		d.eng.SetTrace(d.trace)
	}
	d.svc = cloud.NewPool(img, cloud.PoolConfig{
		Shards: o.Shards, Capacity: capacity, Fleet: d.reg, Flight: d.flight, Time: d.eng,
	})
	for w := 0; w < n; w++ {
		m := *o.Model
		m.Name = fmt.Sprintf("%s-wl-%03d", o.Model.Name, w)
		ck := castore.KeyForModel(o.SKU.Name, img.Stack, &m)
		d.models = append(d.models, &m)
		d.ckeys = append(d.ckeys, ck)
		d.khash = append(d.khash, ck.Hash())
		d.skeys = append(d.skeys, SessionKey(o.Seed, w))
		if o.Instrument {
			sc := obs.NewScope(m.Name, obs.Options{})
			sc.AttachFleet(d.reg)
			sc.AttachFlight(d.flight)
			d.scopes = append(d.scopes, sc)
		}
	}
	d.vms = make([]*cloud.VM, n)
	d.seals = make([][32]byte, n)
	d.resume = make([]int, n)
	d.afflicted = make([]bool, n)

	if cached {
		if d.store, err = castore.New(castore.Config{
			MaxEntries: 2 * n,
			MaxBytes:   1 << 40, // the drill bounds by entries; never evict by bytes
		}); err != nil {
			return nil, err
		}
		d.store.SetQuarantine(audit.New(0))
		d.store.Instrument(d.reg)
		d.inflight = make([]bool, n)
		d.pending = make([]int, n)
	}
	return d, nil
}

// run admits the drill's clients, runs the engine and reports. Every VM is
// released when it returns, on error too.
func (d *drill) run(ctx context.Context) (*DrillResult, error) {
	o := d.o
	var err error
	if d.store != nil {
		for i := 0; i < o.Sessions; i++ {
			i := i
			d.eng.Schedule(arrivalGap*time.Duration(i+1), uint64(i), func() error { return d.arrive(ctx, i) })
		}
	} else {
		for w := 0; w < len(d.models) && err == nil; w++ {
			_, err = d.lead(ctx, w)
		}
	}

	start := time.Now()
	if err == nil {
		err = d.eng.Run()
	}
	wall := time.Since(start)
	d.ended = true
	for _, vm := range d.vms {
		if vm != nil {
			d.svc.Release(vm)
		}
	}
	if err != nil {
		return nil, err
	}
	if d.served != d.counts.Coalesced {
		return nil, fmt.Errorf("platform: %d coalesced admissions but %d served", d.counts.Coalesced, d.served)
	}

	res := &DrillResult{
		DrillCounts: d.counts, Options: o,
		Seals: d.seals, Resumes: d.resume, Wall: wall, Service: d.svc,
		Fleet: d.reg, Scopes: d.scopes, Flight: d.flight, EngineTrace: d.trace,
	}
	res.VirtualTime, res.Events, res.Batches = d.eng.Now(), d.eng.Events(), d.eng.Batches()
	res.P99AdmissionWait = quantileWait(d.waits, 0.99)
	for w, seal := range d.seals {
		if seal != ([32]byte{}) {
			res.Records++
		}
		if d.afflicted[w] {
			res.Faulted++
		}
		if d.resume[w] > 0 {
			res.Interrupted++
		}
	}
	for _, dev := range d.svc.Devices() {
		res.Migrated += dev.Migrations
	}
	res.Health = cloud.EvaluateHealth(d.reg.Snapshot(), nil)
	res.Shed = int(res.Health.Window.Shed)
	for _, sc := range d.scopes {
		res.Health.Sessions = append(res.Health.Sessions, cloud.EvaluateSessionHealth(sc.ID(), sc.Snapshot()))
	}
	return res, nil
}

// request is workload w's admission: the workload is the client that holds
// its VM.
func (d *drill) request(w int) cloud.Request {
	return cloud.Request{Key: d.khash[w], ClientID: d.models[w].Name, GPU: d.compat, Nonce: d.skeys[w][:16]}
}

// attest makes vm workload w's VM if its measurement is the one the drill's
// image should have on its SKU. Otherwise it releases vm and refuses it with
// ErrAttestation, as Service.admit does.
func (d *drill) attest(w int, vm *cloud.VM) error {
	if vm.Measurement != d.want {
		d.svc.Release(vm)
		return fmt.Errorf("platform: workload %d: VM measurement mismatch for image %q on %q: %w",
			w, d.svc.Image().Name, d.compat, grterr.ErrAttestation)
	}
	d.vms[w] = vm
	return nil
}

// session records workload w as one engine process, on the VM start
// admitted, through the resume loop: a session its fault plan interrupts
// backs off on the process clock, re-admits and resumes from its last
// checkpoint. Its attempts share one warm-start copy of the history.
func (d *drill) session(ctx context.Context, w int, tm timesim.Time) error {
	o := d.o
	seed := o.Seed*1_000_003 + uint64(w)*7 + 1
	cfg := record.Config{
		Model: d.models[w], SKU: o.SKU, Network: o.Network,
		SessionKey: d.skeys[w], ClientSeed: seed,
		InjectMispredictionAt: -1,
		PoolSize:              d.pool,
		SessionID:             d.models[w].Name,
		Clock:                 tm,
	}
	if d.scopes != nil {
		cfg.Obs = d.scopes[w]
	}
	if o.WarmStart != nil {
		cfg.History = shim.NewHistory(shim.PaperK)
		cfg.History.WarmStart(o.WarmStart)
	}
	if o.HealthPlan != nil && w%faultEvery == 0 {
		d.afflicted[w] = true
		cfg.Faults = o.HealthPlan.Start(seed)
	}
	res, _, err := record.RunResumable(ctx, cfg, 0, d.vms[w], record.ResumeHost{
		// A resumed session waits for a slot like any client, parked on
		// its process clock.
		Admit: func(ctx context.Context) (*cloud.VM, error) {
			vm, err := d.svc.AcquireShedAware(ctx, tm, cfg.Obs, seed, d.request(w))
			if err != nil {
				return nil, fmt.Errorf("platform: admitting workload %d: %w", w, err)
			}
			return vm, d.attest(w, vm)
		},
		Crash: func(vm *cloud.VM) {
			d.svc.Crash(vm)
			d.vms[w] = nil
		},
		Fleet: d.reg, Flight: d.flight, Clock: tm,
	})
	if err != nil {
		return fmt.Errorf("platform: drill workload %d: %w", w, err)
	}
	d.seals[w], d.resume[w] = res.Signed.MAC, res.Stats.Resumes
	if d.store == nil {
		return nil
	}
	return d.publish(w, res)
}

// arrive admits one cached-drill client at its arrival time: lookup, then
// coalesce onto the workload's in-flight record, or lead it through the
// workload's shard.
func (d *drill) arrive(ctx context.Context, client int) error {
	w := client % d.o.Workloads
	now := d.eng.Now()
	id := fmt.Sprintf("client-%05d", client)
	wl := d.ckeys[w].Workload
	if _, ok := d.store.Get(d.ckeys[w]); ok {
		d.counts.Hits++
		d.flight.Emit(now, id, obs.FKCacheHit, wl)
		return nil
	}
	d.counts.Misses++
	d.flight.Emit(now, id, obs.FKCacheMiss, wl)
	if d.inflight[w] {
		d.counts.Coalesced++
		d.pending[w]++
		d.reg.Add(obs.MCacheCoalesced, 1)
		d.flight.Emit(now, id, obs.FKCacheCoalesce, wl)
		return nil
	}
	place, err := d.lead(ctx, w)
	if errors.Is(err, grterr.ErrShedding) {
		// The workload keeps no leader; its next miss leads afresh.
		return nil
	}
	d.inflight[w] = true
	d.counts.MaxShardQueue = max(d.counts.MaxShardQueue, place)
	return err
}

// lead admits workload w through its shard and starts its record session:
// at once on a free slot, or, from a place in the shard's queue, inside the
// release that hands the slot over. It returns that place, 0 when the
// session started.
func (d *drill) lead(ctx context.Context, w int) (int, error) {
	asked := d.eng.Now()
	granted := func(vm *cloud.VM, err error) {
		d.waits = append(d.waits, d.eng.Now()-asked)
		if d.ended && err == nil {
			d.svc.Release(vm)
			return
		}
		d.start(ctx, w, vm, err)
	}
	vm, turn, err := d.svc.Admit(d.request(w), granted)
	switch {
	case err != nil:
		return 0, fmt.Errorf("platform: admitting workload %d: %w", w, err)
	case turn != nil:
		return turn.Place, nil
	}
	granted(vm, nil)
	return 0, nil
}

// start launches workload w's record session as an engine process, keyed
// after every client arrival sharing its timestamp, on the VM its shard
// granted or with the launch's error. The process attests the VM first; an
// error fails it, and with it the drill.
func (d *drill) start(ctx context.Context, w int, vm *cloud.VM, err error) {
	d.vms[w] = vm
	d.eng.Go(uint64(1_000_000+w), func(tm timesim.Time) error {
		if err == nil {
			err = d.attest(w, vm)
		}
		if err != nil {
			return fmt.Errorf("platform: admitting workload %d: %w", w, err)
		}
		return d.session(ctx, w, tm)
	})
}

// publish stores workload w's recording, serves its coalesced followers and
// releases its VM, whose slot goes to the shard's oldest queued admission.
func (d *drill) publish(w int, res *record.Result) error {
	if err := d.store.Put(&castore.Entry{
		Key:        d.ckeys[w],
		Payload:    res.Signed.Payload,
		MAC:        res.Signed.MAC,
		SessionKey: d.skeys[w],
		ProductID:  res.Recording.ProductID,
	}); err != nil {
		return fmt.Errorf("platform: publishing workload %d: %w", w, err)
	}
	d.served += d.pending[w]
	d.pending[w] = 0
	d.inflight[w] = false
	d.svc.Release(d.vms[w])
	d.vms[w] = nil
	return nil
}

// quantileWait is the nearest-rank quantile of the exact wait samples:
// unlike the registry histogram it is not bucketed.
func quantileWait(waits []time.Duration, q float64) time.Duration {
	if len(waits) == 0 {
		return 0
	}
	slices.Sort(waits)
	idx := int(float64(len(waits))*q+0.9999999) - 1
	return waits[min(max(idx, 0), len(waits)-1)]
}
