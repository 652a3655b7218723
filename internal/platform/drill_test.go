package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"gpurelay/internal/cloud"
	"gpurelay/internal/faultsim"
	"gpurelay/internal/grterr"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/obs"
	"gpurelay/internal/record"
	"gpurelay/internal/shim"
)

func runDrill(t *testing.T, o DrillOptions) *DrillResult {
	t.Helper()
	res, err := Drill(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func plan(t *testing.T, spec string) *faultsim.Plan {
	t.Helper()
	p, err := faultsim.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// warmSnapshot records one donor session of m and exports the speculation
// history it validated.
func warmSnapshot(t *testing.T, m *mlfw.Model) map[string]shim.Outcome {
	t.Helper()
	hist := shim.NewHistory(3)
	if _, err := record.RunContext(context.Background(), record.Config{
		Model: m, SKU: mali.G71MP8, Network: netsim.Loopback,
		History:               hist,
		SessionKey:            SessionKey(99, 0),
		ClientSeed:            7,
		InjectMispredictionAt: -1,
		SessionID:             "warm-donor",
	}); err != nil {
		t.Fatal(err)
	}
	ready := hist.ExportReady()
	if len(ready) == 0 {
		t.Fatalf("%s donor session validated no signatures", m.Name)
	}
	return ready
}

// TestDrillSealOracle is the drill's seal oracle: knob combinations drawn
// from a fixed seed must each reproduce their Reference drill's seal for
// every workload, and repeat their seals and counters exactly on a second
// run. Every other draw runs a fault plan, dealt from a shuffled cycle of
// the plans that interrupt a session, so each of them runs.
func TestDrillSealOracle(t *testing.T) {
	micro := mlfw.Micro()
	warm := warmSnapshot(t, micro)
	// Not thermal: it interrupts no session, and a plan draw must.
	plans := []string{"dying-gpu", "falloff", "ecc", "vm-crash", "outage", "flaky"}
	rng := rand.New(rand.NewSource(4))
	refs := map[int]*DrillResult{}
	seen := map[string]bool{}
	var deck []string // the rest of the current cycle of plans
	for draw := 0; draw < 14; draw++ {
		o := DrillOptions{Model: micro, SKU: mali.G71MP8, Seed: 11,
			Sessions: 2 + rng.Intn(7), Shards: 1 + rng.Intn(3), Instrument: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			o.Workloads = 1 + rng.Intn(o.Sessions)
		}
		if rng.Intn(2) == 0 {
			o.WarmStart = warm
		}
		if draw%2 == 0 {
			if len(deck) == 0 {
				deck = slices.Clone(plans)
				rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			}
			o.HealthPlan, deck = plan(t, deck[0]), deck[1:]
			seen["plan "+o.HealthPlan.Name] = true
		}
		o.Parallel = o.Workloads == 0 && o.HealthPlan == nil && rng.Intn(2) == 0
		for knob, on := range map[string]bool{
			"parallel": o.Parallel, "shards": o.Shards > 1, "cache": o.Workloads > 0,
			"warm": o.WarmStart != nil, "plan": o.HealthPlan != nil, "instrument": o.Instrument,
		} {
			seen[fmt.Sprintf("%s=%v", knob, on)] = true
		}

		ref := o.Reference()
		if refs[ref.Sessions] == nil {
			refs[ref.Sessions] = runDrill(t, ref)
		}
		want := refs[ref.Sessions].Seals
		a, b := runDrill(t, o), runDrill(t, o)
		if !slices.Equal(a.Seals, want) {
			t.Fatalf("draw %d %+v: seals differ from the reference", draw, a.Options)
		}
		if a.DrillCounts != b.DrillCounts || !slices.Equal(a.Seals, b.Seals) || !slices.Equal(a.Resumes, b.Resumes) {
			t.Fatalf("draw %d %+v: second run diverged: %+v vs %+v", draw, a.Options, a.DrillCounts, b.DrillCounts)
		}
		if o.HealthPlan != nil && a.Interrupted == 0 {
			t.Fatalf("draw %d: plan %s interrupted no session", draw, o.HealthPlan.Name)
		}
		snap := a.Fleet.Snapshot()
		admitted := snap.Counter(obs.MFleetAdmissions, obs.L("outcome", "immediate")) +
			snap.Counter(obs.MFleetAdmissions, obs.L("outcome", "queued"))
		resumes := 0
		for _, r := range a.Resumes {
			resumes += r
		}
		if o.Workloads > 0 && admitted != int64(a.Records+resumes) {
			t.Fatalf("draw %d: %d VM admissions for %d records and %d resumes", draw, admitted, a.Records, resumes)
		}
		if a.Service.ActiveVMs() != 0 || a.Service.Queued() != 0 {
			t.Fatalf("draw %d: %d VMs live, %d queued after the drill", draw, a.Service.ActiveVMs(), a.Service.Queued())
		}
	}
	for _, knob := range []string{"parallel", "shards", "cache", "warm", "plan", "instrument"} {
		if !seen[knob+"=true"] || !seen[knob+"=false"] {
			t.Errorf("the draws never set %s both ways", knob)
		}
	}
	for _, p := range plans {
		if !seen["plan "+p] {
			t.Errorf("the draws never ran plan %s", p)
		}
	}
}

// TestDrillRefusesUnattestedVM checks that the drill attests the VMs it
// admits, as every record entry point does: a drill expecting another
// measurement than its image boots is refused with ErrAttestation, holds no
// VM afterwards and publishes nothing, cached or not.
func TestDrillRefusesUnattestedVM(t *testing.T) {
	for _, workloads := range []int{0, 2} {
		d, err := newDrill(DrillOptions{Model: mlfw.Micro(), SKU: mali.G71MP8, Seed: 3, Sessions: 4, Workloads: workloads})
		if err != nil {
			t.Fatal(err)
		}
		d.want[0] ^= 0xff
		if _, err := d.run(context.Background()); !errors.Is(err, grterr.ErrAttestation) {
			t.Fatalf("workloads=%d: err = %v, want ErrAttestation", workloads, err)
		}
		if n := d.svc.ActiveVMs(); n != 0 {
			t.Fatalf("workloads=%d: %d VMs still held after a refused attestation", workloads, n)
		}
		if d.store != nil && d.store.Len() != 0 {
			t.Fatalf("workloads=%d: %d recordings published from unattested VMs", workloads, d.store.Len())
		}
		for w, seal := range d.seals {
			if seal != ([32]byte{}) {
				t.Fatalf("workloads=%d: workload %d sealed on an unattested VM", workloads, w)
			}
		}
	}
}

func TestFleetDrillRuns(t *testing.T) {
	res := runDrill(t, DrillOptions{Model: mlfw.MNIST(), SKU: mali.G71MP8, Seed: 42, Sessions: 4})
	if len(res.Seals) != 4 || res.Records != 4 {
		t.Fatalf("drill returned %d seals, %d records", len(res.Seals), res.Records)
	}
	if res.Events == 0 || res.VirtualTime == 0 {
		t.Fatalf("engine ran %d events to %v", res.Events, res.VirtualTime)
	}
	if res.Batches.MaxWidth != 4 {
		t.Fatalf("max batch width %d, want every session in lockstep (4)", res.Batches.MaxWidth)
	}
	// Distinct workloads ⇒ distinct recordings.
	if res.Seals[0] == res.Seals[1] {
		t.Fatal("distinct drill sessions produced identical seals")
	}
	if res.Health.Window.Sessions != 4 || res.Health.State != cloud.Healthy {
		t.Fatalf("health: %d sessions, state %s", res.Health.Window.Sessions, res.Health.State)
	}
}

// TestFleetDrillDeterminism checks that the parallel engine produces
// recordings byte-identical to the serial engine's, on the same timeline,
// across GOMAXPROCS ∈ {1, 2, 8} and repeated runs.
func TestFleetDrillDeterminism(t *testing.T) {
	o := DrillOptions{Model: mlfw.MNIST(), SKU: mali.G71MP8, Seed: 42, Sessions: 8}
	serial := runDrill(t, o)
	o.Parallel = true
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 2; rep++ {
			par := runDrill(t, o)
			for i := range serial.Seals {
				if par.Seals[i] != serial.Seals[i] {
					t.Fatalf("GOMAXPROCS=%d rep %d: session %d seal diverged from serial engine", procs, rep, i)
				}
			}
			if par.VirtualTime != serial.VirtualTime || par.Events != serial.Events {
				t.Fatalf("GOMAXPROCS=%d rep %d: timeline %v/%d events, serial %v/%d events",
					procs, rep, par.VirtualTime, par.Events, serial.VirtualTime, serial.Events)
			}
		}
	}
}

func TestFleetDrillValidation(t *testing.T) {
	ok := DrillOptions{Model: mlfw.Micro(), SKU: mali.G71MP8}
	for _, c := range []struct {
		reason string
		edit   func(*DrillOptions)
	}{
		{"needs_model", func(o *DrillOptions) { o.Model = nil }},
		{"needs_model", func(o *DrillOptions) { o.SKU = nil }},
		{"bad_sku", func(o *DrillOptions) { o.SKU = &mali.SKU{Name: "bogus"} }},
		{"bad_sessions", func(o *DrillOptions) { o.Sessions = -1 }},
		{"engine_conflict", func(o *DrillOptions) { o.Parallel, o.HealthPlan = true, plan(t, "dying-gpu") }},
	} {
		o := ok
		c.edit(&o)
		_, err := Drill(context.Background(), o)
		var oe *OptionError
		if !errors.As(err, &oe) || oe.Reason != c.reason {
			t.Errorf("want rejection %q, got %v", c.reason, err)
		}
		if o.Validate() == nil {
			t.Errorf("Validate accepted options Drill rejects with %q", c.reason)
		}
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetDrillInstrumented checks what an instrumented drill exports: the
// fleet registry, the flight journal, and one Chrome trace with per-handler
// engine spans and per-session spans.
func TestFleetDrillInstrumented(t *testing.T) {
	const sessions = 4
	o := DrillOptions{Model: mlfw.MNIST(), SKU: mali.G71MP8, Seed: 42, Sessions: sessions, Parallel: true}
	bare := runDrill(t, o)
	o.Instrument = true
	inst := runDrill(t, o)

	if inst.Flight == nil || inst.EngineTrace == nil || len(inst.Scopes) != sessions {
		t.Fatal("instrumented drill did not populate observability fields")
	}
	if bare.Flight != nil || bare.EngineTrace != nil || bare.Scopes != nil {
		t.Error("bare drill populated observability fields")
	}
	snap := inst.Fleet.Snapshot()
	if got := snap.Counter(obs.MFleetAdmissions, obs.L("outcome", "immediate")); got != sessions {
		t.Errorf("immediate admissions = %d, want %d", got, sessions)
	}
	if snap.CounterTotal(obs.MShimCommits) == 0 {
		t.Error("no commits reached the fleet registry")
	}
	if len(inst.Health.Sessions) != sessions {
		t.Errorf("health report has %d session rows, want %d", len(inst.Health.Sessions), sessions)
	}
	kinds := map[string]bool{}
	for _, e := range inst.Flight.Events() {
		kinds[e.Kind] = true
	}
	for _, want := range []string{obs.FKAdmission, obs.FKSync} {
		if !kinds[want] {
			t.Errorf("flight journal has no %q events (kinds: %v)", want, kinds)
		}
	}

	var buf bytes.Buffer
	if err := obs.WriteFleetTrace(&buf, inst.EngineTrace, inst.Scopes...); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("fleet trace is not valid JSON: %v", err)
	}
	var handlerSpans, sessionSpans int
	for _, e := range doc.TraceEvents {
		if e.Pid == 2 && e.Name == "handle" {
			handlerSpans++
		}
		if e.Pid == 1 && e.Ph == "X" {
			sessionSpans++
		}
	}
	if handlerSpans == 0 || sessionSpans == 0 {
		t.Errorf("trace export: %d engine handler spans, %d session spans", handlerSpans, sessionSpans)
	}
}

// TestFleetDrillWarmStart checks that seeding every session from a fleet
// peer's validated commits makes the drill speculate strictly more.
func TestFleetDrillWarmStart(t *testing.T) {
	o := DrillOptions{Model: mlfw.MNIST(), SKU: mali.G71MP8, Seed: 42, Sessions: 4, Instrument: true}
	cold := runDrill(t, o)
	o.WarmStart = warmSnapshot(t, mlfw.MNIST())
	warmed := runDrill(t, o)
	if w, c := warmed.Health.Window.SpecCommits, cold.Health.Window.SpecCommits; w <= c {
		t.Fatalf("warm-started drill speculated %d commits, cold %d: want strictly more", w, c)
	}
}

func TestShardedFleetDrillRuns(t *testing.T) {
	res := runDrill(t, DrillOptions{Model: mlfw.Micro(), SKU: mali.G71MP8, Seed: 42, Sessions: 200, Workloads: 10, Shards: 4})
	if res.Records != 10 || res.Shed != 0 {
		t.Fatalf("%d records, %d shed for 10 workloads", res.Records, res.Shed)
	}
	if res.Hits+res.Misses != 200 || res.Misses != res.Records+res.Coalesced {
		t.Fatalf("hits %d, misses %d, records %d, coalesced %d over 200 clients",
			res.Hits, res.Misses, res.Records, res.Coalesced)
	}
	win := res.Health.Window
	if win.RecordAmplification != 1.0 || win.CacheKeys != 10 || win.CacheFills != 10 {
		t.Fatalf("health: amplification %v over %d keys, %d fills", win.RecordAmplification, win.CacheKeys, win.CacheFills)
	}
	if win.CacheHitRate != float64(res.Hits)/200 {
		t.Fatalf("health rollup cache hit rate %v disagrees with %d/200 hits", win.CacheHitRate, res.Hits)
	}
	for w, seal := range res.Seals {
		if seal == ([32]byte{}) {
			t.Fatalf("workload %d has no seal", w)
		}
	}
}

// TestShardedFleetDrillDeterminism runs the 10k-client / 100-workload
// cached drill twice: both runs must report identical counts and seals,
// record each workload exactly once, and admit one VM per record and none
// per cache hit.
func TestShardedFleetDrillDeterminism(t *testing.T) {
	clients, workloads := 10000, 100
	if raceDetectorEnabled {
		clients, workloads = 2000, 50
	}
	o := DrillOptions{Model: mlfw.Micro(), SKU: mali.G71MP8, Seed: 42,
		Sessions: clients, Workloads: workloads, Shards: 8}
	a := runDrill(t, o)
	if a.Records != workloads || a.Health.Window.RecordAmplification != 1.0 {
		t.Fatalf("amplification %v (%d records / %d workloads), want exactly 1.0",
			a.Health.Window.RecordAmplification, a.Records, workloads)
	}
	if a.Shed != 0 {
		t.Fatalf("%d admissions shed", a.Shed)
	}
	if rate := a.Health.Window.CacheHitRate; rate < 0.9 {
		t.Fatalf("cache hit rate %v over %d admissions of %d workloads", rate, clients, workloads)
	}
	snap := a.Fleet.Snapshot()
	admitted := snap.Counter(obs.MFleetAdmissions, obs.L("outcome", "immediate")) +
		snap.Counter(obs.MFleetAdmissions, obs.L("outcome", "queued"))
	if admitted != int64(a.Records) {
		t.Fatalf("%d VM admissions for %d records: cache hits consumed VM time", admitted, a.Records)
	}
	if sessions := snap.Counter(obs.MFleetSessions); sessions != int64(a.Records) {
		t.Fatalf("%d completed VM sessions for %d records", sessions, a.Records)
	}
	if a.Service.ActiveVMs() != 0 || a.Service.Queued() != 0 {
		t.Fatalf("drill left %d VMs live, %d queued", a.Service.ActiveVMs(), a.Service.Queued())
	}

	b := runDrill(t, o)
	if a.DrillCounts != b.DrillCounts {
		t.Fatalf("run counts diverged: %+v vs %+v", a.DrillCounts, b.DrillCounts)
	}
	if !slices.Equal(a.Seals, b.Seals) {
		t.Fatal("workload seals diverged between runs")
	}
}

// TestShardedFleetDrillSheds overflows one shard's pool and queue and checks
// the drill sheds and counts the overflow instead of deadlocking, and that
// the health rollup degrades on it.
func TestShardedFleetDrillSheds(t *testing.T) {
	res := runDrill(t, DrillOptions{Model: mlfw.Micro(), SKU: mali.G71MP8, Seed: 42, Sessions: 200, Workloads: 100})
	if res.Shed == 0 || res.MaxShardQueue != 64 {
		t.Fatalf("%d shed, queue depth %d: want shedding behind a full queue of 64", res.Shed, res.MaxShardQueue)
	}
	if got := res.Fleet.Snapshot().Counter(obs.MShardShed, obs.L("shard", "0")); got != int64(res.Shed) {
		t.Fatalf("shard shed counter %d, drill counted %d", got, res.Shed)
	}
	if res.Health.State == cloud.Healthy || len(res.Health.Reasons) == 0 {
		t.Fatalf("health rollup ignored %d shed admissions: %s %v", res.Shed, res.Health.State, res.Health.Reasons)
	}
	// Every client was served one way or shed.
	if res.Hits+res.Coalesced+res.Records+res.Shed != 200 {
		t.Fatalf("hits %d + coalesced %d + records %d + shed %d != 200 clients",
			res.Hits, res.Coalesced, res.Records, res.Shed)
	}
}

// TestContendedDrillAdmitsThroughPool runs a cached drill whose one shard
// queues and sheds leaders, and checks that the fleet registry and the
// health report describe the admissions the drill made: 16 leaders took a
// slot at once, 84 waited in the shard's queue and 28 were shed, all 128 of
// them through the shard, and the health report's p99 wait is the bucket
// bound above the drill's exact p99 leader wait. The drill's own counts are
// pinned too.
func TestContendedDrillAdmitsThroughPool(t *testing.T) {
	res := runDrill(t, DrillOptions{Model: mlfw.Micro(), SKU: mali.G71MP8, Seed: 3,
		Sessions: 400, Workloads: 100, Instrument: true})
	c := res.DrillCounts
	if c.Records != 100 || c.Shed != 28 || c.MaxShardQueue != 64 || c.Events != 103600 ||
		c.P99AdmissionWait != 29848175*time.Nanosecond {
		t.Fatalf("drill counts %+v", c)
	}
	snap := res.Fleet.Snapshot()
	for outcome, want := range map[string]int64{"immediate": 16, "queued": 84, "rejected": 28} {
		if got := snap.Counter(obs.MFleetAdmissions, obs.L("outcome", outcome)); got != want {
			t.Errorf("%s admissions = %d, want %d", outcome, got, want)
		}
	}
	shard := obs.L("shard", "0")
	if got := snap.Counter(obs.MShardRequests, shard); got != 128 {
		t.Errorf("shard requests = %d, want 128 leaders", got)
	}
	if got := snap.Counter(obs.MShardShed, shard); got != int64(c.Shed) {
		t.Errorf("grt_shard_shed_total = %d, drill shed %d", got, c.Shed)
	}
	if got := res.Health.Window.AdmissionP99; got != 0.05 {
		t.Errorf("health admission p99 = %vs, want 0.05s, the bucket bound above %v", got, c.P99AdmissionWait)
	}
	if res.Service.ActiveVMs() != 0 || res.Service.Queued() != 0 {
		t.Fatalf("%d VMs live, %d queued after the drill", res.Service.ActiveVMs(), res.Service.Queued())
	}
}

// TestContendedDrillUnderFaults runs a cached drill whose one shard queues
// 64 leaders under a fault plan: a resumed session then waits for a slot in
// the shard's queue like any leader. Every seal must match the reference
// and repeat on a second run; every VM admission is a record or a resume;
// the health report sees the queued waits; nothing is left held or queued.
func TestContendedDrillUnderFaults(t *testing.T) {
	for _, spec := range []string{"vm-crash", "dying-gpu"} {
		t.Run(spec, func(t *testing.T) {
			o := DrillOptions{Model: mlfw.Micro(), SKU: mali.G71MP8, Seed: 42,
				Sessions: 160, Workloads: 80, HealthPlan: plan(t, spec), Instrument: true}
			a, b := runDrill(t, o), runDrill(t, o)
			if ref := runDrill(t, o.Reference()); !slices.Equal(a.Seals, ref.Seals) {
				t.Fatal("seals differ from the reference")
			}
			if a.DrillCounts != b.DrillCounts || !slices.Equal(a.Seals, b.Seals) || !slices.Equal(a.Resumes, b.Resumes) {
				t.Fatalf("second run diverged: %+v vs %+v", a.DrillCounts, b.DrillCounts)
			}
			resumes := 0
			for _, r := range a.Resumes {
				resumes += r
			}
			snap := a.Fleet.Snapshot()
			immediate := snap.Counter(obs.MFleetAdmissions, obs.L("outcome", "immediate"))
			queued := snap.Counter(obs.MFleetAdmissions, obs.L("outcome", "queued"))
			if resumes == 0 || immediate+queued != int64(a.Records+resumes) {
				t.Fatalf("%d immediate + %d queued admissions for %d records and %d resumes",
					immediate, queued, a.Records, resumes)
			}
			if a.MaxShardQueue != 64 || queued < 64 {
				t.Fatalf("%d queued admissions, deepest queue %d: want at least the 64 leaders that waited",
					queued, a.MaxShardQueue)
			}
			if !slices.ContainsFunc(a.Health.Reasons, func(r string) bool {
				return strings.HasPrefix(r, "p99 admission wait") && strings.HasSuffix(r, "exceeds 2.000s")
			}) {
				t.Fatalf("health reasons %q miss the p99 admission wait", a.Health.Reasons)
			}
			if a.Service.ActiveVMs() != 0 || a.Service.Queued() != 0 {
				t.Fatalf("%d VMs live, %d queued after the drill", a.Service.ActiveVMs(), a.Service.Queued())
			}
		})
	}
}

func TestShardedFleetDrillValidation(t *testing.T) {
	for _, c := range []struct {
		reason string
		o      DrillOptions
	}{
		{"workloads_exceed_sessions", DrillOptions{Sessions: 10, Workloads: 20}},
		{"bad_workloads", DrillOptions{Workloads: -1}},
		{"bad_shards", DrillOptions{Workloads: 2, Shards: -1}},
		{"engine_conflict", DrillOptions{Workloads: 2, Parallel: true}},
	} {
		c.o.Model, c.o.SKU = mlfw.Micro(), mali.G71MP8
		var oe *OptionError
		if err := c.o.Validate(); !errors.As(err, &oe) || oe.Reason != c.reason {
			t.Errorf("want rejection %q, got %v", c.reason, err)
		}
	}
}

// TestDegradedFleetDrill drills a small fleet through the dying-gpu plan:
// every afflicted session must migrate off its dead silicon, and the health
// report must count every session and every resume.
func TestDegradedFleetDrill(t *testing.T) {
	res := runDrill(t, DrillOptions{Model: mlfw.MNIST(), SKU: mali.G71MP8, Seed: 42, Sessions: 8,
		HealthPlan: plan(t, "dying-gpu"), Instrument: true})
	if res.Faulted != 2 || res.Interrupted != 2 {
		t.Fatalf("faulted %d, interrupted %d: want sessions 0 and 4 afflicted and interrupted", res.Faulted, res.Interrupted)
	}
	// dying-gpu kills twice per session (fall-off, then ECC-DBE on the
	// replacement), so each afflicted session migrates twice.
	if res.Migrated != 4 {
		t.Fatalf("migrations = %d, want 4", res.Migrated)
	}
	devices := res.Service.Devices()
	var dead, degraded int
	for _, d := range devices {
		switch {
		case d.State == "dead" && d.FallOffs > 0:
			dead++
		case d.State == "degraded" && d.ECCDBE > 0:
			degraded++
		case d.State != "healthy" || d.Migrations > 0:
			t.Fatalf("device %s: state %s, %d migrations", d.ID, d.State, d.Migrations)
		}
	}
	if dead != 2 || degraded != 2 || len(devices) != 8+4 {
		t.Fatalf("devices: %d dead, %d degraded of %d, want 2, 2 of 12 (one replacement per migration)",
			dead, degraded, len(devices))
	}
	st := res.Health.Window
	if st.Sessions != 8 || st.Resumed != 4 || st.Crashes != 4 {
		t.Fatalf("health window: %d sessions, %d resumed, %d crashes, want 8, 4, 4", st.Sessions, st.Resumed, st.Crashes)
	}
	if st.Checkpoints == 0 {
		t.Fatal("health window counts no checkpoints, but the afflicted sessions checkpoint at every job")
	}
	if st.DeviceFallOffs != 2 || st.DeviceECCDBE != 2 || st.DeviceMigrations != 4 || st.DeviceThrottledNS <= 0 {
		t.Fatalf("health window: falloffs=%d dbe=%d migrations=%d throttled=%dns",
			st.DeviceFallOffs, st.DeviceECCDBE, st.DeviceMigrations, st.DeviceThrottledNS)
	}
	if res.Health.State != cloud.Degraded {
		t.Fatalf("fleet state = %s, want degraded (GPUs died)", res.Health.State)
	}
	// The journal also carries faultsim's own health events, so device
	// losses are counted by their note.
	var lost, migrated int
	for _, e := range res.Flight.Events() {
		switch {
		case e.Kind == obs.FKHealthEvent && strings.HasPrefix(e.Note, "device_lost "):
			lost++
		case e.Kind == obs.FKHealthMigrate:
			migrated++
		}
	}
	if lost != 4 || migrated != 4 {
		t.Fatalf("flight journal: %d device losses, %d migrations, want 4 of each", lost, migrated)
	}
}

// TestDegradedFleetDrillDeterministic runs a dying-gpu drill twice: both
// runs must migrate the same sessions and seal every recording identically
// to the undisturbed reference drill.
func TestDegradedFleetDrillDeterministic(t *testing.T) {
	o := DrillOptions{Model: mlfw.MNIST(), SKU: mali.G71MP8, Seed: 7, Sessions: 4,
		HealthPlan: plan(t, "dying-gpu")}
	a, b := runDrill(t, o), runDrill(t, o)
	ref := runDrill(t, o.Reference())
	for i := range ref.Seals {
		if a.Seals[i] != b.Seals[i] {
			t.Fatalf("session %d: run-twice seals differ", i)
		}
		if a.Seals[i] != ref.Seals[i] {
			t.Fatalf("session %d: seal differs from the reference", i)
		}
	}
	if a.Migrated == 0 || a.Migrated != b.Migrated {
		t.Fatalf("migrations: first run %d, second run %d", a.Migrated, b.Migrated)
	}
}
