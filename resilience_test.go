package gpurelay

// Resilience acceptance tests: the chaos matrix (fault plans × models) plus
// checkpoint round-trip, tamper, and external-resume coverage. The matrix
// asserts the core stitching guarantee — a session killed and resumed
// mid-record produces a recording byte-identical to an uninterrupted run —
// and TestObsResilience* verify the resilience counters surface in the
// service's fleet metrics (those run under the CI telemetry smoke too).
//
// The chaos matrices run their MNIST row unless GRT_CHAOS_FULL=1 adds the
// AlexNet and SqueezeNet rows. The CI chaos job sets it and runs
// `go test -race -run 'TestChaos|TestResumable|TestObsResilience'` with
// GRT_CHAOS_METRICS set, publishing the fleet metrics snapshot of the
// shared chaos service as a build artifact.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gpurelay/internal/obs"
)

var chaosModels = []struct {
	name       string
	model      func() *Model
	inputElems int
}{
	{"MNIST", MNIST, 28 * 28},
	{"AlexNet", AlexNet, 3 * 227 * 227},
	{"SqueezeNet", SqueezeNet, 3 * 224 * 224},
}

// Every plan here carries at least one fatal fault that fires within each
// model's record timeline, so every cell exercises a genuine session loss.
var chaosPlans = []string{"outage", "vm-crash", "flaky"}

// replayOutputs replays a recording with deterministic synthetic weights and
// input and returns the inference output.
func replayOutputs(t *testing.T, client *Client, rec *Recording, inputElems int) []float32 {
	t.Helper()
	sess, err := client.NewReplaySession(rec)
	if err != nil {
		t.Fatalf("replay session: %v", err)
	}
	state := uint64(7)
	next := func() float32 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return (float32(state%2048)/1024 - 1) / 8
	}
	for _, r := range sess.WeightRegions() {
		w := make([]float32, r.Elems)
		for i := range w {
			w[i] = next()
		}
		if err := sess.SetWeights(r.Name, w); err != nil {
			t.Fatal(err)
		}
	}
	input := make([]float32, inputElems)
	for i := range input {
		input[i] = float32(i % 256)
	}
	if err := sess.SetInput(input); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	out, err := sess.Output()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestChaosMatrix records every model under every fault plan and checks the
// stitched recording against an undisturbed baseline: byte-identical payload,
// verifiable seal, identical replay outputs.
func TestChaosMatrix(t *testing.T) {
	// The AlexNet and SqueezeNet rows take most of the root package's test
	// time; the CI chaos jobs run them with GRT_CHAOS_FULL=1.
	models := chaosModels[:1]
	if os.Getenv("GRT_CHAOS_FULL") == "1" {
		models = chaosModels
	}

	// One shared service hosts all chaos cells, so the fleet registry
	// aggregates the whole matrix — that snapshot is the CI artifact.
	chaosSvc := NewService()

	// Baselines are recorded once per model (all plans compare against the
	// same undisturbed run: a fresh client and a fresh service reproduce
	// the same session seed the chaos cell gets).
	type baseline struct {
		once    sync.Once
		payload []byte
		outputs []float32
		err     error
	}
	baselines := map[string]*baseline{}
	for _, m := range chaosModels {
		baselines[m.name] = &baseline{}
	}

	t.Run("matrix", func(t *testing.T) {
		for _, m := range models {
			for _, planName := range chaosPlans {
				m, planName := m, planName
				t.Run(m.name+"/"+planName, func(t *testing.T) {
					t.Parallel()
					b := baselines[m.name]
					b.once.Do(func() {
						client := NewClient("chaos-base-"+m.name, MaliG71MP8)
						rec, _, err := client.Record(NewService(), m.model(), RecordOptions{})
						if err != nil {
							b.err = err
							return
						}
						b.payload, _, _ = rec.Bundle()
						b.outputs = replayOutputs(t, client, rec, m.inputElems)
					})
					if b.err != nil {
						t.Fatalf("baseline record: %v", b.err)
					}

					plan, err := ParseFaultPlan(planName)
					if err != nil {
						t.Fatal(err)
					}
					client := NewClient("chaos-"+m.name+"-"+planName, MaliG71MP8)
					var mu sync.Mutex
					checkpoints, lastJob := 0, -1
					rec, stats, err := client.RecordResumable(context.Background(), chaosSvc, m.model(),
						ResilienceOptions{
							Faults: plan,
							OnCheckpoint: func(cp *Checkpoint) {
								mu.Lock()
								checkpoints++
								lastJob = cp.Job()
								mu.Unlock()
							},
						})
					if err != nil {
						t.Fatalf("chaos record: %v", err)
					}
					if stats.Resumes < 1 {
						t.Fatalf("plan %q never killed the session (resumes = %d)", planName, stats.Resumes)
					}
					mu.Lock()
					t.Logf("resumes=%d checkpoints=%d lastJob=%d resyncEvents=%d",
						stats.Resumes, checkpoints, lastJob, stats.Shim.ResyncEvents)
					if checkpoints == 0 {
						mu.Unlock()
						t.Fatal("no checkpoints captured")
					}
					mu.Unlock()

					payload, mac, key := rec.Bundle()
					if !bytes.Equal(b.payload, payload) {
						t.Fatalf("stitched recording differs from baseline: %d vs %d bytes",
							len(payload), len(b.payload))
					}
					if _, err := RecordingFromBundle(payload, mac, key); err != nil {
						t.Fatalf("stitched recording fails verification: %v", err)
					}
					out := replayOutputs(t, client, rec, m.inputElems)
					if len(out) != len(b.outputs) {
						t.Fatalf("replay outputs: %d vs baseline %d", len(out), len(b.outputs))
					}
					for i := range out {
						if out[i] != b.outputs[i] {
							t.Fatalf("replay output %d differs: %v vs %v", i, out[i], b.outputs[i])
						}
					}
				})
			}
		}
	})

	if path := os.Getenv("GRT_CHAOS_METRICS"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatalf("creating chaos metrics artifact: %v", err)
		}
		if err := chaosSvc.WriteMetrics(f); err != nil {
			t.Fatalf("writing chaos metrics artifact: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote chaos fleet metrics to %s", path)
	}
}

// Device-fault axis of the chaos matrix. The thermal cell uses a window
// wide enough to cover any model's whole record timeline (guaranteeing
// stretched GPU work); ecc and falloff are the fatal presets, each killing
// the device under the session exactly once.
var deviceChaosPlans = []struct {
	name  string
	spec  string
	fatal bool
}{
	{"thermal", "thermal@100ms+5m:x4", false},
	{"ecc", "ecc", true},
	{"falloff", "falloff", true},
}

// TestChaosDeviceMatrix records every model under every device-health plan
// and checks the (possibly migrated) recording against an undisturbed
// baseline, plus the device registry's scar tissue: thermal throttling
// stretches GPU time but loses nothing; an uncorrectable ECC fault degrades
// the device; a bus fall-off kills it. Either fatal plan must drive exactly
// one cross-VM migration, and all three must seal byte-identical bytes.
func TestChaosDeviceMatrix(t *testing.T) {
	models := chaosModels[:1] // every model with GRT_CHAOS_FULL=1, as in TestChaosMatrix
	if os.Getenv("GRT_CHAOS_FULL") == "1" {
		models = chaosModels
	}

	type baseline struct {
		once    sync.Once
		payload []byte
		outputs []float32
		err     error
	}
	baselines := map[string]*baseline{}
	for _, m := range chaosModels {
		baselines[m.name] = &baseline{}
	}

	for _, m := range models {
		for _, pc := range deviceChaosPlans {
			m, pc := m, pc
			t.Run(m.name+"/"+pc.name, func(t *testing.T) {
				t.Parallel()
				b := baselines[m.name]
				b.once.Do(func() {
					client := NewClient("devchaos-base-"+m.name, MaliG71MP8)
					rec, _, err := client.Record(NewService(), m.model(), RecordOptions{})
					if err != nil {
						b.err = err
						return
					}
					b.payload, _, _ = rec.Bundle()
					b.outputs = replayOutputs(t, client, rec, m.inputElems)
				})
				if b.err != nil {
					t.Fatalf("baseline record: %v", b.err)
				}

				plan, err := ParseFaultPlan(pc.spec)
				if err != nil {
					t.Fatal(err)
				}
				// A fresh service per cell so the device inventory shows only
				// this cell's scars.
				svc := NewService()
				client := NewClient("devchaos-"+m.name+"-"+pc.name, MaliG71MP8)
				rec, stats, err := client.RecordResumable(context.Background(), svc, m.model(),
					ResilienceOptions{Faults: plan})
				if err != nil {
					t.Fatalf("device chaos record: %v", err)
				}

				var degraded, dead, migrations int
				for _, d := range svc.Devices() {
					switch d.State {
					case "degraded":
						degraded++
						if d.ECCDBE == 0 {
							t.Errorf("degraded device %s has no DBE booked", d.ID)
						}
					case "dead":
						dead++
						if d.FallOffs == 0 {
							t.Errorf("dead device %s has no fall-off booked", d.ID)
						}
					}
					migrations += d.Migrations
				}
				if pc.fatal {
					if stats.Resumes < 1 {
						t.Fatalf("plan %q never killed the device (resumes = %d)", pc.spec, stats.Resumes)
					}
					if migrations != 1 {
						t.Fatalf("plan %q drove %d migrations, want 1", pc.spec, migrations)
					}
					if pc.name == "ecc" && degraded != 1 {
						t.Fatalf("ecc plan left %d degraded devices, want 1", degraded)
					}
					if pc.name == "falloff" && dead != 1 {
						t.Fatalf("falloff plan left %d dead devices, want 1", dead)
					}
				} else {
					if stats.Resumes != 0 {
						t.Fatalf("thermal throttling killed the session (resumes = %d)", stats.Resumes)
					}
					if stats.GPUThrottled <= 0 {
						t.Fatal("thermal window stretched no GPU time")
					}
					if degraded+dead+migrations != 0 {
						t.Fatalf("thermal plan scarred the fleet: %d degraded, %d dead, %d migrations",
							degraded, dead, migrations)
					}
				}

				payload, mac, key := rec.Bundle()
				if !bytes.Equal(b.payload, payload) {
					t.Fatalf("recording differs from baseline: %d vs %d bytes",
						len(payload), len(b.payload))
				}
				if _, err := RecordingFromBundle(payload, mac, key); err != nil {
					t.Fatalf("recording fails verification: %v", err)
				}
				out := replayOutputs(t, client, rec, m.inputElems)
				for i := range out {
					if out[i] != b.outputs[i] {
						t.Fatalf("replay output %d differs: %v vs %v", i, out[i], b.outputs[i])
					}
				}
			})
		}
	}
}

// TestECCFailsClosedWithoutResume proves the fail-closed half of the ECC
// path: when resumes are disabled, an uncorrectable ECC fault surfaces as a
// loss that wraps BOTH ErrDeviceLost and ErrBadRecording — the poisoned
// attempt can never be mistaken for a sealable recording — and the device
// is still marked degraded so later admissions avoid it.
func TestECCFailsClosedWithoutResume(t *testing.T) {
	plan, err := ParseFaultPlan("ecc")
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService()
	rec, _, err := NewClient("ecc-fail-closed", MaliG71MP8).RecordResumable(
		context.Background(), svc, MNIST(),
		ResilienceOptions{Faults: plan, MaxResumes: -1})
	if rec != nil {
		t.Fatal("a poisoned session sealed a recording")
	}
	if !errors.Is(err, ErrDeviceLost) || !errors.Is(err, ErrBadRecording) {
		t.Fatalf("error = %v, want ErrDeviceLost wrapping ErrBadRecording", err)
	}
	degraded := 0
	for _, d := range svc.Devices() {
		if d.State == "degraded" {
			degraded++
		}
	}
	if degraded != 1 {
		t.Fatalf("%d degraded devices after the DBE, want 1", degraded)
	}
}

// TestResumableNoFaults checks RecordResumable degenerates to Record when
// nothing goes wrong.
func TestResumableNoFaults(t *testing.T) {
	base, _, err := NewClient("calm-base", MaliG71MP8).Record(NewService(), MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, stats, err := NewClient("calm", MaliG71MP8).RecordResumable(
		context.Background(), NewService(), MNIST(), ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumes != 0 {
		t.Fatalf("undisturbed run reported %d resumes", stats.Resumes)
	}
	basePayload, _, _ := base.Bundle()
	payload, _, _ := rec.Bundle()
	if !bytes.Equal(basePayload, payload) {
		t.Fatal("RecordResumable without faults differs from Record")
	}
}

// TestChaosIncrementalCheckpoint pins CkptMode as a no-op: under every fault
// plan, at GOMAXPROCS 1 and 8, a session asking for CkptIncremental seals the
// same bytes, with the same RecordingDelay and Resumes, as one asking for
// CkptFull.
func TestChaosIncrementalCheckpoint(t *testing.T) {
	recordMode := func(t *testing.T, plan *FaultPlan, mode CkptMode) ([]byte, RecordStats) {
		t.Helper()
		rec, stats, err := NewClient("ckpt-mode", MaliG71MP8).RecordResumable(
			context.Background(), NewService(), MNIST(), ResilienceOptions{Faults: plan, CkptMode: mode})
		if err != nil {
			t.Fatalf("%v record: %v", mode, err)
		}
		payload, _, _ := rec.Bundle()
		return payload, stats
	}
	for _, planName := range chaosPlans {
		plan, err := ParseFaultPlan(planName)
		if err != nil {
			t.Fatal(err)
		}
		full, fullStats := recordMode(t, plan, CkptFull)
		if fullStats.Resumes < 1 {
			t.Fatalf("plan %q never killed the session", planName)
		}
		for _, procs := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/procs=%d", planName, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				incr, stats := recordMode(t, plan, CkptIncremental)
				if !bytes.Equal(full, incr) {
					t.Fatal("CkptIncremental sealed different bytes from CkptFull")
				}
				if stats.RecordingDelay != fullStats.RecordingDelay || stats.Resumes != fullStats.Resumes {
					t.Fatalf("CkptIncremental: delay %v, %d resumes; CkptFull: delay %v, %d resumes",
						stats.RecordingDelay, stats.Resumes, fullStats.RecordingDelay, fullStats.Resumes)
				}
			})
		}
	}
}

// TestIncrementalExternalResume runs the grtrecord -resume flow with
// CkptMode: CkptIncremental: the session still delivers a full checkpoint at
// every job, and the last one round-trips through Bundle/CheckpointFromBundle
// and resumes in a new client to the bytes of an uninterrupted run.
func TestIncrementalExternalResume(t *testing.T) {
	plan, err := ParseFaultPlan("vm-crash")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var last *Checkpoint
	checkpoints := 0
	_, _, err = NewClient("epoch-mortal", MaliG71MP8).RecordResumable(
		context.Background(), NewService(), MNIST(), ResilienceOptions{
			Faults:     plan,
			MaxResumes: -1,
			CkptMode:   CkptIncremental,
			OnCheckpoint: func(cp *Checkpoint) {
				mu.Lock()
				last = cp
				checkpoints++
				mu.Unlock()
			},
		})
	if !errors.Is(err, ErrSessionLost) {
		t.Fatalf("err = %v, want ErrSessionLost", err)
	}
	if last == nil {
		t.Fatal("no checkpoint delivered before the crash")
	}
	// A checkpoint per job boundary, as under CkptFull: the last is at the
	// crash job.
	if last.Job() != 8 || checkpoints < 2 {
		t.Fatalf("%d checkpoints, last at job %d; want several, the last at the crash job 8", checkpoints, last.Job())
	}

	payload, mac, key := last.Bundle()
	cp, err := CheckpointFromBundle(payload, mac, key)
	if err != nil {
		t.Fatalf("checkpoint bundle round-trip: %v", err)
	}
	rec, stats, err := NewClient("epoch-heir", MaliG71MP8).RecordResumable(
		context.Background(), NewService(), MNIST(), ResilienceOptions{Resume: cp, CkptMode: CkptIncremental})
	if err != nil {
		t.Fatalf("resume from external checkpoint: %v", err)
	}
	if stats.Shim.ResyncEvents == 0 {
		t.Fatal("resumed session replayed no checkpointed events")
	}
	base, _, err := NewClient("epoch-mortal-base", MaliG71MP8).Record(NewService(), MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	basePayload, _, _ := base.Bundle()
	resumed, _, _ := rec.Bundle()
	if !bytes.Equal(basePayload, resumed) {
		t.Fatal("recording resumed under CkptIncremental differs from an uninterrupted run")
	}
}

// TestResumableAcrossRollback crosses a §4.2 misprediction rollback with a
// session loss: under each fatal link plan, a session whose 200th speculated
// commit mispredicts must resume once and seal the bytes Record seals with
// the same injection.
func TestResumableAcrossRollback(t *testing.T) {
	opts := RecordOptions{InjectMispredictionAt: 200}
	base, _, err := NewClient("rollback-base", MaliG71MP8).Record(NewService(), MNIST(), opts)
	if err != nil {
		t.Fatal(err)
	}
	basePayload, _, _ := base.Bundle()
	for _, planName := range []string{"vm-crash", "outage"} {
		t.Run(planName, func(t *testing.T) {
			plan, err := ParseFaultPlan(planName)
			if err != nil {
				t.Fatal(err)
			}
			rec, stats, err := NewClient("rollback", MaliG71MP8).RecordResumable(
				context.Background(), NewService(), MNIST(),
				ResilienceOptions{RecordOptions: opts, Faults: plan})
			if err != nil {
				t.Fatalf("resumable record: %v", err)
			}
			if stats.Resumes != 1 || stats.Shim.Mispredictions == 0 {
				t.Fatalf("%d resumes, %d mispredictions in the sealing attempt; want 1 and a rollback",
					stats.Resumes, stats.Shim.Mispredictions)
			}
			payload, _, _ := rec.Bundle()
			if !bytes.Equal(basePayload, payload) {
				t.Fatal("resumed recording differs from Record with the same injected misprediction")
			}
		})
	}
}

// TestResumableOracle is RecordResumable's seeded oracle. Knob combinations
// drawn from a fixed seed (the fault plan: none, a link preset, a device
// preset, or a crash job or fall-off instant drawn from the seed; one or two
// shards; a telemetry scope; a warm start from a donor service's exported
// history) must each seal the payload and replay to the outputs of the same
// combination without faults, and repeat their payload, RecordingDelay,
// Resumes and fleet crash, resume and checkpoint counters on a second run.
// Each VM draws its own session key, so payloads are compared, not seals.
func TestResumableOracle(t *testing.T) {
	donor := NewService()
	if _, _, err := NewClient("oracle-donor", MaliG71MP8).Record(donor, MNIST(), RecordOptions{}); err != nil {
		t.Fatal(err)
	}
	warm := donor.ExportSpecHistory()
	if warm.Keys() == 0 {
		t.Fatal("the donor service exported no speculation history")
	}

	type knobs struct {
		shards        int
		scope, warmed bool
	}
	type outcome struct {
		payload                 []byte
		delay                   time.Duration
		resumes                 int
		crashes, resumed, ckpts int64
	}
	record := func(t *testing.T, k knobs, plan *FaultPlan) (outcome, []float32) {
		t.Helper()
		svc := NewServiceWith(ServiceConfig{Shards: k.shards})
		if k.warmed && svc.ImportSpecHistory(warm) == 0 {
			t.Fatal("the warm start seeded no signature")
		}
		opts := ResilienceOptions{Faults: plan}
		if k.scope {
			opts.Obs = NewScope("oracle")
		}
		client := NewClient("oracle", MaliG71MP8)
		rec, st, err := client.RecordResumable(context.Background(), svc, MNIST(), opts)
		if err != nil {
			t.Fatalf("%+v under %v: %v", k, plan, err)
		}
		payload, _, _ := rec.Bundle()
		m := svc.Metrics()
		return outcome{
			payload: payload, delay: st.RecordingDelay, resumes: st.Resumes,
			crashes: m.Counter(obs.MFleetVMCrashes),
			resumed: m.Counter(obs.MFleetResumes, obs.L("outcome", "resumed")),
			ckpts:   m.Counter(obs.MCkptCheckpoints),
		}, replayOutputs(t, client, rec, 28*28)
	}

	type baseline struct {
		payload []byte
		outputs []float32
	}
	baselines := map[knobs]baseline{}
	links := []string{"outage", "vm-crash", "flaky"}
	devices := []string{"falloff", "ecc", "dying-gpu", "thermal"}
	rng := rand.New(rand.NewSource(20))
	seen := map[string]bool{}
	for draw := 0; draw < 14; draw++ {
		kind := []string{"none", "link", "device", "instant"}[rng.Intn(4)]
		var spec string
		switch kind {
		case "link":
			spec = links[rng.Intn(len(links))]
		case "device":
			spec = devices[rng.Intn(len(devices))]
		case "instant":
			if rng.Intn(2) == 0 {
				spec = fmt.Sprintf("crash@job%d", 1+rng.Intn(21))
			} else {
				spec = fmt.Sprintf("falloff@%dms", 100+rng.Intn(4000))
			}
		}
		k := knobs{shards: 1 + rng.Intn(2), scope: rng.Intn(2) == 0, warmed: rng.Intn(2) == 0}
		seen["plan="+kind] = true
		for knob, on := range map[string]bool{
			"faults": spec != "", "shards": k.shards > 1, "scope": k.scope, "warm": k.warmed,
		} {
			seen[fmt.Sprintf("%s=%v", knob, on)] = true
		}

		base, ok := baselines[k]
		if !ok {
			o, outputs := record(t, k, nil)
			base = baseline{o.payload, outputs}
			baselines[k] = base
		}
		var plan *FaultPlan
		if spec != "" {
			var err error
			if plan, err = ParseFaultPlan(spec); err != nil {
				t.Fatal(err)
			}
		}
		a, outputs := record(t, k, plan)
		b, _ := record(t, k, plan)
		if !bytes.Equal(a.payload, base.payload) {
			t.Fatalf("draw %d %+v under %q: payload differs from the undisturbed one", draw, k, spec)
		}
		if len(outputs) != len(base.outputs) {
			t.Fatalf("draw %d %+v under %q: %d outputs, undisturbed %d", draw, k, spec, len(outputs), len(base.outputs))
		}
		for i := range outputs {
			if outputs[i] != base.outputs[i] {
				t.Fatalf("draw %d %+v under %q: output %d = %v, undisturbed %v", draw, k, spec, i, outputs[i], base.outputs[i])
			}
		}
		if !bytes.Equal(a.payload, b.payload) || a.delay != b.delay || a.resumes != b.resumes ||
			a.crashes != b.crashes || a.resumed != b.resumed || a.ckpts != b.ckpts {
			t.Fatalf("draw %d %+v under %q: second run diverged: %v/%d resumes/%d crashes/%d resumed/%d checkpoints vs %v/%d/%d/%d/%d",
				draw, k, spec, a.delay, a.resumes, a.crashes, a.resumed, a.ckpts, b.delay, b.resumes, b.crashes, b.resumed, b.ckpts)
		}
		t.Logf("draw %d %+v under %q: %v, %d resumes", draw, k, spec, a.delay, a.resumes)
	}
	for _, knob := range []string{"faults", "shards", "scope", "warm"} {
		if !seen[knob+"=true"] || !seen[knob+"=false"] {
			t.Errorf("the draws never set %s both ways", knob)
		}
	}
	for _, kind := range []string{"none", "link", "device", "instant"} {
		if !seen["plan="+kind] {
			t.Errorf("the draws never drew a %s plan", kind)
		}
	}
}

// TestResumableBackoffSchedule pins the resume backoff. A session lost
// twice journals two resumes, and resume k (counting from 0) waits between
// d and 1.5·d, d = 250ms·2^k capped at 8s, before it re-admits. A second
// run waits exactly as long.
func TestResumableBackoffSchedule(t *testing.T) {
	plan, err := ParseFaultPlan("crash@job3,crash@job8")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []time.Duration {
		t.Helper()
		svc := NewService()
		_, stats, err := NewClient("backoff", MaliG71MP8).RecordResumable(
			context.Background(), svc, MNIST(), ResilienceOptions{Faults: plan})
		if err != nil || stats.Resumes != 2 {
			t.Fatalf("session: %v after %d resumes, want 2 resumes", err, stats.Resumes)
		}
		var waits []time.Duration
		for _, e := range svc.FlightEvents() {
			if e.Kind != obs.FKResume || e.Note != "resumed" {
				continue
			}
			for _, a := range e.Args {
				if a.Key == "backoff_ns" {
					waits = append(waits, time.Duration(a.Value))
				}
			}
		}
		if len(waits) != 2 {
			t.Fatalf("journaled backoffs %v, want 2", waits)
		}
		return waits
	}
	first := run()
	for k, wait := range first {
		d := min(250*time.Millisecond<<k, 8*time.Second)
		if wait < d || wait > d+d/2 {
			t.Errorf("resume %d backed off %v, want within [%v, %v]", k, wait, d, d+d/2)
		}
	}
	if again := run(); !slices.Equal(again, first) {
		t.Fatalf("a second run backed off %v, the first %v", again, first)
	}
}

// TestResumableExternalCheckpoint is the grtrecord -resume flow: a session
// dies with resumes disabled, its last checkpoint round-trips through
// Bundle/CheckpointFromBundle (as if written to disk and reloaded by a new
// process), and a second call stitches the rest of the recording.
func TestResumableExternalCheckpoint(t *testing.T) {
	plan, err := ParseFaultPlan("vm-crash")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var last *Checkpoint
	_, _, err = NewClient("mortal", MaliG71MP8).RecordResumable(
		context.Background(), NewService(), MNIST(), ResilienceOptions{
			Faults:     plan,
			MaxResumes: -1, // die on the first loss, like a client crash
			OnCheckpoint: func(cp *Checkpoint) {
				mu.Lock()
				last = cp
				mu.Unlock()
			},
		})
	if !errors.Is(err, ErrSessionLost) {
		t.Fatalf("err = %v, want ErrSessionLost", err)
	}
	if !strings.Contains(err.Error(), "job 8") {
		t.Fatalf("error does not name the last checkpointed job: %v", err)
	}
	if last == nil {
		t.Fatal("no checkpoint captured before the crash")
	}
	if last.Job() != 8 {
		t.Fatalf("last checkpoint at job %d, want 8 (the crash job)", last.Job())
	}

	payload, mac, key := last.Bundle()
	cp, err := CheckpointFromBundle(payload, mac, key)
	if err != nil {
		t.Fatalf("checkpoint bundle round-trip: %v", err)
	}
	if cp.SessionID() != last.SessionID() || cp.Job() != last.Job() || cp.Events() != last.Events() {
		t.Fatalf("round-tripped checkpoint differs: %s/%d/%d vs %s/%d/%d",
			cp.SessionID(), cp.Job(), cp.Events(), last.SessionID(), last.Job(), last.Events())
	}

	// A different client process picks the session back up.
	rec, stats, err := NewClient("heir", MaliG71MP8).RecordResumable(
		context.Background(), NewService(), MNIST(), ResilienceOptions{Resume: cp})
	if err != nil {
		t.Fatalf("resume from external checkpoint: %v", err)
	}
	if stats.Shim.ResyncEvents == 0 {
		t.Fatal("resumed session replayed no checkpointed events")
	}
	base, _, err := NewClient("mortal-base", MaliG71MP8).Record(NewService(), MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	basePayload, _, _ := base.Bundle()
	stitched, _, _ := rec.Bundle()
	if !bytes.Equal(basePayload, stitched) {
		t.Fatal("externally resumed recording differs from an uninterrupted run")
	}
}

// TestResumableCheckpointTamper checks the checkpoint seal: any bit flip in
// the payload, MAC, or key yields ErrCheckpointCorrupt, and a checkpoint for
// the wrong workload or GPU is refused before a session is admitted.
func TestResumableCheckpointTamper(t *testing.T) {
	plan, err := ParseFaultPlan("vm-crash")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var last *Checkpoint
	_, _, err = NewClient("doomed", MaliG71MP8).RecordResumable(
		context.Background(), NewService(), MNIST(), ResilienceOptions{
			Faults: plan, MaxResumes: -1,
			OnCheckpoint: func(cp *Checkpoint) {
				mu.Lock()
				last = cp
				mu.Unlock()
			},
		})
	if !errors.Is(err, ErrSessionLost) || last == nil {
		t.Fatalf("setup: err = %v, checkpoint = %v", err, last)
	}
	payload, mac, key := last.Bundle()

	flip := func(b []byte, i int) []byte {
		c := append([]byte(nil), b...)
		c[i] ^= 0x01
		return c
	}
	if _, err := CheckpointFromBundle(flip(payload, len(payload)/2), mac, key); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("tampered payload: err = %v, want ErrCheckpointCorrupt", err)
	}
	if _, err := CheckpointFromBundle(payload, flip(mac, 0), key); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("tampered MAC: err = %v, want ErrCheckpointCorrupt", err)
	}
	if _, err := CheckpointFromBundle(payload, mac, flip(key, 0)); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("wrong key: err = %v, want ErrCheckpointCorrupt", err)
	}
	if _, err := CheckpointFromBundle(payload, mac[:16], key); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("short MAC: err = %v, want ErrCheckpointCorrupt", err)
	}

	cp, err := CheckpointFromBundle(payload, mac, key)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = NewClient("wrong-model", MaliG71MP8).RecordResumable(
		context.Background(), NewService(), AlexNet(), ResilienceOptions{Resume: cp})
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("resume with wrong model: err = %v, want ErrCheckpointCorrupt", err)
	}
	_, _, err = NewClient("wrong-sku", MaliG72MP12).RecordResumable(
		context.Background(), NewService(), MNIST(), ResilienceOptions{Resume: cp})
	if !errors.Is(err, ErrSKUMismatch) {
		t.Fatalf("resume on wrong SKU: err = %v, want ErrSKUMismatch", err)
	}
}

// TestObsResilienceCounters checks the checkpoint/resume counters land in
// both the session scope and the service's fleet metrics exposition (the
// ISSUE acceptance: counters visible in Service.WriteMetrics output).
func TestObsResilienceCounters(t *testing.T) {
	svc := NewService()
	plan, err := ParseFaultPlan("vm-crash")
	if err != nil {
		t.Fatal(err)
	}
	scope := NewScope("chaos-session")
	_, stats, err := NewClient("obs-chaos", MaliG71MP8).RecordResumable(
		context.Background(), svc, MNIST(), ResilienceOptions{
			RecordOptions: RecordOptions{Obs: scope},
			Faults:        plan,
			OnCheckpoint:  func(*Checkpoint) {},
		})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", stats.Resumes)
	}

	snap := scope.Snapshot()
	if got := snap.Counter(obs.MFaultsFired, obs.L("kind", "vm_crash")); got != 1 {
		t.Errorf("scope vm_crash faults = %d, want 1", got)
	}

	fleet := svc.Metrics()
	if got := fleet.Counter(obs.MFleetVMCrashes); got != 1 {
		t.Errorf("fleet VM crashes = %d, want 1", got)
	}
	if got := fleet.Counter(obs.MFleetResumes, obs.L("outcome", "resumed")); got != 1 {
		t.Errorf("fleet resumes = %d, want 1", got)
	}
	if got := fleet.Counter(obs.MCkptCheckpoints); got < 9 {
		t.Errorf("fleet checkpoints = %d, want >= 9 (jobs 0..8 before the crash)", got)
	}
	if got := fleet.Counter(obs.MCkptResyncEvents); got == 0 {
		t.Error("fleet resync events = 0, want > 0")
	}

	var buf bytes.Buffer
	if err := svc.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		obs.MFaultsFired, obs.MCkptCheckpoints, obs.MCkptBytes, obs.MCkptResyncEvents,
		obs.MResumeBackoff, obs.MFleetVMCrashes, obs.MFleetResumes,
	} {
		if !strings.Contains(out, name) {
			t.Errorf("fleet exposition lacks %s", name)
		}
	}
}

// TestObsResilienceGaveUp checks the give-up path: resumes disabled, the
// fleet records the abandoned session.
func TestObsResilienceGaveUp(t *testing.T) {
	svc := NewService()
	plan, err := ParseFaultPlan("outage")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = NewClient("obs-giveup", MaliG71MP8).RecordResumable(
		context.Background(), svc, MNIST(), ResilienceOptions{Faults: plan, MaxResumes: -1})
	if !errors.Is(err, ErrSessionLost) {
		t.Fatalf("err = %v, want ErrSessionLost", err)
	}
	fleet := svc.Metrics()
	if got := fleet.Counter(obs.MFleetResumes, obs.L("outcome", "gave_up")); got != 1 {
		t.Errorf("fleet gave_up resumes = %d, want 1", got)
	}
	if got := fleet.Counter(obs.MFleetVMCrashes); got != 1 {
		t.Errorf("fleet VM crashes = %d, want 1", got)
	}
}
