package gpurelay

import (
	"math"
	"testing"
)

func TestPublicAPIRecordReplayFlow(t *testing.T) {
	client := NewClient("phone-1", MaliG71MP8)
	svc := NewService()
	rec, stats, err := client.Record(svc, MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Workload != "MNIST" {
		t.Fatalf("workload %q", rec.Workload)
	}
	if stats.Jobs != 23 || stats.RecordingDelay <= 0 {
		t.Fatalf("stats: %+v", stats)
	}

	sess, err := client.NewReplaySession(rec)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float32, 28*28)
	for i := range in {
		in[i] = float32(i % 17)
	}
	if err := sess.SetInput(in); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay <= 0 {
		t.Fatalf("replay result: %+v", res)
	}
	out, err := sess.Output()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range out {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("output sums to %v", sum)
	}
}

func TestPublicAPIWeightInjection(t *testing.T) {
	client := NewClient("phone-2", MaliG71MP8)
	svc := NewService()
	rec, _, err := client.Record(svc, MNIST(), RecordOptions{Variant: OursMDS})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewReplaySession(rec)
	if err != nil {
		t.Fatal(err)
	}
	regions := sess.WeightRegions()
	if len(regions) == 0 {
		t.Fatal("no weight regions listed")
	}
	// Baseline: all-zero parameters yield the degenerate uniform softmax.
	in := make([]float32, 28*28)
	for i := range in {
		in[i] = 1
	}
	if err := sess.SetInput(in); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	zeroOut, _ := sess.Output()

	// Inject real parameters into every region: the TEE-held model.
	for _, r := range regions {
		w := make([]float32, r.Elems)
		for i := range w {
			w[i] = 0.01 * float32(i%13-6)
		}
		if err := sess.SetWeights(r.Name, w); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	out, _ := sess.Output()
	same := true
	for i := range out {
		if out[i] != zeroOut[i] {
			same = false
		}
	}
	if same {
		t.Fatal("injected weights had no effect on replay output")
	}
}

func TestPublicAPIVariantsAndNetworks(t *testing.T) {
	client := NewClient("phone-3", MaliG71MP8)
	svc := NewService()
	_, wifi, err := client.Record(svc, MNIST(), RecordOptions{Variant: OursMD, Network: WiFi})
	if err != nil {
		t.Fatal(err)
	}
	_, cell, err := client.Record(svc, MNIST(), RecordOptions{Variant: OursMD, Network: Cellular})
	if err != nil {
		t.Fatal(err)
	}
	if cell.RecordingDelay <= wifi.RecordingDelay {
		t.Fatalf("cellular %v not slower than wifi %v", cell.RecordingDelay, wifi.RecordingDelay)
	}
}

func TestPublicAPISharedHistory(t *testing.T) {
	client := NewClient("phone-4", MaliG71MP8)
	svc := NewService()
	hist := NewSpeculationHistory()
	_, cold, err := client.Record(svc, MNIST(), RecordOptions{History: hist})
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := client.Record(svc, MNIST(), RecordOptions{History: hist})
	if err != nil {
		t.Fatal(err)
	}
	if warm.RecordingDelay >= cold.RecordingDelay {
		t.Fatalf("warm history (%v) not faster than cold (%v)", warm.RecordingDelay, cold.RecordingDelay)
	}
	if warm.Shim.AsyncCommits <= cold.Shim.AsyncCommits {
		t.Fatal("warm history did not increase speculation")
	}
}

func TestPublicAPICrossSKURejected(t *testing.T) {
	g71 := NewClient("phone-5", MaliG71MP8)
	svc := NewService()
	rec, _, err := g71.Record(svc, MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g52 := NewClient("phone-6", MaliG52MP2)
	if _, err := g52.NewReplaySession(rec); err == nil {
		t.Fatal("G71 recording accepted on a G52 device")
	}
}

func TestPublicAPIClockAdvances(t *testing.T) {
	client := NewClient("phone-7", MaliG71MP8)
	svc := NewService()
	if _, _, err := client.Record(svc, MNIST(), RecordOptions{}); err != nil {
		t.Fatal(err)
	}
	if client.Elapsed() <= 0 {
		t.Fatal("client clock did not advance across the recording")
	}
}

func TestSealUnsealRecording(t *testing.T) {
	client := NewClient("seal-phone", MaliG71MP8)
	svc := NewService()
	rec, _, err := client.Record(svc, MNIST(), RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := client.SealRecording(rec)
	if err != nil {
		t.Fatal(err)
	}
	// The sealed blob unseals only on this device, under the right label.
	got, err := client.UnsealRecording("MNIST", blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "MNIST" || got.ProductID != rec.ProductID {
		t.Fatalf("unsealed header: %+v", got)
	}
	// And the unsealed recording replays.
	sess, err := client.NewReplaySession(got)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetInput(make([]float32, 28*28)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	// Wrong label fails.
	if _, err := client.UnsealRecording("VGG16", blob); err == nil {
		t.Fatal("unsealed under wrong workload label")
	}
	// A different device fails.
	other := NewClient("other-phone", MaliG71MP8)
	if _, err := other.UnsealRecording("MNIST", blob); err == nil {
		t.Fatal("sealed blob unsealed on another device")
	}
}

// TestSpecWarmStartExchange checks the fleet-shared speculation warm start:
// a cold service seeded from a peer's validated-commit export speculates
// strictly more on its first session than an unseeded cold service, and a
// second import of the same snapshot seeds nothing (local truth outranks
// imports, so the exchange is idempotent and order-independent).
func TestSpecWarmStartExchange(t *testing.T) {
	model := MNIST()
	donor := NewService()
	for i := 0; i < 2; i++ {
		if _, _, err := NewClient("warm-donor", MaliG71MP8).Record(donor, model, RecordOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	snap := donor.ExportSpecHistory()
	if snap.Keys() == 0 {
		t.Fatal("donor exported no histories after two sessions")
	}

	cold := NewService()
	_, coldStats, err := NewClient("warm-cold", MaliG71MP8).Record(cold, model, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}

	warm := NewService()
	seeded := warm.ImportSpecHistory(snap)
	if seeded == 0 {
		t.Fatal("import seeded no signatures")
	}
	_, warmStats, err := NewClient("warm-warm", MaliG71MP8).Record(warm, model, RecordOptions{})
	if err != nil {
		t.Fatal(err)
	}

	coldRate := float64(coldStats.Shim.AsyncCommits) / float64(coldStats.Shim.Commits)
	warmRate := float64(warmStats.Shim.AsyncCommits) / float64(warmStats.Shim.Commits)
	t.Logf("cold hit rate %.3f (%d/%d), warm %.3f (%d/%d), %d sigs seeded",
		coldRate, coldStats.Shim.AsyncCommits, coldStats.Shim.Commits,
		warmRate, warmStats.Shim.AsyncCommits, warmStats.Shim.Commits, seeded)
	if warmRate <= coldRate {
		t.Fatalf("warm-start hit rate %.3f does not beat cold %.3f", warmRate, coldRate)
	}

	if again := warm.ImportSpecHistory(snap); again != 0 {
		t.Fatalf("second import of the same snapshot seeded %d signatures, want 0", again)
	}

	// Warm starting must not perturb recording content: the warm session's
	// payload matches the cold one's (speculation hides latency, never
	// changes what is recorded).
	if coldStats.Jobs != warmStats.Jobs || coldStats.Shim.Commits != warmStats.Shim.Commits {
		t.Fatalf("warm session shape differs: %d/%d jobs, %d/%d commits",
			warmStats.Jobs, coldStats.Jobs, warmStats.Shim.Commits, coldStats.Shim.Commits)
	}
	if warmStats.RecordingDelay >= coldStats.RecordingDelay {
		t.Errorf("warm session (%v) not faster than cold (%v)",
			warmStats.RecordingDelay, coldStats.RecordingDelay)
	}
}
