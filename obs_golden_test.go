package gpurelay

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpurelay/internal/obs"
)

// TestObsCounterGolden pins the Prometheus text every session counter lands
// in: a SHA-256 of each session scope's exposition and of its service's
// fleet exposition, for MNIST recorded on MaliG71MP8 as OursMDS, Naive, with
// an injected misprediction, and resumably under the vm-crash and flaky
// plans, plus two Runs of one replay session. One more vm-crash session
// records without a scope, so only its service's fleet registry counts it.
// Every session runs on a fresh service. Regenerate with GRT_UPDATE_GOLDEN=1
// only after an intentional change to what a session counts.
func TestObsCounterGolden(t *testing.T) {
	got := map[string]string{}
	texts := map[string]string{}
	pin := func(name string, scope *Scope, svc *Service) {
		t.Helper()
		if scope != nil {
			text := scope.Snapshot().Prometheus()
			got[name+"/scope"] = hexSHA256(text)
			texts[name] = text
		}
		var fleet bytes.Buffer
		if err := svc.WriteMetrics(&fleet); err != nil {
			t.Fatal(err)
		}
		got[name+"/fleet"] = hexSHA256(fleet.String())
	}

	var first *Recording
	for _, c := range []struct {
		name string
		opts RecordOptions
	}{
		{"mds", RecordOptions{}},
		{"naive", RecordOptions{Variant: Naive}},
		{"inject", RecordOptions{InjectMispredictionAt: 5}},
	} {
		svc, scope := NewService(), NewScope(c.name)
		c.opts.Obs = scope
		rec, _, err := NewClient("golden-"+c.name, MaliG71MP8).Record(svc, MNIST(), c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if first == nil {
			first = rec
		}
		pin(c.name, scope, svc)
	}

	for _, c := range []struct {
		name, plan string
		scoped     bool
	}{
		{"vm-crash", "vm-crash", true},
		{"flaky", "flaky", true},
		{"vm-crash-unscoped", "vm-crash", false},
	} {
		plan, err := ParseFaultPlan(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		svc := NewService()
		opts := ResilienceOptions{Faults: plan}
		var scope *Scope
		if c.scoped {
			scope = NewScope(c.name)
			opts.Obs = scope
		} else {
			opts.OnCheckpoint = func(*Checkpoint) {}
		}
		_, stats, err := NewClient("golden-"+c.name, MaliG71MP8).RecordResumable(
			context.Background(), svc, MNIST(), opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if stats.Resumes == 0 {
			t.Fatalf("%s: no resume; the plan must lose the session", c.name)
		}
		pin(c.name, scope, svc)
	}

	svc, scope := NewService(), NewScope("replay")
	scope.AttachFleet(svc.FleetRegistry())
	sess, err := NewClient("golden-replay", MaliG71MP8).NewReplaySession(first)
	if err != nil {
		t.Fatal(err)
	}
	sess.Instrument(scope)
	if err := sess.SetInput(make([]float32, 28*28)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
	}
	pin("replay", scope, svc)

	// The sessions reach every per-session counter family but the two that
	// count faults (mismatches, guard violations); other tests cover those.
	all := strings.Join(func() []string {
		var s []string
		for _, text := range texts {
			s = append(s, text)
		}
		return s
	}(), "")
	for _, name := range []string{
		obs.MNetRTTs, obs.MNetBytes, obs.MNetRetransmits, obs.MNetStallNS, obs.MNetFaultStallNS,
		obs.MShimRegAccesses, obs.MShimCommits, obs.MShimCommitsByCat, obs.MShimSpeculatedByCat,
		obs.MShimSpecStalls, obs.MShimMispredictions, obs.MShimRecoveryNS, obs.MShimPollLoops,
		obs.MShimPollRTTsSaved, obs.MShimIRQWaits, obs.MCkptResyncEvents,
		obs.MSyncBytes, obs.MSyncRawBytes, obs.MSyncDumps, obs.MRecordJobs,
		obs.MReplayEvents, obs.MReplayVerified, obs.MReplayNondetSkips, obs.MReplayRestoreBytes,
	} {
		if !strings.Contains(all, "# TYPE "+name+" ") {
			t.Errorf("no session counted %s", name)
		}
	}

	path := filepath.Join("testdata", "obs_counter_golden.json")
	if os.Getenv("GRT_UPDATE_GOLDEN") != "" {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with GRT_UPDATE_GOLDEN=1): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: %s, golden %s", k, got[k], w)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d entries, produced %d", len(want), len(got))
	}
}

func hexSHA256(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
