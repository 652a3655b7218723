package cloud

import (
	"bytes"
	"strings"
	"testing"

	"gpurelay/internal/obs"
)

func TestHealthEmptyWindowHealthy(t *testing.T) {
	reg := obs.NewRegistry()
	rep := EvaluateHealth(reg.Snapshot(), nil)
	if rep.State != Healthy {
		t.Fatalf("empty window is %s (%v), want healthy", rep.State, rep.Reasons)
	}
	if rep.Schema != HealthSchema {
		t.Errorf("schema %q, want %q", rep.Schema, HealthSchema)
	}
}

func TestHealthSeverityLadder(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add(obs.MFleetSessions, 4)
	reg.Add(obs.MFleetResumes, 1, obs.L("outcome", "resumed"))
	rep := EvaluateHealth(reg.Snapshot(), nil)
	if rep.State != Degraded {
		t.Fatalf("resumed session: state %s, want degraded (%v)", rep.State, rep.Reasons)
	}

	reg.Add(obs.MFleetResumes, 1, obs.L("outcome", "gave_up"))
	rep = EvaluateHealth(reg.Snapshot(), nil)
	if rep.State != Unhealthy {
		t.Fatalf("gave-up session: state %s, want unhealthy (%v)", rep.State, rep.Reasons)
	}
	if rep.Window.Resumed != 1 || rep.Window.GaveUp != 1 {
		t.Errorf("window resumed=%d gaveup=%d, want 1/1", rep.Window.Resumed, rep.Window.GaveUp)
	}
}

func TestHealthDegradedByIngestAndFaults(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add(obs.MFleetSessions, 2)
	reg.Add(obs.MIngestRecordings, 1, obs.L("outcome", "rejected"))
	rep := EvaluateHealth(reg.Snapshot(), nil)
	if rep.State != Degraded {
		t.Fatalf("ingest reject: state %s, want degraded", rep.State)
	}

	reg2 := obs.NewRegistry()
	reg2.Add(obs.MFleetSessions, 1)
	reg2.Add(obs.MFaultsFired, 1, obs.L("kind", "link_outage"))
	// Any fault degrades.
	rep = EvaluateHealth(reg2.Snapshot(), nil)
	if rep.State != Degraded {
		t.Fatalf("fault fired: state %s, want degraded", rep.State)
	}
	if want := "1.0 fault(s) fired per session (threshold 0.0)"; len(rep.Reasons) != 1 || rep.Reasons[0] != want {
		t.Fatalf("fault reasons %q, want [%q]", rep.Reasons, want)
	}
}

func TestHealthAdmissionWaitQuantiles(t *testing.T) {
	reg := obs.NewRegistry()
	for i := 0; i < 9; i++ {
		reg.Observe(obs.MFleetAdmissionWait, 0.01)
	}
	reg.Observe(obs.MFleetAdmissionWait, 8.0)
	rep := EvaluateHealth(reg.Snapshot(), nil)
	// p50 lands in the 0.01 bucket; the nearest-rank p99 of 10 observations
	// is the straggler itself, reported as the upper bound of its bucket.
	if rep.Window.AdmissionP50 != 0.01 {
		t.Errorf("p50 = %v, want 0.01", rep.Window.AdmissionP50)
	}
	if rep.Window.AdmissionP99 != 10 {
		t.Errorf("p99 = %v, want 10 (upper bound of the 8s bucket)", rep.Window.AdmissionP99)
	}
	if rep.State != Degraded {
		t.Errorf("p99 of 10s over the 2s threshold: state %s, want degraded", rep.State)
	}
	if want := "p99 admission wait 10.000s exceeds 2.000s"; len(rep.Reasons) != 1 || rep.Reasons[0] != want {
		t.Errorf("admission reasons %q, want [%q]", rep.Reasons, want)
	}
}

func TestHealthSpecHitRate(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add(obs.MShimCommits, 8, obs.L("kind", "sync"))
	reg.Add(obs.MShimCommits, 2, obs.L("kind", "async"))
	rep := EvaluateHealth(reg.Snapshot(), nil)
	if rep.Window.SpecHitRate != 0.2 {
		t.Errorf("spec hit rate %v, want 0.2", rep.Window.SpecHitRate)
	}
	// The hit rate is reported, not judged: a cold history never degrades.
	if rep.State != Healthy {
		t.Errorf("hit rate 0.2: state %s, want healthy (%v)", rep.State, rep.Reasons)
	}
}

// TestHealthTrackerWindowRecovery is the transition property the rollup is
// built around: health reflects the window, not the lifetime counters, so a
// fleet that lost a session last window and ran clean this window reads
// healthy again.
func TestHealthTrackerWindowRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewHealthTracker()

	reg.Add(obs.MFleetSessions, 1)
	if rep := tr.Observe(reg.Snapshot()); rep.State != Healthy {
		t.Fatalf("window 1: %s (%v), want healthy", rep.State, rep.Reasons)
	}

	reg.Add(obs.MFleetResumes, 1, obs.L("outcome", "gave_up"))
	if rep := tr.Observe(reg.Snapshot()); rep.State != Unhealthy {
		t.Fatalf("window 2: %s, want unhealthy", rep.State)
	}

	// Nothing new happened: the cumulative gave_up counter is unchanged, so
	// the next window deltas to zero and the fleet recovers.
	reg.Add(obs.MFleetSessions, 2)
	if rep := tr.Observe(reg.Snapshot()); rep.State != Healthy {
		t.Fatalf("window 3: %s (%v), want healthy", rep.State, rep.Reasons)
	}
}

func TestHealthReportJSONRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add(obs.MFleetSessions, 2)
	rep := EvaluateHealth(reg.Snapshot(), nil)
	rep.Sessions = append(rep.Sessions, SessionHealth{Session: "drill-0000", State: Healthy})

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseHealthReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.State != rep.State || back.Window.Sessions != 2 || len(back.Sessions) != 1 {
		t.Errorf("round trip: got %+v, want %+v", back, rep)
	}
	if !strings.Contains(back.Render(), "drill-0000") {
		t.Error("Render() missing the session row")
	}

	if _, err := ParseHealthReport([]byte(`{"schema":"grt-health/999","state":"healthy"}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := ParseHealthReport([]byte(`not json`)); err == nil {
		t.Error("malformed report accepted")
	}
}

// TestHealthDeviceRows builds the device metrics a scarred fleet emits and
// checks they roll up into per-device rows: state from the dead/degraded
// gauges, counters windowed like every other health stat, rows sorted,
// rendered under "devices:", and preserved across the JSON round trip.
func TestHealthDeviceRows(t *testing.T) {
	reg := obs.NewRegistry()
	dev := func(id string) obs.Label { return obs.L("device", id) }
	reg.Add(obs.MDeviceThrottleNS, 4000, dev("gpu-00"))
	reg.Add(obs.MDeviceECCErrors, 2, dev("gpu-00"), obs.L("kind", "sbe"))
	reg.Add(obs.MDeviceFallOffs, 1, dev("gpu-00"))
	reg.GaugeSet(obs.MDeviceDead, 1, dev("gpu-00"))
	reg.Add(obs.MDeviceMigrations, 1, dev("gpu-00"))
	reg.Add(obs.MDeviceECCErrors, 1, dev("gpu-01"), obs.L("kind", "dbe"))
	reg.GaugeSet(obs.MDeviceDegraded, 1, dev("gpu-01"))

	rep := EvaluateHealth(reg.Snapshot(), nil)
	if rep.State != Degraded {
		t.Fatalf("state = %s (%v), want degraded (a GPU died)", rep.State, rep.Reasons)
	}
	if len(rep.Devices) != 2 || rep.Devices[0].Device != "gpu-00" || rep.Devices[1].Device != "gpu-01" {
		t.Fatalf("device rows = %+v, want sorted gpu-00, gpu-01", rep.Devices)
	}
	d0, d1 := rep.Devices[0], rep.Devices[1]
	if d0.State != "dead" || d0.ThrottledNS != 4000 || d0.ECCSBE != 2 || d0.FallOffs != 1 || d0.Migrations != 1 {
		t.Fatalf("gpu-00 row = %+v", d0)
	}
	if d1.State != "degraded" || d1.ECCDBE != 1 {
		t.Fatalf("gpu-01 row = %+v", d1)
	}
	w := rep.Window
	if w.DeviceThrottledNS != 4000 || w.DeviceECCSBE != 2 || w.DeviceECCDBE != 1 ||
		w.DeviceFallOffs != 1 || w.DeviceMigrations != 1 {
		t.Fatalf("window device totals = %+v", w)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseHealthReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Devices) != 2 || back.Devices[0] != d0 || back.Devices[1] != d1 {
		t.Fatalf("round trip dropped device rows: %+v", back.Devices)
	}
	out := back.Render()
	if !strings.Contains(out, "devices:") || !strings.Contains(out, "gpu-00") ||
		!strings.Contains(out, "falloffs=1") {
		t.Fatalf("Render() missing device rows:\n%s", out)
	}
}

func TestSessionHealthLadder(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add(obs.MShimCommits, 6, obs.L("kind", "sync"))
	reg.Add(obs.MShimCommits, 4, obs.L("kind", "async"))
	sh := EvaluateSessionHealth("s-0", reg.Snapshot())
	if sh.State != Healthy || sh.SpecHitRate != 0.4 {
		t.Fatalf("clean session: %+v, want healthy with hit rate 0.4", sh)
	}

	reg.Add(obs.MFaultsFired, 2, obs.L("kind", "loss_burst"))
	reg.Add(obs.MCkptResyncEvents, 3)
	sh = EvaluateSessionHealth("s-0", reg.Snapshot())
	if sh.State != Degraded || sh.FaultsFired != 2 || sh.Resyncs != 3 {
		t.Fatalf("faulted session: %+v, want degraded with faults=2 resyncs=3", sh)
	}

	reg.Add(obs.MRecordGuardViolations, 1)
	sh = EvaluateSessionHealth("s-0", reg.Snapshot())
	if sh.State != Unhealthy {
		t.Fatalf("guard violation: %s, want unhealthy", sh.State)
	}
}

// TestHealthShedRetriesAndWarmImports checks the shed-retry and
// speculation warm-start rollup: the window counts both, neither degrades
// the fleet, and the rendered report shows them.
func TestHealthShedRetriesAndWarmImports(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Add(obs.MShedRetries, 3)
	reg.Add(obs.MSpecWarmImports, 1)
	rep := EvaluateHealth(reg.Snapshot(), nil)
	if rep.State != Healthy {
		t.Fatalf("shed retries alone: state %s, want healthy (%v)", rep.State, rep.Reasons)
	}
	if rep.Window.ShedRetries != 3 || rep.Window.SpecWarmImports != 1 {
		t.Fatalf("window shed=%d imports=%d, want 3/1",
			rep.Window.ShedRetries, rep.Window.SpecWarmImports)
	}
	if !strings.Contains(rep.Render(), "3 shed retry(s)") {
		t.Error("Render() missing the shed-retry count")
	}
}
