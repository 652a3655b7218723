package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestFleetDrillArtifact runs a 2-session drill end to end and checks the
// grt-drill/1 artifact it writes.
func TestFleetDrillArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "drill.json")
	if code := run([]string{"-fleet", "-model", "micro", "-sessions", "2", "-out", out}, io.Discard); code != 0 {
		t.Fatalf("exit status %d", code)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var art drillArtifact
	if err := json.Unmarshal(blob, &art); err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	if art.Schema != "grt-drill/1" || art.Model != "Micro" || art.Sessions != 2 || len(art.Runs) != 2 {
		t.Fatalf("artifact: schema %q, model %q, %d sessions, %d runs", art.Schema, art.Model, art.Sessions, len(art.Runs))
	}
	if art.Counts.Records != 2 || art.Mismatched != 0 || len(art.Failures) != 0 {
		t.Fatalf("artifact: %d records, %d mismatched seals, failures %v", art.Counts.Records, art.Mismatched, art.Failures)
	}
}

// TestFlagRejections checks every flag rejection exits 2 with one JSON line
// carrying its reason token, before anything runs.
func TestFlagRejections(t *testing.T) {
	for _, c := range []struct {
		reason string
		args   []string
	}{
		{"mode_conflict", []string{"-fleet", "-fast"}},
		{"needs_fleet", []string{"-workloads", "4"}},
		{"bad_model", []string{"-fleet", "-model", "lenet"}},
		{"bad_engine", []string{"-fleet", "-engine", "quantum"}},
		{"unknown_kind", []string{"-fleet", "-health-plan", "meteor"}},
		{"bad_sessions", []string{"-fleet", "-sessions", "-1"}},
		{"bad_workloads", []string{"-fleet", "-workloads", "-1"}},
		{"bad_shards", []string{"-fleet", "-shards", "-1"}},
		{"workloads_exceed_sessions", []string{"-fleet", "-sessions", "2", "-workloads", "3"}},
		{"engine_conflict", []string{"-fleet", "-engine", "parallel", "-health-plan", "dying-gpu"}},
	} {
		var stderr bytes.Buffer
		code := run(c.args, &stderr)
		var rej flagRejection
		if err := json.Unmarshal(stderr.Bytes(), &rej); err != nil || code != 2 || !rej.Rejected || rej.Reason != c.reason {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 with reason %q", c.args, code, stderr.String(), c.reason)
		}
	}
}
