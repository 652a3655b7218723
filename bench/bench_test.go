package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload for one or two ops with tracing on. The
// correctness gates must pass, and every metric BENCHMARK.json names must be
// emitted, finite and in its declared unit.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, -seconds defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // process-wide metrics mix; the test checks only that they are emitted
			traceOut := filepath.Join(t.TempDir(), "trace.json")
			oc, err := execute(w, config{seed: 1, seconds: 1e-3, traced: true, setupReps: 1, traceOut: traceOut})
			if err != nil {
				t.Fatal(err)
			}
			if !oc.correct || oc.failed != 0 || oc.attempted < 2 {
				t.Fatalf("correct=%v failed=%d attempted=%d", oc.correct, oc.failed, oc.attempted)
			}
			checkMetrics(t, "end_to_end", spec.EndToEnd, oc.endToEnd, true)
			checkMetrics(t, "per_layer", spec.PerLayer, oc.perLayer, false)
			data, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var chrome struct{ TraceEvents []json.RawMessage }
			if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
				t.Fatalf("Chrome trace: %d events, %v", len(chrome.TraceEvents), err)
			}
		})
	}
}

func checkMetrics(t *testing.T, kind string, specs []metricSpec, got map[string]metric, positive bool) {
	t.Helper()
	if len(got) != len(specs) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", kind, len(got), len(specs))
	}
	for _, s := range specs {
		m, ok := got[s.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s not emitted", kind, s.Name)
		case m.Unit != s.Unit:
			t.Errorf("%s metric %s in %q, BENCHMARK.json says %q", kind, s.Name, m.Unit, s.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s metric %s = %v", kind, s.Name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("%s metric %s = %v, want > 0", kind, s.Name, m.Value)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25], and
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		if q1, m, q3 := quartiles(c.in); q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestScaled(t *testing.T) {
	// The host runs at half the reference speed until t0+10s, then at full
	// speed: an op of 100 ms in the slow part is 50 ms at reference speed.
	t0 := time.Unix(1000, 0)
	p := &speedProbe{}
	for i, u := range []float64{16, 16, 16, 16, 8, 8, 8, 8} {
		p.at = append(p.at, t0.Add(time.Duration(i)*3*time.Second))
		p.unitMs = append(p.unitMs, u)
	}
	got := p.scaled([]opTime{{100, t0.Add(4 * time.Second)}, {100, t0.Add(20 * time.Second)}})
	if got[0] != 50 || got[1] != 100 {
		t.Errorf("scaled = %v, want [50 100]", got)
	}
	// From the end of the first sample to the end of the third: two
	// stretches of 3 s, less the two 16 ms samples that end them.
	raw, scaled, probed := p.span(0, 2)
	if want := 6*time.Second - 32*time.Millisecond; raw != want || scaled != want/2 || probed != 32*time.Millisecond {
		t.Errorf("span(0, 2) = %v, %v, %v, want %v, %v, 32ms", raw, scaled, probed, want, want/2)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Better: "lower", Bound: 0.1}
	exact := metricSpec{Better: "lower", Bound: 0.001}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name       string
		base, next []float64
		m          metricSpec
		want       string
	}{
		{"noise", base, []float64{101, 100, 99, 102, 100}, lower, "same"},
		{"regression past the bound", base, []float64{115, 116, 114, 115, 117}, lower, "worse"},
		{"gain past the spread", base, []float64{90, 91, 89, 90, 92}, lower, "better"},
		{"higher is better", base, []float64{85, 86, 84, 85, 87}, metricSpec{Better: "higher", Bound: 0.1}, "worse"},
		{"deterministic output moved", []float64{6, 6, 6}, []float64{7, 7, 7}, exact, "changed"},
		{"deterministic output moved on some runs", []float64{6, 6, 6, 6, 6}, []float64{6, 6, 6, 7, 7}, exact, "changed"},
		{"deterministic output kept", []float64{6, 6, 6}, []float64{6, 6, 6}, exact, "same"},
		{"spread wider than the bound", []float64{60, 140, 80, 120, 100}, []float64{105, 95, 130, 70, 100}, lower, "unresolved"},
	} {
		if got := verdict(c.base, c.next, c.m); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
