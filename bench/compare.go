package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the first of paths that exists.
func loadSpec(paths ...string) (*benchSpec, error) {
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found (looked for %v)", paths)
}

// compareFiles compares every run in base with every run in new. It fails
// when any metric is worse or a deterministic one changed.
func compareFiles(w io.Writer, files []string) error {
	spec, err := loadSpec("BENCHMARK.json", "../BENCHMARK.json")
	if err != nil {
		return err
	}
	if len(files) != 2 {
		return fmt.Errorf("-compare takes base.json new.json")
	}
	b, err := readResults(files[0])
	if err != nil {
		return err
	}
	n, err := readResults(files[1])
	if err != nil {
		return err
	}
	base, next := b.pooled(), n.pooled()

	fmt.Fprintf(w, "%-20s %-16s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "base", "[q1, q3]", "new", "[q1, q3]", "change", "bound", "verdict")
	failed := 0
	for _, wl := range spec.Workloads {
		b, n := base.Runs[wl.Name], next.Runs[wl.Name]
		if len(b) == 0 || len(n) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			bv, nv := values(b, m.Name), values(n, m.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			v := verdict(bv, nv, m)
			if v == "worse" || v == "changed" {
				failed++
			}
			bq1, bmed, bq3 := quartiles(bv)
			nq1, nmed, nq3 := quartiles(nv)
			fmt.Fprintf(w, "%-20s %-16s %12.6g [%11.6g, %11.6g] %12.6g [%11.6g, %11.6g] %+7.1f%% %6.3f  %s\n",
				wl.Name, m.Name, bmed, bq1, bq3, nmed, nq1, nq3, 100*relChange(bmed, nmed), m.Bound, v)
		}
		bf, nf := totalFailed(b), totalFailed(n)
		v := "same"
		if nf > bf {
			v, failed = "worse", failed+1
		}
		fmt.Fprintf(w, "%-20s %-16s %12d %25s %12d %25s %8s %6s  %s\n", wl.Name, "failed ops", bf, "", nf, "", "", "", v)
	}
	if failed > 0 {
		return fmt.Errorf("%d metric(s) worse or changed", failed)
	}
	return nil
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultsSchema)
	}
	return &f, nil
}

// pooled joins the runs of every set in the file, in order. Runs of two
// commits taken in alternation land in two files as sets of one run each,
// and their i-th runs pair up.
func (f *resultsFile) pooled() resultSet {
	all := resultSet{Runs: map[string][]result{}}
	for _, s := range f.Sets {
		for w, rs := range s.Runs {
			all.Runs[w] = append(all.Runs[w], rs...)
		}
	}
	return all
}

func totalFailed(rs []result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func relChange(base, next float64) float64 {
	if base == 0 {
		return 0
	}
	return (next - base) / math.Abs(base)
}

// verdict classifies one metric on one workload:
//   - changed: the metric repeats exactly on the base side (virtual time,
//     traffic) and some new run differs from it. A deterministic output
//     moved.
//   - better: the new side wins at least nine tenths of the run pairs and
//     its median beats the base median by more than the base runs' spread
//     (the distance between their quartiles).
//   - unresolved: the base runs spread wider than the bound, unless every
//     new run beats, or loses to, every base run.
//   - worse: the new median is worse than the base median by more than the
//     bound, as a share of the base median.
//   - same: none of the above.
func verdict(base, next []float64, m metricSpec) string {
	sign := 1.0 // positive differences are worse
	if m.Better == "higher" {
		sign = -1
	}
	bq1, bmed, bq3 := quartiles(base)
	_, nmed, _ := quartiles(next)
	if constant(base) {
		for _, n := range next {
			if n != base[0] {
				return "changed"
			}
		}
		return "same"
	}
	wins, pairs := 0, min(len(base), len(next))
	for i := 0; i < pairs; i++ {
		if sign*(next[i]-base[i]) < 0 {
			wins++
		}
	}
	gain := sign * (bmed - nmed)
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && gain > bq3-bq1 {
		return "better"
	}
	worseAll, betterAll := true, true
	for _, b := range base {
		for _, n := range next {
			worseAll = worseAll && sign*(n-b) > 0
			betterAll = betterAll && sign*(n-b) < 0
		}
	}
	spread := 0.0
	if bmed != 0 {
		spread = (bq3 - bq1) / math.Abs(bmed)
	}
	if spread > m.Bound && !worseAll && !betterAll {
		return "unresolved"
	}
	if sign*relChange(bmed, nmed) > m.Bound {
		return "worse"
	}
	return "same"
}

func constant(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
