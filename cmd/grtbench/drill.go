package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"gpurelay/internal/cloud"
	"gpurelay/internal/obs"
	"gpurelay/internal/platform"
)

// The -fleet mode is one path for every drill: it records the drill's
// plain serial reference, runs the requested drill twice, and gates on the
// seal oracle (every workload's seal equals the reference's), run-twice
// determinism, and the requested amplification and migration gates. The
// grt-drill/1 artifact is written before the verdict, so a failed gate
// still leaves its evidence.

// drillRun is one drill run's host and virtual cost.
type drillRun struct {
	WallMS       float64 `json:"wall_ms"`
	VirtualMS    float64 `json:"virtual_ms"`
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	MaxBatch     int     `json:"max_batch"`
}

func runOf(r *platform.DrillResult) drillRun {
	return drillRun{
		WallMS:       float64(r.Wall.Nanoseconds()) / 1e6,
		VirtualMS:    float64(r.VirtualTime.Nanoseconds()) / 1e6,
		Events:       r.Events,
		EventsPerSec: float64(r.Events) / r.Wall.Seconds(),
		MaxBatch:     r.Batches.MaxWidth,
	}
}

// drillArtifact is the grt-drill/1 schema.
type drillArtifact struct {
	Schema     string `json:"schema"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Timestamp  string `json:"timestamp"`

	// The drill's knobs, defaults filled in.
	Model      string `json:"model"`
	Engine     string `json:"engine"`
	Sessions   int    `json:"sessions"`
	Workloads  int    `json:"workloads"`
	Shards     int    `json:"shards"`
	Network    string `json:"network"`
	HealthPlan string `json:"health_plan,omitempty"`

	// Reference is the serial reference drill's run and Runs the requested
	// drill's two; Speedup is the reference's wall time over the first
	// run's (the parallel engine's speedup when only the engine differs).
	Reference drillRun   `json:"reference"`
	Runs      []drillRun `json:"runs"`
	Speedup   float64    `json:"speedup"`

	Counts              platform.DrillCounts `json:"counts"`
	CacheHitRate        float64              `json:"cache_hit_rate"`
	RecordAmplification float64              `json:"record_amplification"`
	// MigrationSuccessRate is interrupted workloads whose recording matches
	// the reference over interrupted workloads.
	MigrationSuccessRate float64            `json:"migration_success_rate"`
	HealthState          string             `json:"health_state"`
	Devices              []cloud.DeviceInfo `json:"devices,omitempty"`

	// Mismatched counts workloads whose seal differs from the reference;
	// Failures lists every failed gate, empty on a pass.
	Mismatched int      `json:"mismatched"`
	Failures   []string `json:"failures"`
}

// runDrill runs the reference and the drill twice, writes the artifact and
// the requested trace and health report, and returns an error naming every
// failed gate.
func runDrill(opts platform.DrillOptions, out, traceOut, healthOut string, ampGate float64) error {
	ctx := context.Background()
	ref, err := platform.Drill(ctx, opts.Reference())
	if err != nil {
		return fmt.Errorf("reference drill: %w", err)
	}
	var runs [2]*platform.DrillResult
	for i := range runs {
		if runs[i], err = platform.Drill(ctx, opts); err != nil {
			return fmt.Errorf("drill run %d: %w", i+1, err)
		}
	}
	a, b := runs[0], runs[1]
	o := a.Options
	engine := "serial"
	if o.Parallel {
		engine = "parallel"
	}
	art := drillArtifact{
		Schema: "grt-drill/1", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Model:     o.Model.Name, Engine: engine, Network: o.Network.Name,
		Sessions: o.Sessions, Workloads: o.Workloads, Shards: o.Shards,
		Reference:           runOf(ref),
		Runs:                []drillRun{runOf(a), runOf(b)},
		Speedup:             ref.Wall.Seconds() / a.Wall.Seconds(),
		Counts:              a.DrillCounts,
		CacheHitRate:        a.Health.Window.CacheHitRate,
		RecordAmplification: a.Health.Window.RecordAmplification,
		HealthState:         string(a.Health.State),
		Failures:            []string{},
	}
	fmt.Printf("=== fleet drill: %d sessions of %s, %d workloads, %d shard(s), %s engine, %s (GOMAXPROCS=%d) ===\n",
		o.Sessions, art.Model, o.Workloads, o.Shards, engine, art.Network, art.GoMaxProcs)
	fail := func(format string, args ...any) {
		art.Failures = append(art.Failures, fmt.Sprintf(format, args...))
	}

	distinct := map[[32]byte]bool{}
	recovered := 0
	for w, seal := range ref.Seals {
		distinct[seal] = true
		switch {
		case a.Seals[w] != seal:
			art.Mismatched++
		case a.Resumes[w] > 0:
			recovered++
		}
	}
	if art.Mismatched > 0 {
		fail("%d of %d workload seals differ from the serial reference", art.Mismatched, len(ref.Seals))
	}
	if len(distinct) != len(ref.Seals) {
		fail("%d distinct seals across %d reference workloads", len(distinct), len(ref.Seals))
	}
	if a.DrillCounts != b.DrillCounts || !slices.Equal(a.Seals, b.Seals) || !slices.Equal(a.Resumes, b.Resumes) {
		fail("the second run diverged from the first: %+v vs %+v", a.DrillCounts, b.DrillCounts)
	}
	// The flags leave network and warm start at their defaults, so a drill
	// with neither the cache nor a health plan differs from its reference
	// only in engine and instrumentation: its timeline must match exactly.
	if o.Workloads == 0 && o.HealthPlan == nil &&
		(a.VirtualTime != ref.VirtualTime || a.Events != ref.Events || a.Batches != ref.Batches) {
		fail("timeline diverged from the serial reference: %v/%d events/%+v vs %v/%d/%+v",
			a.VirtualTime, a.Events, a.Batches, ref.VirtualTime, ref.Events, ref.Batches)
	}
	if ampGate > 0 && art.RecordAmplification > ampGate {
		fail("record amplification %.3f exceeds %.3f", art.RecordAmplification, ampGate)
	}
	if o.HealthPlan != nil {
		art.HealthPlan = o.HealthPlan.Name
		art.Devices = a.Service.Devices()
		if a.Interrupted == 0 {
			fail("the health plan interrupted no session: nothing was drilled")
		} else {
			art.MigrationSuccessRate = float64(recovered) / float64(a.Interrupted)
			if art.MigrationSuccessRate < 1 {
				fail("migration success rate %.2f < 1.0", art.MigrationSuccessRate)
			}
		}
	}

	fmt.Printf("reference: %d serial sessions  %8.1f ms wall  %10.0f events/s\n",
		len(ref.Seals), art.Reference.WallMS, art.Reference.EventsPerSec)
	for i, r := range art.Runs {
		fmt.Printf("run %d:     %8.1f ms wall  %10.0f events/s  batch width ≤%d  (%.1f ms virtual)\n",
			i+1, r.WallMS, r.EventsPerSec, r.MaxBatch, r.VirtualMS)
	}
	c := a.DrillCounts
	fmt.Printf("%d records  %d hits  %d coalesced  %d shed  amplification %.3f  p99 wait %s  |  %d faulted  %d interrupted  %d migrations  |  %d seal mismatches\n",
		c.Records, c.Hits, c.Coalesced, c.Shed, art.RecordAmplification, c.P99AdmissionWait,
		c.Faulted, c.Interrupted, c.Migrated, art.Mismatched)

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		return err
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote drill artifact to %s\n", out)
	if traceOut != "" {
		if err := writeFile(traceOut, func(f *os.File) error {
			return obs.WriteFleetTrace(f, a.EngineTrace, a.Scopes...)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote drill Chrome trace to %s (%d engine events; load in chrome://tracing)\n", traceOut, a.EngineTrace.Len())
	}
	if healthOut != "" {
		if err := writeFile(healthOut, func(f *os.File) error { return a.Health.WriteJSON(f) }); err != nil {
			return err
		}
		fmt.Printf("wrote drill health report to %s (state: %s)\n", healthOut, a.Health.State)
	}
	if len(art.Failures) > 0 {
		return errors.New("drill gates failed: " + strings.Join(art.Failures, "; "))
	}
	fmt.Println("gates passed: every seal matches the serial reference, both runs agree")
	return nil
}

// writeFile creates path, fills it with write and closes it.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
