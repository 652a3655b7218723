package main

// The -ckpt mode benchmarks checkpoint capture: full whole-session captures
// vs. the epoch-chained incremental capturer, on the evaluation's smallest
// and largest footprints, plus the fleet-shared speculation warm start (a
// cold service's first session seeded from a peer's validated-commit
// export). The numbers land in a grt-ckpt/1 artifact and gate two claims:
// incremental capture must cost well under full capture (-ckpt-gate), and
// the warm-started cold session's speculation hit rate must strictly beat
// the unseeded cold baseline.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"gpurelay"
	"gpurelay/internal/gpumem"
	"gpurelay/internal/record"
)

// ckptCaptureEntry is one footprint's capture-cost row. Per-boundary times
// are the session benchmark divided by the session's job count; sealed MB
// is the total sealed checkpoint payload one session produces.
type ckptCaptureEntry struct {
	Footprint     string  `json:"footprint"`
	Jobs          int     `json:"jobs"`
	EventsPerJob  int     `json:"events_per_job"`
	CaptureFullNs int64   `json:"capture_full_ns"` // per boundary
	CaptureIncrNs int64   `json:"capture_incr_ns"` // per boundary (incremental mode)
	Ratio         float64 `json:"ratio"`           // incr / full
	FullSealedMB  float64 `json:"full_sealed_mb"`  // per session
	IncrSealedMB  float64 `json:"incr_sealed_mb"`  // per session
	Epochs        int     `json:"epochs"`          // per incremental session
	Conflicts     int     `json:"conflicts"`       // per incremental session
}

// specWarmEntry reports the fleet warm-start experiment: the same workload
// recorded on a cold service and on a cold service seeded with a peer's
// validated-commit export. Hit rate is speculated commits over total
// commits for the session.
type specWarmEntry struct {
	Model       string  `json:"model"`
	SeededSigs  int     `json:"seeded_sigs"`
	ColdCommits int     `json:"cold_commits"`
	ColdAsync   int     `json:"cold_async_commits"`
	WarmCommits int     `json:"warm_commits"`
	WarmAsync   int     `json:"warm_async_commits"`
	ColdHitRate float64 `json:"spec_hit_cold"`
	WarmHitRate float64 `json:"spec_hit_warm"`
}

// ckptArtifact is the grt-ckpt/1 schema.
type ckptArtifact struct {
	Schema     string             `json:"schema"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	GoMaxProcs int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Timestamp  string             `json:"timestamp"`
	Gate       float64            `json:"ckpt_gate"`
	Captures   []ckptCaptureEntry `json:"captures"`
	SpecWarm   *specWarmEntry     `json:"spec_warm"`
}

// benchCaptureSession benchmarks one synthetic session's checkpoint
// captures in the given mode and reports per-session time, sealed bytes
// per session, and (for incremental) sealed epochs and conflicts.
func benchCaptureSession(spec gpumem.FootprintSpec, mode record.CkptMode) (nsPerSession int64, sealedMB float64, captures, conflicts int, err error) {
	p, err := record.NewCkptPerf(spec, mode, 0, 0)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.RunSession()
		}
	})
	// The harness accumulates across every iteration including the warmup
	// probes testing.Benchmark runs outside the measured N, so per-session
	// sealed output is read off one final session's delta, not an average.
	sealed0, captures0 := p.Sealed(), p.Captures()
	p.RunSession()
	return res.NsPerOp(), float64(p.Sealed()-sealed0) / (1 << 20),
		p.Captures() - captures0, p.Conflicts(), nil
}

// measureSpecWarm runs the fleet warm-start experiment: a donor service
// records the workload twice (enough for its history signatures to reach
// prediction confidence), exports its validated commits, and two fresh
// services then record the same workload cold — one unseeded, one seeded
// from the export. All delays are virtual; the hit rates are deterministic.
func measureSpecWarm() (*specWarmEntry, error) {
	model := gpurelay.MNIST()
	sku := gpurelay.MaliG71MP8

	donor := gpurelay.NewService()
	donorClient := gpurelay.NewClient("ckptbench-donor", sku)
	for i := 0; i < 2; i++ {
		if _, _, err := donorClient.Record(donor, model, gpurelay.RecordOptions{}); err != nil {
			return nil, fmt.Errorf("donor session %d: %w", i, err)
		}
	}
	snap := donor.ExportSpecHistory()

	cold := gpurelay.NewService()
	coldClient := gpurelay.NewClient("ckptbench-cold", sku)
	_, coldStats, err := coldClient.Record(cold, model, gpurelay.RecordOptions{})
	if err != nil {
		return nil, fmt.Errorf("cold session: %w", err)
	}

	warm := gpurelay.NewService()
	seeded := warm.ImportSpecHistory(snap)
	warmClient := gpurelay.NewClient("ckptbench-warm", sku)
	_, warmStats, err := warmClient.Record(warm, model, gpurelay.RecordOptions{})
	if err != nil {
		return nil, fmt.Errorf("warm session: %w", err)
	}

	e := &specWarmEntry{
		Model:       model.Name,
		SeededSigs:  seeded,
		ColdCommits: coldStats.Shim.Commits,
		ColdAsync:   coldStats.Shim.AsyncCommits,
		WarmCommits: warmStats.Shim.Commits,
		WarmAsync:   warmStats.Shim.AsyncCommits,
	}
	if e.ColdCommits > 0 {
		e.ColdHitRate = float64(e.ColdAsync) / float64(e.ColdCommits)
	}
	if e.WarmCommits > 0 {
		e.WarmHitRate = float64(e.WarmAsync) / float64(e.WarmCommits)
	}
	return e, nil
}

// runCkptBench measures checkpoint capture in both modes and the speculation
// warm start, writes the artifact, and enforces the gates: the
// incremental/full per-boundary ratio must stay under gate (when > 0) on
// every footprint, and the warm-started hit rate must strictly exceed the
// cold baseline. Gate violations are exit-1 failures: the build, not the
// invocation, is at fault.
func runCkptBench(outPath string, gate float64) error {
	fmt.Println("=== checkpoint capture benchmarks (wall-clock) ===")
	art := ckptArtifact{
		Schema: "grt-ckpt/1", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Gate:      gate,
	}

	var gateErr error
	for _, spec := range gpumem.FootprintSpecs() {
		e := ckptCaptureEntry{Footprint: spec.Name, Jobs: spec.Kernels, EventsPerJob: 96}
		fullNs, fullMB, _, _, err := benchCaptureSession(spec, record.CkptFull)
		if err != nil {
			return err
		}
		incrNs, incrMB, epochs, conflicts, err := benchCaptureSession(spec, record.CkptIncremental)
		if err != nil {
			return err
		}
		e.CaptureFullNs = fullNs / int64(spec.Kernels)
		e.FullSealedMB = fullMB
		e.CaptureIncrNs = incrNs / int64(spec.Kernels)
		e.IncrSealedMB = incrMB
		e.Epochs = epochs
		e.Conflicts = conflicts
		if e.CaptureFullNs > 0 {
			e.Ratio = float64(e.CaptureIncrNs) / float64(e.CaptureFullNs)
		}
		fmt.Printf("%-24s full %10d ns/boundary (%6.2f MB/session)  incremental %10d ns/boundary (%6.2f MB/session)  ratio %.3f\n",
			spec.Name, e.CaptureFullNs, e.FullSealedMB, e.CaptureIncrNs, e.IncrSealedMB, e.Ratio)
		if gate > 0 && e.Ratio >= gate && gateErr == nil {
			gateErr = fmt.Errorf("checkpoint gate: %s incremental/full capture ratio %.3f >= ceiling %.3f",
				spec.Name, e.Ratio, gate)
		}
		art.Captures = append(art.Captures, e)
	}

	sw, err := measureSpecWarm()
	if err != nil {
		return err
	}
	art.SpecWarm = sw
	fmt.Printf("spec warm start (%s): cold hit rate %.3f (%d/%d), warm %.3f (%d/%d), %d sigs seeded\n",
		sw.Model, sw.ColdHitRate, sw.ColdAsync, sw.ColdCommits,
		sw.WarmHitRate, sw.WarmAsync, sw.WarmCommits, sw.SeededSigs)
	if gateErr == nil && sw.WarmHitRate <= sw.ColdHitRate {
		gateErr = fmt.Errorf("spec warm-start gate: warm hit rate %.3f does not beat cold %.3f",
			sw.WarmHitRate, sw.ColdHitRate)
	}

	blob, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(outPath, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("checkpoint artifact written to %s\n", outPath)
	return gateErr
}
