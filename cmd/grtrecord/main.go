// grtrecord runs one GR-T record session: a simulated client device asks the
// cloud service to dry run a workload's GPU stack against the client's GPU,
// and saves the signed recording to a file for grtreplay.
//
// Usage:
//
//	grtrecord -model mnist -sku g71 -network wifi -variant oursmds -o mnist.grt
//
// Multi-GPU: -gpus records N sessions, one GPU each, on one discrete-event
// engine (-engine parallel uses all host cores; recordings stay byte-identical
// to -engine serial), and writes them as one bundle:
//
//	grtrecord -model mnist -gpus 4 -engine parallel -o fleet.grt
//
// Resilience: -faults injects a deterministic chaos plan, -ckpt saves the
// checkpoint the session captures after every completed job (the file holds
// the latest), and -resume continues a lost session from a saved checkpoint:
//
//	grtrecord -model mnist -faults outage -ckpt mnist.grtc -o mnist.grt
//	grtrecord -model mnist -resume mnist.grtc -o mnist.grt
//
// A malformed -faults spec is rejected with exit code 2 and a single-line
// JSON report on stderr ({"rejected":true,"stage":"fault-plan","reason":...}),
// matching grtbench.
//
// Cache-first: -cached derives the content-addressed cache key (SKU, stack,
// workload, input shape) before admission and serves a store hit with zero
// VM time; -cache-dir persists the store, so a rerun serves from disk:
//
//	grtrecord -model mnist -cached -cache-dir /tmp/grtcache -o mnist.grt
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"gpurelay"
	"gpurelay/internal/platform"
)

// rejectPlan prints one machine-readable JSON line to stderr and exits 2
// for a -faults spec error: stage "fault-plan", reason from the parser's
// stable machine-readable token (e.g. "unknown_kind"). Same schema and exit
// code as grtbench's flag rejection.
func rejectPlan(err error) {
	reason := "bad_plan"
	var pe *gpurelay.FaultPlanError
	if errors.As(err, &pe) {
		reason = pe.Reason
	}
	line, jerr := json.Marshal(struct {
		Rejected bool   `json:"rejected"`
		Stage    string `json:"stage"`
		Reason   string `json:"reason"`
		Error    string `json:"error"`
	}{Rejected: true, Stage: "fault-plan", Reason: reason, Error: err.Error()})
	if jerr != nil {
		fmt.Fprintf(os.Stderr, `{"rejected":true,"stage":"fault-plan","reason":%q}`+"\n", reason)
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, string(line))
	os.Exit(2)
}

func modelByName(name string) (*gpurelay.Model, error) {
	switch strings.ToLower(name) {
	case "mnist":
		return gpurelay.MNIST(), nil
	case "alexnet":
		return gpurelay.AlexNet(), nil
	case "mobilenet":
		return gpurelay.MobileNet(), nil
	case "squeezenet":
		return gpurelay.SqueezeNet(), nil
	case "resnet12":
		return gpurelay.ResNet12(), nil
	case "vgg16":
		return gpurelay.VGG16(), nil
	}
	return nil, fmt.Errorf("unknown model %q (mnist|alexnet|mobilenet|squeezenet|resnet12|vgg16)", name)
}

func skuByName(name string) (*gpurelay.SKU, error) {
	switch strings.ToLower(name) {
	case "g71", "g71mp8":
		return gpurelay.MaliG71MP8, nil
	case "g72", "g72mp12":
		return gpurelay.MaliG72MP12, nil
	case "g52", "g52mp2":
		return gpurelay.MaliG52MP2, nil
	case "g76", "g76mp10":
		return gpurelay.MaliG76MP10, nil
	}
	return nil, fmt.Errorf("unknown SKU %q (g71|g72|g52|g76)", name)
}

func variantByName(name string) (gpurelay.Variant, error) {
	switch strings.ToLower(name) {
	case "naive":
		return gpurelay.Naive, nil
	case "oursm":
		return gpurelay.OursM, nil
	case "oursmd":
		return gpurelay.OursMD, nil
	case "oursmds", "":
		return gpurelay.OursMDS, nil
	}
	return 0, fmt.Errorf("unknown variant %q (naive|oursm|oursmd|oursmds)", name)
}

func main() {
	modelFlag := flag.String("model", "mnist", "workload: mnist|alexnet|mobilenet|squeezenet|resnet12|vgg16")
	skuFlag := flag.String("sku", "g71", "client GPU SKU: g71|g72|g52|g76")
	netFlag := flag.String("network", "wifi", "network condition: wifi|cellular")
	variantFlag := flag.String("variant", "oursmds", "recorder: naive|oursm|oursmd|oursmds")
	outFlag := flag.String("o", "", "write the recording bundle to this file (for grtreplay)")
	metricsFlag := flag.String("metrics", "", "write the session's metrics in Prometheus text format to this file (\"-\" for stdout)")
	traceFlag := flag.String("trace-out", "", "write the session's phase timeline as Chrome trace JSON to this file (load in chrome://tracing or Perfetto)")
	faultsFlag := flag.String("faults", "", "inject a deterministic fault plan: a preset ("+
		strings.Join(gpurelay.FaultPresets(), "|")+") or a spec like loss@200ms+1s:15,crash@job8")
	resumeFlag := flag.String("resume", "", "resume a lost session from this checkpoint file")
	ckptFlag := flag.String("ckpt", "", "keep the latest job-boundary checkpoint in this file (enables resumable recording)")
	maxResumesFlag := flag.Int("max-resumes", 0, "automatic resumes of a lost session before giving up (0 = default 3, negative = never)")
	flightFlag := flag.String("flight-out", "", "write the service's flight-recorder journal (JSON Lines, for grtdiag flight) to this file (\"-\" for stdout); written on success and on failure")
	bundleOutFlag := flag.String("bundle-out", "", "on failure, write the sealed diagnostic bundle (GRTD, for grtdiag bundle) to this file before exiting")
	cachedFlag := flag.Bool("cached", false, "serve through the service's content-addressed recording cache: a hit returns the stored sealed recording with zero VM time, a miss records once and publishes")
	cacheDirFlag := flag.String("cache-dir", "", "with -cached: persistent on-disk cache tier; a rerun with the same model/SKU serves from disk (seal re-verified on load)")
	engineFlag := flag.String("engine", "serial", "discrete-event engine hosting the session(s): serial|parallel")
	gpusFlag := flag.Int("gpus", 1, "number of GPUs (one record session each, sharing one engine)")
	seedFlag := flag.Uint64("seed", 1, "session key / client seed derivation seed (with -gpus > 1 or -engine parallel)")
	flag.Parse()

	model, err := modelByName(*modelFlag)
	if err != nil {
		log.Fatal(err)
	}
	sku, err := skuByName(*skuFlag)
	if err != nil {
		log.Fatal(err)
	}
	variant, err := variantByName(*variantFlag)
	if err != nil {
		log.Fatal(err)
	}
	network := gpurelay.WiFi
	if strings.ToLower(*netFlag) == "cellular" {
		network = gpurelay.Cellular
	}

	if *engineFlag != "serial" && *engineFlag != "parallel" {
		log.Fatalf("unknown engine %q (serial|parallel)", *engineFlag)
	}
	if *gpusFlag < 1 {
		log.Fatalf("-gpus %d: need at least one GPU", *gpusFlag)
	}
	if *gpusFlag > 1 || *engineFlag == "parallel" {
		// Engine-hosted recording: platform-built sessions on a shared
		// discrete-event engine. Resilience and telemetry flags belong to
		// the classic single-session path.
		for name, set := range map[string]bool{
			"-faults": *faultsFlag != "", "-resume": *resumeFlag != "",
			"-ckpt": *ckptFlag != "", "-max-resumes": *maxResumesFlag != 0,
			"-metrics": *metricsFlag != "", "-trace-out": *traceFlag != "",
			"-flight-out": *flightFlag != "", "-bundle-out": *bundleOutFlag != "",
		} {
			if set {
				log.Fatalf("%s is not supported with -gpus > 1 or -engine parallel", name)
			}
		}
		if err := runPlatform(platformOpts{
			engine: *engineFlag, gpus: *gpusFlag, seed: *seedFlag,
			model: model, sku: sku, network: network, variant: variant,
			out: *outFlag,
		}); err != nil {
			log.Fatalf("record: %v", err)
		}
		return
	}

	if *cacheDirFlag != "" && !*cachedFlag {
		log.Fatal("-cache-dir needs -cached")
	}
	if *cachedFlag {
		for name, set := range map[string]bool{
			"-faults": *faultsFlag != "", "-resume": *resumeFlag != "",
			"-ckpt": *ckptFlag != "", "-max-resumes": *maxResumesFlag != 0,
		} {
			if set {
				log.Fatalf("%s records a live session; it cannot combine with -cached", name)
			}
		}
	}
	client := gpurelay.NewClient("grtrecord-cli", sku)
	svc := gpurelay.NewServiceWith(gpurelay.ServiceConfig{CacheDir: *cacheDirFlag})
	var scope *gpurelay.Scope
	if *metricsFlag != "" || *traceFlag != "" || *flightFlag != "" {
		// A scope is what routes the session's own events (sync phases,
		// speculation commits, checkpoints) into the service's flight
		// recorder, so -flight-out implies one.
		scope = gpurelay.NewScope(fmt.Sprintf("record/%s/%v/%s", model.Name, variant, network.Name))
	}
	// fail writes the observability artifacts a failed session leaves behind
	// — the flight journal and the sealed diagnostic bundle — then exits.
	fail := func(format string, args ...any) {
		writeFlight(svc, *flightFlag)
		writeDiagBundle(svc, *bundleOutFlag)
		log.Fatalf(format, args...)
	}
	fmt.Printf("recording %s on %s over %s with %v...\n", model.Name, sku.Name, network.Name, variant)
	recOpts := gpurelay.RecordOptions{Variant: variant, Network: network, Obs: scope}

	var rec *gpurelay.Recording
	var stats gpurelay.RecordStats
	if resilient := *faultsFlag != "" || *resumeFlag != "" || *ckptFlag != "" || *maxResumesFlag != 0; resilient {
		opts := gpurelay.ResilienceOptions{RecordOptions: recOpts, MaxResumes: *maxResumesFlag}
		if *faultsFlag != "" {
			plan, err := gpurelay.ParseFaultPlan(*faultsFlag)
			if err != nil {
				rejectPlan(err)
			}
			opts.Faults = plan
			fmt.Printf("injecting %v\n", plan)
		}
		if *resumeFlag != "" {
			cp, err := readCheckpoint(*resumeFlag)
			if err != nil {
				log.Fatalf("loading checkpoint %s: %v", *resumeFlag, err)
			}
			opts.Resume = cp
			fmt.Printf("resuming session %s from job %d (%d events)\n", cp.SessionID(), cp.Job(), cp.Events())
		}
		var lastCkpt *gpurelay.Checkpoint
		if *ckptFlag != "" {
			opts.OnCheckpoint = func(cp *gpurelay.Checkpoint) { lastCkpt = cp }
		}
		rec, stats, err = client.RecordResumable(context.Background(), svc, model, opts)
		if lastCkpt != nil {
			if werr := writeCheckpoint(*ckptFlag, lastCkpt); werr != nil {
				log.Printf("writing checkpoint to %s: %v", *ckptFlag, werr)
			} else if err != nil {
				fmt.Printf("session %s failed; last checkpoint: job %d, saved to %s\n",
					lastCkpt.SessionID(), lastCkpt.Job(), *ckptFlag)
				fmt.Printf("rerun with -resume %s to continue\n", *ckptFlag)
			}
		}
		if err != nil {
			fail("record: %v", err)
		}
		if stats.Resumes > 0 {
			fmt.Printf("survived %d session loss(es) via checkpoint resume\n", stats.Resumes)
		}
	} else if *cachedFlag {
		var outcome gpurelay.CacheOutcome
		rec, outcome, stats, err = client.RecordCached(svc, model, recOpts)
		if err != nil {
			fail("record: %v", err)
		}
		switch outcome {
		case gpurelay.CacheHit:
			fmt.Println("served from the recording cache (zero VM time; stats below are the hit's, i.e. none)")
		case gpurelay.CacheRecorded:
			fmt.Println("cache miss: recorded once and published to the store")
		case gpurelay.CacheCoalesced:
			fmt.Println("coalesced onto a concurrent record of the same cache key")
		}
	} else {
		rec, stats, err = client.Record(svc, model, recOpts)
		if err != nil {
			fail("record: %v", err)
		}
	}

	fmt.Printf("recording delay:     %.1f s (virtual)\n", stats.RecordingDelay.Seconds())
	fmt.Printf("GPU jobs:            %d\n", stats.Jobs)
	fmt.Printf("register accesses:   %d (%.1f per commit)\n", stats.Shim.RegAccesses, stats.RegAccessesPerCommit)
	fmt.Printf("blocking round trips:%d (plus %d hidden by speculation)\n",
		stats.Link.BlockingRTTs, stats.Link.AsyncRTTs)
	fmt.Printf("commits:             %d total, %d speculated, %d mispredicted\n",
		stats.Shim.Commits, stats.Shim.AsyncCommits, stats.Shim.Mispredictions)
	fmt.Printf("memory sync traffic: %.2f MB\n", float64(stats.MemSyncBytes)/1e6)
	if stats.GPUThrottled > 0 {
		fmt.Printf("GPU throttled:       %v (thermal windows; billed at the throttled draw)\n", stats.GPUThrottled)
	}
	fmt.Printf("client energy:       %.2f J\n", float64(stats.Energy))

	if *outFlag != "" {
		if err := writeBundle(*outFlag, rec); err != nil {
			log.Fatalf("writing %s: %v", *outFlag, err)
		}
		fmt.Printf("wrote recording bundle to %s\n", *outFlag)
	}
	if *metricsFlag != "" {
		if err := writeOutput(*metricsFlag, stats.Obs.WritePrometheus); err != nil {
			log.Fatalf("writing metrics to %s: %v", *metricsFlag, err)
		}
		if *metricsFlag != "-" {
			fmt.Printf("wrote session metrics to %s\n", *metricsFlag)
		}
	}
	if *traceFlag != "" {
		if err := writeOutput(*traceFlag, scope.WriteChromeTrace); err != nil {
			log.Fatalf("writing trace to %s: %v", *traceFlag, err)
		}
		if *traceFlag != "-" {
			fmt.Printf("wrote session timeline to %s (%d spans)\n", *traceFlag, len(scope.Spans()))
		}
	}
	writeFlight(svc, *flightFlag)
}

// writeFlight dumps the service's flight-recorder journal as JSON Lines.
// It runs on success and on failure — the journal is most valuable when the
// session just died.
func writeFlight(svc *gpurelay.Service, path string) {
	if path == "" {
		return
	}
	if err := writeOutput(path, svc.WriteFlight); err != nil {
		fmt.Fprintf(os.Stderr, "grtrecord: writing flight journal to %s: %v\n", path, err)
		return
	}
	if path != "-" {
		fmt.Printf("wrote flight journal to %s (%d events)\n", path, len(svc.FlightEvents()))
	}
}

// writeDiagBundle saves the newest sealed diagnostic bundle the service
// captured, if any, so a failed run leaves verifiable evidence behind
// (open it with grtdiag bundle -in <path>).
func writeDiagBundle(svc *gpurelay.Service, path string) {
	if path == "" {
		return
	}
	sb, ok := svc.LastDiagBundle()
	if !ok {
		fmt.Fprintln(os.Stderr, "grtrecord: no diagnostic bundle was captured")
		return
	}
	err := writeOutput(path, func(w io.Writer) error {
		return gpurelay.EncodeDiagBundle(w, sb, svc.BundleKey())
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "grtrecord: writing diagnostic bundle to %s: %v\n", path, err)
		return
	}
	fmt.Fprintf(os.Stderr, "grtrecord: wrote sealed diagnostic bundle to %s\n", path)
}

// writeOutput writes via fn to path, or to stdout when path is "-".
func writeOutput(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeBundle serializes a recording for the demo CLIs. NOTE: it bundles the
// session key so grtreplay can verify the signature; a real deployment keeps
// that key in the TEE's secure storage.
func writeBundle(path string, rec *gpurelay.Recording) error {
	payload, mac, key := rec.Bundle()
	return writeOutput(path, func(w io.Writer) error {
		return platform.WriteBundle(w, []platform.Entry{{Payload: payload, MAC: mac, Key: key}})
	})
}

// writeCheckpoint saves a sealed checkpoint, same layout as a recording
// bundle under a "GRTC" magic (and the same key-bundling caveat).
func writeCheckpoint(path string, cp *gpurelay.Checkpoint) error {
	payload, mac, key := cp.Bundle()
	return writeOutput(path, func(w io.Writer) error {
		return platform.WriteCheckpoint(w, platform.Entry{Payload: payload, MAC: mac, Key: key})
	})
}

// readCheckpoint loads a checkpoint writeCheckpoint saved, refusing any
// chunk over wire.MaxChunk before reading it.
func readCheckpoint(path string) (*gpurelay.Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	e, err := platform.ReadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return gpurelay.CheckpointFromBundle(e.Payload, e.MAC, e.Key)
}
