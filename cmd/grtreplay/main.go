// grtreplay replays a recording bundle produced by grtrecord inside the
// simulated TEE, on a device of the matching GPU SKU, with synthetic
// parameters and input.
//
// Usage:
//
//	grtreplay -recording mnist.grt -sku g71 -n 3
//
// -compare replays a second bundle on identical inputs and fails unless the
// two recordings are byte-identical and produce identical outputs — the
// check that a resumed session's stitched recording (grtrecord -resume)
// matches an uninterrupted one.
//
// -audit verifies and structurally audits the bundle without replaying it.
//
// A bundle that fails verification or auditing is rejected with exit code 2
// and a single-line JSON report on stderr carrying a stable machine-readable
// reason ({"rejected":true,"stage":...,"reason":...,"fingerprint":...}), so
// pipelines can triage rejections without parsing error prose. Operational
// failures (bad flags, unreadable files) keep exit code 1.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"gpurelay"
	"gpurelay/internal/audit"
	"gpurelay/internal/platform"
	"gpurelay/internal/trace"
)

// rejection is the machine-readable report grtreplay emits when a bundle is
// refused at the recording trust boundary.
type rejection struct {
	Rejected    bool   `json:"rejected"`
	File        string `json:"file"`
	Stage       string `json:"stage"`  // verify|audit|session|replay|compare
	Reason      string `json:"reason"` // stable token: bad_recording|audit|sku_mismatch|...
	Fingerprint string `json:"fingerprint"`
	Error       string `json:"error"`
	// Diags lists every structural-audit violation ("check: detail"), when
	// the rejection came from the auditor.
	Diags []string `json:"diags,omitempty"`
}

// reject prints the rejection report to stderr as one JSON line and exits
// with code 2: the bundle, not the environment, is at fault.
func reject(file, stage string, payload []byte, err error) {
	rep := rejection{
		Rejected:    true,
		File:        file,
		Stage:       stage,
		Reason:      audit.Reason(err),
		Fingerprint: audit.Fingerprint(payload),
		Error:       err.Error(),
	}
	var ae *trace.AuditError
	if errors.As(err, &ae) {
		for _, d := range ae.Diags {
			rep.Diags = append(rep.Diags, d.String())
		}
		if ae.Truncated {
			rep.Diags = append(rep.Diags, "... diagnostics truncated")
		}
	}
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, `{"rejected":true,"stage":%q,"reason":%q}`+"\n", stage, rep.Reason)
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, string(line))
	os.Exit(2)
}

// readBundle reads either bundle layout — classic single-GPU "GRTB" or the
// multi-GPU "GRTP" container — as per-GPU entries (payload, MAC, key each).
func readBundle(path string) ([]platform.Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return platform.ReadBundle(f)
}

// readSingle reads a bundle that must hold exactly one recording (the
// classic replay and compare paths).
func readSingle(path string) (payload, mac, key []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	e, err := platform.ReadSingle(f)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return e.Payload, e.MAC, e.Key, nil
}

func main() {
	recFlag := flag.String("recording", "", "recording bundle from grtrecord")
	skuFlag := flag.String("sku", "g71", "device GPU SKU: g71|g72|g52|g76")
	nFlag := flag.Int("n", 1, "number of replays")
	metricsFlag := flag.String("metrics", "", "write the complete metrics registry (ingest, replay, fleet counters) in Prometheus text format to this file (\"-\" for stdout)")
	traceFlag := flag.String("trace-out", "", "write the replay timeline as Chrome trace JSON to this file (load in chrome://tracing or Perfetto)")
	bundleOutFlag := flag.String("bundle-out", "", "on rejection, write the sealed diagnostic bundle (GRTD) to this file before exiting")
	compareFlag := flag.String("compare", "", "second recording bundle: verify both are byte-identical and replay to identical outputs")
	auditFlag := flag.Bool("audit", false, "verify and structurally audit the bundle without replaying; exit 2 with a JSON report if it is rejected")
	fingerprintFlag := flag.Bool("fingerprint", false, "print the accepted recording's content address (the truncated SHA-256 the recording cache and quarantine key on)")
	engineFlag := flag.String("engine", "serial", "discrete-event engine hosting the replay(s): serial|parallel")
	gpusFlag := flag.Int("gpus", 1, "GPUs to replay on (must match the bundle; 1 adapts to the bundle's GPU count)")
	flag.Parse()
	if *recFlag == "" {
		log.Fatal("-recording is required")
	}
	if *engineFlag != "serial" && *engineFlag != "parallel" {
		log.Fatalf("unknown engine %q (serial|parallel)", *engineFlag)
	}

	var sku *gpurelay.SKU
	switch strings.ToLower(*skuFlag) {
	case "g71", "g71mp8":
		sku = gpurelay.MaliG71MP8
	case "g72", "g72mp12":
		sku = gpurelay.MaliG72MP12
	case "g52", "g52mp2":
		sku = gpurelay.MaliG52MP2
	case "g76", "g76mp10":
		sku = gpurelay.MaliG76MP10
	default:
		log.Fatalf("unknown SKU %q", *skuFlag)
	}

	entries, err := readBundle(*recFlag)
	if err != nil {
		log.Fatal(err)
	}
	if len(entries) > 1 || *gpusFlag > 1 || *engineFlag == "parallel" {
		if *gpusFlag != 1 && *gpusFlag != len(entries) {
			log.Fatalf("-gpus %d, but %s holds %d per-GPU recording(s)", *gpusFlag, *recFlag, len(entries))
		}
		if *compareFlag != "" || *auditFlag || *fingerprintFlag || *metricsFlag != "" || *traceFlag != "" || *bundleOutFlag != "" {
			log.Fatal("-compare, -audit, -fingerprint, -metrics, -trace-out and -bundle-out work on the classic single-GPU replay path only")
		}
		if err := runPlatformReplay(entries, sku, *engineFlag, *nFlag); err != nil {
			log.Fatal(err)
		}
		return
	}
	payload, mac, key := entries[0].Payload, entries[0].MAC, entries[0].Key
	// The classic path routes the recording through the service's ingestion
	// boundary (MAC verify → bounded parse → structural audit), so the
	// grt_ingest_* counters, quarantine, and — on rejection — a sealed
	// diagnostic bundle all populate exactly as they would on a real service.
	svc := gpurelay.NewService()
	rec, err := svc.IngestRecording(payload, mac, key)
	if err != nil {
		writeRejectBundle(svc, *bundleOutFlag)
		reject(*recFlag, "ingest", payload, err)
	}
	fmt.Printf("verified recording of %s for GPU product %#x\n", rec.Workload, rec.ProductID)
	if *fingerprintFlag {
		fmt.Printf("fingerprint: %s\n", audit.Fingerprint(payload))
	}

	if *auditFlag {
		// Ingestion already ran the structural audit; reaching here means
		// the bundle passed it.
		fmt.Printf("audit: %s passed all structural checks\n", *recFlag)
		if *compareFlag != "" {
			payload2, mac2, key2, err := readSingle(*compareFlag)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := svc.IngestRecording(payload2, mac2, key2); err != nil {
				writeRejectBundle(svc, *bundleOutFlag)
				reject(*compareFlag, "ingest", payload2, err)
			}
			fmt.Printf("audit: %s passed all structural checks\n", *compareFlag)
		}
		return
	}

	client := gpurelay.NewClient("grtreplay-cli", sku)
	sess, err := client.NewReplaySession(rec)
	if err != nil {
		reject(*recFlag, "session", payload, err)
	}
	var scope *gpurelay.Scope
	if *metricsFlag != "" || *traceFlag != "" {
		// The scope aggregates into the service's fleet registry, so
		// -metrics dumps one complete registry: replay counters alongside
		// the ingest outcomes above.
		scope = gpurelay.NewScope(fmt.Sprintf("replay/%s", rec.Workload))
		scope.AttachFleet(svc.FleetRegistry())
		sess.Instrument(scope)
	}

	var sess2 *gpurelay.ReplaySession
	if *compareFlag != "" {
		payload2, mac2, key2, err := readSingle(*compareFlag)
		if err != nil {
			log.Fatal(err)
		}
		rec2, err := svc.IngestRecording(payload2, mac2, key2)
		if err != nil {
			writeRejectBundle(svc, *bundleOutFlag)
			reject(*compareFlag, "ingest", payload2, err)
		}
		if !bytes.Equal(payload, payload2) {
			reject(*compareFlag, "compare", payload2, fmt.Errorf(
				"recordings differ: %s has %d payload bytes, %s has %d: %w",
				*recFlag, len(payload), *compareFlag, len(payload2), gpurelay.ErrBadRecording))
		}
		fmt.Printf("compare: %s is byte-identical to %s (%d bytes)\n", *compareFlag, *recFlag, len(payload))
		client2 := gpurelay.NewClient("grtreplay-cli-compare", sku)
		sess2, err = client2.NewReplaySession(rec2)
		if err != nil {
			reject(*compareFlag, "session", payload2, err)
		}
	}

	// Synthetic parameters and input (a real app provisions its trained
	// model inside the TEE). Both sessions, when comparing, get identical
	// weights.
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
			log.Fatal(err)
		}
		if sess2 != nil {
			if err := sess2.SetWeights(r.Name, w); err != nil {
				log.Fatal(err)
			}
		}
	}

	for run := 0; run < *nFlag; run++ {
		input := make([]float32, inputElems(rec.Workload))
		for i := range input {
			input[i] = float32((i*(run+3) + run) % 256)
		}
		if err := sess.SetInput(input); err != nil {
			log.Fatal(err)
		}
		res, err := sess.Run()
		if err != nil {
			if errors.Is(err, gpurelay.ErrBadRecording) {
				reject(*recFlag, "replay", payload, err)
			}
			log.Fatalf("replay %d: %v", run, err)
		}
		out, err := sess.Output()
		if err != nil {
			log.Fatal(err)
		}
		best, bestP := 0, float32(0)
		for i, p := range out {
			if p > bestP {
				best, bestP = i, p
			}
		}
		fmt.Printf("replay %d: %.2f ms, %d events, class %d (p=%.3f)\n",
			run, float64(res.Delay.Microseconds())/1000, res.Events, best, bestP)
		if sess2 != nil {
			if err := sess2.SetInput(input); err != nil {
				log.Fatal(err)
			}
			if _, err := sess2.Run(); err != nil {
				log.Fatalf("compare replay %d: %v", run, err)
			}
			out2, err := sess2.Output()
			if err != nil {
				log.Fatal(err)
			}
			if len(out) != len(out2) {
				log.Fatalf("compare replay %d: %d outputs vs %d", run, len(out), len(out2))
			}
			for i := range out {
				if out[i] != out2[i] {
					log.Fatalf("compare replay %d: output %d differs: %v vs %v", run, i, out[i], out2[i])
				}
			}
			fmt.Printf("compare replay %d: outputs identical\n", run)
		}
	}
	if *metricsFlag != "" {
		if err := writeOutput(*metricsFlag, svc.WriteMetrics); err != nil {
			log.Fatalf("writing metrics to %s: %v", *metricsFlag, err)
		}
		if *metricsFlag != "-" {
			fmt.Printf("wrote complete metrics registry to %s\n", *metricsFlag)
		}
	}
	if *traceFlag != "" {
		if err := writeOutput(*traceFlag, scope.WriteChromeTrace); err != nil {
			log.Fatalf("writing trace to %s: %v", *traceFlag, err)
		}
		if *traceFlag != "-" {
			fmt.Printf("wrote replay timeline to %s (%d spans)\n", *traceFlag, len(scope.Spans()))
		}
	}
}

// writeRejectBundle exports the service's latest sealed diagnostic bundle
// (captured by the ingestion rejection) to path, when -bundle-out was given.
func writeRejectBundle(svc *gpurelay.Service, path string) {
	if path == "" {
		return
	}
	sb, ok := svc.LastDiagBundle()
	if !ok {
		fmt.Fprintln(os.Stderr, "grtreplay: no diagnostic bundle was captured")
		return
	}
	err := writeOutput(path, func(w io.Writer) error {
		return gpurelay.EncodeDiagBundle(w, sb, svc.BundleKey())
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "grtreplay: writing diagnostic bundle to %s: %v\n", path, err)
		return
	}
	fmt.Fprintf(os.Stderr, "grtreplay: wrote diagnostic bundle to %s\n", path)
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

func inputElems(workload string) int {
	switch workload {
	case "MNIST":
		return 28 * 28
	case "AlexNet":
		return 3 * 227 * 227
	case "MobileNet", "SqueezeNet":
		return 3 * 224 * 224
	case "ResNet12", "VGG16":
		return 3 * 128 * 128
	}
	return 28 * 28
}
