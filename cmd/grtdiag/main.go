// grtdiag is GR-T's diagnosis tool. Its original job is the paper's §3.4
// remote-debugging application — comparing a subject device's recording
// against a reference recording of the same workload and SKU — and it now
// also opens the observability artifacts the service and the fleet drills
// emit: flight-recorder journals, sealed diagnostic bundles, and fleet
// health reports.
//
// Usage:
//
//	grtdiag compare -ref ref.grt -subject subject.grt [-max 32]
//	grtdiag flight -in flight.jsonl [-n 50] [-session drill-0003] [-kind fault]
//	grtdiag bundle -in failure.grtd [-json]
//	grtdiag health -in FLEET_HEALTH.json
//
// The legacy flag-form invocation (grtdiag -ref ... -subject ...) still
// works and behaves exactly like the compare subcommand.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"gpurelay/internal/audit"
	"gpurelay/internal/cloud"
	"gpurelay/internal/diag"
	"gpurelay/internal/obs"
	"gpurelay/internal/platform"
	"gpurelay/internal/trace"
)

// readRecording reads a single-recording bundle through the bounded bundle
// reader, then verifies its seal and audits its structure: compare walks
// only recordings the replayer would accept.
func readRecording(path string) (*trace.Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	e, err := platform.ReadSingle(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	signed := &trace.Signed{Payload: e.Payload}
	copy(signed.MAC[:], e.MAC)
	rec, err := trace.Verify(signed, e.Key)
	if err != nil {
		return nil, err
	}
	if err := rec.Audit(); err != nil {
		return nil, err
	}
	return rec, nil
}

func runCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	refFlag := fs.String("ref", "", "reference recording bundle (known-good device)")
	subFlag := fs.String("subject", "", "subject recording bundle (device under diagnosis)")
	maxFlag := fs.Int("max", 32, "maximum divergences to report")
	fs.Parse(args)
	if *refFlag == "" || *subFlag == "" {
		log.Fatal("-ref and -subject are required")
	}
	ref, err := readRecording(*refFlag)
	if err != nil {
		log.Fatalf("reading reference: %v", err)
	}
	subject, err := readRecording(*subFlag)
	if err != nil {
		log.Fatalf("reading subject: %v", err)
	}
	fmt.Printf("reference: %s on product %#x (%d events)\n", ref.Workload, ref.ProductID, len(ref.Events))
	fmt.Printf("subject:   %s on product %#x (%d events)\n", subject.Workload, subject.ProductID, len(subject.Events))

	rep, err := diag.Compare(ref, subject, diag.Options{MaxDivergences: *maxFlag})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Render())
	if !rep.Healthy() {
		os.Exit(1)
	}
}

// runFlight pretty-prints a flight-recorder journal (the JSONL file
// grtrecord -flight-out or a fleet drill writes), optionally filtered by
// session and event kind, optionally limited to the newest n events.
func runFlight(args []string) {
	fs := flag.NewFlagSet("flight", flag.ExitOnError)
	inFlag := fs.String("in", "", "flight journal (JSON Lines); required")
	nFlag := fs.Int("n", 0, "show only the newest n events (0 = all)")
	sessFlag := fs.String("session", "", "show only this session's events")
	kindFlag := fs.String("kind", "", "show only events of this kind (admission, sync, fault, ...)")
	fs.Parse(args)
	if *inFlag == "" {
		log.Fatal("-in is required")
	}
	f, err := os.Open(*inFlag)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadFlightJSONL(f)
	if err != nil {
		log.Fatal(err)
	}
	total := len(events)
	filtered := events[:0]
	for _, e := range events {
		if *sessFlag != "" && e.Session != *sessFlag {
			continue
		}
		if *kindFlag != "" && e.Kind != *kindFlag {
			continue
		}
		filtered = append(filtered, e)
	}
	events = filtered
	if *nFlag > 0 && len(events) > *nFlag {
		events = events[len(events)-*nFlag:]
	}
	for _, e := range events {
		fmt.Println(e)
	}
	fmt.Printf("%d event(s) shown (%d in journal)\n", len(events), total)
}

// runBundle opens a sealed diagnostic bundle (GRTD file), verifies its seal,
// and pretty-prints it. A bad seal exits 2 — the bundle is evidence, and
// evidence that fails authentication must not be presented as intact.
func runBundle(args []string) {
	fs := flag.NewFlagSet("bundle", flag.ExitOnError)
	inFlag := fs.String("in", "", "sealed diagnostic bundle (GRTD file); required")
	jsonFlag := fs.Bool("json", false, "print the verified payload as JSON instead of pretty text")
	fs.Parse(args)
	if *inFlag == "" {
		log.Fatal("-in is required")
	}
	f, err := os.Open(*inFlag)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	payload, mac, key, err := audit.DecodeBundleFile(f)
	if err != nil {
		log.Fatal(err)
	}
	b, err := audit.OpenBundle(payload, mac, key)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grtdiag: bundle failed verification: %v\n", err)
		os.Exit(2)
	}
	if *jsonFlag {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(b); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(b.Render())
}

// runHealth pretty-prints a grt-health/1 fleet health report (grtbench
// -health-out, or Service.Health written as JSON). Exits 1 when the fleet is
// unhealthy so scripts can gate on it.
func runHealth(args []string) {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	inFlag := fs.String("in", "", "fleet health report (grt-health/1 JSON); required")
	fs.Parse(args)
	if *inFlag == "" {
		log.Fatal("-in is required")
	}
	data, err := os.ReadFile(*inFlag)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := cloud.ParseHealthReport(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Render())
	if rep.State == cloud.Unhealthy {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  grtdiag compare -ref ref.grt -subject subject.grt [-max 32]
  grtdiag flight -in flight.jsonl [-n 50] [-session id] [-kind kind]
  grtdiag bundle -in failure.grtd [-json]
  grtdiag health -in FLEET_HEALTH.json
`)
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("grtdiag: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "compare":
		runCompare(os.Args[2:])
	case "flight":
		runFlight(os.Args[2:])
	case "bundle":
		runBundle(os.Args[2:])
	case "health":
		runHealth(os.Args[2:])
	default:
		if os.Args[1][0] == '-' {
			// Legacy flag-form invocation: treat as compare.
			runCompare(os.Args[1:])
			return
		}
		usage()
	}
}
