// grtbench regenerates every table and figure of the paper's evaluation
// (§7): Figure 7(a)/(b), Table 1, Table 2, Figure 8, Figure 9, and the §7.3
// validation experiments. Everything runs on the virtual clock, so the full
// matrix (six networks x four recorders x two network conditions, plus
// replays and native baselines) completes in a few minutes of real time.
//
// Usage:
//
//	grtbench            # the full paper evaluation
//	grtbench -fast      # MNIST + AlexNet only
//	grtbench -fleet -engine parallel -sessions 16
//	                    # engine drill: 16 lockstep sessions, parallel engine
//	grtbench -fleet -model micro -sessions 10000 -workloads 100 -shards 4 -amp-gate 1.1
//	                    # cache-first drill: 10k clients over 100 workloads
//	grtbench -fleet -health-plan dying-gpu -sessions 100
//	                    # degraded drill: device faults, cross-VM migration
//	grtbench -fleet -health-plan vm-crash -sessions 100
//	                    # link-fault drill: VM crashes, backoff and resume
//
// Every -fleet run records the drill's plain serial reference, runs the
// requested drill twice, and writes one grt-drill/1 artifact (-out, default
// DRILL.json). It exits 1 unless every workload's seal matches the
// reference, the two runs agree, and every requested gate holds.
//
// Inconsistent flag combinations (e.g. -workloads without -fleet, or more
// workloads than sessions) are rejected with exit code 2 and a single-line
// JSON report on stderr ({"rejected":true,"stage":"flags","reason":...}), so
// pipelines can triage misconfiguration without parsing error prose.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gpurelay/internal/experiments"
	"gpurelay/internal/faultsim"
	"gpurelay/internal/mali"
	"gpurelay/internal/mlfw"
	"gpurelay/internal/netsim"
	"gpurelay/internal/platform"
)

// flagRejection is the machine-readable report grtbench emits when the flag
// surface is combined inconsistently. Mirrors grtreplay's rejection schema.
type flagRejection struct {
	Rejected bool   `json:"rejected"`
	Stage    string `json:"stage"`  // "flags" or "fault-plan"
	Reason   string `json:"reason"` // stable token: needs_fleet|bad_model|...
	Error    string `json:"error"`
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run executes one grtbench invocation and returns its exit status: 0 on
// success, 1 when a benchmark or gate fails, 2 when the flags are at fault.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("grtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fast := fs.Bool("fast", false, "run only MNIST and AlexNet")
	fleet := fs.Bool("fleet", false, "run the fleet drill against its serial reference and write a grt-drill/1 artifact")
	out := fs.String("out", "DRILL.json", "with -fleet: artifact path")
	model := fs.String("model", "mnist", "with -fleet: every workload's model: micro|mnist|alexnet|mobilenet|squeezenet|resnet12|vgg16")
	engine := fs.String("engine", "serial", "with -fleet: discrete-event engine of the drill: serial|parallel")
	sessions := fs.Int("sessions", 0, "with -fleet: drill clients (0 -> 16)")
	workloads := fs.Int("workloads", 0, "with -fleet: distinct workloads behind the cache-first admission path (0 -> every session its own workload, uncached)")
	shards := fs.Int("shards", 0, "with -fleet: admission partitions under consistent hashing on the cache key (0 -> 1)")
	healthPlan := fs.String("health-plan", "", "with -fleet: afflict every fourth workload with this fault plan of link, VM or device-health faults (preset name or spec, e.g. dying-gpu or vm-crash); the drill runs over WiFi")
	traceOut := fs.String("trace-out", "", "with -fleet: instrument the drill and write its combined Chrome trace (session spans + engine handler spans) to this file")
	healthOut := fs.String("health-out", "", "with -fleet: instrument the drill and write its fleet health report (grt-health/1 JSON, for grtdiag health) to this file")
	ampGate := fs.Float64("amp-gate", 0, "with -fleet: fail (exit 1) when record amplification exceeds this ceiling (0 = no gate)")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	reject := func(stage, reason, msg string) int {
		// A struct of strings and a bool always marshals.
		line, _ := json.Marshal(flagRejection{Rejected: true, Stage: stage, Reason: reason, Error: msg})
		fmt.Fprintln(stderr, string(line))
		return 2
	}

	if *fast && *fleet {
		return reject("flags", "mode_conflict", "-fast and -fleet select different modes")
	}
	for _, name := range []string{"model", "engine", "sessions", "workloads", "shards", "health-plan", "trace-out", "health-out", "amp-gate"} {
		if set[name] && !*fleet {
			return reject("flags", "needs_fleet", fmt.Sprintf("-%s configures the fleet drill and needs -fleet", name))
		}
	}

	var err error
	switch {
	case *fleet:
		opts := platform.DrillOptions{
			SKU: mali.G71MP8, Seed: 42,
			Sessions: *sessions, Workloads: *workloads, Shards: *shards,
			Instrument: *traceOut != "" || *healthOut != "",
		}
		for _, m := range append(mlfw.Benchmarks(), mlfw.Micro()) {
			if strings.EqualFold(m.Name, *model) {
				opts.Model = m
			}
		}
		if opts.Model == nil {
			return reject("flags", "bad_model", fmt.Sprintf("unknown model %q", *model))
		}
		if *engine != "serial" && *engine != "parallel" {
			return reject("flags", "bad_engine", fmt.Sprintf("unknown engine %q (serial|parallel)", *engine))
		}
		opts.Parallel = *engine == "parallel"
		if *healthPlan != "" {
			if opts.HealthPlan, err = faultsim.ParsePlan(*healthPlan); err != nil {
				var pe *faultsim.PlanError
				errors.As(err, &pe) // ParsePlan returns only *PlanError
				return reject("fault-plan", pe.Reason, err.Error())
			}
		}
		var oe *platform.OptionError
		if errors.As(opts.Validate(), &oe) {
			return reject("flags", oe.Reason, oe.Detail)
		}
		err = runDrill(opts, *out, *traceOut, *healthOut, *ampGate)
	default:
		err = paperEval(*fast)
	}
	if err != nil {
		fmt.Fprintln(stderr, "grtbench:", err)
		return 1
	}
	return 0
}

// paperEval prints the paper's evaluation tables and figures.
func paperEval(fast bool) error {
	var suite *experiments.Suite
	if fast {
		suite = experiments.NewSuite(mlfw.MNIST(), mlfw.AlexNet())
	} else {
		suite = experiments.NewSuite()
	}

	fmt.Println("=== GR-T evaluation reproduction (all delays are virtual time) ===")

	f7w, err := suite.Figure7(netsim.WiFi)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(experiments.RenderFigure7("Figure 7(a): recording delays, WiFi (RTT 20ms, BW 80Mbps)", f7w))

	f7c, err := suite.Figure7(netsim.Cellular)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(experiments.RenderFigure7("Figure 7(b): recording delays, cellular (RTT 50ms, BW 40Mbps)", f7c))

	t1, err := suite.Table1()
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(experiments.RenderTable1(t1))

	t2, err := suite.Table2()
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(experiments.RenderTable2(t2))

	f8, err := suite.Figure8()
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(experiments.RenderFigure8(f8))

	f9, err := suite.Figure9()
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(experiments.RenderFigure9(f9))

	def, err := suite.DeferralEfficacy(netsim.WiFi)
	if err != nil {
		return err
	}
	spec, err := suite.SpeculationEfficacy(netsim.WiFi)
	if err != nil {
		return err
	}
	misModels := []string{"MNIST"}
	if !fast {
		misModels = []string{"MNIST", "VGG16"}
	}
	mis, err := suite.MispredictionCost(misModels...)
	if err != nil {
		return err
	}
	poll, err := suite.PollingOffload()
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("=== §7.3 validation of key designs ===")
	fmt.Print(experiments.RenderValidation(def, spec, mis, poll))

	abl, err := suite.HistoryAblation()
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("Ablation: cross-workload speculation history (warm vs cold)")
	fmt.Printf("%-12s %10s %10s %10s\n", "NN", "warm", "cold", "penalty")
	for _, r := range abl {
		fmt.Printf("%-12s %9.1fs %9.1fs %+9.1f%%\n", r.Model,
			r.FullDelay.Seconds(), r.NoHistoryDelay.Seconds(), r.ColdHistoryCost)
	}

	ks, err := suite.KSweep("MNIST")
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(experiments.RenderKSweep("MNIST", ks))

	rtt, err := suite.RTTSweep("MNIST")
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(experiments.RenderRTTSweep("MNIST", rtt))

	seg, err := suite.SegmentationTradeoff()
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(experiments.RenderSegmentation(seg))
	return nil
}
