// Command bench is gpurelay's benchmark. It runs five workloads through the
// public gpurelay API, each in a process of its own, and prints end-to-end
// metrics from an untraced pass and per-layer metrics from a traced one.
// README.md lists the workloads, the metrics and how to use them.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload in this process and print its result as JSON")
	seed := fs.Int64("seed", 1, "seed the workload inputs are drawn from")
	seconds := fs.Float64("seconds", defaultSeconds, "measured time per run")
	traced := fs.Int("trace", 0, "1 runs the traced pass: per-layer metrics and a Chrome trace")
	runs := fs.Int("runs", 1, "untraced runs of each workload, seeds seed..seed+runs-1")
	out := fs.String("out", "", "append the runs as one set to this results file")
	compare := fs.Bool("compare", false, "compare every run of base.json with every run of new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	var err error
	switch {
	case *compare:
		err = compareFiles(stdout, fs.Args())
	case *workload != "":
		return runOne(stdout, *workload, config{
			seed: *seed, seconds: *seconds, traced: *traced == 1,
			setupReps: setupReps,
		})
	default:
		err = runAll(stdout, *seed, *seconds, *runs, *traced == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process. It prints each metric on a line
// of its own and the result as JSON on the last line, and exits 1 when an op
// failed.
func runOne(stdout io.Writer, name string, cfg config) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	if cfg.traced {
		dir := os.Getenv("CARGO_TARGET_DIR") // the build directory bench/run.sh builds into
		if dir == "" {
			dir = ".bench_build"
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		cfg.traceOut = filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", name, cfg.seed))
	}
	oc, err := execute(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res := oc.result()
	if !cfg.traced {
		fmt.Fprintf(stdout, "%s: %d ops measured; op_tail_ms is their p%.4g; host times scaled by %.4g to reference speed\n",
			name, oc.measured, 100*tailQuantile(oc.measured), oc.scale)
	}
	for _, n := range sortedKeys(res.Metrics) {
		fmt.Fprintf(stdout, "%s %s = %.6g %s\n", name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// resultSet is one invocation's runs: untraced runs per workload, plus one
// traced run per workload when asked for.
type resultSet struct {
	Seconds float64             `json:"seconds"`
	Seeds   []int64             `json:"seeds"`
	Runs    map[string][]result `json:"runs"`
	Traced  map[string]result   `json:"traced,omitempty"`
}

// resultsFile is a trajectory: each invocation with -out appends a set.
type resultsFile struct {
	Schema string      `json:"schema"`
	Sets   []resultSet `json:"sets"`
}

const resultsSchema = "gpurelay-bench/1"

// runAll runs every workload, each run in a child process, and prints the
// median of each metric.
func runAll(stdout io.Writer, seed int64, seconds float64, runs int, traced bool, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Seconds: seconds, Runs: map[string][]result{}}
	for i := 0; i < runs; i++ {
		set.Seeds = append(set.Seeds, seed+int64(i))
	}
	child := func(w string, s int64, trace int) (result, error) {
		fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d\n", w, s, trace)
		cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &buf, os.Stderr
		runErr := cmd.Run()
		res, err := lastResult(buf.Bytes())
		if err != nil {
			return result{}, fmt.Errorf("%s seed %d: %v (%v)", w, s, err, runErr)
		}
		return res, nil
	}
	for _, s := range set.Seeds {
		for _, w := range workloads {
			res, err := child(w.name, s, 0)
			if err != nil {
				return err
			}
			set.Runs[w.name] = append(set.Runs[w.name], res)
		}
	}
	if traced {
		set.Traced = map[string]result{}
		for _, w := range workloads {
			res, err := child(w.name, seed, 1)
			if err != nil {
				return err
			}
			set.Traced[w.name] = res
		}
	}
	printSet(stdout, set)
	if out == "" {
		return nil
	}
	file := resultsFile{Schema: resultsSchema}
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s: %w", out, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	file.Sets = append(file.Sets, set)
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// lastResult parses the JSON result on a run's last output line.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Attempted < 1 {
		return result{}, fmt.Errorf("no result line in the output")
	}
	return res, nil
}

func printSet(w io.Writer, set resultSet) {
	for _, wl := range workloads {
		rs := set.Runs[wl.name]
		if len(rs) > 0 {
			fmt.Fprintf(w, "%s (%d runs; median, failed ops %s)\n", wl.name, len(rs), failedList(rs))
			for _, n := range sortedKeys(rs[0].Metrics) {
				fmt.Fprintf(w, "  %-18s %12.6g %s\n", n, median(values(rs, n)), rs[0].Metrics[n].Unit)
			}
		}
		if tr, ok := set.Traced[wl.name]; ok {
			fmt.Fprintf(w, "%s traced (failed ops %d)\n", wl.name, tr.Failed)
			for _, n := range sortedKeys(tr.Metrics) {
				fmt.Fprintf(w, "  %-30s %12.6g %s\n", n, tr.Metrics[n].Value, tr.Metrics[n].Unit)
			}
		}
	}
}

func failedList(rs []result) string {
	var parts []string
	for _, r := range rs {
		parts = append(parts, strconv.Itoa(r.Failed))
	}
	return strings.Join(parts, ",")
}

func values(rs []result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
