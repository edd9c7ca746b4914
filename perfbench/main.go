// Command perfbench is the repository benchmark: it runs one workload
// against the program's public entry points for a fixed time, checks the
// outputs, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output.
//
//	perfbench --workload dlrm-search --seed 1 --seconds 16 --trace 0
//	perfbench spread RESULT.json...      quartile spread per metric
//	perfbench compare BASE.json CUR.json A/B medians; refuses mismatched stamps
//
// Every run also writes its full result, stamped with the machine
// configuration, under .bench_build/perfbench/results/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// resultDir is where runs leave their stamped results and span traces,
// relative to the checkout root the benchmark runs from.
const resultDir = ".bench_build/perfbench/results"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run produces.
type report struct {
	verdict
	// Checks lists every correctness check that failed.
	Checks []string `json:"failed_checks,omitempty"`
	// FinalQuality is the searches' Result.FinalQuality (the median over
	// jobs in jobs-mix). It is recorded, not gated: it is reproducible
	// bit for bit per seed but varies several-fold between seeds.
	FinalQuality float64 `json:"final_quality"`
	// StepSamples is how many step times the step percentiles rest on;
	// TailPercentile is the highest percentile with at least ten of them
	// beyond it.
	StepSamples    int     `json:"step_samples"`
	TailPercentile float64 `json:"tail_percentile"`
	// Parts summarises each whole search (or job) the run measured, for
	// reading the run-to-run spread.
	Parts []part `json:"parts,omitempty"`
}

// part is one measured search or job.
type part struct {
	SetupS   float64 `json:"setup_s,omitempty"`
	WallS    float64 `json:"wall_s"`
	StepP50  float64 `json:"step_ms_p50"`
	StepP90  float64 `json:"step_ms_p90"`
	NumSteps int     `json:"steps"`
	CPUMs    float64 `json:"cpu_ms_per_step,omitempty"`
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	r.Failed++
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

var workloads = map[string]func(options) (*report, error){
	"dlrm-search": runDLRMSearch,
	"vit-search":  runViTSearch,
	"dlrm-remote": runDLRMRemote,
	"jobs-mix":    runJobsMix,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "spread":
			exit(spreadCmd(os.Args[2:]))
		case "compare":
			exit(compareCmd(os.Args[2:]))
		}
	}
	exit(runCmd(os.Args[1:]))
}

func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 16, "how long to measure")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	opts := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if err := os.MkdirAll(resultDir, 0o755); err != nil {
		return err
	}
	rep, err := run(opts)
	if err != nil {
		return err
	}
	want := endToEnd
	if opts.trace {
		want = perLayer
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			return fmt.Errorf("%s did not report %s in %s", opts.workload, m.Name, m.Unit)
		}
	}
	for name, m := range rep.Metrics {
		if !known(want, name) || !validName(name) || !validUnit(m.Unit) {
			return fmt.Errorf("%s reported unexpected metric %q in %q", opts.workload, name, m.Unit)
		}
	}
	rep.Correct = rep.Failed == 0 && len(rep.Checks) == 0
	st := currentStamp()
	rec := record{Stamp: st, Workload: opts.workload, Seed: opts.seed, Trace: opts.trace, Report: *rep}
	path := filepath.Join(resultDir, fmt.Sprintf("%s-seed%d-trace%d.json", opts.workload, opts.seed, *trace))
	if err := writeJSON(path, rec); err != nil {
		return err
	}
	for _, c := range rep.Checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	verdictWord := "PASS"
	if !rep.Correct {
		verdictWord = "FAIL"
	}
	fmt.Printf("stamp %s\n", st)
	for _, m := range want {
		fmt.Printf("%-28s %14.6g %s\n", m.Name, rep.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Printf("%-28s %14.6g (recorded, not gated)\n", "final_quality", rep.FinalQuality)
	fmt.Printf("step samples %d; highest percentile with %d beyond it: p%g\n", rep.StepSamples, minTail, rep.TailPercentile)
	fmt.Printf("%s correctness %s (%d of %d checks failed)\n", opts.workload, verdictWord, rep.Failed, rep.Attempted)
	line, err := json.Marshal(rep.verdict)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		// The verdict is printed first so the failure is on record; the
		// exit status then fails the run as well.
		return fmt.Errorf("%s failed %d of %d correctness checks", opts.workload, rep.Failed, rep.Attempted)
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
