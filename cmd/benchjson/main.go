// Command benchjson converts `go test -bench -benchmem` text output into a
// stable JSON document, and optionally compares it against a committed
// baseline. It exists so CI can archive benchmark runs as machine-readable
// artifacts (BENCH_search.json) and print an informational drift report
// without pulling in external tooling.
//
// Usage:
//
//	go test -bench=BenchmarkSearch -benchmem ./internal/core | benchjson -o BENCH_search.json
//	benchjson -baseline BENCH_search.json -o /dev/null < bench.txt   # compare, never fails
//
// The comparison is informational by design: wall-clock numbers from shared
// CI runners are too noisy to gate a merge on, but a 2x drift is still
// worth a loud line in the log.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"h2onas/internal/tensor"
)

// Result is one parsed benchmark line. Metrics maps unit → value for
// every "value unit" pair after the iteration count (ns/op, B/op,
// allocs/op, and any testing.B ReportMetric extras).
// Pkg is the `pkg:` header in effect when the line was parsed; it is
// only emitted when the input concatenates several packages' outputs
// (e.g. core search benches + tensor kernel benches piped together), so
// single-package reports keep their historical shape.
type Result struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the top-level JSON document. GOMAXPROCS, NumCPU and
// KernelBackend describe the machine configuration the numbers were
// measured under — parallel-speedup figures are meaningless across
// different core counts, so compare refuses to diff reports whose
// recorded configurations disagree. GOMAXPROCS is inferred from the
// `-N` suffix go test appends to benchmark names (absent suffix means
// 1; mixed suffixes leave it 0 = unknown) and can be overridden, like
// the other two, with the -gomaxprocs/-numcpu/-backend flags. The
// backend defaults to tensor.KernelBackend() of the process running
// benchjson, which is the one that ran the benchmarks when both run on
// the same host.
type Report struct {
	GOOS          string   `json:"goos,omitempty"`
	GOARCH        string   `json:"goarch,omitempty"`
	Pkg           string   `json:"pkg,omitempty"`
	CPU           string   `json:"cpu,omitempty"`
	GOMAXPROCS    int      `json:"gomaxprocs,omitempty"`
	NumCPU        int      `json:"numcpu,omitempty"`
	KernelBackend string   `json:"kernel_backend,omitempty"`
	Benchmarks    []Result `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// run is main without the exit: it parses args, converts the benchmark
// text on in, and writes the report (and the optional baseline diff).
func run(args []string, in io.Reader) error {
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	out := fs.String("o", "-", "output path for the JSON report (- for stdout)")
	baseline := fs.String("baseline", "", "optional baseline JSON to diff against (informational, never fails)")
	gomaxprocs := fs.Int("gomaxprocs", 0, "record this GOMAXPROCS in the report instead of inferring it from benchmark-name suffixes")
	numcpu := fs.Int("numcpu", 0, "record the machine's runtime.NumCPU in the report")
	backend := fs.String("backend", tensor.KernelBackend(), "record this kernel backend (avx2 or scalar) in the report; defaults to the backend live on this host")
	fs.Parse(args)

	rep, err := parse(in)
	if err != nil {
		return err
	}
	if *gomaxprocs != 0 {
		rep.GOMAXPROCS = *gomaxprocs
	}
	rep.NumCPU = *numcpu
	rep.KernelBackend = *backend
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}

	if *baseline != "" {
		if err := compare(*baseline, rep); err != nil {
			// Informational: report and move on.
			fmt.Fprintf(os.Stderr, "benchjson: baseline compare skipped: %v\n", err)
		}
	}
	return nil
}

// parse reads `go test -bench` text and collects benchmark lines plus the
// goos/goarch/pkg/cpu header stamps. Input may concatenate several
// packages' outputs: each benchmark is tagged with the pkg header in
// effect where it appeared, and the report-level Pkg stamp is kept only
// when every benchmark came from the same package.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	var curPkg string
	multiPkg := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			curPkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			if rep.Pkg == "" {
				rep.Pkg = curPkg
			} else if rep.Pkg != curPkg {
				multiPkg = true
			}
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: fields[0], Pkg: curPkg, Iterations: iters, Metrics: map[string]float64{}}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			res.Metrics[fields[i+1]] = v
		}
		if ok {
			rep.Benchmarks = append(rep.Benchmarks, res)
		}
	}
	if multiPkg {
		rep.Pkg = ""
	} else {
		// Single-package input: the report-level stamp carries the pkg,
		// and per-result tags would only bloat the JSON.
		for i := range rep.Benchmarks {
			rep.Benchmarks[i].Pkg = ""
		}
	}
	rep.GOMAXPROCS = inferProcs(rep.Benchmarks)
	return rep, sc.Err()
}

// inferProcs recovers GOMAXPROCS from the -N suffix `go test` appends to
// benchmark names when it is not 1. No suffix means 1; benchmarks run
// under differing values leave the stamp 0 (unknown), which compare
// treats as "no claim".
func inferProcs(benchmarks []Result) int {
	procs := 0
	for _, b := range benchmarks {
		p := 1
		if i := strings.LastIndex(b.Name, "-"); i >= 0 {
			if n, err := strconv.Atoi(b.Name[i+1:]); err == nil && n > 0 {
				p = n
			}
		}
		if procs == 0 {
			procs = p
		} else if procs != p {
			return 0
		}
	}
	return procs
}

// compare prints a benchstat-style delta table of new vs baseline for the
// metrics both sides report. It never fails the run.
func compare(path string, cur *Report) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if why := configMismatch(&base, cur); why != "" {
		fmt.Fprintf(os.Stderr, "benchjson: REFUSING baseline compare vs %s: %s\n", path, why)
		fmt.Fprintf(os.Stderr, "benchjson: speedup numbers are meaningless across machine configurations; re-measure the baseline here or stamp matching -gomaxprocs/-numcpu/-backend\n")
		return nil
	}
	// Key by pkg+name so multi-package reports cannot collide two
	// same-named benchmarks. Single-package reports carry the pkg at the
	// report level only, so the result-level tag falls back to it — a
	// one-package run stays comparable against a concatenated baseline.
	// A bare-name fallback keeps old baselines (written before pkg tags
	// existed) comparable too.
	key := func(rep *Report, b Result) string {
		pkg := b.Pkg
		if pkg == "" {
			pkg = rep.Pkg
		}
		return pkg + "\x00" + b.Name
	}
	byName := make(map[string]Result, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[key(&base, b)] = b
	}
	fmt.Fprintf(os.Stderr, "benchjson: informational compare vs %s\n", path)
	for _, b := range cur.Benchmarks {
		old, ok := byName[key(cur, b)]
		if !ok {
			old, ok = byName["\x00"+b.Name]
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "  %-28s (new benchmark, no baseline)\n", b.Name)
			continue
		}
		for _, unit := range []string{"ns/op", "B/op", "allocs/op"} {
			nv, nok := b.Metrics[unit]
			ov, ook := old.Metrics[unit]
			if !nok || !ook || ov == 0 {
				continue
			}
			delta := (nv - ov) / ov * 100
			fmt.Fprintf(os.Stderr, "  %-28s %12.0f → %12.0f %-10s %+6.1f%%\n", b.Name, ov, nv, unit, delta)
		}
	}
	return nil
}

// configMismatch reports why two reports' machine configurations are not
// comparable, or "" when they are. A zero/empty stamp on either side
// makes no claim (old baselines predate the metadata), so only fields
// both sides recorded can disagree.
func configMismatch(base, cur *Report) string {
	if base.GOMAXPROCS != 0 && cur.GOMAXPROCS != 0 && base.GOMAXPROCS != cur.GOMAXPROCS {
		return fmt.Sprintf("GOMAXPROCS %d (baseline) vs %d (current)", base.GOMAXPROCS, cur.GOMAXPROCS)
	}
	if base.NumCPU != 0 && cur.NumCPU != 0 && base.NumCPU != cur.NumCPU {
		return fmt.Sprintf("NumCPU %d (baseline) vs %d (current)", base.NumCPU, cur.NumCPU)
	}
	if base.KernelBackend != "" && cur.KernelBackend != "" && base.KernelBackend != cur.KernelBackend {
		return fmt.Sprintf("kernel backend %q (baseline) vs %q (current)", base.KernelBackend, cur.KernelBackend)
	}
	return ""
}
