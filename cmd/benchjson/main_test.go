package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"h2onas/internal/tensor"
)

const sample = `goos: linux
goarch: amd64
pkg: h2onas/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSearchStep 	      60	  33567787 ns/op	 2308235 B/op	    5688 allocs/op
BenchmarkSearchStepWarmup 	      60	  30000000 ns/op	 2000000 B/op	    5000 allocs/op
PASS
ok  	h2onas/internal/core	2.128s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.Pkg != "h2onas/internal/core" {
		t.Fatalf("header stamps = %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkSearchStep" || b.Iterations != 60 {
		t.Fatalf("first benchmark = %+v", b)
	}
	if b.Metrics["ns/op"] != 33567787 || b.Metrics["B/op"] != 2308235 || b.Metrics["allocs/op"] != 5688 {
		t.Fatalf("metrics = %v", b.Metrics)
	}
}

const multiPkgSample = `goos: linux
goarch: amd64
pkg: h2onas/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSearchStep 	      60	  33567787 ns/op	 2308235 B/op	    5688 allocs/op
PASS
ok  	h2onas/internal/core	2.128s
goos: linux
goarch: amd64
pkg: h2onas/internal/tensor
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAxpy/n160 	 3292785	        70.96 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	h2onas/internal/tensor	1.002s
`

// TestParseMultiPackage: concatenated outputs from two packages tag each
// benchmark with its own pkg and drop the ambiguous report-level stamp.
func TestParseMultiPackage(t *testing.T) {
	rep, err := parse(strings.NewReader(multiPkgSample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pkg != "" {
		t.Fatalf("report-level pkg = %q, want empty for multi-package input", rep.Pkg)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	if got := rep.Benchmarks[0].Pkg; got != "h2onas/internal/core" {
		t.Fatalf("first benchmark pkg = %q", got)
	}
	if got := rep.Benchmarks[1].Pkg; got != "h2onas/internal/tensor" {
		t.Fatalf("second benchmark pkg = %q", got)
	}
}

// TestParseSinglePackageOmitsResultPkg pins the historical JSON shape:
// one-package reports carry the pkg at the report level only.
func TestParseSinglePackageOmitsResultPkg(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range rep.Benchmarks {
		if b.Pkg != "" {
			t.Fatalf("benchmark %s carries pkg %q in a single-package report", b.Name, b.Pkg)
		}
	}
}

func TestParseIgnoresMalformedLines(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkBroken abc def\nBenchmarkOK 10 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkOK" {
		t.Fatalf("benchmarks = %+v", rep.Benchmarks)
	}
}

// TestInferProcs pins GOMAXPROCS recovery from benchmark-name suffixes:
// bare names mean 1, a uniform -N suffix means N, and mixed suffixes
// make no claim (0).
func TestInferProcs(t *testing.T) {
	cases := []struct {
		names []string
		want  int
	}{
		{[]string{"BenchmarkSearchStep", "BenchmarkAxpy/n160"}, 1},
		{[]string{"BenchmarkSearchStep-4", "BenchmarkAxpy/n160-4"}, 4},
		{[]string{"BenchmarkSearchStep-4", "BenchmarkSearchStep"}, 0},
		{nil, 0},
	}
	for _, c := range cases {
		var bs []Result
		for _, n := range c.names {
			bs = append(bs, Result{Name: n})
		}
		if got := inferProcs(bs); got != c.want {
			t.Errorf("inferProcs(%v) = %d, want %d", c.names, got, c.want)
		}
	}
}

func TestParseInfersGOMAXPROCS(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkSearchStep-4 10 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOMAXPROCS != 4 {
		t.Fatalf("GOMAXPROCS = %d, want 4", rep.GOMAXPROCS)
	}
}

// TestConfigMismatch: compare must refuse cross-configuration diffs but
// accept when either side makes no claim (old baselines).
func TestConfigMismatch(t *testing.T) {
	cases := []struct {
		name       string
		base, cur  Report
		wantRefuse bool
	}{
		{"identical", Report{GOMAXPROCS: 4, NumCPU: 8, KernelBackend: "blocked"}, Report{GOMAXPROCS: 4, NumCPU: 8, KernelBackend: "blocked"}, false},
		{"procs differ", Report{GOMAXPROCS: 1}, Report{GOMAXPROCS: 4}, true},
		{"numcpu differ", Report{NumCPU: 1}, Report{NumCPU: 8}, true},
		{"backend differ", Report{KernelBackend: "naive"}, Report{KernelBackend: "blocked"}, true},
		{"baseline makes no claim", Report{}, Report{GOMAXPROCS: 4, NumCPU: 8, KernelBackend: "blocked"}, false},
		{"current makes no claim", Report{GOMAXPROCS: 4}, Report{}, false},
	}
	for _, c := range cases {
		if got := configMismatch(&c.base, &c.cur); (got != "") != c.wantRefuse {
			t.Errorf("%s: configMismatch = %q, want refusal=%v", c.name, got, c.wantRefuse)
		}
	}
}

// TestBackendDefaultsToLiveKernels: without -backend the report records
// the inner-kernel backend live on this host, so a report can never
// claim the scalar kernels while the AVX2 ones ran; -backend overrides.
func TestBackendDefaultsToLiveKernels(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, tensor.KernelBackend()},
		{[]string{"-backend", "other"}, "other"},
	} {
		path := filepath.Join(t.TempDir(), "report.json")
		if err := run(append([]string{"-o", path}, c.args...), strings.NewReader(sample)); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.KernelBackend != c.want {
			t.Errorf("args %q: kernel_backend = %q, want %q", c.args, rep.KernelBackend, c.want)
		}
	}
}
