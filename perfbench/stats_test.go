package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"h2onas/internal/jobs"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < minTail {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
	if got := samplesFor(90); got != 100 {
		t.Errorf("samplesFor(90) = %d, want 100", got)
	}
	if got := samplesFor(50); got != 20 {
		t.Errorf("samplesFor(50) = %d, want 20", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for p, want := range map[float64]float64{0: 1, 50: 3, 90: 4.6, 100: 5, 25: 2} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2, 5}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), the functions the acceptance rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.5, 7.25, 2.0}, [3]float64{0.875, 2.55, 6.2125}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value succeeded")
	}
	if got := median([]float64{3.1, 0.5, 7.25, 2.0}); got != 2.55 {
		t.Errorf("median = %v, want 2.55", got)
	}
}

func TestSpreadIsInterquartileShareOfMedian(t *testing.T) {
	got, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got, _ := spread([]float64{7, 7, 7, 7}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
	if _, err := spread([]float64{0, 0, 0}); err == nil {
		t.Error("spread with median 0 succeeded")
	}
}

func TestNameValidity(t *testing.T) {
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validName(d.Name) {
			t.Errorf("metric name %q is not valid", d.Name)
		}
		if !validUnit(d.Unit) {
			t.Errorf("unit %q of %s is not valid", d.Unit, d.Name)
		}
	}
	for _, name := range workloadNames() {
		if !validName(name) {
			t.Errorf("workload name %q is not valid", name)
		}
	}
	for _, bad := range []string{"", "-lead", ".lead", "has space", "slash/ed", "ü", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, good := range []string{"a", "9lives", "nn.lowrank.fwd_ms", "x-y_z.w", strings.Repeat("a", 64)} {
		if !validName(good) {
			t.Errorf("validName(%q) = false", good)
		}
	}
	if validUnit("") || validUnit("seconds per step") || validUnit(strings.Repeat("s", 17)) {
		t.Error("validUnit accepted an invalid unit")
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the code:\n%+v\n%+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the code")
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames())
	}
	hasSetup := false
	for _, d := range bj.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range bj.EndToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", d.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

// The seed may change the values handed to the program and nothing else:
// not the workload's shape, not the job cycle, not any spec field but the
// seed.
func TestSeedChangesInputsOnly(t *testing.T) {
	for _, w := range workloadNames() {
		a, b := makeInputs(w, 1), makeInputs(w, 2)
		if !reflect.DeepEqual(a, makeInputs(w, 1)) {
			t.Errorf("%s: the same seed gave different inputs", w)
		}
		if a.StreamSeed == b.StreamSeed || a.SearchSeed == b.SearchSeed {
			t.Errorf("%s: seeds 1 and 2 share a stream or search seed", w)
		}
		if a.StreamSeed == a.SearchSeed {
			t.Errorf("%s: stream and search seeds coincide", w)
		}
		if len(a.Jobs) != len(b.Jobs) {
			t.Fatalf("%s: job cycle length depends on the seed", w)
		}
		for i := range a.Jobs {
			x, y := a.Jobs[i], b.Jobs[i]
			if x.Seed == 0 || x.Seed == y.Seed {
				t.Errorf("%s job %d: seeds %d and %d", w, i, x.Seed, y.Seed)
			}
			x.Seed, y.Seed = 0, 0
			if x != y || x != (jobs.Spec{Strategy: jobStrategies[i]}) {
				t.Errorf("%s job %d: spec %+v / %+v differs in more than its seed", w, i, x, y)
			}
		}
		if (w == "jobs-mix") != (len(a.Jobs) > 0) {
			t.Errorf("%s: %d job specs", w, len(a.Jobs))
		}
	}
	for s := uint64(0); s < 1000; s++ {
		for p := uint64(0); p < 8; p++ {
			if derive(s, p) == 0 {
				t.Fatalf("derive(%d, %d) = 0", s, p)
			}
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("step", 0, at(0), at(10))
	tr.add("a", 0, at(1), at(3))
	tr.add("a", 0, at(2), at(5)) // overlaps the first child
	tr.add("b", 0, at(8), at(9))
	tr.add("b", 1, at(8), at(9)) // another trace: not a child
	tr.add("step", 0, at(10), at(20))
	tr.link("step", "a", "b")
	self, count := tr.selfTimes()
	if got, want := self["step"], 15*time.Millisecond; got != want {
		t.Errorf("step self time = %v, want %v", got, want)
	}
	if count["step"] != 2 || count["a"] != 2 || count["b"] != 2 {
		t.Errorf("counts = %v", count)
	}
	if got := tr.spans[4].Parent; got != -1 {
		t.Errorf("span of another trace got parent %d", got)
	}
	// Child time sums durations, overlaps included: each child is a
	// separate call the residual accounts for.
	in := tr.childTime("step")
	if in["a"] != 5*time.Millisecond || in["b"] != time.Millisecond {
		t.Errorf("child time = %v, want a 5ms, b 1ms", in)
	}
}

func TestStampRefusesDifferentConfigurations(t *testing.T) {
	a := stamp{GOMAXPROCS: 2, NumCPU: 2, KernelBackend: "scalar", GoVersion: "go1.24.0", Commit: "x"}
	b := a
	b.Commit = "y"
	if why := a.mismatch(b); why != "" {
		t.Errorf("different commits refused: %s", why)
	}
	for _, mut := range []func(*stamp){
		func(s *stamp) { s.GOMAXPROCS = 4 },
		func(s *stamp) { s.NumCPU = 8 },
		func(s *stamp) { s.KernelBackend = "avx2" },
		func(s *stamp) { s.GoVersion = "go1.25.0" },
	} {
		c := a
		mut(&c)
		if a.mismatch(c) == "" {
			t.Errorf("stamps %+v and %+v compared", a, c)
		}
	}
	recs := []record{{Stamp: a, Workload: "w"}, {Stamp: stamp{GOMAXPROCS: 1, NumCPU: 2, KernelBackend: "scalar", GoVersion: "go1.24.0"}, Workload: "w"}}
	if _, err := groupRecords(recs); err == nil {
		t.Error("pooled results of different configurations")
	}
}
