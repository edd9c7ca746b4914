package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"syscall"
	"time"

	"h2onas/internal/controller"
	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/metrics"
	"h2onas/internal/nn"
	"h2onas/internal/reward"
	"h2onas/internal/shardrpc"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
	"h2onas/internal/vitnet"
)

// searchShape fixes the size of one search of a workload.
type searchShape struct {
	Shards, Batch, Warmup, Steps int
}

// Workload shapes. dlrm-search uses the paper-default 8 shards × 64; the
// budgets are chosen so that a run of a few seconds holds several whole
// searches (several set-ups to take the median of) and, across them, more
// than samplesFor(90) measured steps.
var (
	dlrmShape   = searchShape{Shards: 8, Batch: 64, Warmup: 10, Steps: 120}
	vitShape    = searchShape{Shards: 4, Batch: 16, Warmup: 4, Steps: 40}
	remoteShape = searchShape{Shards: 2, Batch: 64, Warmup: 10, Steps: 200}
)

// searchResult is the deterministic part of a search's outcome: two
// searches of the same inputs must agree on every bit of it.
type searchResult struct {
	Best           space.Assignment
	FinalQuality   float64
	History        []core.StepInfo
	ShardFirstDrop []int
}

// target is one search workload: a space and a function that runs one
// whole search on a fresh traffic stream.
type target struct {
	name  string
	shape searchShape
	sp    *space.Space
	// search runs one search; perf wraps the workload's PerfFunc.
	search func(cfg core.Config, perf func(core.PerfFunc) core.PerfFunc) (searchResult, error)
	// remote lists the loopback shardrpc worker addresses a search dials
	// (dlrm-remote only); wire counts their traffic in traced runs.
	remote []string
	wire   *wireCounter
}

func baseConfig(sh searchShape, seed uint64) core.Config {
	return core.Config{
		Shards: sh.Shards, Steps: sh.Steps, BatchSize: sh.Batch, WarmupSteps: sh.Warmup,
		WeightLR:   0.003,
		Controller: controller.Config{LearningRate: 0.2, BaselineMomentum: 0.9, EntropyWeight: 1e-4},
		Seed:       seed,
	}
}

func dlrmSpace() *space.DLRMSpace { return space.NewDLRMSpace(space.SmallDLRMConfig()) }

func vitSpace() *space.ViTSpace { return space.NewTransformerSpace(space.SmallViTConfig()) }

// ctrBatches and seqBatches return a synthesis step of a fresh stream.
func ctrBatches(seed uint64, batch int) func() {
	cfg := space.SmallDLRMConfig()
	s := datapipe.NewStream(datapipe.CTRConfig{NumTables: cfg.NumTables, Vocab: cfg.BaseVocab, NumDense: cfg.NumDense}, seed)
	return func() { s.NextBatch(batch) }
}

func seqBatches(seed uint64, batch int) func() {
	s := datapipe.NewSeqStream(datapipe.DefaultSeqConfig(), seed)
	return func() { s.NextBatch(batch) }
}

// dlrmTarget is the DLRM search the way h2onas.SearchDLRM builds it:
// dlrm-small on tpuv4, ReLU reward on train step time and serving memory.
func dlrmTarget(name string, sh searchShape, in inputs) *target {
	ds := dlrmSpace()
	model := ds.Config
	chip, _ := hwsim.ChipByName("tpuv4")
	obj := &core.DLRMObjectives{DS: ds, Chip: chip}
	base := obj.BaselinePerf()
	rw := reward.MustNew(reward.ReLU,
		reward.Objective{Name: "train_step_time", Target: base[0], Beta: -2},
		reward.Objective{Name: "serving_memory", Target: base[1], Beta: -1},
	)
	traffic := datapipe.CTRConfig{NumTables: model.NumTables, Vocab: model.BaseVocab, NumDense: model.NumDense}
	return &target{
		name: name, shape: sh, sp: ds.Space,
		search: func(cfg core.Config, perf func(core.PerfFunc) core.PerfFunc) (searchResult, error) {
			s := &core.Searcher{DS: ds, Reward: rw, Perf: perf(obj.Perf), Stream: datapipe.NewStream(traffic, in.StreamSeed)}
			res, err := s.Search(cfg)
			if err != nil {
				return searchResult{}, err
			}
			return searchResult{res.Best, res.FinalQuality, res.History, res.ShardFirstDrop}, nil
		},
	}
}

// vitTarget is the transformer search the way cmd/h2onas -domain nlp
// builds it: tfm-small with the default SeqStream, ReLU reward on the
// simulated 8-chip tpuv4 train step time.
func vitTarget(sh searchShape, in inputs) *target {
	vs := vitSpace()
	chip, _ := hwsim.ChipByName("tpuv4")
	perfFn := func(a space.Assignment) []float64 {
		r := hwsim.Simulate(vs.Graph(vs.Decode(a)), chip, hwsim.Options{Mode: hwsim.Training, Chips: 8})
		return []float64{r.StepTime}
	}
	base := perfFn(vs.BaselineAssignment())
	rw := reward.MustNew(reward.ReLU, reward.Objective{Name: "train_step_time", Target: base[0], Beta: -2})
	return &target{
		name: "vit-search", shape: sh, sp: vs.Space,
		search: func(cfg core.Config, perf func(core.PerfFunc) core.PerfFunc) (searchResult, error) {
			s := &vitnet.Searcher{VS: vs, Reward: rw, Perf: perf(perfFn), Stream: datapipe.NewSeqStream(datapipe.DefaultSeqConfig(), in.StreamSeed)}
			res, err := s.Search(cfg)
			if err != nil {
				return searchResult{}, err
			}
			return searchResult{Best: res.Best, FinalQuality: res.FinalQuality, History: res.History}, nil
		},
	}
}

// startWorkers serves n loopback shardrpc workers from this process;
// with a wire counter, each behind a byte-counting listener. stop drains them and waits until every
// session has ended.
func startWorkers(n int, wire *wireCounter) (addrs []string, stop func(), err error) {
	var ws []*shardrpc.Worker
	done := make(chan error, n)
	stop = func() {
		for _, w := range ws {
			w.Drain()
		}
		for range ws {
			<-done
		}
	}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("listening for shard worker %d: %w", i, err)
		}
		w := shardrpc.NewWorker()
		ws = append(ws, w)
		addrs = append(addrs, lis.Addr().String())
		var l net.Listener = lis
		if wire != nil {
			l = &countingListener{Listener: lis, c: wire}
		}
		go func() { done <- w.Serve(l) }()
	}
	return addrs, stop, nil
}

// searchRun is what one search measured.
type searchRun struct {
	setup, wall time.Duration
	// steps are the wall times of warm steps 1..N-1 in ms. Warm step 0
	// follows the last warmup step and has no observable start, so the
	// measured window runs from its end to the last warm step's end.
	steps    []float64
	warmWall time.Duration
	begin    procStats
	end      procStats
	// phases holds registry sums over the measured window (traced runs).
	phases  map[string]histDelta
	res     searchResult
	samples []space.Assignment // policy-sampled candidates, traced runs
	// wireBegin/wireEnd bracket the window's shardrpc traffic.
	wireBegin, wireEnd wireSnap
	updates            int     // candidates fed to Strategy.Update
	misses             int     // Perf calls that reached the wrapped PerfFunc
	peakRSS            float64 // process peak RSS after the search, MiB
}

// procStats is a process-level snapshot: heap allocation and GC counters
// and CPU time.
type procStats struct {
	mallocs   uint64
	gcPauseNs uint64
	numGC     uint32
	cpu       time.Duration
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procStats{mallocs: ms.Mallocs, gcPauseNs: ms.PauseTotalNs, numGC: ms.NumGC, cpu: cpu}
}

// histDelta is the change of a histogram's sum and count over a window.
type histDelta struct {
	sum   float64
	count int64
}

// phaseHists are the program's own instruments read in traced runs.
var phaseHists = []string{
	"search_phase_sample_seconds",
	"search_phase_fanout_seconds",
	"search_phase_policy_update_seconds",
	"search_phase_weight_update_seconds",
	"search_shard_step_seconds",
	"datapipe_next_wait_seconds",
}

var phaseCounters = []string{
	"shardrpc_full_syncs_total",
	"shardrpc_delta_syncs_total",
}

func snapshotRegistry(r *metrics.Registry) map[string]histDelta {
	out := map[string]histDelta{}
	if r == nil {
		return out
	}
	for _, n := range phaseHists {
		h := r.Histogram(n)
		out[n] = histDelta{sum: h.Sum(), count: h.Count()}
	}
	for _, n := range phaseCounters {
		out[n] = histDelta{sum: float64(r.Counter(n).Value())}
	}
	return out
}

func diffRegistry(a, b map[string]histDelta) map[string]histDelta {
	out := map[string]histDelta{}
	for k, v := range b {
		out[k] = histDelta{sum: v.sum - a[k].sum, count: v.count - a[k].count}
	}
	return out
}

// timedStrategy wraps the search's strategy. It always notes when the
// first candidate is sampled — the end of set-up — and in traced runs
// records a span around every Sample and Update.
type timedStrategy struct {
	core.Strategy
	first   time.Time
	tr      *tracer
	trace   int
	samples []space.Assignment
	updates int
}

func (p *timedStrategy) Sample(rng *tensor.RNG, warmup bool) space.Assignment {
	if p.first.IsZero() {
		p.first = time.Now()
	}
	if p.tr == nil {
		return p.Strategy.Sample(rng, warmup)
	}
	t0 := time.Now()
	a := p.Strategy.Sample(rng, warmup)
	p.tr.add("strategy.sample", p.trace, t0, time.Now())
	if !warmup {
		p.samples = append(p.samples, append(space.Assignment(nil), a...))
	}
	return a
}

func (p *timedStrategy) Update(samples []space.Assignment, rewards []float64) {
	p.updates += len(samples)
	if p.tr == nil {
		p.Strategy.Update(samples, rewards)
		return
	}
	t0 := time.Now()
	p.Strategy.Update(samples, rewards)
	p.tr.add("strategy.update", p.trace, t0, time.Now())
}

// SetMetrics forwards the run's registry the way core.StrategyFor would
// to the unwrapped strategy.
func (p *timedStrategy) SetMetrics(m *metrics.Registry) {
	if sm, ok := p.Strategy.(interface{ SetMetrics(*metrics.Registry) }); ok {
		sm.SetMetrics(m)
	}
}

// timedTransport records a span around every call into the shardrpc
// coordinator.
type timedTransport struct {
	*shardrpc.Transport
	tr    *tracer
	trace int
}

func (t *timedTransport) RunStep(step int, a []space.Assignment, b []*datapipe.Batch, out []core.ShardOutcome) {
	t0 := time.Now()
	t.Transport.RunStep(step, a, b, out)
	t.tr.add("shardrpc.runstep", t.trace, t0, time.Now())
}

func (t *timedTransport) PushWeights(touched []nn.ParamTouch) error {
	t0 := time.Now()
	err := t.Transport.PushWeights(touched)
	t.tr.add("shardrpc.push_weights", t.trace, t0, time.Now())
	return err
}

// runSearch runs one whole search of tg at shape sh and measures it. With
// a tracer, the search also reports to a metrics registry and every call
// through the strategy, perf and transport seams is recorded as a span.
func runSearch(tg *target, sh searchShape, seed uint64, tr *tracer, trace int) (*searchRun, error) {
	cfg := baseConfig(sh, seed)
	strat := &timedStrategy{Strategy: core.NewReinforce(tg.sp, cfg.Controller), tr: tr, trace: trace}
	cfg.Strategy = strat
	var reg *metrics.Registry
	if tr != nil {
		reg = metrics.New()
		cfg.Metrics = reg
	}
	run := &searchRun{}
	times := make([]time.Time, 0, sh.Steps)
	var regBegin map[string]histDelta
	cfg.Progress = func(core.StepInfo) {
		switch len(times) {
		case 0:
			run.begin = readProc()
			regBegin = snapshotRegistry(reg)
			run.wireBegin = tg.wire.snap()
			times = append(times, time.Now())
		case sh.Steps - 1:
			times = append(times, time.Now())
			run.end = readProc()
			run.wireEnd = tg.wire.snap()
			run.phases = diffRegistry(regBegin, snapshotRegistry(reg))
		default:
			times = append(times, time.Now())
		}
	}
	misses := 0
	perf := func(f core.PerfFunc) core.PerfFunc {
		return func(a space.Assignment) []float64 {
			misses++
			if tr == nil {
				return f(a)
			}
			t0 := time.Now()
			v := f(a)
			tr.add("perf.eval", trace, t0, time.Now())
			return v
		}
	}

	start := time.Now()
	if tg.remote != nil {
		t, err := shardrpc.Dial(tg.remote, shardrpc.Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		defer t.Close()
		if tr != nil {
			cfg.Transport = &timedTransport{Transport: t, tr: tr, trace: trace}
		} else {
			cfg.Transport = t
		}
	}
	res, err := tg.search(cfg, perf)
	run.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	if len(times) != sh.Steps {
		return nil, fmt.Errorf("%s: %d progress callbacks for %d steps", tg.name, len(times), sh.Steps)
	}
	run.setup = strat.first.Sub(start)
	for k := 1; k < len(times); k++ {
		run.steps = append(run.steps, float64(times[k].Sub(times[k-1]).Nanoseconds())/1e6)
		tr.add("step", trace, times[k-1], times[k])
	}
	run.warmWall = times[len(times)-1].Sub(times[0])
	run.res = res
	run.samples = strat.samples
	run.updates = strat.updates
	run.misses = misses
	return run, nil
}

// checkResult validates one search result on its own: the best
// architecture is valid in the space, the history has one entry per
// requested step, and the final quality is finite.
func checkResult(tg *target, r searchResult) error {
	if err := tg.sp.Validate(r.Best); err != nil {
		return fmt.Errorf("best architecture: %w", err)
	}
	if len(r.History) != tg.shape.Steps {
		return fmt.Errorf("history has %d steps, want %d", len(r.History), tg.shape.Steps)
	}
	if math.IsNaN(r.FinalQuality) || math.IsInf(r.FinalQuality, 0) {
		return fmt.Errorf("final quality %v is not finite", r.FinalQuality)
	}
	for i, d := range r.ShardFirstDrop {
		if d >= 0 {
			return fmt.Errorf("shard %d dropped at step %d", i, d)
		}
	}
	return nil
}

// sameResult reports the first difference between two results, bit for
// bit, or "" when they agree.
func sameResult(a, b searchResult) string {
	if len(a.Best) != len(b.Best) {
		return "best architectures differ in length"
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			return fmt.Sprintf("best architectures differ at decision %d", i)
		}
	}
	if math.Float64bits(a.FinalQuality) != math.Float64bits(b.FinalQuality) {
		return fmt.Sprintf("final quality %v vs %v", a.FinalQuality, b.FinalQuality)
	}
	if len(a.History) != len(b.History) {
		return "histories differ in length"
	}
	for i := range a.History {
		x, y := a.History[i], b.History[i]
		if x.Step != y.Step ||
			math.Float64bits(x.MeanReward) != math.Float64bits(y.MeanReward) ||
			math.Float64bits(x.MeanQ) != math.Float64bits(y.MeanQ) ||
			math.Float64bits(x.Entropy) != math.Float64bits(y.Entropy) ||
			math.Float64bits(x.Confidence) != math.Float64bits(y.Confidence) {
			return fmt.Sprintf("histories differ at step %d", i)
		}
	}
	return ""
}
