package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"h2onas/internal/sched"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// minSearches is the fewest whole searches a run measures: the first is
// the reference the others must reproduce bit for bit, and set-up is
// reported as the median over all of them.
const minSearches = 3

// setupProbes is how many extra one-step searches a run makes after its
// measured searches, only to time their set-up: a run holds few whole
// searches, and the median of so few set-ups would move with every
// hiccup of the host.
const setupProbes = 9

// measureSetups times the set-up of setupProbes one-step searches of tg.
// Set-up does not depend on the step budget, so these are the same set-ups
// the measured searches pay.
func measureSetups(tg *target, seed uint64) ([]float64, error) {
	sh := tg.shape
	sh.Warmup, sh.Steps = 0, 1
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		runtime.GC()
		run, err := runSearch(tg, sh, seed, nil, 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, run.setup.Seconds())
	}
	return setups, nil
}

func runDLRMSearch(o options) (*report, error) {
	in := makeInputs(o.workload, o.seed)
	return runSearchWorkload(o, in, dlrmTarget("dlrm-search", dlrmShape, in), nil)
}

func runViTSearch(o options) (*report, error) {
	in := makeInputs(o.workload, o.seed)
	return runSearchWorkload(o, in, vitTarget(vitShape, in), nil)
}

// runDLRMRemote serves each shard from a loopback shardrpc worker in this
// process, then checks the remote trajectory against an in-process search
// of the same config.
func runDLRMRemote(o options) (*report, error) {
	in := makeInputs(o.workload, o.seed)
	tg := dlrmTarget("dlrm-remote", remoteShape, in)
	var wire *wireCounter
	if o.trace {
		wire = &wireCounter{}
	}
	addrs, stop, err := startWorkers(remoteShape.Shards, wire)
	if err != nil {
		return nil, err
	}
	defer stop()
	tg.remote = addrs
	tg.wire = wire
	local := dlrmTarget("dlrm-remote", remoteShape, in)
	return runSearchWorkload(o, in, tg, local)
}

// measureSearches runs whole searches back to back for about o.seconds:
// it starts another search while one more fits in the time left, and in
// any case until minSearches searches and samplesFor(90) measured steps
// are in.
func measureSearches(o options, tg *target, seed uint64, tr *tracer, rep *report) ([]*searchRun, error) {
	start := time.Now()
	var runs []*searchRun
	steps := 0
	var walls time.Duration
	for {
		n := len(runs)
		if n >= minSearches && steps >= samplesFor(90) &&
			time.Since(start)+walls/time.Duration(n) > o.seconds {
			break
		}
		// Start every search from a collected heap so one search's
		// garbage is not charged to the next.
		runtime.GC()
		run, err := runSearch(tg, tg.shape, seed, tr, n)
		if err != nil {
			return nil, err
		}
		// Every correctness check is one attempted operation, so a
		// single failed check moves success_ratio by a whole check's
		// share.
		rep.Attempted++
		if err := checkResult(tg, run.res); err != nil {
			rep.fail("%s search %d: %v", tg.name, n, err)
		}
		if n > 0 {
			rep.Attempted++
			if diff := sameResult(runs[0].res, run.res); diff != "" {
				rep.fail("%s search %d does not reproduce search 0 of the same seed: %s", tg.name, n, diff)
			}
		}
		if n == 0 {
			// The first search runs in a fresh process; later searches
			// reuse its heap, and how much of it the runtime has handed
			// back to the OS by then varies from run to run.
			run.peakRSS = peakRSSMB()
		}
		runs = append(runs, run)
		steps += len(run.steps)
		walls += run.wall
	}
	return runs, nil
}

// runSearchWorkload measures a search workload. local, when non-nil, is
// an in-process twin of tg whose result tg must reproduce exactly.
func runSearchWorkload(o options, in inputs, tg *target, local *target) (*report, error) {
	rep := &report{}
	runs, err := measureSearches(o, tg, in.SearchSeed, nil, rep)
	if err != nil {
		return nil, err
	}
	setups, err := measureSetups(tg, in.SearchSeed)
	if err != nil {
		return nil, err
	}
	if local != nil {
		rep.Attempted++
		ref, err := runSearch(local, local.shape, in.SearchSeed, nil, 0)
		if err != nil {
			return nil, err
		}
		if diff := sameResult(ref.res, runs[0].res); diff != "" {
			rep.fail("%s differs from the in-process search of the same config: %s", tg.name, diff)
		}
	}
	rep.FinalQuality = runs[0].res.FinalQuality
	if err := setStepSamples(rep, allSteps(runs)); err != nil {
		return nil, err
	}
	if !o.trace {
		setEndToEnd(rep, tg, runs, setups)
		return rep, nil
	}

	tr := newTracer()
	traced, err := measureSearches(o, tg, in.SearchSeed, tr, rep)
	if err != nil {
		return nil, err
	}
	rep.Attempted++
	if diff := sameResult(runs[0].res, traced[0].res); diff != "" {
		rep.fail("%s: tracing changed the result: %s", tg.name, diff)
	}
	zeroLayers(rep)
	lt := layerTimes{}
	searchLayers(lt, tg, tr, traced)
	var samples []space.Assignment
	for _, r := range traced {
		samples = append(samples, r.samples...)
	}
	workers := sched.New(0, tg.shape.Shards).PerShard()
	arena := tensor.NewArena()
	defer arena.Drain()
	switch tg.name {
	case "vit-search":
		vs := vitSpace()
		replayViTModel(vs, tg.shape, in.StreamSeed, samples, lt)
		replayLayers(vitLayerCases(vs, tg.shape.Batch, workers, arena, in.StreamSeed), arena, lt)
		replayBatches(seqBatches(in.StreamSeed, tg.shape.Batch), lt)
		// The transformer loop synthesises its batches inline, so the
		// step waits for every one of them.
		lt["datapipe.wait_ms"] = lt["datapipe.batch_ms"] * float64(tg.shape.Shards)
	default:
		ds := dlrmSpace()
		replayDLRMModel(ds, tg.shape, in.StreamSeed, samples, lt)
		replayLayers(dlrmLayerCases(ds, tg.shape.Batch, workers, arena, in.StreamSeed), arena, lt)
		replayBatches(ctrBatches(in.StreamSeed, tg.shape.Batch), lt)
	}
	lt["trace.residual_share"] = stepResidual(lt, tg, tr)
	untracedP50 := percentile(allSteps(runs), 50)
	tracedP50 := percentile(allSteps(traced), 50)
	lt["trace.overhead_share"] = tracedP50/untracedP50 - 1
	for name, v := range lt {
		rep.set(name, v, unitOf(name))
	}
	if err := tr.write(filepath.Join(resultDir, fmt.Sprintf("%s-seed%d-spans.json", o.workload, o.seed))); err != nil {
		return nil, err
	}
	return rep, nil
}

func allSteps(runs []*searchRun) []float64 {
	var s []float64
	for _, r := range runs {
		s = append(s, r.steps...)
	}
	return s
}

// setEndToEnd computes the end-to-end metrics of a search workload from
// its untraced searches and set-up probes.
func setEndToEnd(rep *report, tg *target, runs []*searchRun, setups []float64) {
	steps := allSteps(runs)
	var warm time.Duration
	var walls []float64
	var mallocs uint64
	for _, r := range runs {
		warm += r.warmWall
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		mallocs += r.end.mallocs - r.begin.mallocs
		rep.Parts = append(rep.Parts, part{r.setup.Seconds(), r.wall.Seconds(), percentile(r.steps, 50), percentile(r.steps, 90), len(r.steps), msPer(r.end.cpu-r.begin.cpu, len(r.steps))})
	}
	sh := tg.shape
	rep.set("examples_per_s", float64(sh.Shards*sh.Batch*len(steps))/warm.Seconds(), "examples/s")
	rep.set("step_ms_p50", percentile(steps, 50), "ms")
	rep.set("step_ms_p90", percentile(steps, 90), "ms")
	rep.set("setup_s", median(setups), "s")
	rep.set("search_s", median(walls), "s")
	rep.set("searches_per_min", 60/mean(walls), "1/min")
	rep.set("allocs_per_step", float64(mallocs)/float64(len(steps)), "count")
	rep.set("peak_rss_mb", runs[0].peakRSS, "MB")
	setSuccess(rep)
}

// setStepSamples records the step sample count and refuses to report a
// p90 with fewer than minTail samples beyond it.
func setStepSamples(rep *report, steps []float64) error {
	rep.StepSamples = len(steps)
	rep.TailPercentile = tailPercentile(len(steps))
	if rep.TailPercentile < 90 {
		return fmt.Errorf("%d step samples leave fewer than %d beyond p90", len(steps), minTail)
	}
	return nil
}

// setSuccess sets success_ratio from the run's operation counts.
func setSuccess(rep *report) {
	ok := 1.0
	if rep.Attempted > 0 {
		ok = 1 - float64(rep.Failed)/float64(rep.Attempted)
	}
	rep.set("success_ratio", ok, "ratio")
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// searchLayers derives the per-layer metrics of a traced search workload
// from its spans, the program's own phase histograms and the process
// counters, over the measured (warm) windows.
func searchLayers(lt layerTimes, tg *target, tr *tracer, runs []*searchRun) {
	tr.link("step", "strategy.sample", "strategy.update", "perf.eval", "shardrpc.runstep", "shardrpc.push_weights")
	self, count := tr.selfTimes()
	perCall := func(name string) float64 { return msPer(self[name], count[name]) }

	var ph = map[string]histDelta{}
	var steps int
	var warm, cpu time.Duration
	var pauseNs, numGC float64
	var misses, candidates int
	var wireIn, wireOut, busyNs int64
	for _, r := range runs {
		for k, v := range r.phases {
			d := ph[k]
			d.sum += v.sum
			d.count += v.count
			ph[k] = d
		}
		steps += len(r.steps)
		warm += r.warmWall
		cpu += r.end.cpu - r.begin.cpu
		pauseNs += float64(r.end.gcPauseNs - r.begin.gcPauseNs)
		numGC += float64(r.end.numGC - r.begin.numGC)
		misses += r.misses
		candidates += r.updates + 1 // + the final evaluation of Best
		wireIn += r.wireEnd.in - r.wireBegin.in
		wireOut += r.wireEnd.out - r.wireBegin.out
		busyNs += r.wireEnd.busyNs - r.wireBegin.busyNs
	}
	perStep := func(hist string) float64 { return ph[hist].sum * 1e3 / float64(steps) }
	fanout := perStep("search_phase_fanout_seconds")
	lt["core.sample_ms"] = perStep("search_phase_sample_seconds")
	lt["core.fanout_ms"] = fanout
	lt["core.policy_ms"] = perStep("search_phase_policy_update_seconds")
	lt["core.weights_ms"] = perStep("search_phase_weight_update_seconds")
	if sh := ph["search_shard_step_seconds"]; sh.count > 0 {
		lt["core.shard_ms"] = sh.sum * 1e3 / float64(sh.count)
	} else if steps > 0 {
		// Remote shards: the worker-side busy time of one shard pass.
		lt["core.shard_ms"] = float64(busyNs) / 1e6 / float64(steps*tg.shape.Shards)
	}
	// The fan-out's ideal length is the shards' total work spread over
	// the cores that can run it; the straggler share is what it takes
	// beyond that.
	lanes := float64(min(tg.shape.Shards, runtime.GOMAXPROCS(0)))
	if fanout > 0 {
		lt["core.straggler_share"] = 1 - lt["core.shard_ms"]*float64(tg.shape.Shards)/lanes/fanout
	}
	lt["strategy.sample_us"] = perCall("strategy.sample") * 1e3
	lt["strategy.update_ms"] = perCall("strategy.update")
	lt["perf.eval_ms"] = perCall("perf.eval")
	if candidates > 0 {
		lt["perf.memo_hit_ratio"] = 1 - float64(misses)/float64(candidates)
	}
	lt["datapipe.wait_ms"] = perStep("datapipe_next_wait_seconds")
	if tg.remote != nil {
		lt["shardrpc.runstep_ms"] = perCall("shardrpc.runstep")
		lt["shardrpc.push_weights_ms"] = perCall("shardrpc.push_weights")
		busy := float64(busyNs) / 1e6 / float64(steps*tg.shape.Shards)
		lt["shardrpc.worker_busy_ms"] = busy
		lt["shardrpc.wire_ms"] = lt["shardrpc.runstep_ms"] - busy
		lt["shardrpc.bytes_out_per_step"] = float64(wireIn) / float64(steps)
		lt["shardrpc.bytes_in_per_step"] = float64(wireOut) / float64(steps)
		full, delta := ph["shardrpc_full_syncs_total"].sum, ph["shardrpc_delta_syncs_total"].sum
		if full+delta > 0 {
			lt["shardrpc.delta_sync_ratio"] = delta / (full + delta)
		}
	}
	lt["proc.cpu_util"] = cpu.Seconds() / (warm.Seconds() * float64(runtime.GOMAXPROCS(0)))
	lt["proc.cpu_ms_per_step"] = msPer(cpu, steps)
	lt["proc.gc_pause_ms_per_step"] = pauseNs / 1e6 / float64(steps)
	lt["proc.gc_cycles_per_step"] = numGC / float64(steps)
}

// stepResidual returns trace.residual_share: the share of the traced step
// that the layer figures do not account for. Within each measured step the
// seam spans (strategy samples and updates, perf evaluations, remote
// run-steps and weight pushes) cover part of it; the step span's self time
// is what they leave. Of that, the replays account for the in-process
// fan-out (the shard passes spread over the lanes that run them; a remote
// run-step span already holds it), the batch wait, and the part of the
// spine that the policy stage (strategy update and perf evaluations), which
// it overlaps, does not hide.
func stepResidual(lt layerTimes, tg *target, tr *tracer) float64 {
	self, count := tr.selfTimes()
	n := count["step"]
	if n == 0 {
		return 0
	}
	var total time.Duration
	for _, s := range tr.spans {
		if s.Name == "step" {
			total += time.Duration(s.End - s.Start)
		}
	}
	in := tr.childTime("step")
	policy := msPer(in["strategy.update"]+in["perf.eval"], n)
	fanout := 0.0
	if tg.remote == nil {
		pass := lt["supernet.forward_ms"] + lt["supernet.backward_ms"] + lt["vitnet.forward_ms"] + lt["vitnet.backward_ms"]
		fanout = pass * float64(tg.shape.Shards) / float64(min(tg.shape.Shards, runtime.GOMAXPROCS(0)))
	}
	spine := lt["nn.spine.reduce_ms"] + lt["nn.spine.clip_adam_ms"]
	unspanned := fanout + lt["datapipe.wait_ms"] + math.Max(0, spine-policy)
	return (msPer(self["step"], n) - unspanned) / msPer(total, n)
}

// unitOf returns the declared unit of a per-layer metric.
func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
