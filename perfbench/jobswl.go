package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"h2onas/internal/checkpoint"
	"h2onas/internal/core"
	"h2onas/internal/httpserve"
	"h2onas/internal/jobs"
	"h2onas/internal/metrics"
	"h2onas/internal/sched"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

const (
	// tenants is the number of closed-loop clients; each waits for its
	// job to finish before submitting the next.
	tenants = 2
	// pollEvery is how often a client polls its job's status: the rate
	// of the repository's own job client in CI while it watches a job's
	// progress.
	pollEvery = 100 * time.Millisecond
	// setupReps is how many times a run starts the service to take the
	// median set-up time.
	setupReps = 31
)

// jobObs is what a client observed of one job.
type jobObs struct {
	spec                     jobs.Spec // normalized, as the service echoed it
	submit, running, done    time.Time
	state                    jobs.State
	stepMs                   float64 // mean warm-step time the polls saw, 0 if unseen
	result                   []byte  // result.json artifact
	finalQuality             float64
	submitErr, artifactError string
}

// service is one started job service behind the hardened HTTP stack, the
// way cmd/serve -jobs-dir wires it.
type service struct {
	svc    *jobs.Service
	base   string
	cancel context.CancelFunc
	done   chan error
}

func startService(dir string, opts jobs.Options, reg *metrics.Registry) (*service, error) {
	svc, err := jobs.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	svc.Mount(mux)
	srv := httpserve.New("127.0.0.1:0", mux, httpserve.Config{Metrics: reg, OnDrain: svc.Drain})
	ctx, cancel := context.WithCancel(context.Background())
	s := &service{svc: svc, cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Run(ctx) }()
	// Run publishes the address once it listens. Yield rather than sleep
	// while waiting: a timer's wake-up latency would dominate a set-up
	// that takes about a millisecond.
	for srv.Addr() == "" {
		select {
		case err := <-s.done:
			cancel()
			svc.Close()
			return nil, fmt.Errorf("job service HTTP server: %w", err)
		default:
			runtime.Gosched()
		}
	}
	s.base = "http://" + srv.Addr()
	resp, err := http.Get(s.base + "/readyz")
	if err != nil {
		s.stop()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("job service not ready: %s", resp.Status)
	}
	return s, nil
}

// stop drains the HTTP server, which drains the job service, and waits
// for both.
func (s *service) stop() error {
	s.cancel()
	err := <-s.done
	s.svc.Close()
	return err
}

// jobsPhase is one measured phase of jobs-mix.
type jobsPhase struct {
	setups     []float64
	obs        []*jobObs
	window     time.Duration
	begin, end procStats
	reg        *metrics.Registry
	fs         *timedFS
	tr         *tracer
}

// measureJobs starts the service setupReps times (keeping the last), then
// runs the tenants' closed loops for about o.seconds.
func measureJobs(o options, in inputs, dir string, traced bool) (*jobsPhase, error) {
	ph := &jobsPhase{}
	opts := jobs.Options{}
	if traced {
		ph.reg = metrics.New()
		ph.tr = newTracer()
		ph.fs = &timedFS{FS: checkpoint.OS(), tr: ph.tr}
		opts.Metrics, opts.FS = ph.reg, ph.fs
	}
	var s *service
	for i := 0; i < setupReps; i++ {
		d := filepath.Join(dir, fmt.Sprint(i))
		runtime.GC()
		t0 := time.Now()
		var err error
		s, err = startService(d, opts, ph.reg)
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(d); err != nil {
				return nil, err
			}
		}
	}
	defer s.stop()

	client := &http.Client{Timeout: 60 * time.Second}
	start := time.Now()
	ph.begin = readProc()
	var mu sync.Mutex // guards ph.obs, jobTime, doneJobs
	var jobTime time.Duration
	doneJobs := 0
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for t := 0; t < tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%c", 'a'+t)
			for k := 0; ; k++ {
				// Start another job while one more fits in the time left;
				// each tenant runs the whole strategy cycle at least once
				// so every spec is run twice (once per tenant).
				mu.Lock()
				avg := time.Duration(0)
				if doneJobs > 0 {
					avg = jobTime / time.Duration(doneJobs)
				}
				mu.Unlock()
				if k >= len(in.Jobs) && time.Since(start)+avg > o.seconds {
					return
				}
				spec := in.Jobs[(k+t*len(in.Jobs)/tenants)%len(in.Jobs)]
				ob, err := runJob(client, s.base, tenant, spec)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				ph.obs = append(ph.obs, ob)
				if !ob.done.IsZero() {
					jobTime += ob.done.Sub(ob.submit)
					doneJobs++
				}
				if ph.tr != nil && !ob.done.IsZero() {
					ph.tr.add("jobs.job", len(ph.obs), ob.submit, ob.done)
				}
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	ph.end = readProc()
	ph.window = time.Since(start)
	close(errs)
	for err := range errs {
		return nil, err
	}
	return ph, nil
}

// runJob submits one job and polls it to a terminal state.
func runJob(c *http.Client, base, tenant string, spec jobs.Spec) (*jobObs, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	ob := &jobObs{spec: spec}
	req, err := http.NewRequest(http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	ob.submit = time.Now()
	var rec jobs.Record
	code, err := doJSON(c, req, &rec)
	if err != nil {
		return nil, err
	}
	if code != http.StatusAccepted {
		ob.submitErr = fmt.Sprintf("submit answered %d", code)
		return ob, nil
	}
	ob.spec = rec.Spec
	// The client's view of the warm steps: the first poll that sees
	// progress and the last poll that sees a new step before the final
	// one. Progress.Step is the last finished warm step, so a poll sees a
	// step at most one step time after it finished; the final step is
	// left out because the next thing after it is the final evaluation,
	// not another step.
	firstStep, lastStep := -1, -1
	var firstAt, lastAt time.Time
	for {
		time.Sleep(pollEvery)
		req, err := http.NewRequest(http.MethodGet, base+"/jobs/"+rec.ID, nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("X-Tenant", tenant)
		var st jobs.Status
		if code, err := doJSON(c, req, &st); err != nil {
			return nil, err
		} else if code != http.StatusOK {
			return nil, fmt.Errorf("status of %s answered %d", rec.ID, code)
		}
		now := time.Now()
		if st.State != jobs.StateQueued && ob.running.IsZero() {
			ob.running = now
		}
		if p := st.Progress; p != nil && len(p.RewardTail) > 0 && p.Step > lastStep && p.Step < ob.spec.Steps-1 {
			if firstStep < 0 {
				firstStep, firstAt = p.Step, now
			}
			lastStep, lastAt = p.Step, now
		}
		if st.State.Terminal() {
			ob.done, ob.state = now, st.State
			break
		}
	}
	if lastStep > firstStep {
		ob.stepMs = float64(lastAt.Sub(firstAt).Nanoseconds()) / 1e6 / float64(lastStep-firstStep)
	}
	if ob.state != jobs.StateDone {
		return ob, nil
	}
	req, err = http.NewRequest(http.MethodGet, base+"/jobs/"+rec.ID+"/artifacts/result.json", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		ob.artifactError = fmt.Sprintf("result.json answered %d", resp.StatusCode)
		return ob, nil
	}
	ob.result = data
	var res struct {
		FinalQuality float64 `json:"final_quality"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		ob.artifactError = fmt.Sprintf("result.json: %v", err)
		return ob, nil
	}
	ob.finalQuality = res.FinalQuality
	return ob, nil
}

func doJSON(c *http.Client, req *http.Request, v any) (int, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, v); err != nil {
			return 0, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
		}
	}
	return resp.StatusCode, nil
}

// checkJobs verifies every job ended done with a readable result, and
// that jobs of the same spec and seed produced byte-identical results.
// Each job is one attempted operation and fails at most once.
func checkJobs(ph *jobsPhase, ref map[string][]byte, rep *report) {
	for _, ob := range ph.obs {
		rep.Attempted++
		key := fmt.Sprintf("%s/%d", ob.spec.Strategy, ob.spec.Seed)
		switch {
		case ob.submitErr != "":
			rep.fail("job %s: %s", key, ob.submitErr)
		case ob.state != jobs.StateDone:
			rep.fail("job %s ended %s", key, ob.state)
		case ob.artifactError != "":
			rep.fail("job %s: %s", key, ob.artifactError)
		case math.IsNaN(ob.finalQuality) || math.IsInf(ob.finalQuality, 0):
			rep.fail("job %s: final quality %v is not finite", key, ob.finalQuality)
		case ref[key] == nil:
			ref[key] = ob.result
		case !bytes.Equal(ref[key], ob.result):
			rep.fail("job %s: result.json differs from an earlier run of the same spec and seed", key)
		}
	}
}

// jobSteps is the total number of search steps (warmup included) and
// warm steps of the phase's finished jobs.
func jobSteps(ph *jobsPhase) (all, warm int, examples float64) {
	for _, ob := range ph.obs {
		if ob.state == jobs.StateDone {
			all += ob.spec.Warmup + ob.spec.Steps
			warm += ob.spec.Steps
			examples += float64(ob.spec.Shards * ob.spec.Batch * ob.spec.Steps)
		}
	}
	return all, warm, examples
}

// jobStepTimes returns the mean warm-step time of each job whose polls
// saw its steps advance: the client's per-step view of jobs-mix.
func jobStepTimes(ph *jobsPhase) []float64 {
	var s []float64
	for _, ob := range ph.obs {
		if ob.stepMs > 0 {
			s = append(s, ob.stepMs)
		}
	}
	return s
}

func runJobsMix(o options) (*report, error) {
	in := makeInputs(o.workload, o.seed)
	rep := &report{}
	dir := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("jobs-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ph, err := measureJobs(o, in, filepath.Join(dir, "untraced"), false)
	if err != nil {
		return nil, err
	}
	ref := map[string][]byte{}
	checkJobs(ph, ref, rep)
	// One step sample per job: its mean warm-step time as the client saw
	// it. A run holds a few dozen jobs, too few for minTail samples
	// beyond p90, so the tail rule is recorded here, not enforced.
	steps := jobStepTimes(ph)
	if len(steps) < 2 {
		return nil, fmt.Errorf("jobs-mix: the polls saw the steps of %d jobs", len(steps))
	}
	rep.StepSamples = len(steps)
	rep.TailPercentile = tailPercentile(len(steps))
	var lat, fq []float64
	for _, ob := range ph.obs {
		if ob.state == jobs.StateDone {
			lat = append(lat, ob.done.Sub(ob.submit).Seconds())
			fq = append(fq, ob.finalQuality)
		}
	}
	if len(lat) == 0 {
		return nil, errors.New("jobs-mix: no job finished")
	}
	rep.FinalQuality = median(fq)
	if !o.trace {
		all, _, examples := jobSteps(ph)
		rep.set("examples_per_s", examples/ph.window.Seconds(), "examples/s")
		rep.set("step_ms_p50", percentile(steps, 50), "ms")
		rep.set("step_ms_p90", percentile(steps, 90), "ms")
		rep.set("setup_s", median(ph.setups), "s")
		rep.set("search_s", median(lat), "s")
		rep.set("searches_per_min", float64(len(lat))*60/ph.window.Seconds(), "1/min")
		rep.set("allocs_per_step", float64(ph.end.mallocs-ph.begin.mallocs)/float64(all), "count")
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
		setSuccess(rep)
		return rep, nil
	}

	tph, err := measureJobs(o, in, filepath.Join(dir, "traced"), true)
	if err != nil {
		return nil, err
	}
	checkJobs(tph, ref, rep)
	zeroLayers(rep)
	lt := layerTimes{}
	spec := in.Jobs[0].Normalize()
	jobsLayers(lt, tph, spec.Shards)
	tracedSteps := jobStepTimes(tph)
	lt["trace.overhead_share"] = median(tracedSteps)/median(steps) - 1

	// The jobs' searches are DLRM searches of the default job shape:
	// replay their layers at that shape, on candidates drawn the way the
	// random strategy draws them.
	sh := searchShape{Shards: spec.Shards, Batch: spec.Batch, Warmup: spec.Warmup, Steps: spec.Steps}
	ds := dlrmSpace()
	random, rng := core.NewRandomSearch(ds.Space), tensor.NewRNG(in.SearchSeed)
	var samples []space.Assignment
	for i := 0; i < replaySteps*sh.Shards; i++ {
		samples = append(samples, random.Sample(rng, false))
	}
	replayDLRMModel(ds, sh, in.StreamSeed, samples, lt)
	arena := tensor.NewArena()
	defer arena.Drain()
	replayLayers(dlrmLayerCases(ds, sh.Batch, sched.New(0, sh.Shards).PerShard(), arena, in.StreamSeed), arena, lt)
	replayBatches(ctrBatches(in.StreamSeed, sh.Batch), lt)
	// The layer figures account for the fan-out (the replayed shard
	// passes spread over the lanes that run them), the spine and the
	// batch wait. The strategies and perf have no seam here, so their
	// time, and the time the other job takes from this one's cores, fall
	// in the residual.
	lanes := float64(min(sh.Shards, runtime.GOMAXPROCS(0)))
	fanout := (lt["supernet.forward_ms"] + lt["supernet.backward_ms"]) * float64(sh.Shards) / lanes
	spine := lt["nn.spine.reduce_ms"] + lt["nn.spine.clip_adam_ms"]
	lt["trace.residual_share"] = 1 - (fanout+spine+lt["datapipe.wait_ms"])/mean(tracedSteps)
	for name, v := range lt {
		rep.set(name, v, unitOf(name))
	}
	if err := tph.tr.write(filepath.Join(resultDir, fmt.Sprintf("%s-seed%d-spans.json", o.workload, o.seed))); err != nil {
		return nil, err
	}
	return rep, nil
}

// jobsLayers derives jobs-mix's per-layer metrics from the traced phase:
// the program's own instruments (which every job's search reports to),
// the timed filesystem, and the clients' observations.
func jobsLayers(lt layerTimes, ph *jobsPhase, shardsPerJob int) {
	r := ph.reg
	all, _, _ := jobSteps(ph)
	hs := func(name string) *metrics.Histogram { return r.Histogram(name) }
	perStep := func(name string) float64 { return hs(name).Sum() * 1e3 / float64(hs("search_step_seconds").Count()) }
	fanout := perStep("search_phase_fanout_seconds")
	lt["core.sample_ms"] = perStep("search_phase_sample_seconds")
	lt["core.fanout_ms"] = fanout
	lt["core.policy_ms"] = perStep("search_phase_policy_update_seconds")
	lt["core.weights_ms"] = perStep("search_phase_weight_update_seconds")
	if h := hs("search_shard_step_seconds"); h.Count() > 0 {
		lt["core.shard_ms"] = h.Mean() * 1e3
	}
	shards := float64(shardsPerJob)
	lanes := math.Min(shards, float64(runtime.GOMAXPROCS(0)))
	if fanout > 0 {
		lt["core.straggler_share"] = 1 - lt["core.shard_ms"]*shards/lanes/fanout
	}
	lt["datapipe.wait_ms"] = perStep("datapipe_next_wait_seconds")
	lt["checkpoint.save_ms"] = hs("checkpoint_save_seconds").Mean() * 1e3
	if saves := hs("checkpoint_save_seconds").Count(); saves > 0 {
		lt["checkpoint.bytes"] = float64(ph.fs.ckptBytes.Load()) / float64(saves)
	}
	if n := ph.fs.journalSyncs.Load(); n > 0 {
		lt["jobs.journal_fsync_ms"] = float64(ph.fs.journalSyncNs.Load()) / 1e6 / float64(n)
	}
	var wait, run []float64
	for _, ob := range ph.obs {
		if ob.state == jobs.StateDone {
			wait = append(wait, ob.running.Sub(ob.submit).Seconds())
			run = append(run, ob.done.Sub(ob.running).Seconds())
		}
	}
	lt["jobs.queue_wait_s"] = median(wait)
	lt["jobs.run_s"] = median(run)
	cpu := ph.end.cpu - ph.begin.cpu
	lt["proc.cpu_util"] = cpu.Seconds() / (ph.window.Seconds() * float64(runtime.GOMAXPROCS(0)))
	lt["proc.cpu_ms_per_step"] = msPer(cpu, all)
	lt["proc.gc_pause_ms_per_step"] = float64(ph.end.gcPauseNs-ph.begin.gcPauseNs) / 1e6 / float64(all)
	lt["proc.gc_cycles_per_step"] = float64(ph.end.numGC-ph.begin.numGC) / float64(all)
}

// timedFS is the real filesystem with the job service's durability costs
// counted: fsync time of journal records and bytes written to search
// snapshots.
type timedFS struct {
	checkpoint.FS
	tr            *tracer
	journalSyncs  atomic.Int64
	journalSyncNs atomic.Int64
	ckptBytes     atomic.Int64
}

func (f *timedFS) Create(name string) (checkpoint.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	slash := filepath.ToSlash(name)
	return &timedFile{File: file, fs: f,
		journal: strings.Contains(slash, "/journal/"),
		ckpt:    strings.Contains(slash, "/ckpt/")}, nil
}

type timedFile struct {
	checkpoint.File
	fs            *timedFS
	journal, ckpt bool
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.ckpt {
		f.fs.ckptBytes.Add(int64(n))
	}
	return n, err
}

func (f *timedFile) Sync() error {
	if !f.journal {
		return f.File.Sync()
	}
	t0 := time.Now()
	err := f.File.Sync()
	t1 := time.Now()
	f.fs.tr.add("jobs.journal_fsync", -1, t0, t1)
	f.fs.journalSyncNs.Add(t1.Sub(t0).Nanoseconds())
	f.fs.journalSyncs.Add(1)
	return err
}
