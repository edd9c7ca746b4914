package core

import (
	"fmt"
	"log"

	"h2onas/internal/checkpoint"
	"h2onas/internal/nn"
	"h2onas/internal/reward"
	"h2onas/internal/sched"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// Model is the weight-sharing super-network contract the engine drives:
// the DLRM super-network (internal/supernet) and the transformer one
// (internal/vitnet) both satisfy it for their batch type.
type Model[B any] interface {
	// Loss runs the candidate's forward pass and returns the BCE loss and
	// its logits gradient, valid until the next Loss.
	Loss(a space.Assignment, batch B) (float64, *tensor.Matrix)
	// Backward accumulates the candidate's parameter gradients.
	Backward(dLogits *tensor.Matrix)
	// Quality is the forward-only quality signal 1 − loss/ln 2.
	Quality(a space.Assignment, batch B) float64
	// Params lists the shared parameters in a stable order.
	Params() []*nn.Param
	// SetWorkers bounds the intra-pass parallelism (performance only).
	SetWorkers(n int)
	// SetArena threads a per-replica arena through every layer.
	SetArena(a *tensor.Arena)
}

// Batch is a use-once batch of traffic whose phase guard enforces the
// α-before-W ordering: architecture learning reads it first, weight
// training second.
type Batch interface {
	UseForArch()
	UseForWeights()
}

// BatchStream is a never-repeating traffic source whose position is a
// pure function of the number of batches drawn, so checkpoint resume can
// fast-forward a fresh stream with Skip.
type BatchStream[B any] interface {
	NextBatch(n int) B
	Skip(nBatches int64, batchSize int)
	ExamplesServed() int64
}

// Outcome is the part of a weight-sharing search's result that every
// search space shares; Result and vitnet.Result add the decoded
// architecture.
type Outcome struct {
	// Best is the final architecture chosen by the strategy: the most
	// probable value of every decision in π for REINFORCE, the
	// best-reward candidate for the baseline strategies.
	Best space.Assignment
	// BestPerf is Perf evaluated on Best.
	BestPerf []float64
	// FinalQuality is the shared-weight quality of Best on fresh data.
	FinalQuality float64
	// History is per-step telemetry.
	History []StepInfo
	// Candidates is every (α, Q, T, R) evaluated during the search — the
	// raw material for the Figure 5 Pareto analyses. When
	// Config.MaxCandidates > 0 only the newest MaxCandidates entries are
	// retained, in arrival order.
	Candidates []Candidate
	// ExamplesSeen is the total number of traffic examples consumed: the
	// step batches and the final-quality batches, each used once. A
	// resumed run counts the batches its snapshot had consumed too.
	ExamplesSeen int64
	// ResumedFrom is the step index (warmup steps count) the run was
	// restored at, or 0 for a fresh run.
	ResumedFrom int64
	// ShardFirstDrop records, per shard, the first step index (warmup
	// steps count; same numbering ShardFault sees) at which that shard
	// was dropped from the cross-shard reduce, or -1 if it completed
	// every step. A degraded multi-node run can be reproduced in-process
	// by failing the same shards from the same steps on.
	ShardFirstDrop []int
}

// Engine is the unified single-step weight-sharing search loop of
// Section 4, generic over the super-network M and its batch type B. A
// front end (Searcher for DLRM, vitnet.Searcher for transformers)
// supplies only what differs between spaces: how the super-network is
// built, the fingerprint name and the final-quality protocol.
type Engine[M Model[B], B Batch] struct {
	// Name heads the checkpoint fingerprint ("core.Search/v3" for DLRM),
	// so a snapshot only resumes under the front end that wrote it.
	Name   string
	Space  *space.Space
	Reward *reward.Function
	Perf   PerfFunc
	Stream BatchStream[B]
	// Build constructs the master super-network and one replica per
	// shard. It draws from rng first and in a fixed order, so the
	// coordinator's sampling stream starts at the same point every run.
	Build func(rng *tensor.RNG, shards int) (master M, replicas []M)
	// Transport runs the per-shard work; nil runs the in-process worker
	// pool driven by Config's ShardFault/ShardRetries/ShardBackoff.
	Transport Transport[M, B]
	// FinalBatches and FinalScale fix the final-quality protocol: the
	// quality of Best averaged over FinalBatches fresh batches of
	// FinalScale·BatchSize examples each.
	FinalBatches, FinalScale int
}

// checkConfig validates the run shape every supernet search shares and
// fills the WeightLR default.
func checkConfig(cfg *Config) error {
	if cfg.Shards <= 0 || cfg.Steps <= 0 || cfg.BatchSize <= 0 {
		return fmt.Errorf("core: non-positive shards/steps/batch in %+v", *cfg)
	}
	if cfg.WeightLR <= 0 {
		cfg.WeightLR = DefaultConfig().WeightLR
	}
	if cfg.Float32Activations && cfg.Transport != nil {
		return fmt.Errorf("core: Float32Activations is not supported with a custom Transport (remote workers have no activation-mode negotiation)")
	}
	return nil
}

// Run executes the search. See Searcher.Search for the checkpoint, stop,
// fault and transport contracts, which hold for every front end.
func (e *Engine[M, B]) Run(cfg Config) (*Outcome, error) {
	if err := checkConfig(&cfg); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	master, replicas := e.Build(rng, cfg.Shards)
	// Partition the core budget so shard-level and kernel-level
	// parallelism stop fighting: each replica's intra-layer fan-out is
	// bounded to its per-shard share, while the master — which only
	// computes in coordinator-exclusive phases (final eval) — and the
	// spine get the full budget. Purely a performance decision; bits
	// never depend on it.
	budget := sched.New(cfg.Workers, cfg.Shards)
	master.SetWorkers(budget.Total())
	for _, r := range replicas {
		r.SetWorkers(budget.PerShard())
	}
	strat := StrategyFor(&cfg, e.Space)
	opt := nn.NewAdam(cfg.WeightLR)
	spine := nn.NewSpine(master.Params(), opt, 10)
	spine.SetWorkers(budget.Total())
	sm := NewSearchMetrics(cfg.Metrics)

	// The transport seam: where the per-shard forward/backward executes.
	// The engine owns (and closes) the default in-process transport; a
	// caller-provided one is only Bound here and closed by its owner.
	transport := e.Transport
	if transport == nil {
		inproc := newInprocTransport[M, B](&cfg, sm)
		transport = inproc
		defer inproc.Close()
	}
	if err := transport.Bind(Binding[M]{Master: master, Replicas: replicas, Metrics: cfg.Metrics}); err != nil {
		return nil, fmt.Errorf("core: binding shard transport: %w", err)
	}
	membership := transport.Membership()
	wantSync := transport.WantsWeightSync()
	spine.SetRecordTouched(wantSync)

	var mgr *checkpoint.Manager
	if cfg.CheckpointDir != "" {
		mgr = &checkpoint.Manager{
			Dir:     cfg.CheckpointDir,
			FS:      cfg.CheckpointFS,
			Clock:   cfg.Clock,
			Retain:  cfg.CheckpointRetain,
			Metrics: cfg.Metrics,
		}
	}

	res := &Outcome{ShardFirstDrop: make([]int, cfg.Shards)}
	for i := range res.ShardFirstDrop {
		res.ShardFirstDrop[i] = -1
	}
	// Restore must precede the first prefetch: the stream has to be
	// fast-forwarded to the checkpoint's consumed-batch frontier first.
	startStep, consumedBase, err := e.maybeRestore(&cfg, membership, mgr, rng, strat, master, opt, res)
	if err != nil {
		return nil, err
	}
	sm.ResumedAt.Set(float64(startStep))

	// draw synthesizes one batch. Every batch of the run is drawn through
	// it, so the stream has exactly one client at a time: the prefetch
	// worker during the step loop, the coordinator after it.
	draw := func(n int) B {
		span := sm.BatchProduce.Start()
		b := e.Stream.NextBatch(n)
		span.End()
		return b
	}

	// Batch synthesis is overlapped one step ahead: a prefetch worker
	// fills one of two buffers straight from the stream while the shards
	// compute on the other, so synthesis cost hides behind the fan-out
	// instead of serializing in front of it. Determinism is untouched —
	// the worker is the stream's only client during the step loop, so
	// batch order is exactly the serial order, and the coordinator's RNG
	// is never touched off the coordinator goroutine. It never draws past
	// the last step, so the stream holds exactly the consumed batches.
	//
	// `consumed` is the committed consumed-batch frontier for checkpoints:
	// it counts only batches handed to a step that will run, never the
	// prefetched-but-unclaimed buffer. A snapshot therefore fast-forwards
	// a resumed stream to exactly the frontier the uninterrupted run had,
	// and the batches sitting in a dropped prefetch are re-synthesized —
	// bit-identically, since synthesis is a pure function of the frontier.
	consumed := consumedBase
	totalSteps := cfg.WarmupSteps + cfg.Steps
	fetchReq := make(chan []B, 1)
	fetchDone := make(chan []B, 1)
	prefetchExit := make(chan struct{})
	go func() {
		defer close(prefetchExit)
		for buf := range fetchReq {
			for i := range buf {
				buf[i] = draw(cfg.BatchSize)
			}
			fetchDone <- buf
		}
	}()
	// On an early return (Stop, a failed weight push) one prefetch may be
	// in flight; fetchDone has room for it, so the worker finishes it and
	// exits. Waiting for that leaves the stream idle once Run returns.
	defer func() {
		close(fetchReq)
		<-prefetchExit
	}()
	nextBuf := make([]B, cfg.Shards)
	if startStep < totalSteps {
		fetchReq <- make([]B, cfg.Shards)
	}

	// Each replica gets its own arena so a steady-state step performs no
	// matrix allocations: intermediates are recycled at the top of every
	// Forward. One arena per shard because arenas are single-goroutine.
	// Drained on exit so the pooled buffers return to the global pools.
	arenas := make([]*tensor.Arena, cfg.Shards)
	for i, r := range replicas {
		arenas[i] = tensor.NewArena()
		r.SetArena(arenas[i])
	}
	defer func() {
		for i, a := range arenas {
			replicas[i].SetArena(nil)
			a.Release()
			a.Drain()
		}
	}()

	// Perf is pure, so memoize it for the duration of the run. perfFn is
	// what the step loop and the final Best evaluation call.
	perfFn := e.Perf
	if mp := NewMemoizedPerf(e.Perf, cfg.PerfCacheSize, cfg.Metrics); mp != nil {
		perfFn = mp.Eval
	}

	// Checkpoint encoding + I/O runs on a persister goroutine; Close is
	// deferred so every snapshot captured by the loop is durable before
	// Run returns.
	ckpt := newAsyncCheckpointer(mgr, sm)
	defer ckpt.Close()

	cands := NewCandidateRing(cfg.MaxCandidates)

	assignments := make([]space.Assignment, cfg.Shards)
	qualities := make([]float64, cfg.Shards)
	var batches []B
	outcomes := make([]ShardOutcome, cfg.Shards)
	alive := make([]bool, cfg.Shards)
	// liveParams collects the surviving replicas' param lists for the
	// cross-shard reduce; preallocated once so the steady-state step stays
	// allocation-flat on the coordinator too.
	liveParams := make([][]*nn.Param, 0, cfg.Shards)

	// Stage-3 spine worker: the cross-shard gradient reduce and fused
	// clip+Adam weight step run here, overlapped with the coordinator's
	// stage 2 (perf eval, reward, policy update) — the two stages touch
	// disjoint state (master weights + optimizer vs. policy, perf cache
	// and reward bookkeeping). The coordinator's send on spineWork
	// happens-before the worker's read of liveParams; the worker's send on
	// spineDone happens-before the coordinator's next read of the master
	// weights (the checkpoint, the next fan-out, and the final eval all
	// sit after the join).
	spineWork := make(chan struct{}, 1)
	spineDone := make(chan struct{}, 1)
	var spineNorm float64
	go func() {
		for range spineWork {
			weightsSpan := sm.WeightsTime.Start()
			spine.Reduce(liveParams)
			spineNorm = spine.ClipStep()
			weightsSpan.End()
			spineDone <- struct{}{}
		}
	}()
	defer close(spineWork)

	maxA := MaxAssignment(e.Space)
	for step := startStep; step < totalSteps; step++ {
		select {
		case <-cfg.Stop:
			// Cooperative cancellation at a step boundary: every piece of
			// state is settled (the previous step's spine join already
			// happened), so the snapshot taken here resumes bit-identically.
			// The in-flight prefetch is simply dropped — `consumed` does
			// not include it, so a resume re-synthesizes those batches.
			// The deferred ckpt.Close drains the persister, making the
			// snapshot durable before Run returns.
			sm.StepsStopped.Inc()
			if mgr != nil {
				ckpt.enqueue(e.snapshot(&cfg, membership, step, consumed, rng, strat, master, opt, res.History))
			}
			return res, ErrStopped
		default:
		}
		warmup := step < cfg.WarmupSteps
		stepSpan := sm.StepTime.Start()
		if warmup {
			sm.WarmupSteps.Inc()
			sm.WarmupRemaining.Set(float64(cfg.WarmupSteps - step))
		} else {
			sm.WarmupRemaining.Set(0)
		}
		sampleSpan := sm.SampleTime.Start()
		// Sampling happens on the coordinator so runs are reproducible;
		// the heavy forward/backward fans out per shard.
		for i := 0; i < cfg.Shards; i++ {
			sandwich := !cfg.DisableSandwich && i == 0 && cfg.Shards > 1
			if warmup && !cfg.DisableSandwich && i%2 == 0 {
				sandwich = true
			}
			if sandwich {
				// Sandwich training: one shard (and half the warmup
				// shards) always trains the maximal sub-network so every
				// shared weight keeps receiving gradient. Without it the
				// always-shared upper-left corner of each weight matrix
				// is the best-trained region and the one-shot quality
				// signal develops a strong bias toward the thinnest
				// candidates.
				assignments[i] = maxA
			} else {
				assignments[i] = strat.Sample(rng, warmup)
			}
		}
		// Claim the prefetched batches for this step and immediately kick
		// off synthesis for the next one, reusing the buffer the previous
		// step just finished with. The claim commits the batches: from
		// here the step runs to completion (Stop is only honored at the
		// step boundary above), so the frontier advances now.
		waitSpan := sm.BatchWait.Start()
		batches = <-fetchDone
		waitSpan.End()
		consumed += int64(cfg.Shards)
		sm.BatchesConsumed.Add(int64(cfg.Shards))
		if step+1 < totalSteps {
			fetchReq <- nextBuf
		}
		nextBuf = batches
		sampleSpan.End()

		fanoutSpan := sm.FanoutTime.Start()
		for i := range outcomes {
			outcomes[i] = ShardOutcome{}
		}
		transport.RunStep(step, assignments, batches, outcomes)
		fanoutSpan.End()
		for i, out := range outcomes {
			alive[i] = out.Alive
			qualities[i] = out.Quality
			if !out.Alive && res.ShardFirstDrop[i] < 0 {
				res.ShardFirstDrop[i] = step
				log.Printf("core: shard %d first dropped at step %d", i, step)
			}
		}

		// Collect the shards that completed the step; dropped shards
		// never ran Backward, so their replica gradients are still zero
		// and excluding them keeps the surviving shards' gradient average
		// unbiased.
		liveParams = liveParams[:0]
		for i, ok := range alive {
			if ok {
				liveParams = append(liveParams, replicas[i].Params())
			}
		}
		if len(liveParams) == 0 {
			// Every shard failed: nothing to learn from this step.
			// Degrade by skipping the updates rather than killing the run.
			sm.StepsSkipped.Inc()
			stepSpan.End()
			e.maybeCheckpoint(&cfg, membership, ckpt, step, consumed, rng, strat, master, opt, res.History)
			continue
		}

		// Stage 3 (cross-shard) starts first, on the spine worker: reduce
		// the surviving replicas' gradients and step W while the
		// coordinator runs stage 2 below on disjoint state. The join is
		// after stage 2, before anything reads the master weights again.
		spineWork <- struct{}{}

		// Stage 2: cross-shard policy update from (Q, T) → R. The
		// sandwich shard trains weights only; its fixed candidate would
		// bias REINFORCE, so it is excluded from the update.
		var stepRewards []float64
		if !warmup {
			policySpan := sm.PolicyTime.Start()
			first := 0
			if !cfg.DisableSandwich && cfg.Shards > 1 {
				first = 1
			}
			var policySamples []space.Assignment
			var rewards []float64
			for i := first; i < cfg.Shards; i++ {
				if !alive[i] {
					continue
				}
				perf := perfFn(assignments[i])
				rw := e.Reward.Eval(qualities[i], perf)
				policySamples = append(policySamples, assignments[i])
				rewards = append(rewards, rw)
				cands.Add(Candidate{
					Step:       step - cfg.WarmupSteps,
					Assignment: append(space.Assignment(nil), assignments[i]...),
					Quality:    qualities[i],
					Perf:       perf,
					Reward:     rw,
				})
			}
			strat.Update(policySamples, rewards)
			sm.Candidates.Add(int64(len(policySamples)))
			stepRewards = rewards
			policySpan.End()
		}

		// Join stage 3: from here on the master weights, the optimizer
		// moments and the pre-clip gradient norm are settled.
		<-spineDone
		sm.GradNorm.Observe(spineNorm)
		if wantSync {
			// Publish the step's weight change to remote shards. The spine
			// recorded exactly which params (and rows) ClipStep touched, so
			// the transport can ship a delta instead of the full state.
			if err := transport.PushWeights(spine.Touched()); err != nil {
				return nil, fmt.Errorf("core: publishing step %d weight update: %w", step, err)
			}
		}

		if !warmup {
			info := StepInfo{
				Step:       step - cfg.WarmupSteps,
				MeanReward: meanOf(stepRewards),
				MeanQ:      meanAlive(qualities, alive),
				Entropy:    strat.Entropy(),
				Confidence: strat.Confidence(),
			}
			res.History = append(res.History, info)
			sm.RecordStep(info)
			if cfg.Progress != nil {
				cfg.Progress(info)
			}
		}
		stepSpan.End()

		e.maybeCheckpoint(&cfg, membership, ckpt, step, consumed, rng, strat, master, opt, res.History)
	}

	res.Best = strat.Best()
	res.BestPerf = perfFn(res.Best)
	res.Candidates = cands.Items()
	// Final quality on fresh data, forward-only, drawn by the coordinator
	// after the last step's batches: the stream position is the consumed
	// frontier, so FinalQuality is bit-reproducible across resumed runs.
	var finalQ float64
	for j := 0; j < e.FinalBatches; j++ {
		final := draw(e.FinalScale * cfg.BatchSize)
		sm.BatchesConsumed.Inc()
		final.UseForArch()
		finalQ += master.Quality(res.Best, final)
	}
	res.FinalQuality = finalQ / float64(e.FinalBatches)
	res.ExamplesSeen = e.Stream.ExamplesServed()
	sm.Examples.Add(res.ExamplesSeen)
	return res, nil
}
