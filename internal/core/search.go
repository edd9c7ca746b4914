// Package core assembles H₂O-NAS's primary contribution: the massively
// parallel *unified single-step* search algorithm of Section 4 (Figure 2,
// right), which learns the policy π and the shared super-network weights W
// in the same step from the same fresh batch of production traffic — plus
// the TuNAS-style *alternating two-step* baseline (Figure 2, left) it is
// compared against.
//
// Each simulated accelerator shard executes the three stages of a search
// step:
//
//  1. sample a candidate αᵢ from π and run a forward pass with the shared
//     weights W on a fresh batch to estimate quality Q(αᵢ);
//  2. combine Q(αᵢ) with predicted performance T(αᵢ) into the reward
//     R(αᵢ) and contribute to the cross-shard REINFORCE update of π;
//  3. in parallel, contribute the candidate's gradients on the same batch
//     to the cross-shard update of W.
//
// The pipeline's use-once batches make the single-step unification sound:
// α is always learned on data W has never trained on.
package core

import (
	"errors"
	"fmt"
	"time"

	"h2onas/internal/checkpoint"
	"h2onas/internal/controller"
	"h2onas/internal/datapipe"
	"h2onas/internal/metrics"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

// ErrStopped reports that a search ended early because Config.Stop was
// signalled. The returned Result carries the partial history; when
// checkpointing is configured, the final snapshot is durable before
// Search returns, so the run can be resumed later without losing work.
var ErrStopped = errors.New("core: search stopped by Config.Stop")

// PerfFunc returns the performance-objective values of a candidate, in the
// reward function's objective order (e.g. predicted train step time from
// the performance model, analytic serving memory).
type PerfFunc func(space.Assignment) []float64

// Config controls a search run.
type Config struct {
	// Shards is the number of parallel accelerator shards. Each samples
	// its own candidate per step.
	Shards int
	// Workers is the search's total core budget, partitioned across the
	// shard workers by sched.New(Workers, Shards): each replica's layer
	// passes are bounded to its per-shard share, while the spine and the
	// master's final evaluation — which run in coordinator-exclusive
	// phases — use the full budget. 0 (the default) uses GOMAXPROCS at
	// Search time. The budget is a performance knob only: trajectories
	// are bit-identical for any Workers value, so it is deliberately NOT
	// part of the checkpoint fingerprint — a run may be resumed under a
	// different core budget.
	Workers int
	// Steps is the number of search steps.
	Steps int
	// BatchSize is the per-shard batch size.
	BatchSize int
	// WarmupSteps trains shared weights on random candidates before
	// policy updates begin, so early rewards reflect partially trained
	// weights rather than noise.
	WarmupSteps int
	// WeightLR is the Adam learning rate for shared weights.
	WeightLR float64
	// Controller configures the RL controller (the default strategy).
	Controller controller.Config
	// Strategy overrides the sample/update rule of the search: nil (the
	// default) runs the REINFORCE controller configured by Controller;
	// NewRandomSearch, NewEvolution and NewSuccessiveHalving provide the
	// baseline battery behind the same interface. A Strategy instance is
	// stateful and belongs to a single Search call — construct a fresh
	// one per run. Its identity is part of the checkpoint fingerprint,
	// so resume refuses a snapshot written by a different strategy.
	Strategy Strategy
	// Seed drives all stochastic choices.
	Seed uint64
	// DisableSandwich turns off sandwich training (see Search). On by
	// default because laptop-scale supernets otherwise develop a strong
	// bias toward the thinnest candidates; the ablation bench measures
	// its effect.
	DisableSandwich bool
	// Float32Activations stores replica forward activations (MLP
	// outputs, low-rank hiddens, concat, pooled embeddings) as float32,
	// halving their footprint and memory traffic. Arithmetic, master
	// weights, gradients and optimizer state stay float64; logits stay
	// float64. The mode is bit-deterministic but rounds each stored
	// activation once, so it follows its own golden trajectory (the
	// fingerprint records it — a checkpoint cannot silently resume in
	// the other mode). Not yet supported with a remote Transport: the
	// remote worker protocol has no activation-mode negotiation, so
	// validate rejects the combination rather than let coordinator and
	// workers silently disagree.
	Float32Activations bool
	// Progress, when non-nil, receives per-step telemetry.
	Progress func(StepInfo)
	// Metrics, when non-nil, receives counters, gauges and per-phase
	// timing histograms from the search loop, its batch prefetch and the
	// controller. nil — equivalently metrics.Nop() —
	// keeps the hot path free of observability overhead.
	Metrics *metrics.Registry

	// PerfCacheSize bounds the assignment-keyed LRU that memoizes Perf
	// during the search (the performance model is pure, and a converging
	// policy resamples the same candidates). 0 uses DefaultPerfCacheSize;
	// negative disables memoization entirely. Cache effectiveness is
	// exported as perf_cache_hits_total / perf_cache_misses_total.
	PerfCacheSize int
	// MaxCandidates bounds Result.Candidates: when > 0 only the newest
	// MaxCandidates evaluated candidates are retained (oldest evicted
	// first); 0 keeps every candidate, the historical behaviour. Long
	// searches at high shard counts produce Shards·Steps candidates, so
	// bounding keeps Result memory flat without touching the telemetry
	// History.
	MaxCandidates int

	// CheckpointEvery, together with CheckpointDir, writes a full-state
	// snapshot every CheckpointEvery steps (warmup steps count). 0
	// disables periodic checkpointing.
	CheckpointEvery int
	// CheckpointDir is the snapshot directory. Empty disables
	// checkpointing and resume-from-directory.
	CheckpointDir string
	// CheckpointRetain keeps only the newest N snapshots (0 keeps all).
	CheckpointRetain int
	// CheckpointFS overrides the snapshot filesystem (in-memory tests,
	// fault injection); nil uses the real one.
	CheckpointFS checkpoint.FS
	// Resume restores the newest valid snapshot found in CheckpointDir
	// before searching; if none is loadable the search starts fresh with
	// a logged notice. A resumed search is bit-deterministic: it
	// reproduces the uninterrupted run's architecture and reward
	// trajectory exactly.
	Resume bool
	// ResumeSnapshot restores this exact snapshot instead of scanning
	// CheckpointDir (takes precedence over Resume).
	ResumeSnapshot *checkpoint.Snapshot

	// Stop, when non-nil, requests cooperative cancellation: the search
	// checks it between steps and, once it is closed (or receives),
	// flushes a final full-state snapshot (when CheckpointDir is set),
	// then returns the partial Result with ErrStopped. A stopped run
	// resumed from that snapshot reproduces the uninterrupted run's
	// trajectory bit-for-bit — stopping is a pause, not a divergence.
	Stop <-chan struct{}

	// ShardFault, when non-nil, is consulted before each shard attempt
	// (stage 1/3 of the step); a non-nil error simulates that shard
	// failing transiently. It is the fault-injection seam for tests and
	// the hook future RPC-backed shards report through.
	ShardFault func(step, shard, attempt int) error
	// ShardRetries is how many times a failed shard is retried within a
	// step before being dropped from that step's cross-shard reduce.
	// 0 means the default (2); negative disables retries.
	ShardRetries int
	// ShardBackoff is the base wait between shard retries, doubling per
	// attempt. 0 means the default (1ms).
	ShardBackoff time.Duration
	// Clock injects time for retry backoff; nil uses the real clock.
	Clock checkpoint.Clock

	// Transport overrides where the per-shard forward/backward work
	// executes. nil (the default) runs the historical in-process worker
	// pool, driven by the ShardFault/ShardRetries/ShardBackoff knobs
	// above. A non-nil transport (e.g. shardrpc's coordinator transport)
	// is Bound by Search but closed by its owner; its own fault policy
	// replaces the Shard* knobs.
	Transport ShardTransport
}

// DefaultConfig returns search hyperparameters suitable for the small DLRM
// configuration.
func DefaultConfig() Config {
	return Config{
		Shards:      8,
		Steps:       300,
		BatchSize:   64,
		WarmupSteps: 40,
		WeightLR:    0.003,
		Controller:  controller.DefaultConfig(),
		Seed:        1,
	}
}

// StepInfo is per-step telemetry.
type StepInfo struct {
	Step       int
	MeanReward float64
	MeanQ      float64
	Entropy    float64
	Confidence float64
}

// Candidate is one evaluated architecture sample.
type Candidate struct {
	Step       int
	Assignment space.Assignment
	Quality    float64
	Perf       []float64
	Reward     float64
}

// Result is the outcome of a DLRM search.
type Result struct {
	Outcome
	// BestArch is Best decoded.
	BestArch space.DLRMArch
}

// Searcher couples a DLRM search space with its reward, performance
// evaluation and traffic source.
type Searcher struct {
	DS     *space.DLRMSpace
	Reward *reward.Function
	Perf   PerfFunc
	Stream *datapipe.Stream
}

// validate checks the searcher and config.
func (s *Searcher) validate(cfg *Config) error {
	if s.DS == nil || s.Reward == nil || s.Perf == nil || s.Stream == nil {
		return fmt.Errorf("core: Searcher requires DS, Reward, Perf and Stream")
	}
	return checkConfig(cfg)
}

// Search runs the unified single-step massively parallel algorithm on the
// shared step engine (Engine).
//
// When checkpointing is configured the complete search state — policy
// logits, reward baseline, shared weights, optimizer moments, RNG stream
// and step counter — is snapshotted atomically every CheckpointEvery
// steps, and a run restored from any snapshot (Resume/ResumeSnapshot)
// reproduces the uninterrupted run's final architecture and reward
// trajectory bit-for-bit. Shards that fail (via the ShardFault seam) are
// retried with bounded exponential backoff and, if they keep failing,
// dropped from that step's cross-shard reduce so the step degrades to
// the surviving shards instead of killing the search.
//
// Shard execution goes through a ShardTransport (Config.Transport): by
// default the in-process worker pool, or a fleet of remote workers over
// TCP. Because sampling and batch draws stay on the coordinator and the
// spine's reduce is fixed-order, the trajectory is bit-identical across
// transports for the same seed and per-step surviving shard set.
func (s *Searcher) Search(cfg Config) (*Result, error) {
	if err := s.validate(&cfg); err != nil {
		return nil, err
	}
	e := &Engine[*supernet.Supernet, *datapipe.Batch]{
		Name:   "core.Search/v3",
		Space:  s.DS.Space,
		Reward: s.Reward,
		Perf:   s.Perf,
		Stream: s.Stream,
		Build: func(rng *tensor.RNG, shards int) (*supernet.Supernet, []*supernet.Supernet) {
			master := supernet.New(s.DS, rng.Split())
			master.SetFloat32Activations(cfg.Float32Activations)
			replicas := make([]*supernet.Supernet, shards)
			for i := range replicas {
				replicas[i] = master.Replicate(rng.Split())
				replicas[i].SetFloat32Activations(cfg.Float32Activations)
			}
			return master, replicas
		},
		Transport: cfg.Transport,
		// 16 batches of BatchSize: forward-only, so the extra examples
		// are cheap and cut evaluation noise.
		FinalBatches: 16,
		FinalScale:   1,
	}
	out, err := e.Run(cfg)
	if out == nil {
		return nil, err
	}
	res := &Result{Outcome: *out}
	if err == nil {
		res.BestArch = s.DS.Decode(res.Best)
	}
	return res, err
}

const ln2 = 0.6931471805599453

// QualityFromLoss maps a per-shard BCE loss to the one-shot quality
// signal Q = 1 − loss/ln 2. Exported so remote transports reproduce the
// in-process computation bit-for-bit from the raw loss they collect.
func QualityFromLoss(loss float64) float64 { return 1 - loss/ln2 }

// MaxAssignment selects the largest option of every decision (widest,
// deepest, fullest-rank candidate) — a direct argmax over each decision's
// values. The sandwich shard trains this maximal sub-network every step.
func MaxAssignment(sp *space.Space) space.Assignment {
	a := make(space.Assignment, len(sp.Decisions))
	for i, d := range sp.Decisions {
		best := 0
		for j := 1; j < len(d.Values); j++ {
			if d.Values[j] > d.Values[best] {
				best = j
			}
		}
		a[i] = best
	}
	return a
}

// meanAlive averages the entries of v whose alive flag is set — the
// per-step quality mean over the shards that completed the step.
func meanAlive(v []float64, alive []bool) float64 {
	var sum float64
	n := 0
	for i, x := range v {
		if alive[i] {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
