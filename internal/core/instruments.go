package core

import "h2onas/internal/metrics"

// SearchMetrics bundles the search-loop instruments, resolved once per
// run so the step loop never does a name lookup. All fields are nil-safe
// no-ops when resolved from the nop registry, so callers use them
// unconditionally. The same instrument names are shared by every search
// flavour (core.Engine behind core.Searcher and vitnet.Searcher, and
// core.AnalyticSearcher) so dashboards and snapshot diffs are uniform
// across domains.
type SearchMetrics struct {
	// Per-phase timing histograms (seconds).
	StepTime    *metrics.Histogram // one full search step
	ShardTime   *metrics.Histogram // one shard's forward/backward work
	SampleTime  *metrics.Histogram // candidate sampling + batch draw
	FanoutTime  *metrics.Histogram // the parallel shard fan-out barrier
	PolicyTime  *metrics.Histogram // cross-shard REINFORCE update
	WeightsTime *metrics.Histogram // gradient reduce + optimizer step

	// GradNorm is the pre-clip global L2 gradient norm of every weight
	// step (warmup included) — the exploding/vanishing-gradient signal.
	// The histogram's recent quantiles plus min/max surface both tails in
	// /metrics.
	GradNorm *metrics.Histogram

	// Quality/convergence trend gauges, refreshed every step.
	Reward          *metrics.Gauge
	Quality         *metrics.Gauge
	Entropy         *metrics.Gauge
	Confidence      *metrics.Gauge
	WarmupRemaining *metrics.Gauge

	// Volume counters.
	Steps       *metrics.Counter
	WarmupSteps *metrics.Counter
	Candidates  *metrics.Counter
	Examples    *metrics.Counter

	// Batch prefetch, under the datapipe_ names: synthesis latency per
	// batch, the coordinator's wait for a step's prefetched batches (one
	// observation per step), and batches handed to the search.
	BatchProduce    *metrics.Histogram
	BatchWait       *metrics.Histogram
	BatchesConsumed *metrics.Counter

	// Fault-tolerance telemetry: shard failures observed, retries
	// issued, shards dropped from a step's cross-shard reduce, and steps
	// skipped entirely because no shard survived.
	ShardFailures *metrics.Counter
	ShardRetries  *metrics.Counter
	ShardsDropped *metrics.Counter
	StepsSkipped  *metrics.Counter
	// StepsStopped counts cooperative stops via Config.Stop (one per
	// stopped run; named for the step boundary the stop landed on).
	StepsStopped *metrics.Counter

	// Checkpoint/restore telemetry. Save latency, size and corruption
	// counters live on the checkpoint manager under checkpoint_*; these
	// cover the search loop's side of the contract. Pending is the number
	// of snapshots handed to the async persister but not yet durable
	// (0 or 1 in steady state); Written counts successful async writes.
	CheckpointFailures *metrics.Counter
	CheckpointsWritten *metrics.Counter
	CheckpointPending  *metrics.Gauge
	ResumedAt          *metrics.Gauge
}

// NewSearchMetrics resolves the search instruments from r (nil/nop safe).
func NewSearchMetrics(r *metrics.Registry) SearchMetrics {
	return SearchMetrics{
		StepTime:    r.Histogram("search_step_seconds"),
		ShardTime:   r.Histogram("search_shard_step_seconds"),
		SampleTime:  r.Histogram("search_phase_sample_seconds"),
		FanoutTime:  r.Histogram("search_phase_fanout_seconds"),
		PolicyTime:  r.Histogram("search_phase_policy_update_seconds"),
		WeightsTime: r.Histogram("search_phase_weight_update_seconds"),

		GradNorm: r.Histogram("search_grad_norm"),

		Reward:          r.Gauge("search_mean_reward"),
		Quality:         r.Gauge("search_mean_quality"),
		Entropy:         r.Gauge("search_entropy"),
		Confidence:      r.Gauge("search_confidence"),
		WarmupRemaining: r.Gauge("search_warmup_remaining"),

		Steps:       r.Counter("search_steps_total"),
		WarmupSteps: r.Counter("search_warmup_steps_total"),
		Candidates:  r.Counter("search_candidates_total"),
		Examples:    r.Counter("search_examples_total"),

		BatchProduce:    r.Histogram("datapipe_produce_seconds"),
		BatchWait:       r.Histogram("datapipe_next_wait_seconds"),
		BatchesConsumed: r.Counter("datapipe_batches_consumed_total"),

		ShardFailures: r.Counter("search_shard_failures_total"),
		ShardRetries:  r.Counter("search_shard_retries_total"),
		ShardsDropped: r.Counter("search_shards_dropped_total"),
		StepsSkipped:  r.Counter("search_steps_skipped_total"),
		StepsStopped:  r.Counter("search_stops_total"),

		CheckpointFailures: r.Counter("search_checkpoint_failures_total"),
		CheckpointsWritten: r.Counter("search_checkpoints_written_total"),
		CheckpointPending:  r.Gauge("search_checkpoint_pending"),
		ResumedAt:          r.Gauge("search_resumed_at_step"),
	}
}

// RecordStep publishes one step's trend telemetry.
func (m SearchMetrics) RecordStep(info StepInfo) {
	m.Steps.Inc()
	m.Reward.Set(info.MeanReward)
	m.Quality.Set(info.MeanQ)
	m.Entropy.Set(info.Entropy)
	m.Confidence.Set(info.Confidence)
}
