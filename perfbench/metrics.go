package main

// metricDef declares one metric as BENCHMARK.json lists it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the search sees. Every workload
// reports all of them; the step metrics cover warm steps only. See
// README.md for what each one measures on each workload.
var endToEnd = []metricDef{
	{"examples_per_s", "examples/s", "higher", 0.25},
	{"step_ms_p50", "ms", "lower", 0.25},
	{"step_ms_p90", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"search_s", "s", "lower", 0.25},
	{"searches_per_min", "1/min", "higher", 0.25},
	{"allocs_per_step", "count", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"success_ratio", "ratio", "higher", 0.01},
}

// perLayer are the traced run's metrics, named after the repository's
// packages. A layer a workload never calls reads 0 on it.
var perLayer = []metricDef{
	{Name: "datapipe.batch_ms", Unit: "ms", Better: "lower"},
	{Name: "datapipe.allocs_per_batch", Unit: "count", Better: "lower"},
	{Name: "datapipe.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "supernet.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "supernet.backward_ms", Unit: "ms", Better: "lower"},
	{Name: "vitnet.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "vitnet.backward_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.lowrank.fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.lowrank.bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.embedding.fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.embedding.bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.masked_dense.fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.masked_dense.bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.attention.fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.attention.bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.spine.reduce_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.spine.clip_adam_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sample_ms", Unit: "ms", Better: "lower"},
	{Name: "core.fanout_ms", Unit: "ms", Better: "lower"},
	{Name: "core.shard_ms", Unit: "ms", Better: "lower"},
	{Name: "core.policy_ms", Unit: "ms", Better: "lower"},
	{Name: "core.weights_ms", Unit: "ms", Better: "lower"},
	{Name: "core.straggler_share", Unit: "ratio", Better: "lower"},
	{Name: "strategy.sample_us", Unit: "us", Better: "lower"},
	{Name: "strategy.update_ms", Unit: "ms", Better: "lower"},
	{Name: "perf.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "perf.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "shardrpc.runstep_ms", Unit: "ms", Better: "lower"},
	{Name: "shardrpc.push_weights_ms", Unit: "ms", Better: "lower"},
	{Name: "shardrpc.worker_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "shardrpc.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "shardrpc.bytes_out_per_step", Unit: "bytes", Better: "lower"},
	{Name: "shardrpc.bytes_in_per_step", Unit: "bytes", Better: "lower"},
	{Name: "shardrpc.delta_sync_ratio", Unit: "ratio", Better: "higher"},
	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "bytes", Better: "lower"},
	{Name: "jobs.journal_fsync_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "jobs.run_s", Unit: "s", Better: "lower"},
	{Name: "proc.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "proc.cpu_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "proc.gc_pause_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "proc.gc_cycles_per_step", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.residual_share", Unit: "ratio", Better: "lower"},
}

func known(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// zeroLayers sets every per-layer metric to 0, the reading of a layer the
// workload never calls; the workload then overwrites what it measures.
func zeroLayers(r *report) {
	for _, d := range perLayer {
		r.set(d.Name, 0, d.Unit)
	}
}
