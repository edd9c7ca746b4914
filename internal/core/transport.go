package core

import (
	"time"

	"h2onas/internal/checkpoint"
	"h2onas/internal/datapipe"
	"h2onas/internal/metrics"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
)

// ShardOutcome reports one shard's completion (or loss) of a search step.
type ShardOutcome struct {
	// Alive is true when the shard completed the step and its replica's
	// gradients are valid for the cross-shard reduce. A false outcome
	// means the shard was dropped from this step: its gradients are
	// untouched (exactly zero by the Dirty invariant) and it contributes
	// nothing to the reduce or the policy update.
	Alive bool
	// Quality is the shard's one-shot quality signal Q(α) = 1 − loss/ln2.
	// Meaningful only when Alive.
	Quality float64
}

// Binding hands a transport the run state it executes steps against.
// The engine builds it once, after constructing the master super-network
// and its per-shard replicas and before restoring any checkpoint.
type Binding[M any] struct {
	// Master is the coordinator's super-network: the source of truth for
	// shared weights. Remote transports read it to synchronize workers;
	// the in-process transport shares its storage through the replicas.
	Master M
	// Replicas are the per-shard gradient sinks, one per shard, in shard
	// order. The in-process transport runs Forward/Backward on them
	// directly; a remote transport copies collected gradients into them
	// so the spine reduce consumes identical state either way.
	Replicas []M
	// Metrics is the run's registry (nil-safe); transports resolve their
	// own instruments from it.
	Metrics *metrics.Registry
}

// Transport is the seam between the engine's step loop and wherever the
// per-shard forward/backward work executes: the in-process worker pool
// (the default, for any super-network) or a fleet of remote workers over
// TCP (internal/shardrpc, DLRM only).
//
// The determinism contract makes multi-node runs bit-identical to
// single-node: candidate sampling and batch draws happen on the
// coordinator (so the RNG stream and traffic stream are consumed
// identically under every transport), and a shard given the same weights,
// assignment and batch must produce bit-identical quality and gradients,
// delivered into Replicas[i] with identical Dirty/row-order marks. The
// spine's fixed-order reduce then makes the trajectory a pure function of
// (seed, config, per-step surviving shard set).
//
// A transport degrades rather than fails: a straggling or dead shard is
// reported !Alive for the step and the coordinator reduces over the
// survivors, consistent with Config.ShardFault semantics.
type Transport[M, B any] interface {
	// Bind attaches the transport to a run. It is called once per search,
	// before the first RunStep; remote transports perform their worker
	// handshakes here and must reject a shard count that does not match
	// their fleet.
	Bind(b Binding[M]) error
	// RunStep executes step on every shard — stage 1 (forward, quality)
	// and stage 3's per-shard half (backward, gradient accumulation) —
	// and fills outcomes[i] for shard i. It blocks until every shard
	// completed or was dropped. assignments[i] and batches[i] are valid
	// for the duration of the call only.
	RunStep(step int, assignments []space.Assignment, batches []B, outcomes []ShardOutcome)
	// WantsWeightSync reports whether the transport needs PushWeights
	// after each weight update. The in-process transport shares weight
	// storage and returns false, which also keeps the spine from
	// recording touched params.
	WantsWeightSync() bool
	// PushWeights publishes the master's post-step weight state to the
	// shards; touched lists exactly the params (and rows) the step
	// modified, in param-index order. Called after every weight update
	// when WantsWeightSync; implementations may defer the actual network
	// send to the next RunStep.
	PushWeights(touched []nn.ParamTouch) error
	// Membership identifies the fleet for the checkpoint fingerprint:
	// resuming a run under a different transport or a silently changed
	// worker set is refused. Valid after Bind.
	Membership() string
	// Close releases the transport's resources. The engine closes only
	// the in-process transport it creates itself; a provided transport
	// is closed by its owner.
	Close() error
}

// ShardTransport is the DLRM transport Config.Transport carries; shardrpc
// implements it.
type ShardTransport = Transport[*supernet.Supernet, *datapipe.Batch]

// ShardBinding is the binding a ShardTransport receives.
type ShardBinding = Binding[*supernet.Supernet]

// inprocOptions carries the Config knobs the in-process transport honors.
type inprocOptions struct {
	fault   func(step, shard, attempt int) error
	retries int
	backoff time.Duration
	clock   checkpoint.Clock
}

// inprocTransport is the default execution mode behind the seam: one
// long-lived worker goroutine per shard, fed step numbers over single-slot
// channels. Replicas share weight storage with the master, so there is no
// weight synchronization at all. Spawning cfg.Shards goroutines per step
// would cost a stack setup and scheduler churn every step; instead each
// shard keeps one worker for the whole run. The coordinator's send on
// work[i] happens-before the worker's read of that step's
// assignment/batch, and the worker's send on stepDone happens-before the
// coordinator's read of outcomes — the same memory-ordering guarantees a
// per-step WaitGroup would provide.
type inprocTransport[M Model[B], B Batch] struct {
	opts inprocOptions
	sm   SearchMetrics

	replicas []M
	work     []chan int
	stepDone chan struct{}
	closed   bool

	// Per-step dispatch state: published before the work sends, read by
	// the workers, settled before RunStep returns.
	assignments []space.Assignment
	batches     []B
	outcomes    []ShardOutcome
}

// newInprocTransport builds the default transport from the search config.
func newInprocTransport[M Model[B], B Batch](cfg *Config, sm SearchMetrics) *inprocTransport[M, B] {
	o := inprocOptions{
		fault:   cfg.ShardFault,
		retries: cfg.ShardRetries,
		backoff: cfg.ShardBackoff,
		clock:   cfg.Clock,
	}
	if o.retries == 0 {
		o.retries = 2
	}
	if o.backoff <= 0 {
		o.backoff = time.Millisecond
	}
	if o.clock == nil {
		o.clock = checkpoint.RealClock()
	}
	return &inprocTransport[M, B]{opts: o, sm: sm}
}

func (t *inprocTransport[M, B]) Bind(b Binding[M]) error {
	t.replicas = b.Replicas
	t.work = make([]chan int, len(b.Replicas))
	t.stepDone = make(chan struct{}, len(b.Replicas))
	for i := range t.work {
		t.work[i] = make(chan int, 1)
		go t.worker(i)
	}
	return nil
}

// worker is shard i's long-lived execution loop: retry the shard-fault
// seam with bounded exponential backoff, then run stage 1 (forward,
// quality) and stage 3's per-shard half (backward) on the shard's replica.
func (t *inprocTransport[M, B]) worker(i int) {
	for step := range t.work[i] {
		shardSpan := t.sm.ShardTime.Start()
		var out ShardOutcome
		for attempt := 0; ; attempt++ {
			if t.opts.fault != nil {
				if err := t.opts.fault(step, i, attempt); err != nil {
					t.sm.ShardFailures.Inc()
					if attempt >= t.opts.retries {
						// Permanent for this step: drop the shard from the
						// cross-shard reduce.
						t.sm.ShardsDropped.Inc()
						break
					}
					t.sm.ShardRetries.Inc()
					t.opts.clock.Sleep(t.opts.backoff << attempt)
					continue
				}
			}
			b := t.batches[i]
			// Stage 1: fresh data is consumed by architecture learning
			// first…
			b.UseForArch()
			loss, dout := t.replicas[i].Loss(t.assignments[i], b)
			out.Quality = QualityFromLoss(loss)
			// Stage 3: …and only then by weight training, on the same
			// batch and candidate.
			b.UseForWeights()
			t.replicas[i].Backward(dout)
			out.Alive = true
			break
		}
		t.outcomes[i] = out
		shardSpan.End()
		t.stepDone <- struct{}{}
	}
}

func (t *inprocTransport[M, B]) RunStep(step int, assignments []space.Assignment, batches []B, outcomes []ShardOutcome) {
	t.assignments, t.batches, t.outcomes = assignments, batches, outcomes
	for i := range t.work {
		t.work[i] <- step
	}
	for range t.work {
		<-t.stepDone
	}
	t.assignments, t.batches, t.outcomes = nil, nil, nil
}

func (t *inprocTransport[M, B]) WantsWeightSync() bool { return false }

// PushWeights is a no-op: replicas share the master's weight storage.
func (t *inprocTransport[M, B]) PushWeights([]nn.ParamTouch) error { return nil }

func (t *inprocTransport[M, B]) Membership() string { return "inproc" }

func (t *inprocTransport[M, B]) Close() error {
	if !t.closed {
		t.closed = true
		for _, w := range t.work {
			close(w)
		}
	}
	return nil
}
