package core

import (
	"fmt"
	"hash/fnv"
	"log"

	"h2onas/internal/checkpoint"
	"h2onas/internal/nn"
	"h2onas/internal/tensor"
)

// fingerprint derives the identity string stored in snapshots. Two runs
// with the same fingerprint walk the same trajectory, so resuming across
// a fingerprint mismatch would silently diverge and is refused. Steps is
// deliberately excluded: resuming a finished run with a larger Steps
// budget extends it deterministically. The engine Name leads it, so a
// snapshot never resumes under another front end. The transport
// membership is included (v2) because a resumed multi-node run is only
// bit-identical on the same fleet: a changed worker set shifts which
// shards drop when, so resume refuses it rather than diverging silently.
// The strategy identity is included (v3) — strategies consume the
// coordinator RNG and carry their own serialized state, so resuming a
// snapshot under a different strategy (or the same strategy differently
// configured, which changes its Name) is refused the same way.
func (e *Engine[M, B]) fingerprint(cfg *Config, strategy, membership string) string {
	h := fnv.New64a()
	for _, d := range e.Space.Decisions {
		fmt.Fprintf(h, "%s:%d|", d.Name, d.Arity())
	}
	fp := fmt.Sprintf("%s space=%s/%d/%016x shards=%d batch=%d warmup=%d seed=%d sandwich=%t strategy=%s transport=%s",
		e.Name, e.Space.Name, len(e.Space.Decisions), h.Sum64(),
		cfg.Shards, cfg.BatchSize, cfg.WarmupSteps, cfg.Seed, !cfg.DisableSandwich, strategy, membership)
	// Appended only when enabled so every pre-existing fingerprint (and
	// snapshot) stays valid; a float32-mode snapshot can only resume in
	// float32 mode and vice versa.
	if cfg.Float32Activations {
		fp += " acts=f32"
	}
	return fp
}

// snapshot captures the complete search state after nextStep-1 completed
// steps. Everything a step's outcome depends on is included, so a
// restored run is bit-identical to the uninterrupted one. The strategy
// serializes itself into an opaque StrategyState blob, tagged with its
// Name so resume can refuse a cross-strategy restore before decoding.
func (e *Engine[M, B]) snapshot(cfg *Config, membership string, nextStep int, batchesConsumed int64,
	rng *tensor.RNG, strat Strategy, master M,
	opt *nn.Adam, hist []StepInfo) *checkpoint.Snapshot {

	ad := opt.State(master.Params())
	history := make([]checkpoint.StepRecord, len(hist))
	for i, h := range hist {
		history[i] = checkpoint.StepRecord{
			Step:       int64(h.Step),
			MeanReward: h.MeanReward,
			MeanQ:      h.MeanQ,
			Entropy:    h.Entropy,
			Confidence: h.Confidence,
		}
	}
	return &checkpoint.Snapshot{
		Step:            int64(nextStep),
		BatchesConsumed: batchesConsumed,
		Fingerprint:     e.fingerprint(cfg, strat.Name(), membership),
		RNG:             rng.State(),
		Strategy:        strat.Name(),
		StrategyState:   strat.StateBytes(),
		Weights:         nn.WeightsState(master.Params()),
		AdamT:           ad.T,
		AdamM:           ad.M,
		AdamV:           ad.V,
		History:         history,
	}
}

// maybeCheckpoint captures a periodic snapshot after step completed and
// hands it to the async persister. The snapshot itself is taken
// synchronously — it is a deep copy, so the step loop is free to keep
// mutating the live state — while encoding and the file write happen off
// the step loop. A failed write is logged and counted by the persister
// but never kills the search.
func (e *Engine[M, B]) maybeCheckpoint(cfg *Config, membership string, ck *asyncCheckpointer,
	step int, batchesConsumed int64, rng *tensor.RNG, strat Strategy,
	master M, opt *nn.Adam, hist []StepInfo) {

	if ck == nil || cfg.CheckpointEvery <= 0 || (step+1)%cfg.CheckpointEvery != 0 {
		return
	}
	ck.enqueue(e.snapshot(cfg, membership, step+1, batchesConsumed, rng, strat, master, opt, hist))
}

// maybeRestore applies cfg.ResumeSnapshot (or, under cfg.Resume, the
// newest valid snapshot in the checkpoint directory) to the freshly
// constructed search state. It returns the step index to continue from
// and the number of batches the checkpointed run had consumed; (0, 0)
// means a fresh start.
func (e *Engine[M, B]) maybeRestore(cfg *Config, membership string, mgr *checkpoint.Manager,
	rng *tensor.RNG, strat Strategy, master M,
	opt *nn.Adam, res *Outcome) (startStep int, consumedBase int64, err error) {

	snap := cfg.ResumeSnapshot
	if snap == nil && cfg.Resume {
		if mgr == nil {
			return 0, 0, fmt.Errorf("core: Resume requires CheckpointDir")
		}
		loaded, path, err := mgr.LoadLatest()
		switch {
		case err == checkpoint.ErrNoCheckpoint:
			log.Printf("core: no valid checkpoint in %s; starting fresh", cfg.CheckpointDir)
			return 0, 0, nil
		case err != nil:
			return 0, 0, err
		default:
			log.Printf("core: resuming from %s (step %d)", path, loaded.Step)
			snap = loaded
		}
	}
	if snap == nil {
		return 0, 0, nil
	}

	if snap.Strategy != strat.Name() {
		return 0, 0, fmt.Errorf("core: checkpoint was written by strategy %q; this run uses %q — strategies carry incompatible state, pick the matching one or start fresh", snap.Strategy, strat.Name())
	}
	if want := e.fingerprint(cfg, strat.Name(), membership); snap.Fingerprint != want {
		return 0, 0, fmt.Errorf("core: checkpoint fingerprint %q does not match this run (%q) — it was written by a different configuration", snap.Fingerprint, want)
	}
	if snap.Step < 0 || snap.Step > int64(cfg.WarmupSteps+cfg.Steps) {
		return 0, 0, fmt.Errorf("core: checkpoint step %d outside this run's %d total steps", snap.Step, cfg.WarmupSteps+cfg.Steps)
	}
	if snap.BatchesConsumed < 0 {
		return 0, 0, fmt.Errorf("core: checkpoint has negative consumed-batch count %d", snap.BatchesConsumed)
	}
	if e.Stream.ExamplesServed() != 0 {
		return 0, 0, fmt.Errorf("core: resume requires an unused traffic stream (it is fast-forwarded to the checkpoint's position)")
	}

	// All validation passed; apply. The strategy validates its own blob
	// (shape checks live with the state they guard), so restore it first —
	// a rejected blob leaves the weights untouched too.
	if err := strat.RestoreState(snap.StrategyState); err != nil {
		return 0, 0, fmt.Errorf("core: restoring %s strategy state: %w", snap.Strategy, err)
	}
	if err := nn.LoadWeights(master.Params(), snap.Weights); err != nil {
		return 0, 0, fmt.Errorf("core: restoring super-network weights: %w", err)
	}
	if err := opt.LoadState(master.Params(), nn.AdamState{T: snap.AdamT, M: snap.AdamM, V: snap.AdamV}); err != nil {
		return 0, 0, fmt.Errorf("core: restoring optimizer state: %w", err)
	}
	rng.SetState(snap.RNG)
	e.Stream.Skip(snap.BatchesConsumed, cfg.BatchSize)
	res.History = make([]StepInfo, len(snap.History))
	for i, h := range snap.History {
		res.History[i] = StepInfo{
			Step:       int(h.Step),
			MeanReward: h.MeanReward,
			MeanQ:      h.MeanQ,
			Entropy:    h.Entropy,
			Confidence: h.Confidence,
		}
	}
	res.ResumedFrom = snap.Step
	return int(snap.Step), snap.BatchesConsumed, nil
}
