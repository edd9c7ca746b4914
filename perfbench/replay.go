package main

import (
	"runtime"
	"time"

	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/nn"
	"h2onas/internal/sched"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
	"h2onas/internal/vitnet"
)

// Layer replay. A live search gives the benchmark no handle on the layers
// inside a step, so traced runs replay them from outside at the
// workload's shapes: the model's Loss and Backward per shard on the
// candidates the traced search sampled (plus the maximal sandwich
// candidate on shard 0), the spine's Reduce and ClipStep on the gradients
// that leaves, each nn layer kind's Forward and Backward at the maximal
// candidate's shapes, and batch synthesis at the workload's batch size.

const (
	replaySteps = 24  // replayed search steps (model and spine)
	layerPasses = 40  // replayed passes per nn layer
	replayBatch = 200 // replayed batch syntheses
)

// layerTimes maps per-layer metric names to milliseconds.
type layerTimes map[string]float64

func msPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e6 / float64(n)
}

// candidatesFor returns the candidate shard i replays at a step: the
// maximal (sandwich) candidate on shard 0, the traced search's policy
// samples in turn on the others.
func candidatesFor(samples []space.Assignment, maxA space.Assignment, shards int) func(step, shard int) space.Assignment {
	return func(step, shard int) space.Assignment {
		if shard == 0 || len(samples) == 0 {
			return maxA
		}
		return samples[(step*shards+shard)%len(samples)]
	}
}

// replayModel replays replaySteps search steps: every shard's pass, then
// the spine's reduce and clip+Adam step over the replicas' gradients.
// pass runs one shard's Loss and Backward and returns how long each took.
// It returns the mean forward and backward time per shard pass and the
// mean reduce and clip+Adam time per step, in ms.
func replayModel(master []*nn.Param, replicas [][]*nn.Param, workers int, pass func(step, shard int) (fwd, bwd time.Duration)) (fwdMs, bwdMs, reduceMs, clipMs float64) {
	spine := nn.NewSpine(master, nn.NewAdam(0.003), 10)
	spine.SetWorkers(workers)
	var fwd, bwd, red, clip time.Duration
	for step := 0; step < replaySteps; step++ {
		for i := range replicas {
			f, b := pass(step, i)
			fwd += f
			bwd += b
		}
		t0 := time.Now()
		spine.Reduce(replicas)
		t1 := time.Now()
		spine.ClipStep()
		red += t1.Sub(t0)
		clip += time.Since(t1)
	}
	passes := replaySteps * len(replicas)
	return msPer(fwd, passes), msPer(bwd, passes), msPer(red, replaySteps), msPer(clip, replaySteps)
}

// batch is a use-once training batch (datapipe.Batch, datapipe.SeqBatch).
type batch interface {
	UseForArch()
	UseForWeights()
}

// replica is one shard's super-network (supernet or vitnet).
type replica[B batch] interface {
	Loss(a space.Assignment, b B) (float64, *tensor.Matrix)
	Backward(dLogits *tensor.Matrix)
}

// shardPass returns a replayModel pass: shard i's Loss and Backward on a
// fresh batch, in the order the search loop runs them.
func shardPass[B batch, R replica[B]](reps []R, next func() B, cand func(step, shard int) space.Assignment) func(step, i int) (time.Duration, time.Duration) {
	return func(step, i int) (time.Duration, time.Duration) {
		b := next()
		b.UseForArch()
		t0 := time.Now()
		_, dout := reps[i].Loss(cand(step, i), b)
		t1 := time.Now()
		b.UseForWeights()
		reps[i].Backward(dout)
		return t1.Sub(t0), time.Since(t1)
	}
}

// replayDLRMModel replays the DLRM super-network: one master, a replica
// and an arena per shard, with the search's core-budget split.
func replayDLRMModel(ds *space.DLRMSpace, sh searchShape, streamSeed uint64, samples []space.Assignment, out layerTimes) {
	cfg := ds.Config
	stream := datapipe.NewStream(datapipe.CTRConfig{NumTables: cfg.NumTables, Vocab: cfg.BaseVocab, NumDense: cfg.NumDense}, streamSeed)
	rng := tensor.NewRNG(streamSeed)
	budget := sched.New(0, sh.Shards)
	master := supernet.New(ds, rng.Split())
	master.SetWorkers(budget.Total())
	reps := make([]*supernet.Supernet, sh.Shards)
	params := make([][]*nn.Param, sh.Shards)
	for i := range reps {
		reps[i] = master.Replicate(rng.Split())
		reps[i].SetWorkers(budget.PerShard())
		a := tensor.NewArena()
		reps[i].SetArena(a)
		defer a.Drain()
		params[i] = reps[i].Params()
	}
	cand := candidatesFor(samples, core.MaxAssignment(ds.Space), sh.Shards)
	f, b, r, c := replayModel(master.Params(), params, budget.Total(),
		shardPass(reps, func() *datapipe.Batch { return stream.NextBatch(sh.Batch) }, cand))
	out["supernet.forward_ms"], out["supernet.backward_ms"] = f, b
	out["nn.spine.reduce_ms"], out["nn.spine.clip_adam_ms"] = r, c
}

// replayViTModel is replayDLRMModel for the transformer super-network.
func replayViTModel(vs *space.ViTSpace, sh searchShape, streamSeed uint64, samples []space.Assignment, out layerTimes) {
	stream := datapipe.NewSeqStream(datapipe.DefaultSeqConfig(), streamSeed)
	sc := stream.Config()
	rng := tensor.NewRNG(streamSeed)
	budget := sched.New(0, sh.Shards)
	master := vitnet.New(vs, sc.Vocab, sc.SeqLen, rng.Split())
	master.SetWorkers(budget.Total())
	reps := make([]*vitnet.Supernet, sh.Shards)
	params := make([][]*nn.Param, sh.Shards)
	for i := range reps {
		reps[i] = master.Replicate(rng.Split())
		reps[i].SetWorkers(budget.PerShard())
		a := tensor.NewArena()
		reps[i].SetArena(a)
		defer a.Drain()
		params[i] = reps[i].Params()
	}
	cand := candidatesFor(samples, core.MaxAssignment(vs.Space), sh.Shards)
	f, b, r, c := replayModel(master.Params(), params, budget.Total(),
		shardPass(reps, func() *datapipe.SeqBatch { return stream.NextBatch(sh.Batch) }, cand))
	out["vitnet.forward_ms"], out["vitnet.backward_ms"] = f, b
	out["nn.spine.reduce_ms"], out["nn.spine.clip_adam_ms"] = r, c
}

// layerCase is one nn layer at one of the model's shapes: fwd runs
// Forward on a fixed input, bwd runs Backward with a fixed gradient.
type layerCase struct {
	kind   string // metric infix: lowrank, embedding, masked_dense, attention
	fwd    func()
	bwd    func()
	params []*nn.Param
}

// replayLayers times every case's Forward and Backward and reports, per
// layer kind, the time one maximal-candidate pass spends in that kind.
func replayLayers(cases []layerCase, arena *tensor.Arena, out layerTimes) {
	fwd := map[string]time.Duration{}
	bwd := map[string]time.Duration{}
	for rep := 0; rep < layerPasses; rep++ {
		for _, c := range cases {
			arena.Release()
			t0 := time.Now()
			c.fwd()
			t1 := time.Now()
			c.bwd()
			fwd[c.kind] += t1.Sub(t0)
			bwd[c.kind] += time.Since(t1)
			for _, p := range c.params {
				p.ZeroGrad()
			}
		}
	}
	for kind := range fwd {
		out["nn."+kind+".fwd_ms"] = msPer(fwd[kind], layerPasses)
		out["nn."+kind+".bwd_ms"] = msPer(bwd[kind], layerPasses)
	}
}

// randInput returns an n×m input; relu zeroes the negative half, as a
// ReLU upstream would.
func randInput(n, m int, relu bool, rng *tensor.RNG) *tensor.Matrix {
	x := tensor.RandN(n, m, 1, rng)
	if relu {
		for i, v := range x.Data {
			if v < 0 {
				x.Data[i] = 0
			}
		}
	}
	return x
}

// dlrmLayerCases builds the DLRM super-network's layers at the maximal
// candidate's shapes for a per-shard batch, with the per-shard core
// budget.
func dlrmLayerCases(ds *space.DLRMSpace, batch, workers int, arena *tensor.Arena, seed uint64) []layerCase {
	rng := tensor.NewRNG(seed)
	ar := ds.Decode(core.MaxAssignment(ds.Space))
	cfg := ds.Config
	var cases []layerCase
	lowrank := func(in, w, rank int, relu bool) {
		l := nn.NewLowRankDense(in, w, min(in, w), rng.Split())
		l.SetReLUInput(relu)
		l.SetActive(in, w, min(rank, in, w))
		l.Arena, l.Workers = arena, workers
		x, g := randInput(batch, in, relu, rng), tensor.RandN(batch, w, 1, rng)
		cases = append(cases, layerCase{"lowrank", func() { l.Forward(x) }, func() { l.Backward(g) }, l.Params()})
	}
	in := cfg.NumDense
	maxBottom := 0
	for i, w := range ar.BottomWidths {
		lowrank(in, w, ar.BottomRanks[i], i > 0)
		in = w
		maxBottom = max(maxBottom, w)
	}
	maxEmb := 0
	for t := 0; t < cfg.NumTables; t++ {
		w, vocab := ar.EmbWidths[t], ar.EmbVocabs[t]
		maxEmb = max(maxEmb, w)
		if w <= 0 {
			continue
		}
		e := nn.NewEmbedding(vocab, w, rng.Split())
		e.Arena, e.Workers = arena, workers
		idx := make([][]int, batch)
		for i := range idx {
			idx[i] = []int{int(rng.Uint64() % uint64(vocab))}
		}
		g := tensor.RandN(batch, w, 1, rng)
		cases = append(cases, layerCase{"embedding", func() { e.Forward(idx) }, func() { e.Backward(g) }, e.Params()})
	}
	in = maxBottom + cfg.NumTables*maxEmb
	for i, w := range ar.TopWidths {
		lowrank(in, w, ar.TopRanks[i], i > 0)
		in = w
	}
	logit := nn.NewMaskedDense(in, 1, rng.Split())
	logit.Arena, logit.Workers = arena, workers
	x, g := randInput(batch, in, true, rng), tensor.RandN(batch, 1, 1, rng)
	cases = append(cases, layerCase{"masked_dense", func() { logit.Forward(x) }, func() { logit.Backward(g) }, logit.Params()})
	return cases
}

// vitLayerCases builds the transformer super-network's layers at the
// maximal candidate's shapes: the token embedding, then per layer the
// attention, the low-rank FFN up-projection and the masked FFN
// down-projection, then the head.
func vitLayerCases(vs *space.ViTSpace, batch, workers int, arena *tensor.Arena, seed uint64) []layerCase {
	rng := tensor.NewRNG(seed)
	sc := datapipe.DefaultSeqConfig()
	blk := vs.Decode(core.MaxAssignment(vs.Space)).TFMBlocks[0]
	h, seq := blk.Hidden, sc.SeqLen
	ratio := vs.Config.Blocks[0].FFNRatio
	rows := batch * seq
	var cases []layerCase

	tok := nn.NewEmbedding(sc.Vocab, h, rng.Split())
	tok.Arena, tok.Workers = arena, workers
	idx := make([][]int, rows)
	for i := range idx {
		idx[i] = []int{int(rng.Uint64() % uint64(sc.Vocab))}
	}
	gt := tensor.RandN(rows, h, 1, rng)
	cases = append(cases, layerCase{"embedding", func() { tok.Forward(idx) }, func() { tok.Backward(gt) }, tok.Params()})

	for l := 0; l < min(blk.Layers, vs.Config.Blocks[0].Layers+3); l++ {
		at := nn.NewMaskedAttention(h, rng.Split())
		at.HeadDim = 16
		at.SetArena(arena)
		at.SetWorkers(workers)
		at.SetActive(h, seq)
		xa, ga := randInput(rows, h, false, rng), tensor.RandN(rows, h, 1, rng)
		cases = append(cases, layerCase{"attention", func() { at.Forward(xa) }, func() { at.Backward(ga) }, at.Params()})

		inner := ratio * h
		up := nn.NewLowRankDense(h, inner, h, rng.Split())
		up.SetActive(h, inner, h)
		up.Arena, up.Workers = arena, workers
		xu, gu := randInput(rows, h, false, rng), tensor.RandN(rows, inner, 1, rng)
		cases = append(cases, layerCase{"lowrank", func() { up.Forward(xu) }, func() { up.Backward(gu) }, up.Params()})

		down := nn.NewMaskedDense(inner, h, rng.Split())
		down.SetActive(inner, h)
		down.Arena, down.Workers = arena, workers
		xd, gd := randInput(rows, inner, false, rng), tensor.RandN(rows, h, 1, rng)
		cases = append(cases, layerCase{"masked_dense", func() { down.Forward(xd) }, func() { down.Backward(gd) }, down.Params()})
	}
	head := nn.NewMaskedDense(h, 1, rng.Split())
	head.SetActive(h, 1)
	head.Arena, head.Workers = arena, workers
	xh, gh := randInput(batch, h, false, rng), tensor.RandN(batch, 1, 1, rng)
	cases = append(cases, layerCase{"masked_dense", func() { head.Forward(xh) }, func() { head.Backward(gh) }, head.Params()})
	return cases
}

// replayBatches times batch synthesis and counts its heap allocations.
func replayBatches(next func(), out layerTimes) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < replayBatch; i++ {
		next()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	out["datapipe.batch_ms"] = msPer(d, replayBatch)
	out["datapipe.allocs_per_batch"] = float64(after.Mallocs-before.Mallocs) / replayBatch
}
