package nn

import (
	"fmt"
	"math"

	"h2onas/internal/tensor"
)

// Param is a trainable parameter tensor together with its accumulated
// gradient. Optimizers consume Params; layers own them.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix

	// Dirty is set by layer Backward methods when they accumulate into
	// Grad, and cleared by ZeroGrad/ZeroGrads. The contract is an
	// invariant — Dirty unset ⇒ Grad is exactly zero — that gradient
	// reducers, ZeroGrad, and the optimizers exploit to skip full-size
	// passes over untouched parameters (e.g. inactive embedding tables on
	// a shard, or dropped shards). Any code that writes Grad outside a
	// layer Backward must set Dirty itself or the skip paths will treat
	// the gradient as zero.
	Dirty bool

	// RowSparse refines the Dirty invariant to row granularity for
	// scatter-written params (embedding tables): when set, every write
	// to a Grad row must be paired with MarkRow, and the invariant
	// becomes "a row not in DirtyRows is exactly zero". The coordinator
	// spine exploits this to reduce, norm, update and clear only the
	// rows a step actually touched — on a weight-sharing search the
	// overwhelming majority of embedding rows are untouched each step,
	// and walking them is pure memory traffic.
	RowSparse bool
	// DirtyRows lists the rows written since the last ClearRows, in
	// first-write order, deduplicated. Only meaningful when RowSparse.
	DirtyRows []int32

	// rowMark/rowEpoch implement O(1) dedup and O(1) clear: a row is
	// recorded iff its stamp differs from the current epoch, and
	// ClearRows bumps the epoch instead of rewriting the stamps.
	rowMark  []int32
	rowEpoch int32
}

// NewParam allocates a parameter with a zeroed gradient of matching shape.
func NewParam(name string, value *tensor.Matrix) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Rows, value.Cols)}
}

// EnableRowTracking opts the param into row-granular dirty tracking
// (see RowSparse). The layer that owns the param must MarkRow every
// gradient row it writes from then on.
func (p *Param) EnableRowTracking() { p.RowSparse = true }

// MarkRow records row r as written since the last ClearRows. Duplicate
// marks are absorbed in O(1).
func (p *Param) MarkRow(r int) {
	if p.rowMark == nil {
		p.rowMark = make([]int32, p.Value.Rows)
		p.rowEpoch = 1
	}
	if p.rowMark[r] != p.rowEpoch {
		p.rowMark[r] = p.rowEpoch
		p.DirtyRows = append(p.DirtyRows, int32(r))
	}
}

// ClearRows empties the dirty-row worklist. The epoch bump invalidates
// every stamp without walking the mark array; the worklist keeps its
// capacity so steady-state steps allocate nothing.
func (p *Param) ClearRows() {
	p.DirtyRows = p.DirtyRows[:0]
	if p.rowMark != nil {
		p.rowEpoch++
	}
}

// ZeroGrad clears the accumulated gradient and the Dirty mark. A clean
// param's gradient is already zero by the Dirty invariant, so the memclr
// runs only for params that were actually written since the last clear —
// and, for row-sparse params, only over the rows actually written.
func (p *Param) ZeroGrad() {
	if !p.Dirty {
		return
	}
	if p.RowSparse && p.rowMark != nil {
		gd := p.Grad.Data
		cols := p.Grad.Cols
		for _, r := range p.DirtyRows {
			row := gd[int(r)*cols : (int(r)+1)*cols]
			for j := range row {
				row[j] = 0
			}
		}
		p.ClearRows()
	} else {
		p.Grad.Zero()
	}
	p.Dirty = false
}

// layerWorkers returns the fan-out for a layer loop of work multiply-adds
// under the layer's workers budget: 1 — the historical serial path — when
// the budget is absent or 1, otherwise the grain-scaled worker count
// (tensor.WorkersFor), so small shapes stay serial even under a large
// budget. The budget is a performance knob only: every parallel layer
// path partitions disjoint output state and preserves the serial
// per-element accumulation order, so the worker count never changes bits.
func layerWorkers(work, budget int) int {
	if budget <= 1 {
		return 1
	}
	return tensor.WorkersFor(work, budget)
}

// Layer is one differentiable stage. Forward caches what Backward needs;
// Backward accumulates parameter gradients (into Params' Grad) and returns
// the gradient with respect to the layer input.
type Layer interface {
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(grad *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}

// Dense is a fully connected layer: y = x·W + b, with x batch×in.
type Dense struct {
	W *Param // in×out
	B *Param // 1×out

	// Workers bounds the parallelism of the layer's matmul kernels under
	// the owning search's core budget (see internal/sched). 0 keeps the
	// kernels' default dispatch (the shared-pool width); any positive
	// value caps the fan-out. Bits never depend on the setting.
	Workers int

	input *tensor.Matrix
}

// NewDense returns a Glorot-initialized in→out dense layer.
func NewDense(in, out int, rng *tensor.RNG) *Dense {
	return &Dense{
		W: NewParam(fmt.Sprintf("dense_w_%dx%d", in, out), tensor.GlorotUniform(in, out, rng)),
		B: NewParam(fmt.Sprintf("dense_b_%d", out), tensor.New(1, out)),
	}
}

// Forward computes x·W + b.
func (l *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.input = x
	y := tensor.New(x.Rows, l.W.Value.Cols)
	tensor.MatMulIntoN(x, l.W.Value, y, l.Workers)
	tensor.AddRowVector(y, l.B.Value)
	return y
}

// Backward accumulates dW = xᵀ·grad, db = colsum(grad) and returns
// dX = grad·Wᵀ.
func (l *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if l.input == nil {
		panic("nn: Dense.Backward before Forward")
	}
	dw := tensor.New(l.W.Grad.Rows, l.W.Grad.Cols)
	tensor.MatMulTransAIntoN(l.input, grad, dw, l.Workers)
	tensor.AddInPlace(l.W.Grad, dw)
	tensor.AddInPlace(l.B.Grad, tensor.ColSums(grad))
	l.W.Dirty, l.B.Dirty = true, true
	dx := tensor.New(grad.Rows, l.W.Value.Rows)
	tensor.MatMulTransBIntoN(grad, l.W.Value, dx, l.Workers)
	return dx
}

// Params returns the weight and bias parameters.
func (l *Dense) Params() []*Param { return []*Param{l.W, l.B} }

// MaskedDense is the fine-grained weight-sharing dense layer of the DLRM
// super-network (Figure 3 ③): a single maxIn×maxOut weight matrix from
// which any activeIn×activeOut upper-left sub-matrix can be selected per
// search step. Inactive rows/columns neither contribute to the forward
// pass nor receive gradient, exactly as if they were masked to zero.
type MaskedDense struct {
	W *Param // maxIn×maxOut
	B *Param // 1×maxOut

	// Arena, when set, owns the layer's output and gradient intermediates;
	// they are valid until the arena's next Release. Nil falls back to
	// heap allocation.
	Arena *tensor.Arena

	// Workers bounds the parallelism of the forward and backward passes
	// under the owning search's core budget (see internal/sched). 0 or 1
	// — the default — keeps the historical serial loops. Float32 mode
	// (Forward32/Backward32) stays serial: it runs on shard replicas,
	// whose per-shard budget share is the narrow one.
	Workers int

	activeIn, activeOut int
	input               *tensor.Matrix
	input32             *tensor.Matrix32 // float32 activation mode (Forward32)

	// Hoisted parallel-dispatch state: the closures are built once and
	// read their operands from these fields, so steady-state parallel
	// passes allocate nothing.
	fwdOut       *tensor.Matrix
	fwdFn        func(lo, hi int)
	bwGrad, bwDx *tensor.Matrix
	bwFn         func(lo, hi int)
}

// NewMaskedDense returns a super-network dense layer sized for the largest
// candidate. Both active sizes start at the maximum.
func NewMaskedDense(maxIn, maxOut int, rng *tensor.RNG) *MaskedDense {
	return &MaskedDense{
		W:         NewParam(fmt.Sprintf("masked_w_%dx%d", maxIn, maxOut), tensor.GlorotUniform(maxIn, maxOut, rng)),
		B:         NewParam(fmt.Sprintf("masked_b_%d", maxOut), tensor.New(1, maxOut)),
		activeIn:  maxIn,
		activeOut: maxOut,
	}
}

// SetActive selects the sub-matrix used by subsequent Forward/Backward
// calls. It panics if the requested size exceeds the allocated maximum.
func (l *MaskedDense) SetActive(in, out int) {
	if in <= 0 || in > l.W.Value.Rows || out <= 0 || out > l.W.Value.Cols {
		panic(fmt.Sprintf("nn: MaskedDense.SetActive(%d,%d) outside 1..%dx1..%d", in, out, l.W.Value.Rows, l.W.Value.Cols))
	}
	l.activeIn, l.activeOut = in, out
}

// Active returns the currently selected (in, out) sub-matrix size.
func (l *MaskedDense) Active() (in, out int) { return l.activeIn, l.activeOut }

// Forward computes y = x·W[0:in,0:out] + b[0:out]. x must be batch×activeIn;
// the output is batch×activeOut.
func (l *MaskedDense) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.activeIn {
		panic(fmt.Sprintf("nn: MaskedDense input width %d != active in %d", x.Cols, l.activeIn))
	}
	l.input = x
	out := l.Arena.GetNoZero(x.Rows, l.activeOut)
	if w := layerWorkers(x.Rows*l.activeIn*l.activeOut, l.Workers); w > 1 {
		if l.fwdFn == nil {
			l.fwdFn = func(lo, hi int) { l.forwardRows(l.input, l.fwdOut, lo, hi) }
		}
		l.fwdOut = out
		tensor.ParallelFor(x.Rows, w, l.fwdFn)
		l.fwdOut = nil
	} else {
		l.forwardRows(x, out, 0, x.Rows)
	}
	return out
}

// forwardRows computes output rows [lo, hi). Batch rows are the parallel
// axis: each output row is written by exactly one worker and accumulates
// its k contributions in the same ascending order as the serial loop, so
// any row partition is bit-identical to the serial pass.
func (l *MaskedDense) forwardRows(x, out *tensor.Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		xrow := x.Row(i)
		orow := out.Row(i)
		copy(orow, l.B.Value.Data[:l.activeOut])
		for k := 0; k < l.activeIn; k++ {
			xv := xrow[k]
			if xv == 0 {
				continue
			}
			tensor.Axpy(orow, xv, l.W.Value.Row(k))
		}
	}
}

// Backward accumulates gradients for the active sub-matrix only and
// returns dX (batch×activeIn). The parallel axis is W rows, not batch
// rows: every batch row accumulates into the same W.Grad rows, so a
// batch partition would race, while worker k' owning W rows [lo, hi)
// touches only those gradient rows and the matching dX columns — and
// each W.Grad row still receives its batch contributions in ascending
// batch order, the serial order. The bias sum stays a serial pass.
func (l *MaskedDense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if l.input == nil {
		panic("nn: MaskedDense.Backward before Forward")
	}
	if grad.Cols != l.activeOut {
		panic(fmt.Sprintf("nn: MaskedDense grad width %d != active out %d", grad.Cols, l.activeOut))
	}
	x := l.input
	dx := l.Arena.GetNoZero(x.Rows, l.activeIn)
	if w := layerWorkers(x.Rows*l.activeIn*l.activeOut, l.Workers); w > 1 {
		if l.bwFn == nil {
			l.bwFn = func(lo, hi int) { l.backwardWRows(l.bwGrad, l.bwDx, lo, hi) }
		}
		l.bwGrad, l.bwDx = grad, dx
		tensor.ParallelFor(l.activeIn, w, l.bwFn)
		l.bwGrad, l.bwDx = nil, nil
	} else {
		l.backwardWRows(grad, dx, 0, l.activeIn)
	}
	gd, gcols := grad.Data, grad.Cols
	nOut := l.activeOut
	bg := l.B.Grad.Data[:nOut]
	for i := 0; i < x.Rows; i++ {
		tensor.Axpy(bg, 1, gd[i*gcols:i*gcols+nOut])
	}
	l.W.Dirty, l.B.Dirty = true, true
	return dx
}

// backwardWRows runs the fused dW accumulate + dX dot for W rows
// [lo, hi) across the whole batch: for each owned k, W.Grad.Row(k) takes
// its batch contributions in ascending batch order and dX column k gets
// one write per batch row — the same per-element order and writes as the
// historical batch-outer loop, just transposed, so bits never move.
func (l *MaskedDense) backwardWRows(grad, dx *tensor.Matrix, lo, hi int) {
	x := l.input
	for k := lo; k < hi; k++ {
		w := l.W.Value.Row(k)
		gw := l.W.Grad.Row(k)
		for i := 0; i < x.Rows; i++ {
			dx.Row(i)[k] = tensor.FusedAxpyDot(grad.Row(i), w, gw, x.Row(i)[k])
		}
	}
}

// Params returns the full super-network weight and bias parameters.
func (l *MaskedDense) Params() []*Param { return []*Param{l.W, l.B} }

// LowRankDense is the weight-shared low-rank factorized dense layer of the
// DLRM super-network (Figure 3 ④): y = (x·U[:, :r])·V[:r, :] + b where the
// rank r is searchable. The factors are sized for the maximum rank and
// shared across all rank candidates (fine-grained sharing: rank r reuses
// the first r columns/rows of the factors).
type LowRankDense struct {
	U *Param // maxIn×maxRank
	V *Param // maxRank×maxOut
	B *Param // 1×maxOut

	// Arena, when set, owns the layer's output and intermediates (incl.
	// the cached hidden activation, which must survive until Backward —
	// release the arena only between full forward/backward passes).
	Arena *tensor.Arena

	// Workers bounds the parallelism of the forward and backward passes
	// under the owning search's core budget (see internal/sched). 0 or 1
	// — the default — keeps the historical serial loops. Float32 mode
	// (Forward32/Backward32) stays serial: it runs on shard replicas,
	// whose per-shard budget share is the narrow one.
	Workers int

	activeIn, activeOut, activeRank int
	input, hidden                   *tensor.Matrix
	input32, hidden32               *tensor.Matrix32 // float32 activation mode (Forward32)
	reluInput                       bool

	// Hoisted parallel-dispatch state (see MaskedDense): closures built
	// once, operands published through fields, zero steady-state allocs.
	fwdOut                *tensor.Matrix
	fwdHiddenFn, fwdOutFn func(lo, hi int)
	bwGrad, bwDh, bwDx    *tensor.Matrix
	bwVFn, bwUFn          func(lo, hi int)
}

// SetReLUInput declares that the layer's input is the direct output of a
// ReLU whose backward pass consumes this layer's dX. Under that wiring an
// exactly-zero input element means the upstream mask discards dX at that
// position (ReLU backward selects, it does not multiply), so Backward may
// write zero there without computing the dot product. Only set this when
// the consumer of dX really is that ReLU's backward — with the flag off,
// Backward computes every dX element.
func (l *LowRankDense) SetReLUInput(on bool) { l.reluInput = on }

// NewLowRankDense returns a super-network low-rank layer sized for the
// largest candidate in every dimension.
//
// Initialization is calibrated so the composition U·V at full rank has the
// same elementwise variance as a Glorot-initialized maxIn×maxOut dense
// matrix: U is Glorot uniform; V is Gaussian with variance
// (maxIn+maxRank)/((maxIn+maxOut)·maxRank). Two independently-Glorot
// factors would compose to a map whose output variance shrinks with every
// layer, making deep factorized candidates untrainable.
func NewLowRankDense(maxIn, maxOut, maxRank int, rng *tensor.RNG) *LowRankDense {
	vStd := math.Sqrt(float64(maxIn+maxRank) / (float64(maxIn+maxOut) * float64(maxRank)))
	l := &LowRankDense{
		U:          NewParam(fmt.Sprintf("lowrank_u_%dx%d", maxIn, maxRank), tensor.GlorotUniform(maxIn, maxRank, rng)),
		V:          NewParam(fmt.Sprintf("lowrank_v_%dx%d", maxRank, maxOut), tensor.RandN(maxRank, maxOut, vStd, rng)),
		B:          NewParam(fmt.Sprintf("lowrank_b_%d", maxOut), tensor.New(1, maxOut)),
		activeIn:   maxIn,
		activeOut:  maxOut,
		activeRank: maxRank,
	}
	// A step writes gradient only into the active sub-block: U rows
	// [0,activeIn) and V rows [0,activeRank). Row tracking lets the
	// weight-update spine reduce, norm and step just those rows instead
	// of the factor's maximum extent.
	l.U.EnableRowTracking()
	l.V.EnableRowTracking()
	return l
}

// SetActive selects the active input width, output width and rank.
func (l *LowRankDense) SetActive(in, out, rank int) {
	if in <= 0 || in > l.U.Value.Rows || rank <= 0 || rank > l.U.Value.Cols || out <= 0 || out > l.V.Value.Cols {
		panic(fmt.Sprintf("nn: LowRankDense.SetActive(%d,%d,%d) out of range", in, out, rank))
	}
	l.activeIn, l.activeOut, l.activeRank = in, out, rank
}

// Active returns the currently selected (in, out, rank).
func (l *LowRankDense) Active() (in, out, rank int) {
	return l.activeIn, l.activeOut, l.activeRank
}

// Forward computes the two-stage product over the active sub-factors.
func (l *LowRankDense) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.activeIn {
		panic(fmt.Sprintf("nn: LowRankDense input width %d != active in %d", x.Cols, l.activeIn))
	}
	l.input = x
	h := l.Arena.Get(x.Rows, l.activeRank)
	l.hidden = h
	// Both products are blocked factor-row-outer, batch-row-inner so each
	// factor row stays cache-hot across the batch instead of the whole
	// factor being re-streamed per example (see Backward). Each output
	// element still accumulates its k contributions in ascending order,
	// and the zero-input skip is decided per (i,k) either way, so the
	// result is bit-identical to the batch-outer form. Batch rows are the
	// parallel axis: a worker owns a contiguous row range and runs the
	// same k-outer blocking over it, so every output element keeps the
	// serial accumulation order under any fan-out.
	rows := x.Rows
	if w := layerWorkers(rows*l.activeIn*l.activeRank, l.Workers); w > 1 {
		if l.fwdHiddenFn == nil {
			l.fwdHiddenFn = func(lo, hi int) { l.forwardHiddenRows(lo, hi) }
		}
		tensor.ParallelFor(rows, w, l.fwdHiddenFn)
	} else {
		l.forwardHiddenRows(0, rows)
	}
	out := l.Arena.GetNoZero(x.Rows, l.activeOut)
	l.fwdOut = out
	if w := layerWorkers(rows*l.activeRank*l.activeOut, l.Workers); w > 1 {
		if l.fwdOutFn == nil {
			l.fwdOutFn = func(lo, hi int) { l.forwardOutRows(lo, hi) }
		}
		tensor.ParallelFor(rows, w, l.fwdOutFn)
	} else {
		l.forwardOutRows(0, rows)
	}
	l.fwdOut = nil
	return out
}

// forwardHiddenRows computes hidden rows [lo, hi) of the first factor
// product h = x·U over the active sub-factors.
func (l *LowRankDense) forwardHiddenRows(lo, hi int) {
	x, h := l.input, l.hidden
	uv, ucols := l.U.Value.Data, l.U.Value.Cols
	xd, xcols := x.Data, x.Cols
	hd, hcols := h.Data, h.Cols
	nRank := l.activeRank
	for k := 0; k < l.activeIn; k++ {
		w := uv[k*ucols : k*ucols+nRank]
		for i := lo; i < hi; i++ {
			xv := xd[i*xcols+k]
			if xv == 0 {
				continue
			}
			tensor.Axpy(hd[i*hcols:i*hcols+nRank], xv, w)
		}
	}
}

// forwardOutRows computes output rows [lo, hi) of the second factor
// product out = h·V + b.
func (l *LowRankDense) forwardOutRows(lo, hi int) {
	h, out := l.hidden, l.fwdOut
	hd, hcols := h.Data, h.Cols
	od, ocols := out.Data, out.Cols
	nOut, nRank := l.activeOut, l.activeRank
	vv, vcols := l.V.Value.Data, l.V.Value.Cols
	bias := l.B.Value.Data[:nOut]
	for i := lo; i < hi; i++ {
		copy(od[i*ocols:i*ocols+nOut], bias)
	}
	for k := 0; k < nRank; k++ {
		w := vv[k*vcols : k*vcols+nOut]
		for i := lo; i < hi; i++ {
			hv := hd[i*hcols+k]
			if hv == 0 {
				continue
			}
			tensor.Axpy(od[i*ocols:i*ocols+nOut], hv, w)
		}
	}
}

// Backward accumulates gradients for the active sub-factors and returns dX.
func (l *LowRankDense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if l.input == nil || l.hidden == nil {
		panic("nn: LowRankDense.Backward before Forward")
	}
	if grad.Cols != l.activeOut {
		panic(fmt.Sprintf("nn: LowRankDense grad width %d != active out %d", grad.Cols, l.activeOut))
	}
	x := l.input
	rows := x.Rows
	dh := l.Arena.GetNoZero(rows, l.activeRank)
	// Both passes below are blocked factor-row-outer, batch-row-inner: the
	// old batch-outer order re-streamed both factor matrices (value and
	// gradient) from memory once per example, which made the backward pass
	// bandwidth-bound. With the factor row outermost, each value/gradient
	// row pair stays cache-hot across the whole batch and is streamed
	// exactly once. The inner kernel is tensor.FusedAxpyDot (the fused
	// dW-row update + dX dot), whose accumulation order is the fixed
	// reference order — and which the AVX2 backend vectorizes — so
	// results are bit-identical to the unblocked form on every backend.
	//
	// Factor rows are also the parallel axis: worker k-range [lo, hi)
	// owns gradient rows [lo, hi) of the factor and the matching dh/dx
	// columns, all disjoint, and each gradient row still takes its batch
	// contributions in ascending batch order. MarkRow mutates shared
	// dedup state, so rows are marked in a serial pre-pass — the same
	// ascending order the serial loop marks them in.
	for k := 0; k < l.activeRank; k++ {
		l.V.MarkRow(k)
	}
	l.bwGrad, l.bwDh = grad, dh
	if w := layerWorkers(rows*l.activeRank*l.activeOut, l.Workers); w > 1 {
		if l.bwVFn == nil {
			l.bwVFn = func(lo, hi int) { l.backVRows(lo, hi) }
		}
		tensor.ParallelFor(l.activeRank, w, l.bwVFn)
	} else {
		l.backVRows(0, l.activeRank)
	}
	gd, gcols := grad.Data, grad.Cols
	nOut := l.activeOut
	for i := 0; i < rows; i++ {
		tensor.Axpy(l.B.Grad.Data[:nOut], 1, gd[i*gcols:i*gcols+nOut])
	}
	dx := l.Arena.GetNoZero(rows, l.activeIn)
	l.bwDx = dx
	for k := 0; k < l.activeIn; k++ {
		l.U.MarkRow(k)
	}
	if w := layerWorkers(rows*l.activeIn*l.activeRank, l.Workers); w > 1 {
		if l.bwUFn == nil {
			l.bwUFn = func(lo, hi int) { l.backURows(lo, hi) }
		}
		tensor.ParallelFor(l.activeIn, w, l.bwUFn)
	} else {
		l.backURows(0, l.activeIn)
	}
	l.bwGrad, l.bwDh, l.bwDx = nil, nil, nil
	l.U.Dirty, l.V.Dirty, l.B.Dirty = true, true, true
	return dx
}

// backVRows runs the V-factor stage for factor rows [lo, hi): dV rows,
// and the matching dh columns, across the whole batch.
func (l *LowRankDense) backVRows(lo, hi int) {
	grad, h, dh := l.bwGrad, l.hidden, l.bwDh
	vv, vg := l.V.Value.Data, l.V.Grad.Data
	gd, hd, dhd := grad.Data, h.Data, dh.Data
	gcols, hcols, dhcols := grad.Cols, h.Cols, dh.Cols
	vcols := l.V.Value.Cols
	nOut := l.activeOut
	rows := grad.Rows
	for k := lo; k < hi; k++ {
		base := k * vcols
		w := vv[base : base+nOut]
		gw := vg[base : base+nOut]
		for i := 0; i < rows; i++ {
			grow := gd[i*gcols : i*gcols+nOut]
			hv := hd[i*hcols+k]
			dhd[i*dhcols+k] = tensor.FusedAxpyDot(grow, w, gw, hv)
		}
	}
}

// backURows runs the U-factor stage for factor rows [lo, hi): dU rows,
// and the matching dx columns, across the whole batch.
func (l *LowRankDense) backURows(lo, hi int) {
	x, dh, dx := l.input, l.bwDh, l.bwDx
	uv, ug := l.U.Value.Data, l.U.Grad.Data
	xd, dhd, dxd := x.Data, dh.Data, dx.Data
	xcols, dhcols, dxcols := x.Cols, dh.Cols, dx.Cols
	ucols := l.U.Value.Cols
	nRank := l.activeRank
	reluIn := l.reluInput
	rows := x.Rows
	for k := lo; k < hi; k++ {
		base := k * ucols
		w := uv[base : base+nRank]
		gw := ug[base : base+nRank]
		for i := 0; i < rows; i++ {
			xv := xd[i*xcols+k]
			if xv == 0 && reluIn {
				// The upstream ReLU mask discards dX here (see
				// SetReLUInput) and the dU contribution is exactly zero,
				// so the whole column-row pair is dead work.
				dxd[i*dxcols+k] = 0
				continue
			}
			dhrow := dhd[i*dhcols : i*dhcols+nRank]
			if xv == 0 {
				// Inputs arrive through ReLU, so exact zeros are common.
				// dU += dh·x adds exactly zero for this column; only the
				// dot product for dx remains, and skipping the gradient
				// row halves the traffic. tensor.Dot uses the same
				// accumulator pattern as the fused kernel's dot chain, so
				// dx is bit-identical.
				dxd[i*dxcols+k] = tensor.Dot(dhrow, w)
				continue
			}
			dxd[i*dxcols+k] = tensor.FusedAxpyDot(dhrow, w, gw, xv)
		}
	}
}

// Params returns both factors and the bias.
func (l *LowRankDense) Params() []*Param { return []*Param{l.U, l.V, l.B} }

// Sequential chains layers; the output of each feeds the next.
type Sequential struct {
	Layers []Layer
}

// NewSequential returns a container over layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs all layers in order.
func (s *Sequential) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs all layers' Backward in reverse order.
func (s *Sequential) Backward(grad *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns all layers' parameters in order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
