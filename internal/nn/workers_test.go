package nn

import (
	"math"
	"testing"

	"h2onas/internal/tensor"
)

// The Workers budget on a layer is a performance knob only: every
// parallel path must produce bit-identical outputs, input gradients,
// parameter gradients and dirty-row worklists for any worker count. The
// shapes below are chosen to cross the tensor.WorkersFor grain so the
// parallel paths genuinely dispatch instead of falling back to serial.

func matBitEqual(t *testing.T, name string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v want %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

func TestMaskedDenseWorkersBitIdentical(t *testing.T) {
	const rows, maxIn, maxOut = 128, 96, 96
	x := tensor.RandN(rows, maxIn, 1, tensor.NewRNG(11))
	g := tensor.RandN(rows, maxOut, 1, tensor.NewRNG(12))
	// Exact zeros exercise the forward zero-skip.
	for i := 0; i < len(x.Data); i += 7 {
		x.Data[i] = 0
	}

	run := func(workers, in, out int) (*tensor.Matrix, *tensor.Matrix, *MaskedDense) {
		l := NewMaskedDense(maxIn, maxOut, tensor.NewRNG(13))
		l.Workers = workers
		l.SetActive(in, out)
		xin := tensor.New(rows, in)
		for r := 0; r < rows; r++ {
			copy(xin.Row(r), x.Row(r)[:in])
		}
		gin := tensor.New(rows, out)
		for r := 0; r < rows; r++ {
			copy(gin.Row(r), g.Row(r)[:out])
		}
		y := l.Forward(xin)
		dx := l.Backward(gin)
		return y, dx, l
	}

	for _, active := range [][2]int{{maxIn, maxOut}, {64, 80}} {
		in, out := active[0], active[1]
		wantY, wantDx, wantL := run(1, in, out)
		for _, workers := range []int{0, 2, 3, 5, 16} {
			y, dx, l := run(workers, in, out)
			matBitEqual(t, "MaskedDense.Forward", y, wantY)
			matBitEqual(t, "MaskedDense dX", dx, wantDx)
			matBitEqual(t, "MaskedDense dW", l.W.Grad, wantL.W.Grad)
			matBitEqual(t, "MaskedDense dB", l.B.Grad, wantL.B.Grad)
		}
	}
}

func TestLowRankDenseWorkersBitIdentical(t *testing.T) {
	const rows, maxIn, maxOut, maxRank = 96, 128, 128, 64
	x := tensor.RandN(rows, maxIn, 1, tensor.NewRNG(21))
	g := tensor.RandN(rows, maxOut, 1, tensor.NewRNG(22))
	// ReLU-style exact zeros: the backward pass has dedicated skip paths.
	for i := 0; i < len(x.Data); i += 5 {
		x.Data[i] = 0
	}

	run := func(workers int, relu bool) (*tensor.Matrix, *tensor.Matrix, *LowRankDense) {
		l := NewLowRankDense(maxIn, maxOut, maxRank, tensor.NewRNG(23))
		l.Workers = workers
		l.SetReLUInput(relu)
		y := l.Forward(x)
		dx := l.Backward(g)
		return y, dx, l
	}

	for _, relu := range []bool{false, true} {
		wantY, wantDx, wantL := run(1, relu)
		for _, workers := range []int{0, 2, 3, 5, 16} {
			y, dx, l := run(workers, relu)
			matBitEqual(t, "LowRankDense.Forward", y, wantY)
			matBitEqual(t, "LowRankDense dX", dx, wantDx)
			matBitEqual(t, "LowRankDense dU", l.U.Grad, wantL.U.Grad)
			matBitEqual(t, "LowRankDense dV", l.V.Grad, wantL.V.Grad)
			matBitEqual(t, "LowRankDense dB", l.B.Grad, wantL.B.Grad)
			// The row-sparse worklists must match exactly, including order:
			// the spine's row-granular passes walk them in first-write order.
			for name, pair := range map[string][2]*Param{
				"U": {l.U, wantL.U}, "V": {l.V, wantL.V},
			} {
				gotRows, wantRows := pair[0].DirtyRows, pair[1].DirtyRows
				if len(gotRows) != len(wantRows) {
					t.Fatalf("%s DirtyRows: %d entries want %d", name, len(gotRows), len(wantRows))
				}
				for i := range wantRows {
					if gotRows[i] != wantRows[i] {
						t.Fatalf("%s DirtyRows[%d] = %d want %d", name, i, gotRows[i], wantRows[i])
					}
				}
			}
		}
	}
}

func TestEmbeddingWorkersBitIdentical(t *testing.T) {
	const vocab, width, batch, bag = 500, 64, 128, 32
	rng := tensor.NewRNG(31)
	indices := make([][]int, batch)
	for i := range indices {
		n := bag
		if i%9 == 0 {
			n = 0 // empty bags must still produce zero rows
		}
		for j := 0; j < n; j++ {
			indices[i] = append(indices[i], int(rng.Uint64()%vocab))
		}
	}
	g := tensor.RandN(batch, width, 1, tensor.NewRNG(32))

	run := func(workers int) (*tensor.Matrix, *Embedding) {
		e := NewEmbedding(vocab, width, tensor.NewRNG(33))
		e.Workers = workers
		out := e.Forward(indices)
		e.Backward(g)
		return out, e
	}

	wantOut, wantE := run(1)
	for _, workers := range []int{0, 2, 3, 5, 16} {
		out, e := run(workers)
		matBitEqual(t, "Embedding.Forward", out, wantOut)
		matBitEqual(t, "Embedding dTable", e.Table.Grad, wantE.Table.Grad)
	}
}

// TestSpineSetWorkersBitIdentical pins that the spine's worker bound is
// also bits-neutral: reduce + clip/step under different worker counts
// produce identical weights.
func TestSpineSetWorkersBitIdentical(t *testing.T) {
	build := func() ([]*Param, [][]*Param) {
		rng := tensor.NewRNG(41)
		var master []*Param
		for i := 0; i < 9; i++ {
			master = append(master, NewParam("p", tensor.RandN(17, 13, 1, rng)))
		}
		var reps [][]*Param
		for r := 0; r < 3; r++ {
			var rep []*Param
			for i := 0; i < 9; i++ {
				p := NewParam("p", tensor.New(17, 13))
				p.Value = master[i].Value
				p.Grad = tensor.RandN(17, 13, 1, rng)
				p.Dirty = true
				rep = append(rep, p)
			}
			reps = append(reps, rep)
		}
		return master, reps
	}

	run := func(workers int) []*Param {
		master, reps := build()
		s := NewSpine(master, NewAdam(0.01), 10)
		s.SetWorkers(workers)
		s.Reduce(reps)
		s.ClipStep()
		return master
	}

	want := run(1)
	for _, workers := range []int{2, 3, 7} {
		got := run(workers)
		for i := range want {
			matBitEqual(t, "spine weights", got[i].Value, want[i].Value)
		}
	}
}

// The layer loops feed four-row tile kernels (axpyTile, fusedTile,
// dotTile, fusedColumn). The references below are the single-row loops
// the tiles replaced, one tensor.Axpy / Dot / FusedAxpyDot per row, in
// the original loop order. The tiled passes must match them bit for bit
// on every output, gradient, dX element and dirty-row worklist.

func refMaskedForward(l *MaskedDense, x *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(x.Rows, l.activeOut)
	for i := 0; i < x.Rows; i++ {
		orow := out.Row(i)
		copy(orow, l.B.Value.Data[:l.activeOut])
		for k := 0; k < l.activeIn; k++ {
			if xv := x.Row(i)[k]; xv != 0 {
				tensor.Axpy(orow, xv, l.W.Value.Row(k))
			}
		}
	}
	return out
}

func refMaskedBackward(l *MaskedDense, x, grad *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(x.Rows, l.activeIn)
	for k := 0; k < l.activeIn; k++ {
		for i := 0; i < x.Rows; i++ {
			dx.Row(i)[k] = tensor.FusedAxpyDot(grad.Row(i), l.W.Value.Row(k), l.W.Grad.Row(k), x.Row(i)[k])
		}
	}
	for i := 0; i < x.Rows; i++ {
		tensor.Axpy(l.B.Grad.Data[:l.activeOut], 1, grad.Row(i))
	}
	return dx
}

func refLowRankForward(l *LowRankDense, x *tensor.Matrix) (h, out *tensor.Matrix) {
	in, nOut, rank := l.Active()
	h = tensor.New(x.Rows, rank)
	for k := 0; k < in; k++ {
		for i := 0; i < x.Rows; i++ {
			if xv := x.Row(i)[k]; xv != 0 {
				tensor.Axpy(h.Row(i), xv, l.U.Value.Row(k)[:rank])
			}
		}
	}
	out = tensor.New(x.Rows, nOut)
	for i := 0; i < x.Rows; i++ {
		copy(out.Row(i), l.B.Value.Data[:nOut])
	}
	for k := 0; k < rank; k++ {
		for i := 0; i < x.Rows; i++ {
			if hv := h.Row(i)[k]; hv != 0 {
				tensor.Axpy(out.Row(i), hv, l.V.Value.Row(k)[:nOut])
			}
		}
	}
	return h, out
}

func refLowRankBackward(l *LowRankDense, x, h, grad *tensor.Matrix) *tensor.Matrix {
	in, nOut, rank := l.Active()
	dh := tensor.New(x.Rows, rank)
	for k := 0; k < rank; k++ {
		l.V.MarkRow(k)
	}
	for k := 0; k < rank; k++ {
		w, gw := l.V.Value.Row(k)[:nOut], l.V.Grad.Row(k)[:nOut]
		for i := 0; i < x.Rows; i++ {
			dh.Row(i)[k] = tensor.FusedAxpyDot(grad.Row(i), w, gw, h.Row(i)[k])
		}
	}
	for i := 0; i < x.Rows; i++ {
		tensor.Axpy(l.B.Grad.Data[:nOut], 1, grad.Row(i))
	}
	dx := tensor.New(x.Rows, in)
	for k := 0; k < in; k++ {
		l.U.MarkRow(k)
	}
	for k := 0; k < in; k++ {
		w, gw := l.U.Value.Row(k)[:rank], l.U.Grad.Row(k)[:rank]
		for i := 0; i < x.Rows; i++ {
			switch xv := x.Row(i)[k]; {
			case xv == 0 && l.reluInput:
				dx.Row(i)[k] = 0
			case xv == 0:
				dx.Row(i)[k] = tensor.Dot(dh.Row(i), w)
			default:
				dx.Row(i)[k] = tensor.FusedAxpyDot(dh.Row(i), w, gw, xv)
			}
		}
	}
	return dx
}

// tileInput returns a rows×cols input whose zero pattern gives the row
// tiles every shape: row i%5 == 0 is all zero (empty tiles), i%5 == 1
// has one to three nonzeros (a partial tile only), the rest are dense
// with a scattered zero every few columns (full tiles plus a partial
// remainder). Down a column the same pattern mixes zero and nonzero
// rows, which is what splits backURows into dead or dot-only rows and
// fused rows.
func tileInput(rows, cols int, rng *tensor.RNG) *tensor.Matrix {
	x := tensor.New(rows, cols)
	for i := 0; i < rows; i++ {
		row := x.Row(i)
		switch i % 5 {
		case 0:
		case 1:
			for n := 0; n < 1+i%3; n++ {
				row[rng.Intn(cols)] = rng.Norm()
			}
		default:
			for k := range row {
				if (k+i)%(2+i%4) != 0 {
					row[k] = rng.Norm()
				}
			}
		}
	}
	return x
}

func sameDirtyRows(t *testing.T, name string, got, want *Param) {
	t.Helper()
	if len(got.DirtyRows) != len(want.DirtyRows) {
		t.Fatalf("%s DirtyRows: %d entries want %d", name, len(got.DirtyRows), len(want.DirtyRows))
	}
	for i := range want.DirtyRows {
		if got.DirtyRows[i] != want.DirtyRows[i] {
			t.Fatalf("%s DirtyRows[%d] = %d want %d", name, i, got.DirtyRows[i], want.DirtyRows[i])
		}
	}
}

// TestRowTilesMatchSingleRowLoops runs the tiled layer passes against
// the single-row reference loops over batch sizes ≡ 0–3 mod 4 and row
// widths below, at and above the kernels' vector thresholds.
func TestRowTilesMatchSingleRowLoops(t *testing.T) {
	batches := []int{1, 2, 3, 8, 9, 10, 11, 20}
	t.Run("MaskedDense", func(t *testing.T) {
		// {maxIn, maxOut, activeIn, activeOut}: the active block is
		// narrower than the weight rows, as on the search path.
		for _, sh := range [][4]int{{24, 40, 19, 33}, {48, 8, 48, 1}, {40, 24, 37, 6}, {33, 96, 30, 80}} {
			for _, rows := range batches {
				rng := tensor.NewRNG(uint64(51 + rows))
				x := tileInput(rows, sh[2], rng)
				g := tensor.RandN(rows, sh[3], 1, rng)
				l := NewMaskedDense(sh[0], sh[1], tensor.NewRNG(52))
				ref := NewMaskedDense(sh[0], sh[1], tensor.NewRNG(52))
				l.SetActive(sh[2], sh[3])
				ref.SetActive(sh[2], sh[3])

				matBitEqual(t, "MaskedDense.Forward", l.Forward(x), refMaskedForward(ref, x))
				matBitEqual(t, "MaskedDense dX", l.Backward(g), refMaskedBackward(ref, x, g))
				matBitEqual(t, "MaskedDense dW", l.W.Grad, ref.W.Grad)
				matBitEqual(t, "MaskedDense dB", l.B.Grad, ref.B.Grad)
			}
		}
	})
	t.Run("LowRankDense", func(t *testing.T) {
		// {maxIn, maxOut, maxRank, in, out, rank}.
		for _, sh := range [][6]int{{16, 24, 16, 13, 21, 3}, {40, 40, 24, 37, 35, 17}, {64, 64, 32, 64, 48, 32}, {24, 8, 8, 20, 8, 8}} {
			for _, rows := range batches {
				for _, relu := range []bool{false, true} {
					rng := tensor.NewRNG(uint64(61 + rows))
					x := tileInput(rows, sh[3], rng)
					g := tensor.RandN(rows, sh[4], 1, rng)
					l := NewLowRankDense(sh[0], sh[1], sh[2], tensor.NewRNG(62))
					ref := NewLowRankDense(sh[0], sh[1], sh[2], tensor.NewRNG(62))
					for _, m := range []*LowRankDense{l, ref} {
						m.SetActive(sh[3], sh[4], sh[5])
						m.SetReLUInput(relu)
					}

					y := l.Forward(x)
					h, wantY := refLowRankForward(ref, x)
					matBitEqual(t, "LowRankDense hidden", l.hidden, h)
					matBitEqual(t, "LowRankDense.Forward", y, wantY)
					matBitEqual(t, "LowRankDense dX", l.Backward(g), refLowRankBackward(ref, x, h, g))
					matBitEqual(t, "LowRankDense dU", l.U.Grad, ref.U.Grad)
					matBitEqual(t, "LowRankDense dV", l.V.Grad, ref.V.Grad)
					matBitEqual(t, "LowRankDense dB", l.B.Grad, ref.B.Grad)
					sameDirtyRows(t, "U", l.U, ref.U)
					sameDirtyRows(t, "V", l.V, ref.V)
				}
			}
		}
	})
}

// TestSpineAdamRowMatchesScalarLoop steps the spine (whose apply runs
// tensor.AdamRow) against refClipStep's scalar loop, bit for bit, on
// rows wide enough for the vector path and with every tail residue,
// with clipping engaged and on row-sparse params.
func TestSpineAdamRowMatchesScalarLoop(t *testing.T) {
	rng := tensor.NewRNG(71)
	var params []*Param
	for i, cols := range []int{16, 17, 18, 19, 48, 64, 80, 160, 5} {
		rows := 3
		if i%2 == 0 {
			rows = 24
		}
		params = append(params, NewParam("p", tensor.RandN(rows, cols, 1, rng)))
		if i%2 == 0 {
			params[i].EnableRowTracking()
		}
	}
	ref := cloneParams(params)
	opt, refOpt := NewAdam(0.003), NewAdam(0.003)
	const maxNorm = 1
	spine := NewSpine(params, opt, maxNorm)
	for step := 0; step < 5; step++ {
		smearGrads(params, rng, 0.8, 3)
		refGrads := cloneParams(params)
		for i, p := range ref {
			copy(p.Grad.Data, refGrads[i].Grad.Data)
			p.Dirty = refGrads[i].Dirty
			p.ClearRows()
			for _, r := range refGrads[i].DirtyRows {
				p.MarkRow(int(r))
			}
		}
		spine.Reduce(nil)
		norm := spine.ClipStep()
		if norm <= maxNorm {
			t.Fatalf("step %d: norm %v does not engage clipping", step, norm)
		}
		if want := refClipStep(ref, refOpt, maxNorm); math.Float64bits(norm) != math.Float64bits(want) {
			t.Fatalf("step %d: norm %v want %v", step, norm, want)
		}
		for i := range params {
			matBitEqual(t, "value", params[i].Value, ref[i].Value)
			matBitEqual(t, "grad", params[i].Grad, ref[i].Grad)
			if m := opt.m[params[i]]; m != nil {
				matBitEqual(t, "m", m, refOpt.m[ref[i]])
				matBitEqual(t, "v", opt.v[params[i]], refOpt.v[ref[i]])
			}
		}
	}
}
