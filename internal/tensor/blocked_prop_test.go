package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The naive references here pin bit-exact equality, not tolerance: the
// textbook triple loop (naiveMatMul in tensor_test.go) accumulates each
// output element as a single ascending-k chain, exactly the per-element
// order the production kernels promise. Zero a-elements contribute +0
// just like the kernels' av == 0 skip (x + 0 == x for every finite x,
// and round-to-nearest never yields a -0 running sum from these inputs).

func naiveMatMulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Rows; k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// naiveMatMulTransB mirrors dotGeneric's four-accumulator contract: a
// plain running sum would round differently, and MatMulTransB's contract
// is the dot kernel, not a single chain.
func naiveMatMulTransB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s0, s1, s2, s3 float64
			k := 0
			for ; k+3 < a.Cols; k += 4 {
				s0 += a.At(i, k) * b.At(j, k)
				s1 += a.At(i, k+1) * b.At(j, k+1)
				s2 += a.At(i, k+2) * b.At(j, k+2)
				s3 += a.At(i, k+3) * b.At(j, k+3)
			}
			for ; k < a.Cols; k++ {
				s0 += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s0+s1+s2+s3)
		}
	}
	return out
}

func fillRand(m *Matrix, rng *rand.Rand, sparsity float64) {
	for i := range m.Data {
		if rng.Float64() < sparsity {
			m.Data[i] = 0 // exercise the av == 0 skip
		} else {
			m.Data[i] = rng.NormFloat64()
		}
	}
}

func requireBitEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d: %x != %x (%v vs %v)", name,
				i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]),
				got.Data[i], want.Data[i])
		}
	}
}

// TestBlockedKernelsBitIdentical pins the central numeric claim of the
// blocked kernels: for every shape — below or above the blocking
// threshold, straddling block boundaries, degenerate 1×N / N×1, rows of
// zeros triggering the av == 0 skip — the production kernels produce
// bit-for-bit the naive reference result. Shapes above blockMinElems take
// the blocked code path (forced single-threaded range calls cover the
// worker-sharded split points too). It runs once per inner-kernel
// backend the host has.
func TestBlockedKernelsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("large shapes are slow in -short mode")
	}
	forEachBackend(t, checkBlockedKernelsBitIdentical)
}

func checkBlockedKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type shape struct{ m, k, n int }
	shapes := []shape{
		{1, 1, 1},
		{1, 17, 1},
		{1, 64, 512}, // 1×N row vector
		{64, 1, 64},  // inner dim 1
		{5, 3, 7},
		{16, 64, 160},                 // DLRM step shapes
		{64, 160, 64},                 //
		{63, 65, 1023},                // straddles blockK=64 and blockJ=1024
		{65, 127, 1025},               //
		{8, 300, 600},                 // b = 180k elems > blockMinElems ⇒ blocked
		{4, blockK + 1, blockJ*2 + 3}, // multiple j panels, ragged k panel
	}
	for _, s := range shapes {
		a := New(s.m, s.k)
		b := New(s.k, s.n)
		fillRand(a, rng, 0.2)
		fillRand(b, rng, 0.05)
		// One all-zero row of a (when it exists) exercises a full run of
		// av == 0 skips.
		if s.m > 1 {
			zr := a.Row(s.m / 2)
			for j := range zr {
				zr[j] = 0
			}
		}

		out := New(s.m, s.n)
		MatMulInto(a, b, out)
		requireBitEqual(t, "MatMulInto", out, naiveMatMul(a, b))

		// a is k×m for the transA form: aᵀ·b is m×n.
		at := New(s.k, s.m)
		fillRand(at, rng, 0.2)
		outTA := New(s.m, s.n)
		MatMulTransAInto(at, b, outTA)
		requireBitEqual(t, "MatMulTransAInto", outTA, naiveMatMulTransA(at, b))

		// b is n×k for the transB form: a·bᵀ is m×n.
		bt := New(s.n, s.k)
		fillRand(bt, rng, 0.05)
		outTB := New(s.m, s.n)
		MatMulTransBInto(a, bt, outTB)
		requireBitEqual(t, "MatMulTransBInto", outTB, naiveMatMulTransB(a, bt))
	}
}

// TestBlockedRangeSplitsBitIdentical drives the row-range kernels directly
// at arbitrary split points (as the worker pool does) on a
// blocking-threshold shape, checking each split reproduces the full-range
// result bit-for-bit.
func TestBlockedRangeSplitsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// n is sized so even the full-range transACols panel (m·n ≈ 196k elems)
	// crosses blockMinElems and takes the blocked path.
	const m, k, n = 24, 200, 8192
	a := New(m, k)
	b := New(k, n)
	fillRand(a, rng, 0.1)
	fillRand(b, rng, 0)

	want := New(m, n)
	matmulRows(a, b, want, 0, m)
	for _, split := range []int{1, 7, m - 1} {
		got := New(m, n)
		matmulRows(a, b, got, 0, split)
		matmulRows(a, b, got, split, m)
		requireBitEqual(t, "matmulRows split", got, want)
	}

	at := New(k, m)
	fillRand(at, rng, 0.1)
	wantTA := New(m, n)
	transACols(at, b, wantTA, 0, m)
	for _, split := range []int{1, 7, m - 1} {
		got := New(m, n)
		transACols(at, b, got, 0, split)
		transACols(at, b, got, split, m)
		requireBitEqual(t, "transACols split", got, wantTA)
	}

	bt := New(n, k)
	fillRand(bt, rng, 0)
	wantTB := New(m, n)
	transBRows(a, bt, wantTB, 0, m)
	for _, split := range []int{1, 7, m - 1} {
		got := New(m, n)
		transBRows(a, bt, got, 0, split)
		transBRows(a, bt, got, split, m)
		requireBitEqual(t, "transBRows split", got, wantTB)
	}
}
