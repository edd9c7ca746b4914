package tensor

// The scalar reference kernels. These define the numeric contract of the
// whole system: every backend — the AVX2 kernels, the scalar fallback,
// the parallel matmul shards — must produce results bit-identical to these
// loops, because the committed golden trajectories, checkpoint resume and
// multi-node determinism all pin the exact rounding sequence.
//
// The contract, per kernel:
//
//   - axpy: dst[j] += s·src[j]. Each element receives exactly one
//     round(mul) then one round(add); elements are independent, so any
//     vectorization across j is bit-identical by construction.
//   - dot: four parallel accumulators s0..s3 where s_l sums the elements
//     with index ≡ l (mod 4) in ascending order, the tail (indices ≥
//     len&^3) folds into s0 in ascending order, and the final reduction
//     is ((s0+s1)+s2)+s3. A vector backend must map lane l to s_l.
//   - fused axpy+dot: per element j, s_{j mod 4} += g[j]·w[j] and
//     gw[j] += g[j]·x. The two chains are independent per element, so a
//     backend may reorder between them but not within either.
//
// The generic bodies live here untagged so every target links the same
// reference code: amd64 falls back to it below its vector-length
// threshold or on CPUs without AVX2, other targets always run it.

// axpyGeneric computes dst[j] += s*src[j], 4 elements per iteration.
// Each dst element still receives exactly the same sequence of adds as
// the scalar loop, so results are bit-identical.
func axpyGeneric(dst []float64, s float64, src []float64) {
	n := len(dst)
	src = src[:n] // bounds-check elimination hint
	j := 0
	for ; j+3 < n; j += 4 {
		dst[j] += s * src[j]
		dst[j+1] += s * src[j+1]
		dst[j+2] += s * src[j+2]
		dst[j+3] += s * src[j+3]
	}
	for ; j < n; j++ {
		dst[j] += s * src[j]
	}
}

// dotGeneric returns Σ a[k]·b[k] using four parallel accumulators. The
// accumulation order is fixed (deterministic) but differs from a single
// running sum.
func dotGeneric(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(a)
	b = b[:n] // bounds-check elimination hint
	k := 0
	for ; k+3 < n; k += 4 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
		s2 += a[k+2] * b[k+2]
		s3 += a[k+3] * b[k+3]
	}
	for ; k < n; k++ {
		s0 += a[k] * b[k]
	}
	return s0 + s1 + s2 + s3
}

// fusedGeneric is the shared inner kernel of the masked/low-rank backward
// passes: it accumulates gw[j] += g[j]·x and returns Σ g[j]·w[j], 4-wide
// unrolled. The gradient accumulation order per element is unchanged from
// the scalar loop; the returned dot uses four parallel accumulators in a
// fixed (deterministic) order.
func fusedGeneric(g, w, gw []float64, x float64) float64 {
	n := len(g)
	w = w[:n]
	gw = gw[:n]
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+3 < n; j += 4 {
		g0, g1, g2, g3 := g[j], g[j+1], g[j+2], g[j+3]
		s0 += g0 * w[j]
		gw[j] += g0 * x
		s1 += g1 * w[j+1]
		gw[j+1] += g1 * x
		s2 += g2 * w[j+2]
		gw[j+2] += g2 * x
		s3 += g3 * w[j+3]
		gw[j+3] += g3 * x
	}
	for ; j < n; j++ {
		gv := g[j]
		s0 += gv * w[j]
		gw[j] += gv * x
	}
	return s0 + s1 + s2 + s3
}

// Axpy computes dst[j] += s·src[j] with per-element order preserved. It is
// the building block the hand-written layer kernels in internal/nn share
// with the matmul kernels here.
func Axpy(dst []float64, s float64, src []float64) { axpyUnrolled(dst, s, src) }

// Dot returns Σ a[k]·b[k] with four parallel accumulators (deterministic
// fixed order; see dotGeneric).
func Dot(a, b []float64) float64 { return dotUnrolled(a, b) }

// FusedAxpyDot accumulates gw[j] += g[j]·x and returns Σ g[j]·w[j] in one
// traversal — the backward-pass workhorse of the masked and low-rank
// layers (dW row update fused with the dX dot). Accumulation order is the
// fixed reference order documented on fusedGeneric.
func FusedAxpyDot(g, w, gw []float64, x float64) float64 { return fusedAxpyDot(g, w, gw, x) }
