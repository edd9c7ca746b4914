package tensor

import "math"

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
//   - axpy4: four (s_t, src_t) pairs into one dst. Per element,
//     dst[j] receives round(mul)+round(add) for t = 0, 1, 2, 3 in that
//     order: exactly four axpy calls in tile order.
//   - dot4: four rows a_t against one shared b, each with its own four
//     accumulators in the dot order above: exactly four dot calls.
//   - fused axpy+dot, four rows: g_t against one shared w/gw with its own
//     x_t. Each row's dot keeps its own accumulators, and gw[j] receives
//     the four rows' rounded products in ascending t: exactly four fused
//     calls in tile order.
//   - adam row: per element, the clipped Adam update in the operation
//     order of adamGeneric, each operation rounded once (no FMA, no
//     reciprocal in place of a divide, a correctly rounded sqrt).
//
// The first operand of each kernel drives its length n (dst, a_0, g_0,
// g); every other operand may be longer, and only its first n elements
// are read or written.
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

// axpy4Generic runs the four axpys of one tile, dst[j] taking its four
// rounded products in tile order: the same adds as four axpyGeneric
// calls, with dst[j] loaded and stored once.
func axpy4Generic(dst []float64, s *[4]float64, src *[4][]float64) {
	n := len(dst)
	a, b, c, d := src[0][:n], src[1][:n], src[2][:n], src[3][:n]
	for j := range dst {
		v := dst[j] + s[0]*a[j]
		v += s[1] * b[j]
		v += s[2] * c[j]
		dst[j] = v + s[3]*d[j]
	}
}

// dot4Generic returns the four dots a_t·b; a_0 sets the length.
func dot4Generic(a *[4][]float64, b []float64) (r [4]float64) {
	n := len(a[0])
	for t := range a {
		r[t] = dotGeneric(a[t][:n], b)
	}
	return r
}

// fused4Generic runs the four fused calls of one tile: row t's dot keeps
// its own accumulators s[t][l] in fusedGeneric's order, and gw[j] takes
// the four rows' rounded products in tile order, loaded and stored once.
// g_0 sets the length.
func fused4Generic(g *[4][]float64, w, gw []float64, x *[4]float64) (r [4]float64) {
	n := len(g[0])
	w, gw = w[:n], gw[:n]
	g0, g1, g2, g3 := g[0], g[1][:n], g[2][:n], g[3][:n]
	var s [4][4]float64
	n4 := n &^ 3
	for j := range w {
		l := j & 3
		if j >= n4 {
			l = 0 // the tail folds into s0
		}
		wj := w[j]
		s[0][l] += g0[j] * wj
		s[1][l] += g1[j] * wj
		s[2][l] += g2[j] * wj
		s[3][l] += g3[j] * wj
		v := gw[j] + g0[j]*x[0]
		v += g1[j] * x[1]
		v += g2[j] * x[2]
		gw[j] = v + g3[j]*x[3]
	}
	for t := range r {
		r[t] = s[t][0] + s[t][1] + s[t][2] + s[t][3]
	}
	return r
}

// adamGeneric applies the clipped, bias-corrected Adam update to the
// len(g) elements of one parameter row and clears their gradient.
func adamGeneric(p, m, v, g []float64, c *AdamCoeffs) {
	n := len(g)
	p, m, v = p[:n], m[:n], v[:n]
	b1, b2 := c.B1, c.B2
	for i := range g {
		gv := g[i] * c.Scale
		m[i] = b1*m[i] + (1-b1)*gv
		v[i] = b2*v[i] + (1-b2)*gv*gv
		mhat := m[i] / c.C1
		vhat := v[i] / c.C2
		p[i] -= c.LR * mhat / (math.Sqrt(vhat) + c.Eps)
		g[i] = 0
	}
}

// AdamCoeffs are the per-step scalars of AdamRow.
type AdamCoeffs struct {
	Scale   float64 // gradient clip scale (1 when clipping is off)
	B1, B2  float64 // moment decay rates β₁, β₂
	C1, C2  float64 // bias corrections 1−β₁ᵗ, 1−β₂ᵗ
	LR, Eps float64
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

// Axpy4 computes the four axpys dst += s[t]·src[t] for t = 0..3 in one
// traversal, dst held in a register: bit-identical to four Axpy calls in
// tile order. Every src[t] must be at least len(dst) long.
func Axpy4(dst []float64, s *[4]float64, src *[4][]float64) { axpy4(dst, s, src) }

// Dot4 returns the four dots a[t]·b over the first len(a[0]) elements,
// loading b once per four rows: bit-identical to four Dot calls.
func Dot4(a *[4][]float64, b []float64) [4]float64 { return dot4(a, b) }

// FusedAxpyDot4 runs FusedAxpyDot for the four rows g[t] (with x[t])
// against the shared w/gw, loading w and gw once per four rows:
// bit-identical to four FusedAxpyDot calls in tile order. Only the first
// len(g[0]) elements of every operand are read or written.
func FusedAxpyDot4(g *[4][]float64, w, gw []float64, x *[4]float64) [4]float64 {
	return fusedAxpyDot4(g, w, gw, x)
}

// AdamRow applies the clipped, bias-corrected Adam update to the first
// len(g) elements of param row p with moments m and v, and clears g:
// per element, g·Scale feeds m ← β₁m + (1−β₁)g and v ← β₂v + (1−β₂)g·g,
// and p −= LR·(m/C1) / (√(v/C2) + Eps). Bit-identical to adamGeneric.
func AdamRow(p, m, v, g []float64, c *AdamCoeffs) { adamRow(p, m, v, g, c) }
