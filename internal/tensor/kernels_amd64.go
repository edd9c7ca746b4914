package tensor

// amd64: the inner kernels run as hand-written AVX2 assembly
// (kernels_amd64.s) whenever the CPU supports it, chosen once at process
// start. The vectorization is bit-exact, not merely tolerance-close: it
// vectorizes only across independent output elements and never uses
// FMA, so every element receives exactly the reference sequence of
// round(mul)/round(add) operations documented in kernels_generic.go.
// Concretely:
//
//   - axpy: a 4-lane VMULPD+VADDPD per group of four elements performs,
//     per element, one rounded multiply and one rounded add — identical
//     to the scalar loop (Go never contracts mul+add to FMA on its own).
//   - dot / fused: a single 4-lane accumulator register stepped 4
//     elements at a time makes vector lane l exactly the reference
//     accumulator s_l (indices ≡ l mod 4, ascending). The wrapper folds
//     the tail into s0 and reduces ((s0+s1)+s2)+s3, as the reference
//     does.
//   - adam: one VMULPD/VADDPD/VSUBPD/VDIVPD/VSQRTPD per scalar operation
//     of adamGeneric, in its order; all five are correctly rounded IEEE
//     operations, exactly what the scalar loop compiles to.
//
// The rule that keeps a faster kernel exact: tile across independent
// rows, never across lanes. A row's dot is a serial add chain, so one
// call is latency-bound; the four-row tiles (axpy4, dot4, fused4) run
// four rows' chains side by side, one accumulator register per row, and
// load the shared operand once per four rows. Splitting one row over two
// accumulators (an unroll by 8) would interleave lanes mod 8 and move
// bits; where several rows add into one element (axpy4's dst, fused4's
// gw) the adds stay in row order.
//
// Because the backend is bit-exact, the cross-check test asserts exact
// equality (tolerance zero) with the vector path both on and off, and
// the golden trajectories replay identically on either backend.
//
// CPUs without AVX2 (or an OS that doesn't enable YMM state) run the
// generic loops, as do vectors shorter than the dispatch threshold,
// where call overhead would exceed the vector win.

// useAVX2 gates the assembly kernels on runtime CPU support: AVX2 plus
// OS-enabled YMM state (OSXSAVE + XCR0). Tests flip it to run both
// branches of the wrappers on one host.
var useAVX2 = cpuSupportsAVX2()

// avxMinLen is the vector length below which dispatch stays on the
// generic loops: the wrapper + VZEROUPPER overhead needs a few groups of
// four to amortize, and a lower threshold has not measured faster end to
// end (docs/PERFORMANCE.md, "Kernel backends").
const avxMinLen = 16

// tileMinLen is avxMinLen for the four-row tiles: one call covers four
// rows, so the wrapper and VZEROUPPER cost amortizes from the first
// group of four elements.
const tileMinLen = 4

//go:noescape
func axpyAVX(dst, src *float64, n int, s float64)

//go:noescape
func dotAVX(a, b *float64, n int, sums *float64)

//go:noescape
func fusedAVX(grad, w, gw *float64, n int, x float64, sums *float64)

//go:noescape
func axpy4AVX(dst, a, b, c, d *float64, n int, s *[4]float64)

//go:noescape
func dot4AVX(a0, a1, a2, a3, b *float64, n int, sums *float64)

//go:noescape
func fused4AVX(row0, row1, row2, row3, w, gw *float64, n int, x *[4]float64, sums *float64)

//go:noescape
func adamAVX(p, m, v, grad *float64, n int, k *[9]float64)

//go:noescape
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

func cpuSupportsAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// The OS must have enabled XMM (bit 1) and YMM (bit 2) state saving.
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

func axpyUnrolled(dst []float64, s float64, src []float64) {
	n := len(dst)
	if !useAVX2 || n < avxMinLen {
		axpyGeneric(dst, s, src)
		return
	}
	src = src[:n]
	n4 := n &^ 3
	axpyAVX(&dst[0], &src[0], n4, s)
	for j := n4; j < n; j++ {
		dst[j] += s * src[j]
	}
}

func dotUnrolled(a, b []float64) float64 {
	n := len(a)
	if !useAVX2 || n < avxMinLen {
		return dotGeneric(a, b)
	}
	b = b[:n]
	n4 := n &^ 3
	var sums [4]float64
	dotAVX(&a[0], &b[0], n4, &sums[0])
	s0 := sums[0]
	for k := n4; k < n; k++ {
		s0 += a[k] * b[k]
	}
	return ((s0 + sums[1]) + sums[2]) + sums[3]
}

func fusedAxpyDot(g, w, gw []float64, x float64) float64 {
	n := len(g)
	if !useAVX2 || n < avxMinLen {
		return fusedGeneric(g, w, gw, x)
	}
	w = w[:n]
	gw = gw[:n]
	n4 := n &^ 3
	var sums [4]float64
	fusedAVX(&g[0], &w[0], &gw[0], n4, x, &sums[0])
	s0 := sums[0]
	for j := n4; j < n; j++ {
		gv := g[j]
		s0 += gv * w[j]
		gw[j] += gv * x
	}
	return ((s0 + sums[1]) + sums[2]) + sums[3]
}

func axpy4(dst []float64, s *[4]float64, src *[4][]float64) {
	n := len(dst)
	if !useAVX2 || n < tileMinLen {
		axpy4Generic(dst, s, src)
		return
	}
	a, b, c, d := src[0][:n], src[1][:n], src[2][:n], src[3][:n]
	n4 := n &^ 3
	axpy4AVX(&dst[0], &a[0], &b[0], &c[0], &d[0], n4, s)
	for j := n4; j < n; j++ {
		dst[j] += s[0] * a[j]
		dst[j] += s[1] * b[j]
		dst[j] += s[2] * c[j]
		dst[j] += s[3] * d[j]
	}
}

func dot4(a *[4][]float64, b []float64) (r [4]float64) {
	n := len(a[0])
	if !useAVX2 || n < tileMinLen {
		return dot4Generic(a, b)
	}
	b = b[:n]
	a0, a1, a2, a3 := a[0], a[1][:n], a[2][:n], a[3][:n]
	n4 := n &^ 3
	var sums [16]float64
	dot4AVX(&a0[0], &a1[0], &a2[0], &a3[0], &b[0], n4, &sums[0])
	for t := range r {
		row := a[t][:n]
		s0 := sums[4*t]
		for k := n4; k < n; k++ {
			s0 += row[k] * b[k]
		}
		r[t] = ((s0 + sums[4*t+1]) + sums[4*t+2]) + sums[4*t+3]
	}
	return r
}

func fusedAxpyDot4(g *[4][]float64, w, gw []float64, x *[4]float64) (r [4]float64) {
	n := len(g[0])
	if !useAVX2 || n < tileMinLen {
		return fused4Generic(g, w, gw, x)
	}
	w = w[:n]
	gw = gw[:n]
	g0, g1, g2, g3 := g[0], g[1][:n], g[2][:n], g[3][:n]
	n4 := n &^ 3
	var sums [16]float64
	fused4AVX(&g0[0], &g1[0], &g2[0], &g3[0], &w[0], &gw[0], n4, x, &sums[0])
	for t := range r {
		row := g[t][:n]
		s0 := sums[4*t]
		for j := n4; j < n; j++ {
			gv := row[j]
			s0 += gv * w[j]
			gw[j] += gv * x[t]
		}
		r[t] = ((s0 + sums[4*t+1]) + sums[4*t+2]) + sums[4*t+3]
	}
	return r
}

func adamRow(p, m, v, g []float64, c *AdamCoeffs) {
	n := len(g)
	if !useAVX2 || n < avxMinLen {
		adamGeneric(p, m, v, g, c)
		return
	}
	p, m, v = p[:n], m[:n], v[:n]
	k := [9]float64{c.Scale, c.B1, 1 - c.B1, c.B2, 1 - c.B2, c.C1, c.C2, c.LR, c.Eps}
	n4 := n &^ 3
	adamAVX(&p[0], &m[0], &v[0], &g[0], n4, &k)
	adamGeneric(p[n4:], m[n4:], v[n4:], g[n4:], c)
}

// KernelBackend names the live inner-kernel backend: "avx2" or "scalar".
func KernelBackend() string {
	if useAVX2 {
		return "avx2"
	}
	return "scalar"
}
