package tensor

import (
	"fmt"
	"math"
	"testing"
)

// backendsOnHost lists the useAVX2 settings this host can run: off — the
// scalar fallback a CPU without AVX2 takes — and, where the CPU has
// AVX2, on.
func backendsOnHost() []bool {
	if cpuSupportsAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

// forEachBackend runs f once per backend in backendsOnHost, as subtests
// named after KernelBackend().
func forEachBackend(t *testing.T, f func(t *testing.T)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	for _, on := range backendsOnHost() {
		useAVX2 = on
		t.Run(KernelBackend(), f)
	}
}

// kernelSink keeps the benchmarked reductions from being optimized away.
var kernelSink float64

// BenchmarkKernelBackends times the inner kernels on each backend the
// host has: the three single-row kernels across the dispatch threshold
// (avxMinLen) and at the DLRM and ViT row widths, then each four-row
// tile against the four single-row calls it replaces and AdamRow
// against the scalar loop. Below the threshold both backends run the
// generic loops, so the pair shows the dispatch cost alone; raising or
// lowering avxMinLen and rerunning shows what the vector path does at
// the short lengths.
func BenchmarkKernelBackends(b *testing.B) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	for _, on := range backendsOnHost() {
		useAVX2 = on
		for _, n := range []int{4, 8, 12, 16, 24, 64, 160, 768} {
			rng := NewRNG(5)
			x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i], z[i] = rng.Norm(), rng.Norm(), rng.Norm()
			}
			name := fmt.Sprintf("%s/n%d", KernelBackend(), n)
			b.Run("axpy/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					axpyUnrolled(z, 1e-9, x)
				}
			})
			b.Run("dot/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kernelSink = dotUnrolled(x, y)
				}
			})
			b.Run("fused/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kernelSink = fusedAxpyDot(x, y, z, 1e-9)
				}
			})
		}
		// The four-row tiles against the four single-row calls they
		// replace, and the Adam row update against the scalar loop, at the
		// DLRM and ViT row widths.
		for _, n := range []int{1, 8, 16, 48, 64, 80, 160} {
			rng := NewRNG(6)
			vec := func() []float64 {
				v := make([]float64, n)
				for i := range v {
					v[i] = rng.Norm()
				}
				return v
			}
			var rows [4][]float64
			s := [4]float64{1e-9, -1e-9, 2e-9, -2e-9}
			for r := range rows {
				rows[r] = vec()
			}
			w, gw, dst := vec(), vec(), vec()
			name := fmt.Sprintf("%s/n%d", KernelBackend(), n)
			b.Run("axpy4/tile/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					axpy4(dst, &s, &rows)
				}
			})
			b.Run("axpy4/calls/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for r := range rows {
						axpyUnrolled(dst, s[r], rows[r])
					}
				}
			})
			b.Run("dot4/tile/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kernelSink = dot4(&rows, w)[3]
				}
			})
			b.Run("dot4/calls/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for r := range rows {
						kernelSink = dotUnrolled(rows[r], w)
					}
				}
			})
			b.Run("fused4/tile/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kernelSink = fusedAxpyDot4(&rows, w, gw, &s)[3]
				}
			})
			b.Run("fused4/calls/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for r := range rows {
						kernelSink = fusedAxpyDot(rows[r], w, gw, s[r])
					}
				}
			})
			// Both Adam variants restore g before each step (the kernel
			// clears it), so the moments settle instead of decaying into
			// subnormals; the copy is the same in both.
			c := AdamCoeffs{Scale: 0.5, B1: 0.9, B2: 0.999, C1: 0.1, C2: 0.001, LR: 0.003, Eps: 1e-8}
			p, m, v, g, g0 := vec(), vec(), vec(), vec(), vec()
			for i := range v {
				v[i] = math.Abs(v[i])
			}
			b.Run("adam/row/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(g, g0)
					adamRow(p, m, v, g, &c)
				}
			})
			b.Run("adam/loop/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(g, g0)
					adamGeneric(p, m, v, g, &c)
				}
			})
		}
	}
}
