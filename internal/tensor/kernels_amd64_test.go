package tensor

import (
	"fmt"
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

// BenchmarkKernelBackends times the three inner kernels on each backend
// the host has, across the dispatch threshold (avxMinLen) and at the
// DLRM and ViT row widths. Below the threshold both backends run the
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
	}
}
