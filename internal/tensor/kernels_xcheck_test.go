package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestKernelBackendMatchesReference cross-checks the dispatched inner
// kernels (axpyUnrolled / dotUnrolled / fusedAxpyDot) against the scalar
// reference bodies in kernels_generic.go, bit for bit — tolerance zero —
// with the AVX2 path forced off and, where the CPU has it, forced on.
// Lengths cover both sides of the AVX dispatch threshold and every tail
// residue mod 4. Operands are sub-slices starting at element offsets
// 0–3 of a parent slice, as the layers' row sub-slices are, so the
// vector loads and stores run at every element phase mod 4 relative to
// the parent's base rather than only on allocator-aligned bases.
func TestKernelBackendMatchesReference(t *testing.T) {
	t.Logf("kernel backend: %s", KernelBackend())
	forEachBackend(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 18, 19, 31, 32, 63, 64, 100, 160, 257, 1024, 1023}
		// operand returns n random elements starting at element offset
		// off of a freshly allocated parent slice.
		operand := func(n, off int) []float64 {
			parent := make([]float64, n+off)
			for i := range parent {
				parent[i] = rng.NormFloat64()
			}
			return parent[off:]
		}
		for _, n := range lengths {
			for off := 0; off < 4; off++ {
				// Each operand gets its own offset, so over the four
				// passes every operand meets every offset, in mixed
				// combinations.
				src, g, w := operand(n, off), operand(n, (off+1)%4), operand(n, (off+2)%4)
				if n > 2 {
					g[n/2] = 0 // zero element flows through both chains
				}
				s := rng.NormFloat64()
				x := rng.NormFloat64()

				dstGot := operand(n, (off+3)%4)
				dstWant := append([]float64(nil), dstGot...)
				axpyUnrolled(dstGot, s, src)
				axpyGeneric(dstWant, s, src)
				for i := 0; i < n; i++ {
					if math.Float64bits(dstGot[i]) != math.Float64bits(dstWant[i]) {
						t.Fatalf("axpy n=%d off=%d elem %d: %v != %v", n, off, i, dstGot[i], dstWant[i])
					}
				}

				dg := dotUnrolled(g, w)
				dw := dotGeneric(g, w)
				if math.Float64bits(dg) != math.Float64bits(dw) {
					t.Fatalf("dot n=%d off=%d: %v (%016x) != %v (%016x)", n, off, dg, math.Float64bits(dg), dw, math.Float64bits(dw))
				}

				gwGot := operand(n, (off+3)%4)
				gwWant := append([]float64(nil), gwGot...)
				fg := fusedAxpyDot(g, w, gwGot, x)
				fw := fusedGeneric(g, w, gwWant, x)
				if math.Float64bits(fg) != math.Float64bits(fw) {
					t.Fatalf("fused dot n=%d off=%d: %v != %v", n, off, fg, fw)
				}
				for i := 0; i < n; i++ {
					if math.Float64bits(gwGot[i]) != math.Float64bits(gwWant[i]) {
						t.Fatalf("fused gw n=%d off=%d elem %d: %v != %v", n, off, i, gwGot[i], gwWant[i])
					}
				}
			}
		}
	})
}

// TestKernelBackendName sanity-checks the backend self-report so CI logs
// show which path actually ran.
func TestKernelBackendName(t *testing.T) {
	switch KernelBackend() {
	case "avx2", "scalar":
	default:
		t.Fatalf("unknown kernel backend %q", KernelBackend())
	}
}
