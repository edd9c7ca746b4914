package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestKernelBackendMatchesReference cross-checks every dispatched inner
// kernel — axpy, dot, fused axpy+dot, their four-row tiles and the Adam
// row update — against the scalar reference bodies in kernels_generic.go,
// bit for bit (tolerance zero), with the AVX2 path forced off and, where
// the CPU has it, forced on. Lengths cover both sides of each dispatch
// threshold (avxMinLen, and tileMinLen for the four-row tiles) and every
// tail residue mod 4.
//
// Operands are sub-slices starting at element offsets 0–3 of a parent
// slice, as the layers' row sub-slices are, so the vector loads and
// stores run at every element phase mod 4 relative to the parent's base.
// Each operand also runs on past the kernel's length n, as the layers
// pass full-width weight rows with active-width gradient rows: the
// driving operand is cut to n, every other operand is passed long, and
// no element past n may be written.
func TestKernelBackendMatchesReference(t *testing.T) {
	t.Logf("kernel backend: %s", KernelBackend())
	forEachBackend(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 18, 19, 31, 32, 63, 64, 100, 160, 257, 1024, 1023}
		const pad = 5
		// operand returns n+pad random elements starting at element
		// offset off of a freshly allocated parent slice.
		operand := func(n, off int) []float64 {
			parent := make([]float64, n+pad+off)
			for i := range parent {
				parent[i] = rng.NormFloat64()
			}
			return parent[off:]
		}
		clone := func(x []float64) []float64 { return append([]float64(nil), x...) }
		// same asserts got == want bit for bit over the whole operand,
		// and that nothing past n moved from before.
		same := func(what string, n, off int, got, want, before []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s n=%d off=%d elem %d: %v != %v", what, n, off, i, got[i], want[i])
				}
			}
			for i := n; i < len(before); i++ {
				if math.Float64bits(got[i]) != math.Float64bits(before[i]) {
					t.Fatalf("%s n=%d off=%d: wrote elem %d past n", what, n, off, i)
				}
			}
		}
		sameScalar := func(what string, n, off int, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s n=%d off=%d: %v (%016x) != %v (%016x)", what, n, off, got, math.Float64bits(got), want, math.Float64bits(want))
			}
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

				dst := operand(n, (off+3)%4)
				dstWant := clone(dst)
				axpyUnrolled(dst[:n], s, src)
				axpyGeneric(dstWant[:n], s, src)
				same("axpy", n, off, dst, dstWant, dstWant)

				sameScalar("dot", n, off, dotUnrolled(g[:n], w), dotGeneric(g[:n], w))

				gw := operand(n, (off+3)%4)
				gwWant := clone(gw)
				fg := fusedAxpyDot(g[:n], w, gw, x)
				fw := fusedGeneric(g[:n], w, gwWant, x)
				sameScalar("fused dot", n, off, fg, fw)
				same("fused gw", n, off, gw, gwWant, gwWant)

				// Four-row tiles: row 0 drives the length, rows 1–3 run
				// long, every row at its own offset. Row 2 has a zero
				// element, and on even offsets x[1] is zero, as a dead
				// input makes it.
				var rows [4][]float64
				var ss, xs [4]float64
				for r := range rows {
					rows[r] = operand(n, (off+r)%4)
					ss[r], xs[r] = rng.NormFloat64(), rng.NormFloat64()
				}
				rows[0] = rows[0][:n]
				if n > 2 {
					rows[2][n/3] = 0
				}
				if off%2 == 0 {
					xs[1] = 0
				}

				// The reference for a tile is four single-row reference
				// calls in tile order.
				dst = operand(n, off)
				dstWant = clone(dst)
				axpy4(dst[:n], &ss, &rows)
				for r := range rows {
					axpyGeneric(dstWant[:n], ss[r], rows[r])
				}
				same("axpy4", n, off, dst, dstWant, dstWant)

				dg := dot4(&rows, w)
				for r := range dg {
					sameScalar("dot4", n, off, dg[r], dotGeneric(rows[r][:n], w))
				}

				gw = operand(n, (off+1)%4)
				gwWant = clone(gw)
				fg4 := fusedAxpyDot4(&rows, w, gw, &xs)
				for r := range fg4 {
					sameScalar("fused4 dot", n, off, fg4[r], fusedGeneric(rows[r][:n], w, gwWant, xs[r]))
				}
				same("fused4 gw", n, off, gw, gwWant, gwWant)

				// Adam: g drives, p/m/v run long; v must be non-negative.
				// Clipping is engaged (Scale != 1) on odd offsets.
				c := AdamCoeffs{Scale: 1, B1: 0.9, B2: 0.999, LR: 0.003, Eps: 1e-8}
				if off%2 == 1 {
					c.Scale = 0.37 + rng.Float64()/2
				}
				step := float64(1 + rng.Intn(50))
				c.C1, c.C2 = 1-math.Pow(c.B1, step), 1-math.Pow(c.B2, step)
				p, m, v, ag := operand(n, off), operand(n, (off+1)%4), operand(n, (off+2)%4), operand(n, (off+3)%4)
				for i := range v {
					v[i] = math.Abs(v[i])
				}
				if n > 2 {
					ag[n/2] = 0
				}
				pw, mw, vw, agw := clone(p), clone(m), clone(v), clone(ag)
				adamRow(p, m, v, ag[:n], &c)
				adamGeneric(pw, mw, vw, agw[:n], &c)
				same("adam p", n, off, p, pw, pw)
				same("adam m", n, off, m, mw, mw)
				same("adam v", n, off, v, vw, vw)
				same("adam g", n, off, ag, agw, agw)
				for i := 0; i < n; i++ {
					if ag[i] != 0 {
						t.Fatalf("adam n=%d off=%d: grad elem %d not cleared", n, off, i)
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
