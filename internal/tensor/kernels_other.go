//go:build !amd64

package tensor

// Targets other than amd64 have no assembly backend: the inner kernels
// are the scalar reference loops of kernels_generic.go.

func axpyUnrolled(dst []float64, s float64, src []float64) { axpyGeneric(dst, s, src) }

func dotUnrolled(a, b []float64) float64 { return dotGeneric(a, b) }

func fusedAxpyDot(g, w, gw []float64, x float64) float64 { return fusedGeneric(g, w, gw, x) }

func axpy4(dst []float64, s *[4]float64, src *[4][]float64) { axpy4Generic(dst, s, src) }

func dot4(a *[4][]float64, b []float64) [4]float64 { return dot4Generic(a, b) }

func fusedAxpyDot4(g *[4][]float64, w, gw []float64, x *[4]float64) [4]float64 {
	return fused4Generic(g, w, gw, x)
}

func adamRow(p, m, v, g []float64, c *AdamCoeffs) { adamGeneric(p, m, v, g, c) }

// KernelBackend names the live inner-kernel backend: always "scalar" here.
func KernelBackend() string { return "scalar" }
