//go:build !amd64

package tensor

// Targets other than amd64 have no assembly backend: the inner kernels
// are the scalar reference loops of kernels_generic.go.

func axpyUnrolled(dst []float64, s float64, src []float64) { axpyGeneric(dst, s, src) }

func dotUnrolled(a, b []float64) float64 { return dotGeneric(a, b) }

func fusedAxpyDot(g, w, gw []float64, x float64) float64 { return fusedGeneric(g, w, gw, x) }

// KernelBackend names the live inner-kernel backend: always "scalar" here.
func KernelBackend() string { return "scalar" }
