//go:build !amd64

package tensor

import "testing"

// forEachBackend runs f on the only backend targets other than amd64
// have: the scalar reference loops.
func forEachBackend(t *testing.T, f func(t *testing.T)) { t.Run(KernelBackend(), f) }
