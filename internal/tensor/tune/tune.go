// Package tune derives the cache-blocking parameters of the tensor matmul
// kernels from a hardware model, reusing the hwsim roofline machinery the
// search stack already trusts for accelerator decisions. The derivation is
// run at development time (and pinned by this package's test against
// tensor.MatMulBlockShape) rather than at process start: the block shape
// is a compile-time constant so the kernels stay allocation- and
// branch-free, and a silent host change cannot silently change numerics
// or performance characteristics — the pin test fails loudly instead.
//
// The full derivation, worked with the CI host's numbers, is documented
// in docs/PERFORMANCE.md under "Kernel tuning".
package tune

import (
	"h2onas/internal/hwsim"
)

// HostCaches describes the per-core data-cache capacities the block-shape
// derivation needs. hwsim.Chip models an accelerator's HBM/CMEM split;
// a CPU adds one more level, so the L1 capacity rides alongside the chip
// (whose CMEMCapacity plays the L2 role).
type HostCaches struct {
	L1DBytes int // per-core L1 data cache
	L2Bytes  int // per-core unified L2
}

// HostChip models one core of the CI host CPU in hwsim.Chip terms, so the
// roofline helpers apply unchanged: PeakMXUFLOPS is the scalar FP64
// multiply-add peak (2 FLOPs/cycle — the reference kernels are scalar and
// the accumulation chains serialize FMA-width tricks away), HBMBandwidth
// is the per-core DRAM streaming bandwidth, and CMEM stands in for L2.
// The numbers are the Intel Xeon (Skylake-SP, 2.10 GHz) the benchmarks
// in BENCH_search.json were recorded on.
func HostChip() hwsim.Chip {
	return hwsim.Chip{
		Name:          "xeon-2.1GHz-core",
		PeakMXUFLOPS:  4.2e9,  // 2.1 GHz × 2 scalar FP64 FLOPs/cycle
		PeakVPUFLOPS:  16.8e9, // 4-lane AVX2 (the tensor kernels' vector backend)
		HBMBandwidth:  12e9,   // single-core DRAM stream
		HBMCapacity:   16 << 30,
		CMEMCapacity:  2 << 20, // per-core L2
		CMEMBandwidth: 80e9,
	}
}

// HostCacheModel returns the cache capacities of the same host core.
func HostCacheModel() HostCaches {
	return HostCaches{
		L1DBytes: 48 << 10,
		L2Bytes:  2 << 20,
	}
}

// BlockShape derives the matmul k-panel height and j-panel width for a
// host described by chip (DRAM roofline, L2 as CMEMCapacity) and caches.
//
// The j panel keeps the two streaming slabs of the inner axpy — an output
// row segment and a b row segment — simultaneously L1-resident with half
// the cache left for everything else:
//
//	2 · jc · 8 bytes ≤ L1D/2
//
// The k panel then bounds the kc×jc panel of b that is re-read once per
// output row to a quarter of L2, leaving room for the a/out streams:
//
//	kc · jc · 8 bytes ≤ L2/4
//
// The roofline supplies the floor: a k-panel of height kc gives the sweep
// an operational intensity of about kc/8 FLOPs per DRAM byte (per output
// element and panel: 2·kc FLOPs against a 16-byte load+store of the
// element), so kc must be at least 8× the chip's ridge point for the
// blocked sweep to sit on the compute roof. Both results are rounded down
// to powers of two so panel edges land on cache-line-friendly strides.
// BlockShape panics if the cache ceiling falls below the roofline floor —
// on such a host blocking cannot reach the compute roof and the constants
// must be rethought, not silently clamped.
func BlockShape(chip hwsim.Chip, c HostCaches) (kc, jc int) {
	jc = floorPow2(c.L1DBytes / (2 * 2 * 8))
	kc = floorPow2(c.L2Bytes / 4 / (jc * 8))
	if minKC := ceilPow2(int(8 * hwsim.RidgePoint(chip))); kc < minKC {
		panic("tune: L2 capacity bound is below the roofline floor")
	}
	return kc, jc
}

func floorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}
