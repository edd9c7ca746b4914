#include "textflag.h"

// The AVX2 inner kernels. Bit-exactness contract (see kernels_amd64.go):
// vectorize only across independent output elements, never use FMA, keep
// each row's dot/fused accumulator as a single YMM register stepped four
// elements per iteration so lane l is exactly the reference accumulator
// s_l. The four-row tiles run four such registers, one per independent
// row, never two per row.
//
// All lengths are in float64 elements and must be multiples of 4; the Go
// wrappers handle tails. Loads/stores are unaligned (VMOVUPD): slice
// bases are 8-byte aligned only.

// func axpyAVX(dst, src *float64, n int, s float64)
// dst[j] += s*src[j] for j in [0, n).
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD s+24(FP), Y0

axpy8:
	CMPQ    CX, $8
	JLT     axpy4
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     axpy8

axpy4:
	CMPQ    CX, $4
	JLT     axpydone
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     axpy4

axpydone:
	VZEROUPPER
	RET

// func dotAVX(a, b *float64, n int, sums *float64)
// sums[l] = Σ_{k ≡ l mod 4, k < n} a[k]*b[k], ascending k per lane.
// Single accumulator register: lane l is the reference accumulator s_l.
TEXT ·dotAVX(SB), NOSPLIT, $0-32
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DX
	MOVQ   n+16(FP), CX
	MOVQ   sums+24(FP), DI
	VXORPD Y0, Y0, Y0

dot4:
	CMPQ    CX, $4
	JLT     dotdone
	VMOVUPD (SI), Y1
	VMULPD  (DX), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     dot4

dotdone:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func fusedAVX(grad, w, gw *float64, n int, x float64, sums *float64)
// sums[l] accumulates grad[k]*w[k] over k ≡ l mod 4 (ascending), and
// gw[k] += grad[k]*x per element — the fused backward kernel. (The first
// argument is named grad because `g` is a reserved pseudo-register.)
TEXT ·fusedAVX(SB), NOSPLIT, $0-48
	MOVQ         grad+0(FP), SI
	MOVQ         w+8(FP), DX
	MOVQ         gw+16(FP), DI
	MOVQ         n+24(FP), CX
	VBROADCASTSD x+32(FP), Y3
	MOVQ         sums+40(FP), BX
	VXORPD       Y0, Y0, Y0

fused4:
	CMPQ    CX, $4
	JLT     fuseddone
	VMOVUPD (SI), Y1
	VMULPD  (DX), Y1, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  Y3, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     fused4

fuseddone:
	VMOVUPD Y0, (BX)
	VZEROUPPER
	RET

// func axpy4AVX(dst, a, b, c, d *float64, n int, s *[4]float64)
// dst[j] = (((dst[j] + s[0]*a[j]) + s[1]*b[j]) + s[2]*c[j]) + s[3]*d[j]
// for j in [0, n), each product and sum rounded: four axpys in tile
// order with dst held in a register between them.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	MOVQ         c+24(FP), R8
	MOVQ         d+32(FP), R9
	MOVQ         n+40(FP), CX
	MOVQ         s+48(FP), AX
	VBROADCASTSD (AX), Y4
	VBROADCASTSD 8(AX), Y5
	VBROADCASTSD 16(AX), Y6
	VBROADCASTSD 24(AX), Y7

axpy4x8:
	CMPQ    CX, $8
	JLT     axpy4x4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMULPD  (SI), Y4, Y2
	VMULPD  32(SI), Y4, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (DX), Y5, Y2
	VMULPD  32(DX), Y5, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R8), Y6, Y2
	VMULPD  32(R8), Y6, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMULPD  (R9), Y7, Y2
	VMULPD  32(R9), Y7, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, R8
	ADDQ    $64, R9
	SUBQ    $8, CX
	JMP     axpy4x8

axpy4x4:
	CMPQ    CX, $4
	JLT     axpy4done
	VMOVUPD (DI), Y0
	VMULPD  (SI), Y4, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (DX), Y5, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R8), Y6, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R9), Y7, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)

axpy4done:
	VZEROUPPER
	RET

// func dot4AVX(a0, a1, a2, a3, b *float64, n int, sums *float64)
// sums[4t+l] = Σ_{k ≡ l mod 4, k < n} at[k]*b[k], ascending k per lane:
// one accumulator register per row, so lane l of row t's register is
// that row's reference accumulator s_l. b is loaded once per four rows.
TEXT ·dot4AVX(SB), NOSPLIT, $0-56
	MOVQ   a0+0(FP), SI
	MOVQ   a1+8(FP), DX
	MOVQ   a2+16(FP), R8
	MOVQ   a3+24(FP), R9
	MOVQ   b+32(FP), R10
	MOVQ   n+40(FP), CX
	MOVQ   sums+48(FP), DI
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

dot4x4:
	CMPQ    CX, $4
	JLT     dot4done
	VMOVUPD (R10), Y12
	VMULPD  (SI), Y12, Y0
	VMULPD  (DX), Y12, Y1
	VMULPD  (R8), Y12, Y2
	VMULPD  (R9), Y12, Y3
	VADDPD  Y0, Y8, Y8
	VADDPD  Y1, Y9, Y9
	VADDPD  Y2, Y10, Y10
	VADDPD  Y3, Y11, Y11
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	SUBQ    $4, CX
	JMP     dot4x4

dot4done:
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, 64(DI)
	VMOVUPD Y11, 96(DI)
	VZEROUPPER
	RET

// func fused4AVX(row0, row1, row2, row3, w, gw *float64, n int, x *[4]float64, sums *float64)
// The fused kernel for four gradient rows against one shared w/gw:
// sums[4t+l] accumulates rowt[k]*w[k] over k ≡ l mod 4 (ascending), one
// accumulator register per row, and gw[k] += rowt[k]*x[t] for t = 0..3
// in order, gw held in a register between the four adds.
TEXT ·fused4AVX(SB), NOSPLIT, $0-72
	MOVQ         row0+0(FP), SI
	MOVQ         row1+8(FP), DX
	MOVQ         row2+16(FP), R8
	MOVQ         row3+24(FP), R9
	MOVQ         w+32(FP), R10
	MOVQ         gw+40(FP), DI
	MOVQ         n+48(FP), CX
	MOVQ         x+56(FP), AX
	MOVQ         sums+64(FP), BX
	VBROADCASTSD (AX), Y4
	VBROADCASTSD 8(AX), Y5
	VBROADCASTSD 16(AX), Y6
	VBROADCASTSD 24(AX), Y7
	VXORPD       Y8, Y8, Y8
	VXORPD       Y9, Y9, Y9
	VXORPD       Y10, Y10, Y10
	VXORPD       Y11, Y11, Y11

fused4x4:
	CMPQ    CX, $4
	JLT     fused4done
	VMOVUPD (R10), Y12
	VMOVUPD (DI), Y13
	VMOVUPD (SI), Y0
	VMOVUPD (DX), Y1
	VMOVUPD (R8), Y2
	VMOVUPD (R9), Y3
	VMULPD  Y12, Y0, Y14
	VMULPD  Y12, Y1, Y15
	VADDPD  Y14, Y8, Y8
	VADDPD  Y15, Y9, Y9
	VMULPD  Y12, Y2, Y14
	VMULPD  Y12, Y3, Y15
	VADDPD  Y14, Y10, Y10
	VADDPD  Y15, Y11, Y11
	VMULPD  Y4, Y0, Y0
	VMULPD  Y5, Y1, Y1
	VMULPD  Y6, Y2, Y2
	VMULPD  Y7, Y3, Y3
	VADDPD  Y0, Y13, Y13
	VADDPD  Y1, Y13, Y13
	VADDPD  Y2, Y13, Y13
	VADDPD  Y3, Y13, Y13
	VMOVUPD Y13, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     fused4x4

fused4done:
	VMOVUPD Y8, (BX)
	VMOVUPD Y9, 32(BX)
	VMOVUPD Y10, 64(BX)
	VMOVUPD Y11, 96(BX)
	VZEROUPPER
	RET

// func adamAVX(p, m, v, grad *float64, n int, k *[9]float64)
// The clipped Adam update for n elements, in adamGeneric's operation
// order, every operation a separately rounded VMULPD/VADDPD/VSUBPD/
// VDIVPD/VSQRTPD (no FMA, no reciprocal estimate). k holds scale, β₁,
// 1−β₁, β₂, 1−β₂, c1, c2, lr, eps. grad is cleared as it is consumed.
TEXT ·adamAVX(SB), NOSPLIT, $0-48
	MOVQ         p+0(FP), DI
	MOVQ         m+8(FP), SI
	MOVQ         v+16(FP), DX
	MOVQ         grad+24(FP), BX
	MOVQ         n+32(FP), CX
	MOVQ         k+40(FP), AX
	VBROADCASTSD (AX), Y7
	VBROADCASTSD 8(AX), Y8
	VBROADCASTSD 16(AX), Y9
	VBROADCASTSD 24(AX), Y10
	VBROADCASTSD 32(AX), Y11
	VBROADCASTSD 40(AX), Y12
	VBROADCASTSD 48(AX), Y13
	VBROADCASTSD 56(AX), Y14
	VBROADCASTSD 64(AX), Y15
	VXORPD       Y6, Y6, Y6

adam4:
	CMPQ    CX, $4
	JLT     adamdone
	VMOVUPD (BX), Y0
	VMULPD  Y7, Y0, Y0   // gv = g*scale
	VMOVUPD (SI), Y1
	VMULPD  Y8, Y1, Y1   // β₁*m
	VMULPD  Y9, Y0, Y2   // (1−β₁)*gv
	VADDPD  Y2, Y1, Y1   // m
	VMOVUPD Y1, (SI)
	VMOVUPD (DX), Y3
	VMULPD  Y10, Y3, Y3  // β₂*v
	VMULPD  Y11, Y0, Y2  // (1−β₂)*gv
	VMULPD  Y0, Y2, Y2   // ((1−β₂)*gv)*gv
	VADDPD  Y2, Y3, Y3   // v
	VMOVUPD Y3, (DX)
	VDIVPD  Y12, Y1, Y1  // mhat = m/c1
	VDIVPD  Y13, Y3, Y3  // vhat = v/c2
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3  // √vhat + eps
	VMULPD  Y14, Y1, Y1  // lr*mhat
	VDIVPD  Y3, Y1, Y1   // step
	VMOVUPD (DI), Y2
	VSUBPD  Y1, Y2, Y2   // p − step
	VMOVUPD Y2, (DI)
	VMOVUPD Y6, (BX)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, BX
	SUBQ    $4, CX
	JMP     adam4

adamdone:
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL  eaxIn+0(FP), AX
	MOVL  ecxIn+4(FP), CX
	CPUID
	MOVL  AX, eax+8(FP)
	MOVL  BX, ebx+12(FP)
	MOVL  CX, ecx+16(FP)
	MOVL  DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL   CX, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
