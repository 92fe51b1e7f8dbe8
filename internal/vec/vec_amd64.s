#include "textflag.h"

// AVX2+FMA distance kernel bodies. Both functions require
// len(x) == len(y), len a non-zero multiple of 8; the Go wrappers
// guarantee it and finish the sub-lane tail scalarly.
//
// The main loop runs 32 floats per iteration into four independent YMM
// accumulators to hide FMA latency; a trailing 8-wide loop mops up the
// remaining full lanes. Accumulators are reduced to one scalar at the
// end, so the result is deterministic for a given input (though its
// rounding differs from the scalar reference — callers compare with a
// relative tolerance, and search loops only ever compare distances
// produced by the same kernel).

// func l2Body8AVX2(x, y []float32) float32
TEXT ·l2Body8AVX2(SB), NOSPLIT, $0-52
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	MOVQ x_len+8(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-32, BX
	CMPQ BX, $0
	JE   l2tail8

l2loop32:
	VMOVUPS (SI)(AX*4), Y4
	VMOVUPS 32(SI)(AX*4), Y5
	VMOVUPS 64(SI)(AX*4), Y6
	VMOVUPS 96(SI)(AX*4), Y7
	VSUBPS  (DI)(AX*4), Y4, Y4
	VSUBPS  32(DI)(AX*4), Y5, Y5
	VSUBPS  64(DI)(AX*4), Y6, Y6
	VSUBPS  96(DI)(AX*4), Y7, Y7
	VFMADD231PS Y4, Y4, Y0
	VFMADD231PS Y5, Y5, Y1
	VFMADD231PS Y6, Y6, Y2
	VFMADD231PS Y7, Y7, Y3
	ADDQ $32, AX
	CMPQ AX, BX
	JL   l2loop32

l2tail8:
	CMPQ AX, CX
	JGE  l2reduce
	VMOVUPS (SI)(AX*4), Y4
	VSUBPS  (DI)(AX*4), Y4, Y4
	VFMADD231PS Y4, Y4, Y0
	ADDQ $8, AX
	JMP  l2tail8

l2reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+48(FP)
	RET

// func dotBody8AVX2(x, y []float32) float32
TEXT ·dotBody8AVX2(SB), NOSPLIT, $0-52
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	MOVQ x_len+8(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-32, BX
	CMPQ BX, $0
	JE   dottail8

dotloop32:
	VMOVUPS (SI)(AX*4), Y4
	VMOVUPS 32(SI)(AX*4), Y5
	VMOVUPS 64(SI)(AX*4), Y6
	VMOVUPS 96(SI)(AX*4), Y7
	VFMADD231PS (DI)(AX*4), Y4, Y0
	VFMADD231PS 32(DI)(AX*4), Y5, Y1
	VFMADD231PS 64(DI)(AX*4), Y6, Y2
	VFMADD231PS 96(DI)(AX*4), Y7, Y3
	ADDQ $32, AX
	CMPQ AX, BX
	JL   dotloop32

dottail8:
	CMPQ AX, CX
	JGE  dotreduce
	VMOVUPS (SI)(AX*4), Y4
	VFMADD231PS (DI)(AX*4), Y4, Y0
	ADDQ $8, AX
	JMP  dottail8

dotreduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+48(FP)
	RET

// func subL2Body8AVX2(x []float32, cols *float32, ks int, out []float32)
//
// Squared L2 from the sub-vector x to len(out) centroids stored
// dimension-major (coordinate j of centroid c at cols[j*ks+c]); len(out)
// is a non-zero multiple of 8 and len(x) is non-zero. Each YMM lane owns
// one centroid: coordinate j of x is broadcast, subtracted from eight
// centroids' coordinate j in one load, and squared into the lane's
// accumulator, so there is no horizontal reduction. The main loop carries
// 32 centroids in four accumulators to hide FMA latency; a trailing
// 8-centroid loop finishes the remaining full lane groups.
TEXT ·subL2Body8AVX2(SB), NOSPLIT, $0-64
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), DX
	MOVQ cols+24(FP), DI
	MOVQ ks+32(FP), R8
	MOVQ out_base+40(FP), R9
	MOVQ out_len+48(FP), CX
	SHLQ $2, R8              // coordinate stride in bytes

	XORQ AX, AX              // c: first centroid of the current group
	MOVQ CX, R11
	ANDQ $-32, R11
	CMPQ R11, $0
	JE   sub8

sub32:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	LEAQ (DI)(AX*4), R10     // &cols[0*ks+c]
	XORQ BX, BX              // j
sub32dim:
	VBROADCASTSS (SI)(BX*4), Y4
	VSUBPS (R10), Y4, Y5
	VSUBPS 32(R10), Y4, Y6
	VSUBPS 64(R10), Y4, Y7
	VSUBPS 96(R10), Y4, Y8
	VFMADD231PS Y5, Y5, Y0
	VFMADD231PS Y6, Y6, Y1
	VFMADD231PS Y7, Y7, Y2
	VFMADD231PS Y8, Y8, Y3
	ADDQ R8, R10
	INCQ BX
	CMPQ BX, DX
	JL   sub32dim
	VMOVUPS Y0, (R9)(AX*4)
	VMOVUPS Y1, 32(R9)(AX*4)
	VMOVUPS Y2, 64(R9)(AX*4)
	VMOVUPS Y3, 96(R9)(AX*4)
	ADDQ $32, AX
	CMPQ AX, R11
	JL   sub32

sub8:
	CMPQ AX, CX
	JGE  subdone
	VXORPS Y0, Y0, Y0
	LEAQ (DI)(AX*4), R10
	XORQ BX, BX
sub8dim:
	VBROADCASTSS (SI)(BX*4), Y4
	VSUBPS (R10), Y4, Y5
	VFMADD231PS Y5, Y5, Y0
	ADDQ R8, R10
	INCQ BX
	CMPQ BX, DX
	JL   sub8dim
	VMOVUPS Y0, (R9)(AX*4)
	ADDQ $8, AX
	JMP  sub8

subdone:
	VZEROUPPER
	RET

// func argminBody8AVX2(d []float32) int
//
// Index of the first smallest entry of d; len(d) is a non-zero multiple of
// 8. Two passes, both exact: the first folds d into its minimum with
// VMINPS (four accumulators over 32 floats per iteration, then an 8-wide
// loop), the second returns the first position that compares equal to it.
// A NaN in d can leave the second pass without a match; it then returns 0.
TEXT ·argminBody8AVX2(SB), NOSPLIT, $0-32
	MOVQ d_base+0(FP), SI
	MOVQ d_len+8(FP), CX

	VMOVUPS (SI), Y0
	VMOVAPS Y0, Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y0, Y3

	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-32, BX
	CMPQ BX, $0
	JE   argmin8

argmin32:
	VMINPS (SI)(AX*4), Y0, Y0
	VMINPS 32(SI)(AX*4), Y1, Y1
	VMINPS 64(SI)(AX*4), Y2, Y2
	VMINPS 96(SI)(AX*4), Y3, Y3
	ADDQ $32, AX
	CMPQ AX, BX
	JL   argmin32

argmin8:
	CMPQ AX, CX
	JGE  argminfold
	VMINPS (SI)(AX*4), Y0, Y0
	ADDQ $8, AX
	JMP  argmin8

argminfold:
	VMINPS Y1, Y0, Y0
	VMINPS Y3, Y2, Y2
	VMINPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMINPS X1, X0, X0
	VPERMILPS $0x4E, X0, X1  // swap the 64-bit halves
	VMINPS X1, X0, X0
	VPERMILPS $0xB1, X0, X1  // swap within each half
	VMINPS X1, X0, X0
	VBROADCASTSS X0, Y0

	XORQ AX, AX
argminfind:
	VCMPPS $0, (SI)(AX*4), Y0, Y1 // EQ_OQ
	VMOVMSKPS Y1, DX
	TESTL DX, DX
	JNZ  argminhit
	ADDQ $8, AX
	CMPQ AX, CX
	JL   argminfind
	XORQ AX, AX
	XORQ DX, DX
	JMP  argminret

argminhit:
	BSFL DX, DX
argminret:
	ADDQ DX, AX
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// Gather kernels: the l2/dot body above, once per listed row of a matrix,
// in one call. Each row's reduction is the single-row body's instruction
// for instruction, so every out[i] is bit-identical to l2Body8AVX2 /
// dotBody8AVX2 on the same row. The rows of a search hop are random, so
// each is a cache miss: while row i is reduced, the lines of row
// i+GATHER_AHEAD are prefetched, and rows 1..GATHER_AHEAD-1 before the
// first reduction.
//
// Registers: SI q, CX len(q) (a non-zero multiple of 8), BX len(q)&^31,
// R8 matrix base, R12 row stride in bytes, R9 ids, R10 len(ids) (non-zero),
// R11 out, R13 row position i, DI current row, AX/DX scratch.

#define GATHER_AHEAD 2

// func gatherL2Body8AVX2(q []float32, base *float32, stride int, ids []uint32, out []float32)
TEXT ·gatherL2Body8AVX2(SB), NOSPLIT, $0-88
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ base+24(FP), R8
	MOVQ stride+32(FP), R12
	SHLQ $2, R12
	MOVQ ids_base+40(FP), R9
	MOVQ ids_len+48(FP), R10
	MOVQ out_base+64(FP), R11
	MOVQ CX, BX
	ANDQ $-32, BX
	XORQ R13, R13

	MOVQ $1, DX
gl2pre:
	CMPQ DX, $GATHER_AHEAD
	JGE  gl2row
	CMPQ DX, R10
	JGE  gl2row
	MOVL (R9)(DX*4), DI
	IMULQ R12, DI
	ADDQ R8, DI
	MOVQ R12, AX
gl2prepf:
	PREFETCHT0 (DI)
	ADDQ $64, DI
	SUBQ $64, AX
	JG   gl2prepf
	INCQ DX
	JMP  gl2pre

gl2row:
	LEAQ GATHER_AHEAD(R13), DX
	CMPQ DX, R10
	JGE  gl2body
	MOVL (R9)(DX*4), DX
	IMULQ R12, DX
	ADDQ R8, DX
	MOVQ R12, AX
gl2pf:
	PREFETCHT0 (DX)
	ADDQ $64, DX
	SUBQ $64, AX
	JG   gl2pf

gl2body:
	MOVL (R9)(R13*4), DI
	IMULQ R12, DI
	ADDQ R8, DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX
	CMPQ BX, $0
	JE   gl2tail8

gl2loop32:
	VMOVUPS (SI)(AX*4), Y4
	VMOVUPS 32(SI)(AX*4), Y5
	VMOVUPS 64(SI)(AX*4), Y6
	VMOVUPS 96(SI)(AX*4), Y7
	VSUBPS  (DI)(AX*4), Y4, Y4
	VSUBPS  32(DI)(AX*4), Y5, Y5
	VSUBPS  64(DI)(AX*4), Y6, Y6
	VSUBPS  96(DI)(AX*4), Y7, Y7
	VFMADD231PS Y4, Y4, Y0
	VFMADD231PS Y5, Y5, Y1
	VFMADD231PS Y6, Y6, Y2
	VFMADD231PS Y7, Y7, Y3
	ADDQ $32, AX
	CMPQ AX, BX
	JL   gl2loop32

gl2tail8:
	CMPQ AX, CX
	JGE  gl2reduce
	VMOVUPS (SI)(AX*4), Y4
	VSUBPS  (DI)(AX*4), Y4, Y4
	VFMADD231PS Y4, Y4, Y0
	ADDQ $8, AX
	JMP  gl2tail8

gl2reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VMOVSS X0, (R11)(R13*4)
	INCQ R13
	CMPQ R13, R10
	JL   gl2row
	VZEROUPPER
	RET

// func gatherDotBody8AVX2(q []float32, base *float32, stride int, ids []uint32, out []float32)
TEXT ·gatherDotBody8AVX2(SB), NOSPLIT, $0-88
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ base+24(FP), R8
	MOVQ stride+32(FP), R12
	SHLQ $2, R12
	MOVQ ids_base+40(FP), R9
	MOVQ ids_len+48(FP), R10
	MOVQ out_base+64(FP), R11
	MOVQ CX, BX
	ANDQ $-32, BX
	XORQ R13, R13

	MOVQ $1, DX
gdpre:
	CMPQ DX, $GATHER_AHEAD
	JGE  gdrow
	CMPQ DX, R10
	JGE  gdrow
	MOVL (R9)(DX*4), DI
	IMULQ R12, DI
	ADDQ R8, DI
	MOVQ R12, AX
gdprepf:
	PREFETCHT0 (DI)
	ADDQ $64, DI
	SUBQ $64, AX
	JG   gdprepf
	INCQ DX
	JMP  gdpre

gdrow:
	LEAQ GATHER_AHEAD(R13), DX
	CMPQ DX, R10
	JGE  gdbody
	MOVL (R9)(DX*4), DX
	IMULQ R12, DX
	ADDQ R8, DX
	MOVQ R12, AX
gdpf:
	PREFETCHT0 (DX)
	ADDQ $64, DX
	SUBQ $64, AX
	JG   gdpf

gdbody:
	MOVL (R9)(R13*4), DI
	IMULQ R12, DI
	ADDQ R8, DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX
	CMPQ BX, $0
	JE   gdtail8

gdloop32:
	VMOVUPS (SI)(AX*4), Y4
	VMOVUPS 32(SI)(AX*4), Y5
	VMOVUPS 64(SI)(AX*4), Y6
	VMOVUPS 96(SI)(AX*4), Y7
	VFMADD231PS (DI)(AX*4), Y4, Y0
	VFMADD231PS 32(DI)(AX*4), Y5, Y1
	VFMADD231PS 64(DI)(AX*4), Y6, Y2
	VFMADD231PS 96(DI)(AX*4), Y7, Y3
	ADDQ $32, AX
	CMPQ AX, BX
	JL   gdloop32

gdtail8:
	CMPQ AX, CX
	JGE  gdreduce
	VMOVUPS (SI)(AX*4), Y4
	VFMADD231PS (DI)(AX*4), Y4, Y0
	ADDQ $8, AX
	JMP  gdtail8

gdreduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VMOVSS X0, (R11)(R13*4)
	INCQ R13
	CMPQ R13, R10
	JL   gdrow
	VZEROUPPER
	RET

// func adcBody4(table *float32, codes *byte, m int, ids []uint32, out []float32)
//
// Asymmetric distances of len(ids) code rows (a non-zero multiple of 4):
// out[i] = Σ_j table[j*256 + codes[ids[i]*m + j]], j ascending, one
// float32 addition at a time — a sequential loop's bits. Four rows are
// summed side by side so their addition chains overlap; each lookup is a
// byte load and an ADDSS from the table.
//
// Registers: SI table, R12 codes, CX m, R13 next id, DX end of ids, R11
// next out, R8/R9/R10/BX the four rows' codes, DI table row j, AX j, R14
// code byte.
TEXT ·adcBody4(SB), NOSPLIT, $0-72
	MOVQ table+0(FP), SI
	MOVQ codes+8(FP), R12
	MOVQ m+16(FP), CX
	MOVQ ids_base+24(FP), R13
	MOVQ ids_len+32(FP), DX
	LEAQ (R13)(DX*4), DX
	MOVQ out_base+48(FP), R11

adcgroup:
	MOVL (R13), R8
	IMULQ CX, R8
	ADDQ R12, R8
	MOVL 4(R13), R9
	IMULQ CX, R9
	ADDQ R12, R9
	MOVL 8(R13), R10
	IMULQ CX, R10
	ADDQ R12, R10
	MOVL 12(R13), BX
	IMULQ CX, BX
	ADDQ R12, BX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ SI, DI
	XORQ AX, AX

adcsub:
	MOVBLZX (R8)(AX*1), R14
	ADDSS (DI)(R14*4), X0
	MOVBLZX (R9)(AX*1), R14
	ADDSS (DI)(R14*4), X1
	MOVBLZX (R10)(AX*1), R14
	ADDSS (DI)(R14*4), X2
	MOVBLZX (BX)(AX*1), R14
	ADDSS (DI)(R14*4), X3
	ADDQ $1024, DI
	INCQ AX
	CMPQ AX, CX
	JL   adcsub

	MOVSS X0, (R11)
	MOVSS X1, 4(R11)
	MOVSS X2, 8(R11)
	MOVSS X3, 12(R11)
	ADDQ $16, R13
	ADDQ $16, R11
	CMPQ R13, DX
	JL   adcgroup
	RET
