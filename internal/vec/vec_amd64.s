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
