package group

import (
	"math/big"

	"groupranking/internal/field"
)

// The comparison circuit and the zero test as kernel batches. Both are
// protocol steps that a composition of Exp and Op would evaluate with one
// projection, hence one field inversion, per call: about thirteen per
// comparison ciphertext and two per zero test. On the kernel the circuit
// keeps every intermediate in Jacobian coordinates and projects a peer's
// whole output with one shared inversion, and the zero test compares
// projectively and inverts nothing.
//
// Counting contract (MultiExp's): both evaluate on the RAW group and
// perform no counted operation. elgamal.Scheme, the one caller, charges
// the logical operations of the composition they stand for, and composes
// the steps itself on every group where these report false.

// CompareCircuit evaluates one peer's τ vector of the comparison circuit
// (step 7 of Fig. 1) on a kernel curve. peer[t] is the peer's bit
// ciphertext (A_t, B_t), least significant bit first, bits[t] the
// caller's own bit, y the joint key's table, z the randomness of the
// suffix sums' zero encryption and rs[t] τ_t's re-randomiser, or rs nil
// for none. With w_t = l − t and s = +1 for a bit 1, −1 for a bit 0,
// out[t] is
//
//	C  = A_t^(s_t·w_t) · Π_{v>t} A_v^(−s_v) · g^(e_t) · y^(z + r_t)
//	C1 = B_t^(s_t·w_t) · Π_{v>t} B_v^(−s_v) · g^(z + r_t)
//
// where e_t = #{v > t : b_v = 1} plus 1 when b_t = 1, or plus w_t when
// b_t = 0. It reports false, and computes nothing, on a group without the
// kernel or without y's table.
func CompareCircuit(g Group, y *FixedBaseTable, peer [][2]Element, bits []uint8, z *big.Int, rs []*big.Int) ([][2]Element, bool) {
	ec, ok := Raw(g).(*ECGroup)
	if !ok || y == nil {
		return nil, false
	}
	return ec.kern.compareCircuit(ec, y.comb, peer, bits, z, rs), true
}

// compareCircuit is CompareCircuit on the kernel: per bit and component
// a short ladder for the weighted term, one addition for it and one for
// the running suffix sum, and comb lookups for the g and y terms, all
// Jacobian; one normalise projects the 2l results.
func (k *curveKernel) compareCircuit(g *ECGroup, y *kernelComb, peer [][2]Element, bits []uint8, z *big.Int, rs []*big.Int) [][2]Element {
	gen := generatorTable(g).comb
	l := len(peer)
	jac := make([]jacPt, 2*l)
	var suffix [2]jacPt // Π_{v>t} A_v^(−s_v), Π_{v>t} B_v^(−s_v)
	ones := uint64(0)   // #{v > t : b_v = 1}
	for t := l - 1; t >= 0; t-- {
		w := [4]uint64{uint64(l - t)}
		e := [4]uint64{ones + w[0]}
		if bits[t] == 1 {
			ones++
			e[0] = ones
		}
		r := new(big.Int).Set(z)
		if rs != nil {
			r.Add(r, rs[t])
		}
		mask := field.Limbs(r.Mod(r, g.n))
		for i, el := range peer[t] {
			p := k.lift(g.unwrap(el))
			if bits[t] == 0 {
				k.Neg(&p.y, &p.y)
			}
			out := &jac[2*t+i]
			k.scalarMul(out, &p, &w)
			k.addJac(out, out, &suffix[i])
			k.Neg(&p.y, &p.y)
			k.addAffine(&suffix[i], &suffix[i], &p)
			if i == 0 {
				gen.add(out, &e)
				y.add(out, &mask)
			} else {
				gen.add(out, &mask)
			}
		}
	}
	out := make([][2]Element, l)
	for i, a := range k.normalise(jac) {
		out[i/2][i%2] = k.element(&a)
	}
	return out
}

// ZeroSet reports, on a kernel curve, whether each ciphertext (C, C1) has
// C = C1^x, that is whether stripping the key x leaves the identity: the
// zero test of step 9 of Fig. 1. C1^x stays Jacobian and is compared with
// C projectively, so the batch inverts nothing. It reports false, and
// computes nothing, on a group without the kernel.
func ZeroSet(g Group, x *big.Int, cts [][2]Element) ([]bool, bool) {
	ec, ok := Raw(g).(*ECGroup)
	if !ok {
		return nil, false
	}
	k := ec.kern
	e, neg := scalarLimbs(x, ec.n)
	out := make([]bool, len(cts))
	for i, ct := range cts {
		c, c1 := k.lift(ec.unwrap(ct[0])), k.lift(ec.unwrap(ct[1]))
		if neg {
			k.Neg(&c.y, &c.y) // C = −(|x|·C1) exactly when −C = |x|·C1
		}
		var p jacPt
		k.scalarMul(&p, &c1, &e)
		out[i] = k.equalAffine(&p, &c)
	}
	return out, true
}
