package group

import (
	"errors"
	"math/big"
)

// The limb curve kernel: Jacobian point arithmetic over montField for
// short-Weierstrass curves with a = −3, the shape of every named curve
// in curves.go. It is the one curve arithmetic: newECGroup attaches one
// to every group, and Exp, Op, MultiExp (multiexp.go) and the fixed-base
// comb run here on limb values. Elements stay affine big.Int pairs
// outside, so encodings and protocol transcripts do not depend on the
// limb representation; FuzzExpAgainstGeneric and
// FuzzMultiExpAgainstGeneric hold the kernel to a math/big reference
// curve that only the tests carry.

// curveKernel is the arithmetic engine of one curve.
type curveKernel struct {
	montField
	prime *big.Int // montField.p again, to reduce out-of-range coordinates
}

// jacPt is a Jacobian point (X/Z², Y/Z³) in Montgomery form; Z = 0
// encodes the point at infinity.
type jacPt struct{ x, y, z fe }

// affPt is an affine point in Montgomery form.
type affPt struct {
	x, y fe
	inf  bool
}

// errCurveShape refuses a curve the kernel cannot take.
var errCurveShape = errors.New("the curve kernel takes a = −3 with p and n of at most 256 bits")

// newCurveKernel returns the kernel for the curve, or errCurveShape when
// a ≠ −3, the field is wider than four limbs, or the order's scalars
// would not fit them.
func newCurveKernel(p, a, n *big.Int) (*curveKernel, error) {
	f, ok := newMontField(p)
	if !ok || n.BitLen() > 256 || new(big.Int).Add(a, big.NewInt(3)).Cmp(p) != 0 {
		return nil, errCurveShape
	}
	return &curveKernel{montField: f, prime: p}, nil
}

// lift converts an affine element. Coordinates a peer sent unreduced
// (Validate rejects them, but Op and Exp must not panic on them) are
// reduced first, so the result is that of the point they stand for.
func (k *curveKernel) lift(pt ecPoint) affPt {
	if pt.inf {
		return affPt{inf: true}
	}
	var r affPt
	if !k.fromBig(&r.x, pt.x) {
		k.fromBig(&r.x, new(big.Int).Mod(pt.x, k.prime))
	}
	if !k.fromBig(&r.y, pt.y) {
		k.fromBig(&r.y, new(big.Int).Mod(pt.y, k.prime))
	}
	return r
}

// toJac lifts an affine point to Jacobian coordinates.
func (k *curveKernel) toJac(a *affPt) jacPt {
	if a.inf {
		return jacPt{}
	}
	return jacPt{a.x, a.y, k.one}
}

// lower projects a Jacobian point to an affine element: the one field
// inversion of an Exp or Op. A point whose Z is already one (an Op with
// an identity operand passes the other one through) is affine as it
// stands.
func (k *curveKernel) lower(pt *jacPt) ecPoint {
	if pt.z.isZero() {
		return ecPoint{inf: true}
	}
	a := affPt{x: pt.x, y: pt.y}
	if pt.z != k.one {
		var zi fe
		k.inv(&zi, &pt.z)
		k.scale(&a, pt, &zi)
	}
	return k.element(&a)
}

// element leaves the kernel: the affine point as the big.Int pair the
// rest of the package holds.
func (k *curveKernel) element(a *affPt) ecPoint {
	if a.inf {
		return ecPoint{inf: true}
	}
	return ecPoint{x: k.toBig(&a.x), y: k.toBig(&a.y)}
}

// scale sets a = (X·zi², Y·zi³), the affine form of pt given zi = Z⁻¹.
func (k *curveKernel) scale(a *affPt, pt *jacPt, zi *fe) {
	var zi2 fe
	k.sqr(&zi2, zi)
	k.mul(&a.x, &pt.x, &zi2)
	k.mul(&zi2, &zi2, zi)
	k.mul(&a.y, &pt.y, &zi2)
}

// normalise projects a batch of Jacobian points to affine with one
// shared inversion (Montgomery's trick): out[i].x first holds the
// product of every earlier non-zero Z, so inverting the full product and
// walking back peels off one Z⁻¹ per point for two multiplications.
func (k *curveKernel) normalise(pts []jacPt) []affPt {
	out := make([]affPt, len(pts))
	acc := k.one
	for i := range pts {
		out[i].x = acc
		if !pts[i].z.isZero() {
			k.mul(&acc, &acc, &pts[i].z)
		}
	}
	k.inv(&acc, &acc)
	for i := len(pts) - 1; i >= 0; i-- {
		pt := &pts[i]
		if pt.z.isZero() {
			out[i] = affPt{inf: true}
			continue
		}
		var zi fe
		k.mul(&zi, &acc, &out[i].x)
		k.mul(&acc, &acc, &pt.z)
		k.scale(&out[i], pt, &zi)
	}
	return out
}

// double sets r = 2p with the a = −3 formula (4M + 4S):
// M = 3(X−Z²)(X+Z²), S = 4XY², X' = M²−2S, Y' = M(S−X')−8Y⁴, Z' = 2YZ,
// with S and 8Y⁴ both reached through T = 2Y² to save field additions.
// Infinity and points of order two need no branch: both give Z' = 0.
func (k *curveKernel) double(r, p *jacPt) {
	var z2, m, t, s, x3, y3, z3 fe
	k.sqr(&z2, &p.z)
	k.sub(&m, &p.x, &z2)
	k.add(&t, &p.x, &z2)
	k.mul(&m, &m, &t)
	k.add(&t, &m, &m)
	k.add(&m, &t, &m)
	k.sqr(&t, &p.y)
	k.add(&t, &t, &t) // T = 2Y²
	k.mul(&s, &p.x, &t)
	k.add(&s, &s, &s) // S = 2XT
	k.sqr(&x3, &m)
	k.sub(&x3, &x3, &s)
	k.sub(&x3, &x3, &s)
	k.sqr(&t, &t)
	k.add(&t, &t, &t) // 8Y⁴ = 2T²
	k.sub(&y3, &s, &x3)
	k.mul(&y3, &m, &y3)
	k.sub(&y3, &y3, &t)
	k.mul(&z3, &p.y, &p.z)
	k.add(&z3, &z3, &z3)
	*r = jacPt{x3, y3, z3}
}

// addJac sets r = p + q for two Jacobian points (12M + 4S).
func (k *curveKernel) addJac(r, p, q *jacPt) {
	if p.z.isZero() {
		*r = *q
		return
	}
	if q.z.isZero() {
		*r = *p
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, zz fe
	k.sqr(&z1z1, &p.z)
	k.sqr(&z2z2, &q.z)
	k.mul(&u1, &p.x, &z2z2)
	k.mul(&u2, &q.x, &z1z1)
	k.mul(&s1, &p.y, &q.z)
	k.mul(&s1, &s1, &z2z2)
	k.mul(&s2, &q.y, &p.z)
	k.mul(&s2, &s2, &z1z1)
	k.mul(&zz, &p.z, &q.z)
	k.addTail(r, p, &u1, &s1, &u2, &s2, &zz)
}

// addAffine sets r = p + q for an affine q (mixed addition, 8M + 3S):
// with Z2 = 1 the U1, S1 and Z1·Z2 products of addJac are p's own
// coordinates.
func (k *curveKernel) addAffine(r, p *jacPt, q *affPt) {
	if q.inf {
		*r = *p
		return
	}
	if p.z.isZero() {
		*r = k.toJac(q)
		return
	}
	var z1z1, u2, s2 fe
	k.sqr(&z1z1, &p.z)
	k.mul(&u2, &q.x, &z1z1)
	k.mul(&s2, &q.y, &p.z)
	k.mul(&s2, &s2, &z1z1)
	k.addTail(r, p, &p.x, &p.y, &u2, &s2, &p.z)
}

// addTail finishes an addition from the operands brought to a common
// denominator: (U1, S1) is p, (U2, S2) the other point, zz = Z1·Z2.
// Equal U means the same or opposite points.
func (k *curveKernel) addTail(r, p *jacPt, u1, s1, u2, s2, zz *fe) {
	var h, rr, h2, h3, v, x3, y3, z3, t fe
	k.sub(&h, u2, u1)
	k.sub(&rr, s2, s1)
	if h.isZero() {
		if rr.isZero() {
			k.double(r, p)
		} else {
			*r = jacPt{}
		}
		return
	}
	k.sqr(&h2, &h)
	k.mul(&h3, &h2, &h)
	k.mul(&v, u1, &h2)
	k.sqr(&x3, &rr)
	k.sub(&x3, &x3, &h3)
	k.sub(&x3, &x3, &v)
	k.sub(&x3, &x3, &v)
	k.sub(&t, &v, &x3)
	k.mul(&y3, &rr, &t)
	k.mul(&t, s1, &h3)
	k.sub(&y3, &y3, &t)
	k.mul(&z3, &h, zz)
	*r = jacPt{x3, y3, z3}
}

// bitsAt returns the n ≤ 8 bits of x starting at bit i; bits beyond
// 256 read as zero.
func (x *fe) bitsAt(i, n int) uint {
	limb, off := i>>6, uint(i&63)
	if limb >= len(x) {
		return 0
	}
	v := x[limb] >> off
	if off+uint(n) > 64 && limb+1 < len(x) {
		v |= x[limb+1] << (64 - off)
	}
	return uint(v) & (1<<uint(n) - 1)
}

// wnafWidth is the signed-window width for variable bases: eight odd
// multiples, and one addition per six scalar bits on average.
const wnafWidth = 5

// wnafRecode writes the width-wnafWidth non-adjacent form of e
// (little-endian; every digit zero or odd in (−16, 16)) and returns its
// length. It scans e with a carry instead of rewriting it: an odd
// window of 16 or more becomes the negative digit w − 32 and carries
// into the next window.
func wnafRecode(digits *[257]int8, e *fe) int {
	n := 0
	var carry uint
	for i := 0; i < len(digits); {
		if e.bitsAt(i, 1) == carry {
			i++ // bit plus carry is even: a zero digit
			continue
		}
		w := e.bitsAt(i, wnafWidth) + carry
		carry = w >> (wnafWidth - 1)
		digits[i] = int8(w) - int8(carry<<wnafWidth)
		n = i + 1
		i += wnafWidth
	}
	return n
}

// scalarMul sets r = e·base for a variable base: a table of the odd
// multiples 1P, 3P, … up to the largest digit of e's wNAF (all of
// 1P … 15P for a full-width scalar, one or two entries for the
// comparison circuit's 5-bit weights), then one doubling per digit and
// one addition per non-zero digit.
func (k *curveKernel) scalarMul(r *jacPt, base *affPt, e *fe) {
	var digits [257]int8
	n := wnafRecode(&digits, e)
	var largest int8
	for _, d := range digits[:n] {
		largest = max(largest, d, -d)
	}
	var pre [tableSize]jacPt
	k.oddMultiples(pre[:largest>>1+1], base)
	*r = jacPt{}
	for i := n - 1; i >= 0; i-- {
		k.double(r, r)
		switch d := digits[i]; {
		case d > 0:
			k.addJac(r, r, &pre[d>>1])
		case d < 0:
			neg := pre[(-d)>>1]
			k.neg(&neg.y, &neg.y)
			k.addJac(r, r, &neg)
		}
	}
}

// newKernelComb is the fixed-base comb on the kernel: entry
// [i·(2^w−1) + d−1] = d·2^(i·w)·base, built with Jacobian additions and
// normalised to affine in one batch so that every lookup is a mixed
// addition.
func newKernelComb(g *ECGroup, base Element, window uint) func(*big.Int) Element {
	k, w := g.kern, int(window)
	b := k.lift(g.unwrap(base))
	cur := k.toJac(&b)
	nWin := (g.n.BitLen() + w - 1) / w
	size := 1<<w - 1
	jac := make([]jacPt, nWin*size)
	for i := 0; i < nWin; i++ {
		win := jac[i*size : (i+1)*size]
		win[0] = cur
		for d := 1; d < size; d++ {
			k.addJac(&win[d], &win[d-1], &cur)
		}
		k.addJac(&cur, &win[size-1], &cur)
	}
	table := k.normalise(jac)
	return func(e *big.Int) Element {
		el := limbsFromBig(e)
		var acc jacPt
		for i := 0; i < nWin; i++ {
			if d := el.bitsAt(i*w, w); d != 0 {
				k.addAffine(&acc, &acc, &table[i*size+int(d)-1])
			}
		}
		return k.lower(&acc)
	}
}
