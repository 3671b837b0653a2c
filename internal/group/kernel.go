package group

import (
	"errors"
	"math/big"

	"groupranking/internal/field"
)

// The limb curve kernel: Jacobian point arithmetic over the shared limb
// field (internal/field) for short-Weierstrass curves with a = −3, the
// shape of every named curve in curves.go. It is the one curve
// arithmetic: newECGroup attaches one to every group, and Exp, Op,
// MultiExp (multiexp.go) and the fixed-base comb run here on limb
// values. Elements stay affine big.Int pairs outside, so encodings and
// protocol transcripts do not depend on the limb representation;
// FuzzExpAgainstGeneric and FuzzMultiExpAgainstGeneric hold the kernel
// to a math/big reference curve that only the tests carry. The point
// formulas below are generic over the field's body, and they are
// P-224's. On the two shaped bodies newCurveKernel picks their versions
// once: on secp160r1's fold the fold formulas (fold.go), on field.Fold's
// three-limb values, and on P-256 the P-256 formulas (p256.go), on
// field.P256's four-limb values. Each runs the same operations as the
// generic formula, and FuzzFoldAgainstGeneric and FuzzP256AgainstGeneric
// hold them to the same coordinates.

// curveKernel is the arithmetic engine of one curve.
type curveKernel struct {
	field.Field
	fold *field.Fold // the field's fold arithmetic (fold.go), nil unless it folds
	p256 bool        // the field has P-256's body (p256.go)
	b    field.Elem  // the curve's constant term, for onCurve
	g    *ECGroup    // the group whose elements leave the kernel
}

// jacPt is a Jacobian point (X/Z², Y/Z³) in the field's form; Z = 0
// encodes the point at infinity.
type jacPt struct{ x, y, z field.Elem }

// affPt is an affine point in the field's form.
type affPt struct {
	x, y field.Elem
	inf  bool
}

// errCurveShape refuses a curve the kernel cannot take.
var errCurveShape = errors.New("the curve kernel takes a = −3 with p and n of at most 256 bits")

// newCurveKernel returns the kernel for the curve y² = x³ + ax + b, or
// errCurveShape when a ≠ −3, the field is wider than four limbs, or the
// order's scalars would not fit them.
func newCurveKernel(p, a, b, n *big.Int) (*curveKernel, error) {
	f, err := field.New(p)
	if err != nil || n.BitLen() > 256 || new(big.Int).Add(a, big.NewInt(3)).Cmp(p) != 0 {
		return nil, errCurveShape
	}
	k := &curveKernel{Field: f, b: f.Reduce(b)}
	if fold, ok := f.Fold(); ok {
		k.fold = &fold
	}
	_, k.p256 = f.P256()
	return k, nil
}

// onCurve reports whether the affine point a, not the identity, satisfies
// y² = x³ − 3x + b.
func (k *curveKernel) onCurve(a *affPt) bool {
	var lhs, rhs field.Elem
	k.Sqr(&lhs, &a.y)
	k.rhs(&rhs, &a.x)
	return lhs == rhs
}

// rhs sets z = x³ − 3x + b, the square the curve asks of y.
func (k *curveKernel) rhs(z, x *field.Elem) {
	var x3, t field.Elem
	k.Sqr(&x3, x)
	k.Mul(&x3, &x3, x)
	k.Add(&t, x, x)
	k.Add(&t, &t, x)
	k.Sub(&x3, &x3, &t)
	k.Add(z, &x3, &k.b)
}

// lift converts an affine element. Coordinates forged unreduced in
// process (Decode never returns them and Validate rejects them, but Op
// and Exp must not panic on them) are reduced first, so the result is
// that of the point they stand for.
func (k *curveKernel) lift(pt ecPoint) affPt {
	if pt.inf {
		return affPt{inf: true}
	}
	return affPt{x: k.Reduce(pt.x), y: k.Reduce(pt.y)}
}

// toJac lifts an affine point to Jacobian coordinates.
func (k *curveKernel) toJac(a *affPt) jacPt {
	if a.inf {
		return jacPt{}
	}
	return jacPt{a.x, a.y, k.One()}
}

// lower projects a Jacobian point to an affine element: the one field
// inversion of an Exp or Op. A point whose Z is already one (an Op with
// an identity operand passes the other one through) is affine as it
// stands.
func (k *curveKernel) lower(pt *jacPt) ecPoint {
	if pt.z.IsZero() {
		return ecPoint{g: k.g, inf: true}
	}
	a := affPt{x: pt.x, y: pt.y}
	if pt.z != k.One() {
		var zi field.Elem
		k.Inv(&zi, &pt.z)
		k.scale(&a, pt, &zi)
	}
	return k.element(&a)
}

// element leaves the kernel: the affine point as the big.Int pair the
// rest of the package holds.
func (k *curveKernel) element(a *affPt) ecPoint {
	if a.inf {
		return ecPoint{g: k.g, inf: true}
	}
	return ecPoint{g: k.g, x: k.ToBig(&a.x), y: k.ToBig(&a.y)}
}

// scale sets a = (X·zi², Y·zi³), the affine form of pt given zi = Z⁻¹.
func (k *curveKernel) scale(a *affPt, pt *jacPt, zi *field.Elem) {
	var zi2 field.Elem
	k.Sqr(&zi2, zi)
	k.Mul(&a.x, &pt.x, &zi2)
	k.Mul(&zi2, &zi2, zi)
	k.Mul(&a.y, &pt.y, &zi2)
}

// normalise projects a batch of Jacobian points to affine with one
// shared inversion (Montgomery's trick): out[i].x first holds the
// product of every earlier non-zero Z, so inverting the full product and
// walking back peels off one Z⁻¹ per point for two multiplications.
func (k *curveKernel) normalise(pts []jacPt) []affPt {
	out := make([]affPt, len(pts))
	acc := k.One()
	for i := range pts {
		out[i].x = acc
		if !pts[i].z.IsZero() {
			k.Mul(&acc, &acc, &pts[i].z)
		}
	}
	k.Inv(&acc, &acc)
	for i := len(pts) - 1; i >= 0; i-- {
		pt := &pts[i]
		if pt.z.IsZero() {
			out[i] = affPt{inf: true}
			continue
		}
		var zi field.Elem
		k.Mul(&zi, &acc, &out[i].x)
		k.Mul(&acc, &acc, &pt.z)
		k.scale(&out[i], pt, &zi)
	}
	return out
}

// equalAffine reports whether the Jacobian p and the affine a are the
// same point without projecting p: X = x·Z² and Y = y·Z³, and the
// identity on both sides exactly when Z = 0.
func (k *curveKernel) equalAffine(p *jacPt, a *affPt) bool {
	if p.z.IsZero() || a.inf {
		return p.z.IsZero() && a.inf
	}
	var zz, t field.Elem
	k.Sqr(&zz, &p.z)
	if k.Mul(&t, &a.x, &zz); t != p.x {
		return false
	}
	k.Mul(&zz, &zz, &p.z)
	k.Mul(&t, &a.y, &zz)
	return t == p.y
}

// double sets r = 2p with the a = −3 formula (4M + 4S):
// M = 3(X−Z²)(X+Z²), S = 4XY², X' = M²−2S, Y' = M(S−X')−8Y⁴, Z' = 2YZ,
// with S and 8Y⁴ both reached through T = 2Y² to save field additions.
// Infinity and points of order two need no branch: both give Z' = 0.
func (k *curveKernel) double(r, p *jacPt) {
	if k.fold != nil {
		k.doubleFold(r, p)
		return
	}
	if k.p256 {
		k.doubleP256(r, p)
		return
	}
	var z2, m, t, s, x3, y3, z3 field.Elem
	k.Sqr(&z2, &p.z)
	k.Sub(&m, &p.x, &z2)
	k.Add(&t, &p.x, &z2)
	k.Mul(&m, &m, &t)
	k.Add(&t, &m, &m)
	k.Add(&m, &t, &m)
	k.Sqr(&t, &p.y)
	k.Add(&t, &t, &t) // T = 2Y²
	k.Mul(&s, &p.x, &t)
	k.Add(&s, &s, &s) // S = 2XT
	k.Sqr(&x3, &m)
	k.Sub(&x3, &x3, &s)
	k.Sub(&x3, &x3, &s)
	k.Sqr(&t, &t)
	k.Add(&t, &t, &t) // 8Y⁴ = 2T²
	k.Sub(&y3, &s, &x3)
	k.Mul(&y3, &m, &y3)
	k.Sub(&y3, &y3, &t)
	k.Mul(&z3, &p.y, &p.z)
	k.Add(&z3, &z3, &z3)
	*r = jacPt{x3, y3, z3}
}

// addJac sets r = p + q for two Jacobian points (12M + 4S).
func (k *curveKernel) addJac(r, p, q *jacPt) {
	if p.z.IsZero() {
		*r = *q
		return
	}
	if q.z.IsZero() {
		*r = *p
		return
	}
	if k.fold != nil {
		k.addJacFold(r, p, q)
		return
	}
	if k.p256 {
		k.addJacP256(r, p, q)
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, zz field.Elem
	k.Sqr(&z1z1, &p.z)
	k.Sqr(&z2z2, &q.z)
	k.Mul(&u1, &p.x, &z2z2)
	k.Mul(&u2, &q.x, &z1z1)
	k.Mul(&s1, &p.y, &q.z)
	k.Mul(&s1, &s1, &z2z2)
	k.Mul(&s2, &q.y, &p.z)
	k.Mul(&s2, &s2, &z1z1)
	k.Mul(&zz, &p.z, &q.z)
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
	if p.z.IsZero() {
		*r = k.toJac(q)
		return
	}
	if k.fold != nil {
		k.addAffineFold(r, p, q)
		return
	}
	if k.p256 {
		k.addAffineP256(r, p, q)
		return
	}
	var z1z1, u2, s2 field.Elem
	k.Sqr(&z1z1, &p.z)
	k.Mul(&u2, &q.x, &z1z1)
	k.Mul(&s2, &q.y, &p.z)
	k.Mul(&s2, &s2, &z1z1)
	k.addTail(r, p, &p.x, &p.y, &u2, &s2, &p.z)
}

// addTail finishes an addition from the operands brought to a common
// denominator: (U1, S1) is p, (U2, S2) the other point, zz = Z1·Z2.
// Equal U means the same or opposite points.
func (k *curveKernel) addTail(r, p *jacPt, u1, s1, u2, s2, zz *field.Elem) {
	var h, rr, h2, h3, v, x3, y3, z3, t field.Elem
	k.Sub(&h, u2, u1)
	k.Sub(&rr, s2, s1)
	if h.IsZero() {
		if rr.IsZero() {
			k.double(r, p)
		} else {
			*r = jacPt{}
		}
		return
	}
	k.Sqr(&h2, &h)
	k.Mul(&h3, &h2, &h)
	k.Mul(&v, u1, &h2)
	k.Sqr(&x3, &rr)
	k.Sub(&x3, &x3, &h3)
	k.Sub(&x3, &x3, &v)
	k.Sub(&x3, &x3, &v)
	k.Sub(&t, &v, &x3)
	k.Mul(&y3, &rr, &t)
	k.Mul(&t, s1, &h3)
	k.Sub(&y3, &y3, &t)
	k.Mul(&z3, &h, zz)
	*r = jacPt{x3, y3, z3}
}

// bitsAt returns the n ≤ 8 bits of the scalar limbs x starting at bit
// i; bits beyond 256 read as zero.
func bitsAt(x *[4]uint64, i, n int) uint {
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
func wnafRecode(digits *[257]int8, e *[4]uint64) int {
	n := 0
	var carry uint
	for i := 0; i < len(digits); {
		if bitsAt(e, i, 1) == carry {
			i++ // bit plus carry is even: a zero digit
			continue
		}
		w := bitsAt(e, i, wnafWidth) + carry
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
func (k *curveKernel) scalarMul(r *jacPt, base *affPt, e *[4]uint64) {
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
			k.Neg(&neg.y, &neg.y)
			k.addJac(r, r, &neg)
		}
	}
}

// kernelComb is the fixed-base comb on the kernel: entry
// [i·(2^w−1) + d−1] = d·2^(i·w)·base, built with Jacobian additions and
// normalised to affine in one batch so that every lookup is a mixed
// addition.
type kernelComb struct {
	k       *curveKernel
	w, nWin int
	table   []affPt
}

func newKernelComb(g *ECGroup, base Element, window uint) *kernelComb {
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
	return &kernelComb{k: k, w: w, nWin: nWin, table: k.normalise(jac)}
}

// add sets acc = acc + e·base for e below the order: one mixed addition
// per non-zero window digit and no doubling, in Jacobian coordinates, so
// a caller summing several terms projects once.
func (c *kernelComb) add(acc *jacPt, e *[4]uint64) {
	size := 1<<c.w - 1
	for i := 0; i < c.nWin; i++ {
		if d := bitsAt(e, i*c.w, c.w); d != 0 {
			c.k.addAffine(acc, acc, &c.table[i*size+int(d)-1])
		}
	}
}

// exp is FixedBaseTable.Exp on the comb: the one evaluation loop, then
// the projection.
func (c *kernelComb) exp(e *big.Int) Element {
	el := field.Limbs(e)
	var acc jacPt
	c.add(&acc, &el)
	return c.k.lower(&acc)
}
