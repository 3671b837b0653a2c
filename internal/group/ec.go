package group

import (
	"fmt"
	"io"
	"math/big"
)

// ECGroup is a prime-order group of points on a short-Weierstrass curve
// y² = x³ + ax + b over F_p ("ECC" in the paper's terminology). The curve
// arithmetic is implemented from scratch with Jacobian projective
// coordinates; no crypto/elliptic machinery is used. Curves the limb
// kernel can take (kernel.go: a = −3, p of at most 256 bits — every
// named curve) run Exp, Op and the fixed-base comb on it; the math/big
// Jacobian code in this file serves any other CurveSpec and is the
// oracle the kernel is tested against.
type ECGroup struct {
	name     string
	p        *big.Int // field prime
	a, b     *big.Int // curve coefficients
	gx, gy   *big.Int // base point
	n        *big.Int // (prime) order of the base point
	elemLen  int      // compressed point encoding length
	secLevel int
	kern     *curveKernel // nil: math/big arithmetic
}

// ecPoint is an affine point; inf marks the point at infinity.
type ecPoint struct {
	x, y *big.Int
	inf  bool
}

func (ecPoint) groupElement() {}

// jacPoint is an internal Jacobian-coordinate point (X/Z², Y/Z³).
// Z = 0 encodes the point at infinity.
type jacPoint struct {
	x, y, z *big.Int
}

var _ Group = (*ECGroup)(nil)

// CurveSpec carries the domain parameters for NewECGroup.
type CurveSpec struct {
	Name         string
	P, A, B      *big.Int
	Gx, Gy       *big.Int
	N            *big.Int
	SecurityBits int
}

// NewECGroup validates a curve specification (prime field, prime order,
// base point on curve, n·G = ∞) and returns the group.
func NewECGroup(spec CurveSpec) (*ECGroup, error) {
	if !spec.P.ProbablyPrime(32) {
		return nil, fmt.Errorf("group: %s field modulus is not prime", spec.Name)
	}
	if !spec.N.ProbablyPrime(32) {
		return nil, fmt.Errorf("group: %s order is not prime", spec.Name)
	}
	g := &ECGroup{
		name:     spec.Name,
		p:        spec.P,
		a:        new(big.Int).Mod(spec.A, spec.P),
		b:        new(big.Int).Mod(spec.B, spec.P),
		gx:       spec.Gx,
		gy:       spec.Gy,
		n:        spec.N,
		elemLen:  1 + (spec.P.BitLen()+7)/8,
		secLevel: spec.SecurityBits,
	}
	g.kern = newCurveKernel(g.p, g.a, g.n)
	if !g.onCurve(spec.Gx, spec.Gy) {
		return nil, fmt.Errorf("group: %s base point is not on the curve", spec.Name)
	}
	// n·G = ∞, tested as (n−1)·G = −G because Exp reduces its exponent
	// modulo n and would answer n·G = ∞ for any n.
	nMinus1 := new(big.Int).Sub(spec.N, big.NewInt(1))
	if !g.Equal(g.Exp(g.Generator(), nMinus1), g.Inv(g.Generator())) {
		return nil, fmt.Errorf("group: %s base point order is not n", spec.Name)
	}
	return g, nil
}

// onCurve reports whether (x, y) satisfies the curve equation.
func (g *ECGroup) onCurve(x, y *big.Int) bool {
	lhs := new(big.Int).Mul(y, y)
	lhs.Mod(lhs, g.p)
	rhs := new(big.Int).Mul(x, x)
	rhs.Mul(rhs, x)
	rhs.Add(rhs, new(big.Int).Mul(g.a, x))
	rhs.Add(rhs, g.b)
	rhs.Mod(rhs, g.p)
	return lhs.Cmp(rhs) == 0
}

// Name implements Group.
func (g *ECGroup) Name() string { return g.name }

// Order implements Group.
func (g *ECGroup) Order() *big.Int { return g.n }

// FieldPrime returns the underlying field modulus p.
func (g *ECGroup) FieldPrime() *big.Int { return g.p }

// Generator implements Group.
func (g *ECGroup) Generator() Element { return ecPoint{x: g.gx, y: g.gy} }

// Identity implements Group.
func (g *ECGroup) Identity() Element { return ecPoint{inf: true} }

func (g *ECGroup) unwrap(e Element) ecPoint {
	pt, ok := e.(ecPoint)
	if !ok {
		panic(mismatchPanic(g.name, e))
	}
	return pt
}

// toJac lifts an affine point to Jacobian coordinates.
func (g *ECGroup) toJac(pt ecPoint) jacPoint {
	if pt.inf {
		return jacPoint{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
	}
	return jacPoint{x: new(big.Int).Set(pt.x), y: new(big.Int).Set(pt.y), z: big.NewInt(1)}
}

// toAffine projects a Jacobian point back to affine coordinates.
func (g *ECGroup) toAffine(j jacPoint) ecPoint {
	if j.z.Sign() == 0 {
		return ecPoint{inf: true}
	}
	zinv := new(big.Int).ModInverse(j.z, g.p)
	zinv2 := new(big.Int).Mul(zinv, zinv)
	zinv2.Mod(zinv2, g.p)
	x := new(big.Int).Mul(j.x, zinv2)
	x.Mod(x, g.p)
	zinv3 := zinv2.Mul(zinv2, zinv)
	zinv3.Mod(zinv3, g.p)
	y := new(big.Int).Mul(j.y, zinv3)
	y.Mod(y, g.p)
	return ecPoint{x: x, y: y}
}

// jacDouble returns 2P using the general-a Jacobian doubling formula.
func (g *ECGroup) jacDouble(pt jacPoint) jacPoint {
	if pt.z.Sign() == 0 || pt.y.Sign() == 0 {
		return jacPoint{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
	}
	p := g.p
	y2 := new(big.Int).Mul(pt.y, pt.y) // Y²
	y2.Mod(y2, p)
	s := new(big.Int).Mul(pt.x, y2) // X·Y²
	s.Lsh(s, 2)                     // S = 4·X·Y²
	s.Mod(s, p)
	x2 := new(big.Int).Mul(pt.x, pt.x) // X²
	x2.Mod(x2, p)
	m := new(big.Int).Lsh(x2, 1)
	m.Add(m, x2) // 3X²
	z2 := new(big.Int).Mul(pt.z, pt.z)
	z2.Mod(z2, p)
	z4 := new(big.Int).Mul(z2, z2)
	z4.Mod(z4, p)
	m.Add(m, z4.Mul(z4, g.a)) // M = 3X² + a·Z⁴
	m.Mod(m, p)
	x3 := new(big.Int).Mul(m, m)
	x3.Sub(x3, new(big.Int).Lsh(s, 1)) // X' = M² − 2S
	x3.Mod(x3, p)
	y4 := y2.Mul(y2, y2) // Y⁴ (reuses y2)
	y4.Lsh(y4, 3)        // 8Y⁴
	y3 := new(big.Int).Sub(s, x3)
	y3.Mul(y3, m)
	y3.Sub(y3, y4) // Y' = M(S−X') − 8Y⁴
	y3.Mod(y3, p)
	z3 := new(big.Int).Mul(pt.y, pt.z)
	z3.Lsh(z3, 1) // Z' = 2YZ
	z3.Mod(z3, p)
	return jacPoint{x: x3, y: y3, z: z3}
}

// jacAdd returns P+Q.
func (g *ECGroup) jacAdd(p1, p2 jacPoint) jacPoint {
	if p1.z.Sign() == 0 {
		return p2
	}
	if p2.z.Sign() == 0 {
		return p1
	}
	p := g.p
	z1z1 := new(big.Int).Mul(p1.z, p1.z)
	z1z1.Mod(z1z1, p)
	z2z2 := new(big.Int).Mul(p2.z, p2.z)
	z2z2.Mod(z2z2, p)
	u1 := new(big.Int).Mul(p1.x, z2z2)
	u1.Mod(u1, p)
	u2 := new(big.Int).Mul(p2.x, z1z1)
	u2.Mod(u2, p)
	s1 := new(big.Int).Mul(p1.y, z2z2)
	s1.Mul(s1, p2.z)
	s1.Mod(s1, p)
	s2 := new(big.Int).Mul(p2.y, z1z1)
	s2.Mul(s2, p1.z)
	s2.Mod(s2, p)
	if u1.Cmp(u2) == 0 {
		if s1.Cmp(s2) != 0 {
			return jacPoint{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
		}
		return g.jacDouble(p1)
	}
	h := new(big.Int).Sub(u2, u1)
	h.Mod(h, p)
	r := new(big.Int).Sub(s2, s1)
	r.Mod(r, p)
	h2 := new(big.Int).Mul(h, h)
	h2.Mod(h2, p)
	h3 := new(big.Int).Mul(h2, h)
	h3.Mod(h3, p)
	u1h2 := new(big.Int).Mul(u1, h2)
	u1h2.Mod(u1h2, p)
	x3 := new(big.Int).Mul(r, r)
	x3.Sub(x3, h3)
	x3.Sub(x3, new(big.Int).Lsh(u1h2, 1)) // X3 = R² − H³ − 2·U1·H²
	x3.Mod(x3, p)
	y3 := new(big.Int).Sub(u1h2, x3)
	y3.Mul(y3, r)
	y3.Sub(y3, new(big.Int).Mul(s1, h3)) // Y3 = R(U1H² − X3) − S1·H³
	y3.Mod(y3, p)
	z3 := new(big.Int).Mul(h, p1.z)
	z3.Mul(z3, p2.z)
	z3.Mod(z3, p)
	return jacPoint{x: x3, y: y3, z: z3}
}

// Op implements Group (point addition).
func (g *ECGroup) Op(a, b Element) Element {
	pa, pb := g.unwrap(a), g.unwrap(b)
	if k := g.kern; k != nil {
		la, lb := k.lift(pa), k.lift(pb)
		r := k.toJac(&la)
		k.addAffine(&r, &r, &lb)
		return k.lower(&r)
	}
	return g.toAffine(g.jacAdd(g.toJac(pa), g.toJac(pb)))
}

// Inv implements Group (point negation).
func (g *ECGroup) Inv(a Element) Element {
	pt := g.unwrap(a)
	if pt.inf {
		return pt
	}
	return ecPoint{x: new(big.Int).Set(pt.x), y: new(big.Int).Sub(g.p, pt.y)}
}

// jacNeg negates a Jacobian point.
func (g *ECGroup) jacNeg(p jacPoint) jacPoint {
	if p.z.Sign() == 0 {
		return p
	}
	return jacPoint{x: p.x, y: new(big.Int).Sub(g.p, p.y), z: p.z}
}

// Exp implements Group (scalar multiplication). Both paths use a
// signed-digit (wNAF) ladder: eight precomputed odd multiples cut the
// expected additions from l/2 to about l/5 (width 4, math/big) or l/6
// (width 5, kernel), which matters because the unlinkable comparison
// phase performs O(l·n²) of these.
func (g *ECGroup) Exp(a Element, k *big.Int) Element {
	if k.Sign() < 0 {
		// k·P = −(|k|·P): a short negative scalar (the comparison
		// circuit's −weight) stays short, where reducing it modulo n
		// would make it a full-width one.
		return g.Inv(g.Exp(a, new(big.Int).Neg(k)))
	}
	pt := g.unwrap(a)
	if !pt.inf && pt.x.Cmp(g.gx) == 0 && pt.y.Cmp(g.gy) == 0 {
		// Fixed-base fast path for the generator (see dl.go): one
		// cached comb table replaces the wNAF ladder, below the obsv
		// counting layer so exp counts are unchanged.
		return generatorTable(g).Exp(k)
	}
	e := k
	if k.Cmp(g.n) >= 0 {
		e = new(big.Int).Mod(k, g.n)
	}
	if e.Sign() == 0 || pt.inf {
		return ecPoint{inf: true}
	}
	if kern := g.kern; kern != nil {
		base, el := kern.lift(pt), limbsFromBig(e)
		var r jacPt
		kern.scalarMul(&r, &base, &el)
		return kern.lower(&r)
	}
	base := g.toJac(pt)
	// Odd multiples 1P, 3P, …, 15P.
	var pre [8]jacPoint
	pre[0] = base
	dbl := g.jacDouble(base)
	for i := 1; i < 8; i++ {
		pre[i] = g.jacAdd(pre[i-1], dbl)
	}
	digits := wnafDigits(e, 4)
	acc := jacPoint{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
	for i := len(digits) - 1; i >= 0; i-- {
		acc = g.jacDouble(acc)
		switch d := digits[i]; {
		case d > 0:
			acc = g.jacAdd(acc, pre[d>>1])
		case d < 0:
			acc = g.jacAdd(acc, g.jacNeg(pre[(-d)>>1]))
		}
	}
	return g.toAffine(acc)
}

// wnafDigits returns the width-w non-adjacent form of e (little-endian):
// each digit is zero or odd in (−2^w/2, 2^w/2), with at most one non-zero
// digit in any w consecutive positions.
func wnafDigits(e *big.Int, w uint) []int8 {
	mod := int64(1) << w
	x := new(big.Int).Set(e)
	out := make([]int8, 0, x.BitLen()+1)
	tmp := new(big.Int)
	for x.Sign() > 0 {
		var d int64
		if x.Bit(0) == 1 {
			d = tmp.And(x, big.NewInt(mod-1)).Int64()
			if d >= mod/2 {
				d -= mod
			}
			x.Sub(x, big.NewInt(d))
		}
		out = append(out, int8(d))
		x.Rsh(x, 1)
	}
	return out
}

// Equal implements Group.
func (g *ECGroup) Equal(a, b Element) bool {
	pa, pb := g.unwrap(a), g.unwrap(b)
	if pa.inf || pb.inf {
		return pa.inf == pb.inf
	}
	return pa.x.Cmp(pb.x) == 0 && pa.y.Cmp(pb.y) == 0
}

// IsIdentity implements Group.
func (g *ECGroup) IsIdentity(a Element) bool { return g.unwrap(a).inf }

// Encode implements Group using the compressed SEC1 encoding
// (0x02 | parity(Y)) ‖ X: one byte of Y-parity tag plus the fixed-width
// X coordinate, 1+⌈log₂p/8⌉ bytes — roughly half the uncompressed form,
// which is the unit every nominal byte count on the wire is charged in.
// The point at infinity encodes as ElementLen() zero bytes (a padded
// SEC1 0x00 prefix), keeping every element — identity included — at the
// fixed width the Group contract promises; the identity arises
// legitimately whenever an exponent hits zero (τ = 0, the comparison
// circuit's signal value, after the last decryption layer).
func (g *ECGroup) Encode(a Element) []byte {
	return g.AppendElement(make([]byte, 0, g.elemLen), a)
}

// AppendElement implements Group without allocating when dst has
// capacity: the compressed point is written directly into the grown
// tail.
func (g *ECGroup) AppendElement(dst []byte, a Element) []byte {
	pt := g.unwrap(a)
	n := len(dst)
	dst = append(dst, make([]byte, g.elemLen)...)
	if pt.inf {
		return dst
	}
	dst[n] = 0x02 | byte(pt.y.Bit(0))
	pt.x.FillBytes(dst[n+1:])
	return dst
}

// Decode implements Group, decompressing the Y coordinate (a modular
// square root — big.Int.ModSqrt handles both p ≡ 3 (mod 4) and the
// Tonelli–Shanks case) and thereby verifying the point lies on the
// curve: an X with no square root on the right-hand side is exactly an
// off-curve point. Only fixed-width encodings are accepted, so every
// element has exactly one valid encoding.
func (g *ECGroup) Decode(data []byte) (Element, error) {
	if len(data) != g.elemLen {
		return nil, fmt.Errorf("group: malformed %s point encoding", g.name)
	}
	if data[0] == 0x00 {
		for _, b := range data[1:] {
			if b != 0 {
				return nil, fmt.Errorf("group: malformed %s point encoding", g.name)
			}
		}
		return ecPoint{inf: true}, nil
	}
	if data[0] != 0x02 && data[0] != 0x03 {
		return nil, fmt.Errorf("group: malformed %s point encoding", g.name)
	}
	x := new(big.Int).SetBytes(data[1:])
	if x.Cmp(g.p) >= 0 {
		return nil, fmt.Errorf("group: %s point is not on the curve", g.name)
	}
	// y² = x³ + ax + b
	rhs := new(big.Int).Mul(x, x)
	rhs.Mul(rhs, x)
	rhs.Add(rhs, new(big.Int).Mul(g.a, x))
	rhs.Add(rhs, g.b)
	rhs.Mod(rhs, g.p)
	y := new(big.Int).ModSqrt(rhs, g.p)
	if y == nil {
		return nil, fmt.Errorf("group: %s point is not on the curve", g.name)
	}
	if uint(data[0]&1) != y.Bit(0) {
		if y.Sign() == 0 {
			// y = 0 would be a point of order 2, impossible in a
			// prime-order group; its only valid tag is the even one.
			return nil, fmt.Errorf("group: %s point is not on the curve", g.name)
		}
		y.Sub(g.p, y)
	}
	return ecPoint{x: x, y: y}, nil
}

// ElementLen implements Group.
func (g *ECGroup) ElementLen() int { return g.elemLen }

// RandomScalar implements Group.
func (g *ECGroup) RandomScalar(rng io.Reader) (*big.Int, error) {
	return randomScalar(rng, g.n)
}

// SecurityBits implements Group.
func (g *ECGroup) SecurityBits() int { return g.secLevel }
