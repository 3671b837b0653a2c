package group

import (
	"fmt"
	"io"
	"math/big"

	"groupranking/internal/field"
)

// ECGroup is a prime-order group of points on a short-Weierstrass curve
// y² = x³ + ax + b over F_p ("ECC" in the paper's terminology). The curve
// arithmetic is implemented from scratch; no crypto/elliptic machinery is
// used. Exp, Op, MultiExp and the fixed-base comb run on the limb kernel
// (kernel.go), which takes a = −3 and p, n of at most 256 bits: the shape
// of every named curve, and the only shape newECGroup accepts. Decoding
// (point decompression) and validation run on the kernel's field too;
// elements stay affine big.Int pairs.
type ECGroup struct {
	name     string
	p        *big.Int // field prime
	a, b     *big.Int // curve coefficients
	gx, gy   *big.Int // base point
	n        *big.Int // (prime) order of the base point
	elemLen  int      // compressed point encoding length
	secLevel int
	kern     *curveKernel
}

// ecPoint is an affine point of the curve g that made it; inf marks the
// point at infinity.
type ecPoint struct {
	g    *ECGroup
	x, y *big.Int
	inf  bool
}

func (ecPoint) groupElement() {}

var _ Group = (*ECGroup)(nil)

// curveSpec carries the domain parameters for newECGroup.
type curveSpec struct {
	name         string
	p, a, b      *big.Int
	gx, gy       *big.Int
	n            *big.Int
	securityBits int
}

// newECGroup validates a curve specification (prime field, prime order,
// a shape the kernel takes, base point on curve, n·G = ∞) and returns
// the group.
func newECGroup(spec curveSpec) (*ECGroup, error) {
	if !spec.p.ProbablyPrime(32) {
		return nil, fmt.Errorf("group: %s field modulus is not prime", spec.name)
	}
	if !spec.n.ProbablyPrime(32) {
		return nil, fmt.Errorf("group: %s order is not prime", spec.name)
	}
	g := &ECGroup{
		name:     spec.name,
		p:        spec.p,
		a:        new(big.Int).Mod(spec.a, spec.p),
		b:        new(big.Int).Mod(spec.b, spec.p),
		gx:       spec.gx,
		gy:       spec.gy,
		n:        spec.n,
		elemLen:  1 + (spec.p.BitLen()+7)/8,
		secLevel: spec.securityBits,
	}
	var err error
	if g.kern, err = newCurveKernel(g.p, g.a, g.b, g.n); err != nil {
		return nil, fmt.Errorf("group: %s: %w", spec.name, err)
	}
	g.kern.g = g
	if err := g.validateElement(g.Generator()); err != nil {
		return nil, fmt.Errorf("group: %s base point: %w", spec.name, err)
	}
	// n·G = ∞, tested as (n−1)·G = −G because Exp reduces its exponent
	// modulo n and would answer n·G = ∞ for any n.
	nMinus1 := new(big.Int).Sub(spec.n, big.NewInt(1))
	if !g.Equal(g.Exp(g.Generator(), nMinus1), g.Inv(g.Generator())) {
		return nil, fmt.Errorf("group: %s base point order is not n", spec.name)
	}
	return g, nil
}

// Name implements Group.
func (g *ECGroup) Name() string { return g.name }

// Order implements Group.
func (g *ECGroup) Order() *big.Int { return g.n }

// Generator implements Group.
func (g *ECGroup) Generator() Element { return ecPoint{g: g, x: g.gx, y: g.gy} }

// Identity implements Group.
func (g *ECGroup) Identity() Element { return ecPoint{g: g, inf: true} }

func (g *ECGroup) unwrap(e Element) ecPoint {
	pt, ok := e.(ecPoint)
	if !ok {
		panic(mismatchPanic(g.name, e))
	}
	return pt
}

// Op implements Group (point addition).
func (g *ECGroup) Op(a, b Element) Element {
	k := g.kern
	la, lb := k.lift(g.unwrap(a)), k.lift(g.unwrap(b))
	r := k.toJac(&la)
	k.addAffine(&r, &r, &lb)
	return k.lower(&r)
}

// Inv implements Group (point negation).
func (g *ECGroup) Inv(a Element) Element {
	pt := g.unwrap(a)
	if pt.inf {
		return pt
	}
	return ecPoint{g: g, x: new(big.Int).Set(pt.x), y: new(big.Int).Sub(g.p, pt.y)}
}

// Exp implements Group (scalar multiplication) with the kernel's
// signed-digit (width-5 wNAF) ladder: eight precomputed odd multiples cut
// the expected additions from l/2 to about l/6, which matters because the
// unlinkable comparison phase performs O(l·n²) of these.
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
		return g.Identity()
	}
	base, el := g.kern.lift(pt), field.Limbs(e)
	var r jacPt
	g.kern.scalarMul(&r, &base, &el)
	return g.kern.lower(&r)
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

// AppendElement implements Group using the compressed SEC1 encoding
// (0x02 | parity(Y)) ‖ X: one byte of Y-parity tag plus the fixed-width
// X coordinate, 1+⌈log₂p/8⌉ bytes — roughly half the uncompressed form,
// which is the unit every nominal byte count on the wire is charged in.
// The point at infinity encodes as ElementLen() zero bytes (a padded
// SEC1 0x00 prefix), keeping every element — identity included — at the
// fixed width the Group contract promises; the identity arises
// legitimately whenever an exponent hits zero (τ = 0, the comparison
// circuit's signal value, after the last decryption layer). It
// allocates nothing when dst has capacity: the compressed point is
// written directly into the grown tail.
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

// Decode implements Group, decompressing the Y coordinate on the
// kernel's field: field.Sqrt solves y² = x³ − 3x + b, and an X with no
// root is exactly one with no point over it, so whatever Decode returns
// is on the curve. Only fixed-width encodings with X below p are
// accepted, so every element has exactly one valid encoding.
func (g *ECGroup) Decode(data []byte) (Element, error) {
	if len(data) != g.elemLen || data[0] == 0x01 || data[0] > 0x03 {
		return nil, fmt.Errorf("group: malformed %s point encoding", g.name)
	}
	if data[0] == 0x00 {
		for _, b := range data[1:] {
			if b != 0 {
				return nil, fmt.Errorf("group: malformed %s point encoding", g.name)
			}
		}
		return g.Identity(), nil
	}
	k := g.kern
	var buf [32]byte
	copy(buf[32-len(data)+1:], data[1:])
	x, ok := k.FromBytes(&buf)
	var y field.Elem
	if ok {
		k.rhs(&y, &x)
		ok = k.Sqrt(&y, &y)
	}
	if ok && byte(k.Plain(&y)[0]&1) != data[0]&1 {
		// y = 0 would be a point of order 2, impossible in a prime-order
		// group; its only valid tag is the even one.
		ok = !y.IsZero()
		k.Neg(&y, &y)
	}
	if !ok {
		return nil, fmt.Errorf("group: %s point is not on the curve", g.name)
	}
	return k.element(&affPt{x: x, y: y}), nil
}

// ElementLen implements Group.
func (g *ECGroup) ElementLen() int { return g.elemLen }

// RandomScalar implements Group.
func (g *ECGroup) RandomScalar(rng io.Reader) (*big.Int, error) {
	return randomScalar(rng, g.n)
}

// SecurityBits implements Group.
func (g *ECGroup) SecurityBits() int { return g.secLevel }
