package group

import "groupranking/internal/field"

// The P-256 formulas: double, addAffine and addJac once more, for a
// curve whose field has the P-256 body, on field.P256's arithmetic. Each
// is its generic formula in kernel.go operation for operation, so both
// give the same coordinates; only the arithmetic differs. A
// field.P256Elem is a four-limb value passed and returned in registers,
// and each operation is one call straight into P-256's body, with no
// body switch, no width branch and no operand behind a pointer.
// newCurveKernel picks them once, from the field's body, and
// FuzzP256AgainstGeneric holds them to the generic formulas.

// doubleP256 is double on P-256 (4M + 4S).
func (k *curveKernel) doubleP256(r, p *jacPt) {
	var f field.P256
	x, y, z := f.Load(&p.x), f.Load(&p.y), f.Load(&p.z)
	z2 := f.Sqr(z)
	m := f.Mul(f.Sub(x, z2), f.Add(x, z2))
	m = f.Add(f.Add(m, m), m)
	t := f.Sqr(y)
	t = f.Add(t, t) // T = 2Y²
	s := f.Mul(x, t)
	s = f.Add(s, s) // S = 2XT
	x3 := f.Sqr(m)
	x3 = f.Sub(x3, s)
	x3 = f.Sub(x3, s)
	t = f.Sqr(t)
	t = f.Add(t, t) // 8Y⁴ = 2T²
	y3 := f.Mul(m, f.Sub(s, x3))
	y3 = f.Sub(y3, t)
	z3 := f.Mul(y, z)
	z3 = f.Add(z3, z3)
	*r = jacPt{x3.Elem(), y3.Elem(), z3.Elem()}
}

// addJacP256 is addJac on P-256 for p and q not the identity.
func (k *curveKernel) addJacP256(r, p, q *jacPt) {
	var f field.P256
	z1, z2 := f.Load(&p.z), f.Load(&q.z)
	z1z1, z2z2 := f.Sqr(z1), f.Sqr(z2)
	u1 := f.Mul(f.Load(&p.x), z2z2)
	u2 := f.Mul(f.Load(&q.x), z1z1)
	s1 := f.Mul(f.Mul(f.Load(&p.y), z2), z2z2)
	s2 := f.Mul(f.Mul(f.Load(&q.y), z1), z1z1)
	k.addTailP256(r, p, u1, s1, u2, s2, f.Mul(z1, z2))
}

// addAffineP256 is addAffine on P-256 for p and q not the identity.
func (k *curveKernel) addAffineP256(r, p *jacPt, q *affPt) {
	var f field.P256
	z := f.Load(&p.z)
	z1z1 := f.Sqr(z)
	u2 := f.Mul(f.Load(&q.x), z1z1)
	s2 := f.Mul(f.Mul(f.Load(&q.y), z), z1z1)
	k.addTailP256(r, p, f.Load(&p.x), f.Load(&p.y), u2, s2, z)
}

// addTailP256 is addTail on P-256.
func (k *curveKernel) addTailP256(r, p *jacPt, u1, s1, u2, s2, zz field.P256Elem) {
	var f field.P256
	h := f.Sub(u2, u1)
	rr := f.Sub(s2, s1)
	if h.IsZero() {
		if rr.IsZero() {
			k.doubleP256(r, p)
		} else {
			*r = jacPt{}
		}
		return
	}
	h2 := f.Sqr(h)
	h3 := f.Mul(h2, h)
	v := f.Mul(u1, h2)
	x3 := f.Sqr(rr)
	x3 = f.Sub(x3, h3)
	x3 = f.Sub(x3, v)
	x3 = f.Sub(x3, v)
	y3 := f.Mul(rr, f.Sub(v, x3))
	y3 = f.Sub(y3, f.Mul(s1, h3))
	z3 := f.Mul(h, zz)
	*r = jacPt{x3.Elem(), y3.Elem(), z3.Elem()}
}
