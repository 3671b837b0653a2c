package group

import (
	"fmt"
	"math/big"
)

// Validate checks that an element received from an untrusted peer is a
// well-formed member of g. Wire decoding runs each group's Decode, so a
// decoded element is a member of the group its payload named; but a
// payload may name any group, and an element handed over in process
// was never decoded at all. So the protocol layer MUST call Validate on
// every foreign element before using it: an element of another group,
// an off-curve point or a non-residue silently degrades the DDH group
// to one where the attacker can solve discrete logs on a small-order
// twist (the classic invalid-curve attack). The element's recorded
// group is compared first, before any coordinate is looked at.
func Validate(g Group, e Element) error {
	if e == nil {
		return fmt.Errorf("group: %s received nil element", g.Name())
	}
	switch cg := Raw(g).(type) {
	case *DLGroup:
		return cg.validateElement(e)
	case *ECGroup:
		return cg.validateElement(e)
	default:
		// Unknown group implementation: fall back to the canonical
		// encoding round trip, which runs the group's own membership
		// checks in Decode.
		if _, err := g.Decode(g.AppendElement(nil, e)); err != nil {
			return fmt.Errorf("group: %s received invalid element: %w", g.Name(), err)
		}
		return nil
	}
}

// UnsafeElementFromCoords fabricates an elliptic-curve element of g from
// raw affine coordinates with NO membership check. It exists solely so
// tests can impersonate a malicious peer mounting an invalid-curve
// attack against Validate's call sites; protocol code must never use
// it.
func UnsafeElementFromCoords(g Group, x, y *big.Int) (Element, error) {
	cg, ok := Raw(g).(*ECGroup)
	if !ok {
		return nil, fmt.Errorf("group: %s is not an elliptic-curve group", g.Name())
	}
	return ecPoint{g: cg, x: new(big.Int).Set(x), y: new(big.Int).Set(y)}, nil
}

// foreign reports an element that some other group, or none, produced.
func foreign(e Element, want string) error {
	if of := Of(e); of != nil {
		return fmt.Errorf("group: %s element received for %s group", of.Name(), want)
	}
	return fmt.Errorf("group: element of type %T received for %s group", e, want)
}

// validateElement checks residue range and quadratic residuosity, the
// membership test for the order-q subgroup of Z_p^*.
func (d *DLGroup) validateElement(e Element) error {
	de, ok := e.(dlElement)
	if !ok || de.d != d {
		return foreign(e, d.name)
	}
	v := de.v
	if v == nil || v.Sign() <= 0 || v.Cmp(d.p) >= 0 {
		return fmt.Errorf("group: %s element out of range", d.name)
	}
	if big.Jacobi(v, d.p) != 1 {
		return fmt.Errorf("group: %s element is not in the quadratic-residue subgroup", d.name)
	}
	return nil
}

// validateElement checks coordinate range and the curve equation, on the
// kernel's field: FromBig refuses a coordinate outside [0, p). The
// curves in this repository all have cofactor 1, so on-curve already
// implies membership in the prime-order group.
func (g *ECGroup) validateElement(e Element) error {
	pt, ok := e.(ecPoint)
	if !ok || pt.g != g {
		return foreign(e, g.name)
	}
	if pt.inf {
		return nil
	}
	x, okX := g.kern.FromBig(pt.x)
	y, okY := g.kern.FromBig(pt.y)
	if !okX || !okY {
		return fmt.Errorf("group: %s point coordinate out of range", g.name)
	}
	if !g.kern.onCurve(&affPt{x: x, y: y}) {
		return fmt.Errorf("group: %s point is not on the curve", g.name)
	}
	return nil
}
