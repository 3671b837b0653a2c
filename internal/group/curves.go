package group

import (
	"fmt"
	"math/big"
	"sync"
)

// SEC2 / NIST domain parameters for the curves used in the paper's
// evaluation: secp160r1 (the "160-bit ECC group" of Section VII) plus
// P-224 and P-256 for the 112- and 128-bit security levels of Fig. 3(a).
// Each curve is built alone, from its constants, on first use, when
// newECGroup validates it (prime field, prime order, the kernel's shape,
// base point on curve, n·G = ∞); the test suite checks it again.

type curveDef struct {
	name         string
	p, b         string // hex; a = p − 3 on every named curve
	gx, gy, n    string
	securityBits int
}

// lazyCurve builds and validates a curve on first use, on its own:
// naming one curve does not pay for the other two.
func lazyCurve(d curveDef) func() *ECGroup {
	return sync.OnceValue(func() *ECGroup { return mustCurve(d) })
}

var (
	secp160r1 = curveDef{
		name:         "secp160r1",
		p:            "FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFF",
		b:            "1C97BEFC54BD7A8B65ACF89F81D4D4ADC565FA45",
		gx:           "4A96B5688EF573284664698968C38BB913CBFC82",
		gy:           "23A628553168947D59DCC912042351377AC5FB32",
		n:            "0100000000000000000001F4C8F927AED3CA752257",
		securityBits: 80,
	}
	secp224r1 = curveDef{
		name:         "secp224r1",
		p:            "FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF000000000000000000000001",
		b:            "B4050A850C04B3ABF54132565044B0B7D7BFD8BA270B39432355FFB4",
		gx:           "B70E0CBD6BB4BF7F321390B94A03C1D356C21122343280D6115C1D21",
		gy:           "BD376388B5F723FB4C22DFE6CD4375A05A07476444D5819985007E34",
		n:            "FFFFFFFFFFFFFFFFFFFFFFFFFFFF16A2E0B8F03E13DD29455C5C2A3D",
		securityBits: 112,
	}
	secp256r1 = curveDef{
		name:         "secp256r1",
		p:            "FFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF",
		b:            "5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B",
		gx:           "6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296",
		gy:           "4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5",
		n:            "FFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551",
		securityBits: 128,
	}

	_secp160r1 = lazyCurve(secp160r1)
	_secp224r1 = lazyCurve(secp224r1)
	_secp256r1 = lazyCurve(secp256r1)
)

func mustHex(name, field, s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic(fmt.Sprintf("group: malformed %s constant for %s", field, name))
	}
	return v
}

func mustCurve(d curveDef) *ECGroup {
	p := mustHex(d.name, "p", d.p)
	g, err := newECGroup(curveSpec{
		name:         d.name,
		p:            p,
		a:            new(big.Int).Sub(p, big.NewInt(3)),
		b:            mustHex(d.name, "b", d.b),
		gx:           mustHex(d.name, "gx", d.gx),
		gy:           mustHex(d.name, "gy", d.gy),
		n:            mustHex(d.name, "n", d.n),
		securityBits: d.securityBits,
	})
	if err != nil {
		panic(fmt.Sprintf("group: invalid curve %s: %v", d.name, err))
	}
	return g
}

// Secp160r1 returns the 160-bit SEC2 curve used by the paper's ECC
// framework (80-bit security).
func Secp160r1() *ECGroup { return _secp160r1() }

// Secp256r1 returns NIST P-256 (128-bit security).
func Secp256r1() *ECGroup { return _secp256r1() }

// namedGroup is one ByName group: its name, its builder, which parses
// and validates the group's constants afresh on every call, and get, the
// builder run once on first use, which returns the one value every
// caller shares.
type namedGroup struct {
	name  string
	build func() Group
	get   func() Group
}

func dlEntry(d dlDef, get func() *DLGroup) namedGroup {
	return namedGroup{d.name, func() Group { return mustDL(d) }, func() Group { return get() }}
}

func curveEntry(d curveDef, get func() *ECGroup) namedGroup {
	return namedGroup{d.name, func() Group { return mustCurve(d) }, func() Group { return get() }}
}

// namedGroups lists every ByName group at the byte that names it on the
// wire. An ID is never reassigned (the rule wirecodec's type IDs follow),
// so a group that leaves ByName leaves a gap; 0 names no group.
var namedGroups = [...]namedGroup{
	1: dlEntry(modp1024, MODP1024),
	2: dlEntry(modp2048, _modp2048),
	3: dlEntry(modp3072, _modp3072),
	4: curveEntry(secp160r1, Secp160r1),
	5: curveEntry(secp224r1, _secp224r1),
	6: curveEntry(secp256r1, Secp256r1),
	7: dlEntry(toyDL256, ToyDL256),
}

// ByName resolves a group by its canonical name. Recognised names:
// modp-1024, modp-2048, modp-3072, secp160r1, secp224r1, secp256r1, and
// the demo-only toy-dl-256. Only the named group is built.
func ByName(name string) (Group, error) {
	for _, n := range namedGroups {
		if n.name != "" && n.name == name {
			return n.get(), nil
		}
	}
	return nil, fmt.Errorf("group: unknown group %q", name)
}

// WireID returns the byte that names g on the wire: its namedGroups index
// when g, unwrapped, is the group ByName returns for its name, and 0 for
// any other group (a generated or hand-built one, which no peer could
// resolve by name).
func WireID(g Group) byte {
	raw := Raw(g)
	for id, n := range namedGroups {
		if n.name != "" && n.name == raw.Name() && n.get() == raw {
			return byte(id)
		}
	}
	return 0
}

// ByWireID resolves the group a wire ID names.
func ByWireID(id byte) (Group, error) {
	if int(id) >= len(namedGroups) || namedGroups[id].name == "" {
		return nil, fmt.Errorf("group: no group has wire ID %d", id)
	}
	return namedGroups[id].get(), nil
}

// SecurityLevels enumerates the matched DL/ECC pairs of Fig. 3(a):
// the NIST-equivalent 80-, 112- and 128-bit symmetric security levels.
func SecurityLevels() []struct {
	Bits int
	DL   string
	EC   string
} {
	return []struct {
		Bits int
		DL   string
		EC   string
	}{
		{80, "modp-1024", "secp160r1"},
		{112, "modp-2048", "secp224r1"},
		{128, "modp-3072", "secp256r1"},
	}
}
