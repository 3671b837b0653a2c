package group

import (
	"fmt"
	"io"
	"math/big"

	"groupranking/internal/fixedbig"
)

// DLGroup is the multiplicative group of quadratic residues modulo a safe
// prime p = 2q+1 ("DL" in the paper's terminology, Section IV-B). The
// subgroup of quadratic residues has prime order q, and DDH is believed
// hard in it.
type DLGroup struct {
	name    string
	p       *big.Int // safe prime modulus
	q       *big.Int // (p-1)/2, prime group order
	g       *big.Int // generator of the order-q subgroup
	elemLen int      // byte length of p
}

// dlElement wraps a residue in [1, p) and records the group that made
// it.
type dlElement struct {
	d *DLGroup
	v *big.Int
}

func (dlElement) groupElement() {}

var _ Group = (*DLGroup)(nil)

// newDLGroup builds a DL group from a safe prime p, verifying that p and
// q=(p-1)/2 are (probable) primes and that the generator has order q. The
// generator is 2 when 2 is a quadratic residue mod p (true for p ≡ 7 mod 8,
// which holds for all the RFC MODP primes) and 4 otherwise.
func newDLGroup(name string, p *big.Int) (*DLGroup, error) {
	if !p.ProbablyPrime(32) {
		return nil, fmt.Errorf("group: %s modulus is not prime", name)
	}
	q := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 1)
	if !q.ProbablyPrime(32) {
		return nil, fmt.Errorf("group: %s modulus is not a safe prime", name)
	}
	g := big.NewInt(2)
	if big.Jacobi(g, p) != 1 {
		g = big.NewInt(4) // 4 = 2² is always a quadratic residue
	}
	return &DLGroup{
		name:    name,
		p:       p,
		q:       q,
		g:       g,
		elemLen: (p.BitLen() + 7) / 8,
	}, nil
}

// GenerateDLGroup creates a fresh safe-prime group of the given bit size.
// It is intended for tests, which use small (e.g. 256-bit) groups so the
// full protocol stack runs quickly; production configurations use the fixed
// MODP groups. The group is a function of rng's stream alone: one seeded
// DRBG always yields the same group.
func GenerateDLGroup(bits int, rng io.Reader) (*DLGroup, error) {
	if bits < 16 {
		return nil, fmt.Errorf("group: safe prime size %d too small", bits)
	}
	for {
		q, err := fixedbig.Prime(rng, bits-1)
		if err != nil {
			return nil, fmt.Errorf("group: generating safe prime: %w", err)
		}
		p := new(big.Int).Lsh(q, 1)
		p.Add(p, big.NewInt(1))
		if p.ProbablyPrime(32) {
			return newDLGroup(fmt.Sprintf("dl-%d-generated", bits), p)
		}
	}
}

// Name implements Group.
func (d *DLGroup) Name() string { return d.name }

// Order implements Group.
func (d *DLGroup) Order() *big.Int { return d.q }

// Generator implements Group.
func (d *DLGroup) Generator() Element { return dlElement{d, d.g} }

// Identity implements Group.
func (d *DLGroup) Identity() Element { return dlElement{d, big.NewInt(1)} }

func (d *DLGroup) unwrap(e Element) *big.Int {
	de, ok := e.(dlElement)
	if !ok {
		panic(mismatchPanic(d.name, e))
	}
	return de.v
}

// Op implements Group.
func (d *DLGroup) Op(a, b Element) Element {
	r := new(big.Int).Mul(d.unwrap(a), d.unwrap(b))
	return dlElement{d, r.Mod(r, d.p)}
}

// Inv implements Group.
func (d *DLGroup) Inv(a Element) Element {
	return dlElement{d, new(big.Int).ModInverse(d.unwrap(a), d.p)}
}

// Exp implements Group.
func (d *DLGroup) Exp(a Element, k *big.Int) Element {
	v := d.unwrap(a)
	if v.Cmp(d.g) == 0 {
		// Fixed-base fast path: every generator exponentiation (ExpGen,
		// proof commitments, exponent encodings, the C1 half of every
		// encryption) shares one cached comb table. Sitting below the
		// obsv counting wrapper, the substitution is invisible to the
		// cost-model census.
		return generatorTable(d).Exp(k)
	}
	e := new(big.Int).Mod(k, d.q) // element order divides q
	return dlElement{d, new(big.Int).Exp(v, e, d.p)}
}

// Equal implements Group.
func (d *DLGroup) Equal(a, b Element) bool {
	return d.unwrap(a).Cmp(d.unwrap(b)) == 0
}

// IsIdentity implements Group.
func (d *DLGroup) IsIdentity(a Element) bool {
	return d.unwrap(a).Cmp(big.NewInt(1)) == 0
}

// AppendElement implements Group: elements are fixed-width big-endian
// residues. It allocates nothing when dst has capacity: the residue is
// written directly into the grown tail.
func (d *DLGroup) AppendElement(dst []byte, a Element) []byte {
	v := d.unwrap(a)
	n := len(dst)
	dst = append(dst, make([]byte, d.elemLen)...)
	v.FillBytes(dst[n:])
	return dst
}

// Decode implements Group. It rejects values outside [1, p) and values
// that are not quadratic residues, so decoded elements always lie in the
// order-q subgroup.
func (d *DLGroup) Decode(data []byte) (Element, error) {
	if len(data) != d.elemLen {
		return nil, fmt.Errorf("group: %s element must be %d bytes, got %d", d.name, d.elemLen, len(data))
	}
	v := new(big.Int).SetBytes(data)
	if v.Sign() == 0 || v.Cmp(d.p) >= 0 {
		return nil, fmt.Errorf("group: %s element out of range", d.name)
	}
	if big.Jacobi(v, d.p) != 1 {
		return nil, fmt.Errorf("group: %s element is not in the quadratic-residue subgroup", d.name)
	}
	return dlElement{d, v}, nil
}

// ElementLen implements Group.
func (d *DLGroup) ElementLen() int { return d.elemLen }

// RandomScalar implements Group.
func (d *DLGroup) RandomScalar(rng io.Reader) (*big.Int, error) {
	return randomScalar(rng, d.q)
}

// _toyDL256Hex is the 256-bit safe prime of toy-dl-256: the output of a
// seeded DRBG search, pinned so that no process pays for the search.
// TestToyDL256Derivation runs the search and must re-derive it.
const _toyDL256Hex = "fa0f747ac883fbf17269eb7f1f3d97ac15877826d6d06028bbae891e3f8af0db"

var (
	toyDL256  = dlDef{name: "toy-dl-256", hex: _toyDL256Hex}
	_toyDL256 = lazyDL(toyDL256)
)

// ToyDL256 returns a 256-bit safe-prime group built alone, from its
// constant, on first use (newDLGroup checks that p and q are prime). It
// is far below any real security level and exists so examples and demos
// run in seconds; production configurations use the fixed MODP or SEC2
// groups.
func ToyDL256() *DLGroup { return _toyDL256() }
