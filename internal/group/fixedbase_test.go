package group

import (
	"math/big"
	"testing"

	"groupranking/internal/fixedbig"
)

// refExp is a square-and-multiply reference built only on Op, so it is
// independent of both the comb tables and each family's native ladder.
func refExp(g Group, base Element, k *big.Int) Element {
	e := new(big.Int).Mod(k, g.Order())
	acc := g.Identity()
	cur := base
	for i := 0; i < e.BitLen(); i++ {
		if e.Bit(i) == 1 {
			acc = g.Op(acc, cur)
		}
		cur = g.Op(cur, cur)
	}
	return acc
}

func fixedBaseGroups(t *testing.T) map[string]Group {
	t.Helper()
	toy := ToyDL256()
	return map[string]Group{
		"toy-dl-256":        toy,
		"secp160r1-fast":    Secp160r1(),
		"secp160r1-generic": oracleOf(Secp160r1()),
		"secp224r1":         mustByName(t, "secp224r1"),
		"secp256r1":         mustByName(t, "secp256r1"),
	}
}

func mustByName(t *testing.T, name string) Group {
	t.Helper()
	g, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFixedBaseTableMatchesReference(t *testing.T) {
	for name, g := range fixedBaseGroups(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			rng := fixedbig.NewDRBG("fixed-base-" + name)
			scalars := []*big.Int{
				big.NewInt(0),
				big.NewInt(1),
				big.NewInt(2),
				new(big.Int).Set(g.Order()), // ≡ 0
				new(big.Int).Sub(g.Order(), big.NewInt(1)),        // inverse of base
				new(big.Int).Neg(big.NewInt(3)),                   // negative reduces mod q
				new(big.Int).Add(g.Order(), big.NewInt(12345678)), // over-order
			}
			for i := 0; i < 5; i++ {
				k, err := g.RandomScalar(rng)
				if err != nil {
					t.Fatal(err)
				}
				scalars = append(scalars, k)
			}

			gen := g.Generator()
			// A random non-generator base exercises the per-base table
			// construction path used for joint public keys.
			r, err := g.RandomScalar(rng)
			if err != nil {
				t.Fatal(err)
			}
			randBase := refExp(g, gen, r)
			for _, base := range []Element{gen, randBase} {
				tab := NewFixedBaseTable(g, base)
				for _, k := range scalars {
					want := refExp(g, base, k)
					if got := tab.Exp(k); !g.Equal(got, want) {
						t.Fatalf("table base/%v scalar %s: comb disagrees with reference", base, k)
					}
					// Group.Exp must agree too: for the generator this is
					// the cached-table fast path inside the concrete Exp.
					if got := g.Exp(base, k); !g.Equal(got, want) {
						t.Fatalf("Exp base/%v scalar %s: group exp disagrees with reference", base, k)
					}
				}
			}
		})
	}
}

func TestFixedBaseTableIdentityBase(t *testing.T) {
	for name, g := range fixedBaseGroups(t) {
		tab := NewFixedBaseTable(g, g.Identity())
		for _, k := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(97)} {
			if !g.IsIdentity(tab.Exp(k)) {
				t.Fatalf("%s: identity^%s != identity", name, k)
			}
		}
	}
}

func TestRawUnwraps(t *testing.T) {
	g := Secp160r1()
	if Raw(g) != g {
		t.Fatal("Raw of a concrete group must be the group itself")
	}
	wrapped := testWrapper{g}
	if Raw(wrapped) != g {
		t.Fatal("Raw must strip Unwrapper layers")
	}
	if Raw(testWrapper{wrapped}) != g {
		t.Fatal("Raw must strip nested Unwrapper layers")
	}
}

type testWrapper struct{ Group }

func (w testWrapper) Underlying() Group { return w.Group }
