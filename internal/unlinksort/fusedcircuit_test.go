package unlinksort

import (
	"bytes"
	"context"
	"io"
	"math/big"
	"testing"

	"groupranking/internal/elgamal"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/obsv"
)

// composedCircuit is compareAll as it ran before Scheme.CompareCircuit:
// per peer, every γ from Neg and AddPlain, the suffix sums from Add on a
// fresh E(0), and each τ from ScalarMul, Add, AddPlain and ReRandomizeR,
// with compareAll's draw order (per peer the zero scalar, then one
// re-randomiser per bit).
func composedCircuit(t *testing.T, cfg Config, scheme *elgamal.Scheme, joint group.Element, myBits []uint8, theirCts [][]elgamal.Ciphertext, rng io.Reader) []elgamal.Ciphertext {
	t.Helper()
	l := cfg.L
	var set []elgamal.Ciphertext
	for _, cts := range theirCts {
		if cts == nil {
			continue
		}
		zero, err := scheme.Group().RandomScalar(rng)
		if err != nil {
			t.Fatal(err)
		}
		var rr []*big.Int
		if !cfg.unsafeNoReRandomize {
			if rr, err = drawScalars(scheme, l, rng); err != nil {
				t.Fatal(err)
			}
		}
		gammas := make([]elgamal.Ciphertext, l)
		for i := 0; i < l; i++ {
			if myBits[i] == 0 {
				gammas[i] = cts[i]
			} else {
				gammas[i] = scheme.AddPlain(scheme.Neg(cts[i]), big.NewInt(1))
			}
		}
		suffix := make([]elgamal.Ciphertext, l+1)
		suffix[l] = scheme.EncryptExpR(joint, big.NewInt(0), zero)
		for i := l - 1; i >= 0; i-- {
			suffix[i] = scheme.Add(suffix[i+1], gammas[i])
		}
		for i := 0; i < l; i++ {
			weight := big.NewInt(int64(l - i))
			om := scheme.ScalarMul(gammas[i], new(big.Int).Neg(weight))
			om = scheme.Add(om, suffix[i+1])
			om = scheme.AddPlain(om, weight)
			tau := scheme.AddPlain(om, big.NewInt(int64(myBits[i])))
			if !cfg.unsafeNoReRandomize {
				tau = scheme.ReRandomizeR(joint, tau, rr[i])
			}
			set = append(set, tau)
		}
	}
	return set
}

// circuitPeers returns, for l bits under key, a self slot and three
// peers: encryptions of random bits, and two vectors of the components
// that meet addition's special branches — identity C and/or C1, C = ±g
// (so that 1 − β is the identity), and repeated ciphertexts, which a
// suffix sum doubles or cancels depending on the bits.
func circuitPeers(t *testing.T, g group.Group, scheme *elgamal.Scheme, key *elgamal.KeyPair, l int, rng *fixedbig.DRBG) [][]elgamal.Ciphertext {
	t.Helper()
	random := make([]elgamal.Ciphertext, l)
	for i := range random {
		var err error
		if random[i], err = scheme.EncryptExp(key.Y, big.NewInt(int64(i*7%3%2)), rng); err != nil {
			t.Fatal(err)
		}
	}
	gen, id, b := g.Generator(), g.Identity(), random[0].C1
	edges := []elgamal.Ciphertext{
		{C: id, C1: id}, {C: id, C1: b}, {C: random[1].C, C1: id}, {C: gen, C1: id},
		{C: g.Inv(gen), C1: b}, {C: gen, C1: b}, random[2], random[2],
		{C: g.Inv(random[2].C), C1: g.Inv(random[2].C1)}, random[3],
	}
	edges = edges[:l]
	reversed := make([]elgamal.Ciphertext, l)
	for i, ct := range edges {
		reversed[l-1-i] = ct
	}
	return [][]elgamal.Ciphertext{random, nil, edges, reversed}
}

// TestFusedCircuitMatchesComposition pins the fused circuit's invariant:
// on the kernel curves and on a DL group, compareAll's τ set is byte for
// byte the composition's, at every worker count, for all-zero, all-one,
// alternating and random bits, with and without re-randomisation, and it
// charges the same logical operations.
func TestFusedCircuitMatchesComposition(t *testing.T) {
	const l = 10
	for _, g := range []group.Group{group.Secp160r1(), group.Secp256r1(), group.ToyDL256()} {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			plain := elgamal.NewScheme(g)
			rng := fixedbig.NewDRBG("fused-circuit-" + g.Name())
			key, err := plain.GenerateKey(rng)
			if err != nil {
				t.Fatal(err)
			}
			peers := circuitPeers(t, g, plain, key, l, rng)
			beta, err := fixedbig.RandBits(rng, l)
			if err != nil {
				t.Fatal(err)
			}
			random, err := fixedbig.Bits(beta, l)
			if err != nil {
				t.Fatal(err)
			}
			patterns := map[string][]uint8{
				"zeros":       make([]uint8, l),
				"ones":        bytes.Repeat([]byte{1}, l),
				"alternating": bytes.Repeat([]byte{0, 1}, l/2),
				"random":      random,
			}
			for name, bits := range patterns {
				for _, unsafe := range []bool{false, true} {
					reg := obsv.NewRegistry()
					fused := elgamal.NewScheme(obsv.Group(g, reg.Party(0))).WithPrecomp(key.Y)
					composed := elgamal.NewScheme(obsv.Group(g, reg.Party(1))).WithPrecomp(key.Y)
					cfg := Config{Group: g, L: l, unsafeNoReRandomize: unsafe}
					want := composedCircuit(t, cfg, composed, key.Y, bits, peers, fixedbig.NewDRBG("circuit-draws"))
					for _, workers := range []int{1, 2, 7} {
						cfg.Workers = workers
						got, err := compareAll(context.Background(), cfg, fused, key.Y, bits, peers, fixedbig.NewDRBG("circuit-draws"))
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("%s, unsafe=%v, workers=%d: %d τ, want %d", name, unsafe, workers, len(got), len(want))
						}
						for i := range want {
							if !bytes.Equal(plain.AppendEncode(nil, got[i]), plain.AppendEncode(nil, want[i])) {
								t.Fatalf("%s, unsafe=%v, workers=%d: τ %d differs from the composition", name, unsafe, workers, i)
							}
						}
						if workers > 1 {
							continue
						}
						for _, op := range []obsv.Op{obsv.OpEncrypt, obsv.OpDecrypt, obsv.OpGroupExp, obsv.OpGroupOp, obsv.OpGroupInv} {
							if f, c := reg.PartyTotal(0, op), reg.PartyTotal(1, op); f != c {
								t.Errorf("%s, unsafe=%v: %v: the fused circuit charged %d, the composition %d", name, unsafe, op, f, c)
							}
						}
					}
				}
			}
		})
	}
}

// TestZeroSetMatchesIsZero pins the batched zero test to the per-ciphertext
// one it replaced, g.IsIdentity(Decrypt(x, ct)), at every chunk split and
// with the same logical counts: zero and non-zero plaintexts, an identity
// C1 (zero exactly when C is the identity too), and an identity C beside a
// C1 that is not.
func TestZeroSetMatchesIsZero(t *testing.T) {
	for _, g := range []group.Group{group.Secp160r1(), group.Secp256r1(), group.ToyDL256()} {
		plain := elgamal.NewScheme(g)
		rng := fixedbig.NewDRBG("zero-set-" + g.Name())
		key, err := plain.GenerateKey(rng)
		if err != nil {
			t.Fatal(err)
		}
		var set []elgamal.Ciphertext
		for i := 0; i < 12; i++ {
			ct, err := plain.EncryptExp(key.Y, big.NewInt(int64(i%3)), rng)
			if err != nil {
				t.Fatal(err)
			}
			set = append(set, ct)
		}
		c1 := set[0].C1
		set = append(set,
			elgamal.Ciphertext{C: g.Identity(), C1: g.Identity()},
			elgamal.Ciphertext{C: g.Generator(), C1: g.Identity()},
			elgamal.Ciphertext{C: g.Identity(), C1: c1},
		)

		reg := obsv.NewRegistry()
		composed := elgamal.NewScheme(obsv.Group(g, reg.Party(1)))
		want := make([]bool, len(set))
		for i, ct := range set {
			want[i] = g.IsIdentity(composed.Decrypt(key.X, ct))
		}
		if !want[0] || want[1] || !want[12] || want[13] || want[14] {
			t.Fatalf("%s: the reference zero test is off: %v", g.Name(), want)
		}
		fused := elgamal.NewScheme(obsv.Group(g, reg.Party(0)))
		for size := 1; size <= len(set); size++ {
			var got []bool
			for lo := 0; lo < len(set); lo += size {
				got = append(got, fused.ZeroSet(key.X, set[lo:min(lo+size, len(set))])...)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: chunks of %d: ciphertext %d tests %v, want %v", g.Name(), size, i, got[i], want[i])
				}
			}
			if size > 1 {
				continue
			}
			for _, op := range []obsv.Op{obsv.OpDecrypt, obsv.OpGroupExp, obsv.OpGroupOp, obsv.OpGroupInv} {
				if f, c := reg.PartyTotal(0, op), reg.PartyTotal(1, op); f != c {
					t.Errorf("%s: %v: the batch charged %d, the composition %d", g.Name(), op, f, c)
				}
			}
		}
	}
}
