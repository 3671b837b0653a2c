package unlinksort

import (
	"bytes"
	"context"
	"math/big"
	"testing"

	"groupranking/internal/elgamal"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/obsv"
)

// composedHop is the chain hop as it ran before Scheme.StripBlind: one
// PartialDecrypt and one ExponentBlindR per ciphertext, with
// processSet's draw order (every blind, then the shuffle).
func composedHop(t *testing.T, scheme *elgamal.Scheme, x *big.Int, set []elgamal.Ciphertext, rng *fixedbig.DRBG) []elgamal.Ciphertext {
	t.Helper()
	blinds, err := drawScalars(scheme, len(set), rng)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]elgamal.Ciphertext, len(set))
	for i, ct := range set {
		out[i] = scheme.ExponentBlindR(scheme.PartialDecrypt(x, ct), blinds[i])
	}
	if err := shuffle(out, rng); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFusedHopMatchesComposition pins the fused hop's invariant: on the
// kernel curves and on a DL group, processSet's output is byte for byte
// the strip-then-blind composition's, at every worker count, it charges
// the same logical operations, and the protocol ranks alike with the
// strip proofs on and off.
func TestFusedHopMatchesComposition(t *testing.T) {
	for _, g := range []group.Group{group.Secp160r1(), group.Secp256r1(), group.ToyDL256()} {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			reg := obsv.NewRegistry()
			fused := elgamal.NewScheme(obsv.Group(g, reg.Party(0)))
			composed := elgamal.NewScheme(obsv.Group(g, reg.Party(1)))

			plain := elgamal.NewScheme(g)
			rng := fixedbig.NewDRBG("fused-hop-" + g.Name())
			key, err := plain.GenerateKey(rng)
			if err != nil {
				t.Fatal(err)
			}
			// More than two chunks' worth, which every worker count below
			// splits differently: zero and non-zero plaintexts, then the
			// pairs whose shared chain meets addition's special branches.
			var set []elgamal.Ciphertext
			for i := 0; i < 2*hopChunk+3; i++ {
				ct, err := plain.EncryptExp(key.Y, big.NewInt(int64(i%3)), rng)
				if err != nil {
					t.Fatal(err)
				}
				set = append(set, ct)
			}
			c1 := set[0].C1
			set = append(set,
				elgamal.Ciphertext{C: c1, C1: c1},
				elgamal.Ciphertext{C: g.Inv(c1), C1: c1},
				elgamal.Ciphertext{C: g.Identity(), C1: c1},
				elgamal.Ciphertext{C: c1, C1: g.Identity()},
			)

			want := composedHop(t, composed, key.X, set, fixedbig.NewDRBG("hop-draws"))
			for _, workers := range []int{1, 2, 7} {
				cfg := Config{Group: g, L: 1, Workers: workers}
				got, err := processSet(context.Background(), cfg, fused, key.X, set, fixedbig.NewDRBG("hop-draws"))
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !bytes.Equal(plain.AppendEncode(nil, got[i]), plain.AppendEncode(nil, want[i])) {
						t.Fatalf("workers=%d: ciphertext %d differs from ExponentBlindR(PartialDecrypt(·))", workers, i)
					}
				}
				if workers > 1 {
					continue
				}
				for _, op := range []obsv.Op{obsv.OpDecrypt, obsv.OpGroupExp, obsv.OpGroupOp, obsv.OpGroupInv} {
					if f, c := reg.PartyTotal(0, op), reg.PartyTotal(1, op); f != c {
						t.Errorf("%v: the fused hop charged %d, the composition %d", op, f, c)
					}
				}
			}

			// The whole protocol with the strip proofs off (fused hop) and
			// on (the stripped intermediate is materialised to be proved)
			// must rank alike.
			vals := []int64{9, 4, 13, 4}
			for _, proofs := range []bool{false, true} {
				res, _, err := RunCtx(context.Background(), Config{Group: g, L: 4, ProveDecryption: proofs}, bigs(vals...), "fused-hop-ranks", nil)
				if err != nil {
					t.Fatalf("proofs=%v: %v", proofs, err)
				}
				for p, want := range wantRanks(vals) {
					if res[p].Rank != want {
						t.Errorf("proofs=%v: party %d ranks %d, want %d", proofs, p, res[p].Rank, want)
					}
				}
			}
		})
	}
}

// TestHopChunkSize pins the hop's split: on a kernel curve every worker
// gets the same whole number of chunks, none above hopChunk and together
// covering the set; a DL group fans out one ciphertext at a time.
func TestHopChunkSize(t *testing.T) {
	ec := group.Secp160r1()
	for _, n := range []int{0, 1, 5, 16, 17, 81, 400} {
		for _, workers := range []int{1, 2, 4, 7, 8, 64} {
			if got := hopChunkSize(group.ToyDL256(), n, workers); got != 1 {
				t.Errorf("DL group, n=%d workers=%d: chunk size %d, want 1", n, workers, got)
			}
			size := hopChunkSize(ec, n, workers)
			if size < 1 || size > hopChunk {
				t.Fatalf("n=%d workers=%d: chunk size %d outside [1, %d]", n, workers, size, hopChunk)
			}
			w := min(workers, max(n, 1))
			if chunks := (n + size - 1) / size; n > 0 && (chunks+w-1)/w != (n+w*hopChunk-1)/(w*hopChunk) {
				t.Errorf("n=%d workers=%d: %d chunks of %d leave a worker more rounds than the cap needs", n, workers, chunks, size)
			}
		}
	}
	if got := hopChunkSize(ec, 81, 4); got != 11 {
		t.Errorf("the benchmark's 81-ciphertext set at 4 workers: chunk size %d, want 11 (8 chunks, two a worker)", got)
	}
}
