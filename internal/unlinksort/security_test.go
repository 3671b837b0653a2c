package unlinksort

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"groupranking/internal/elgamal"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/transport"
)

// candidateTauDiff computes what τ_t ⊖ τ_{t+1} must equal under the
// no-re-randomisation ablation, for candidate victim bits (bt, bt1),
// from the counterpart's public ciphertexts. See the derivation in
// TestMissingReRandomizationLeaksBits.
func candidateTauDiff(scheme *elgamal.Scheme, cts []elgamal.Ciphertext, l, t int, bt, bt1 uint8) elgamal.Ciphertext {
	gamma := func(tt int, b uint8) elgamal.Ciphertext {
		if b == 0 {
			return cts[tt]
		}
		return scheme.AddPlain(scheme.Neg(cts[tt]), big.NewInt(1))
	}
	wt := int64(l - t)
	wt1 := int64(l - (t + 1))
	d := scheme.ScalarMul(gamma(t, bt), big.NewInt(-wt))
	d = scheme.Add(d, scheme.ScalarMul(gamma(t+1, bt1), big.NewInt(wt1+1)))
	return scheme.AddPlain(d, big.NewInt(wt+int64(bt)-wt1-int64(bt1)))
}

func ctEqual(g group.Group, a, b elgamal.Ciphertext) bool {
	return g.Equal(a.C, b.C) && g.Equal(a.C1, b.C1)
}

// TestMissingReRandomizationLeaksBits carries out the linkage attack
// that motivates the re-randomisation in step 7: without it, every τ
// ciphertext is a deterministic affine transform of the counterpart's
// published bit encryptions, and the fresh E(0) hidden in the suffix
// sums cancels in τ_t ⊖ τ_{t+1}:
//
//	τ_t ⊖ τ_{t+1} = (−w_t)·γ_t ⊕ (w_{t+1}+1)·γ_{t+1}
//	               ⊕ plain(w_t + b_t − w_{t+1} − b_{t+1}),
//
// where γ depends only on the victim's bit choice and the public
// ciphertexts. An adversary therefore tests the four candidate bit
// pairs by ciphertext equality and reads off the victim's bits. The
// test asserts the attack recovers every bit under the ablation and
// recovers nothing when re-randomisation is on.
func TestMissingReRandomizationLeaksBits(t *testing.T) {
	g, err := group.GenerateDLGroup(128, fixedbig.NewDRBG("attack-group"))
	if err != nil {
		t.Fatal(err)
	}
	scheme := elgamal.NewScheme(g)
	rng := fixedbig.NewDRBG("attack-rng")
	key, err := scheme.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	joint := key.Y

	const l = 6
	victimBeta := big.NewInt(0b101101)
	victimBits, err := fixedbig.Bits(victimBeta, l)
	if err != nil {
		t.Fatal(err)
	}
	// The adversary (counterpart) publishes her bit encryptions.
	adversaryBits := []uint8{1, 0, 0, 1, 1, 0}
	cts := make([]elgamal.Ciphertext, l)
	for i, b := range adversaryBits {
		if cts[i], err = scheme.EncryptExp(joint, big.NewInt(int64(b)), rng); err != nil {
			t.Fatal(err)
		}
	}
	theirCts := [][]elgamal.Ciphertext{nil, cts} // victim is party 0, adversary party 1

	attack := func(set []elgamal.Ciphertext) (recovered []uint8, matches int) {
		recovered = make([]uint8, l)
		seen := make([]bool, l)
		for t2 := 0; t2+1 < l; t2++ {
			observed := scheme.Sub(set[t2], set[t2+1])
			for _, cand := range [][2]uint8{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
				want := candidateTauDiff(scheme, cts, l, t2, cand[0], cand[1])
				if ctEqual(g, observed, want) {
					matches++
					recovered[t2], recovered[t2+1] = cand[0], cand[1]
					seen[t2], seen[t2+1] = true, true
				}
			}
		}
		for _, s := range seen {
			if !s {
				return nil, matches
			}
		}
		return recovered, matches
	}

	// Ablation: no re-randomisation ⇒ full recovery. Note compareAll
	// indexes τ by bit position from the LSB, matching the candidates.
	unsafeCfg := Config{Group: g, L: l, UnsafeNoReRandomize: true}
	leakySet, err := compareAll(context.Background(), unsafeCfg, scheme, joint, victimBits, theirCts, rng)
	if err != nil {
		t.Fatal(err)
	}
	recovered, matches := attack(leakySet)
	if recovered == nil {
		t.Fatalf("attack failed to recover all bits under the ablation (matches=%d)", matches)
	}
	for i := range victimBits {
		if recovered[i] != victimBits[i] {
			t.Fatalf("attack recovered wrong bits %v, victim has %v", recovered, victimBits)
		}
	}

	// Real protocol: re-randomisation on ⇒ zero matches.
	safeCfg := Config{Group: g, L: l}
	safeSet, err := compareAll(context.Background(), safeCfg, scheme, joint, victimBits, theirCts, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, matches := attack(safeSet); matches != 0 {
		t.Fatalf("attack matched %d pairs despite re-randomisation", matches)
	}
}

// TestUnsafeAblationStillRanksCorrectly pins down that the ablation
// changes privacy, not correctness — the benchmark comparing the two
// configurations measures the same computation.
func TestUnsafeAblationStillRanksCorrectly(t *testing.T) {
	g, err := group.GenerateDLGroup(128, fixedbig.NewDRBG("ablation-group"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Group: g, L: 5, UnsafeNoReRandomize: true, SkipProofs: true}
	results, _, err := RunCtx(context.Background(), cfg, bigs(9, 22, 4), "ablation", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := wantRanks([]int64{9, 22, 4})
	for j, r := range results {
		if r.Rank != want[j] {
			t.Errorf("party %d: rank %d, want %d", j, r.Rank, want[j])
		}
	}
}

// TestZeroPositionsUniformAcrossRuns is the operational check behind
// Definition 7: the chain's random permutations must place an honest
// party's zeros uniformly within its returned set, so the position
// carries no information about which counterpart outranked it.
func TestZeroPositionsUniformAcrossRuns(t *testing.T) {
	g, err := group.GenerateDLGroup(128, fixedbig.NewDRBG("uniform-group"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Group: g, L: 4, SkipProofs: true}
	// Party 0 holds the middle value: exactly one zero among
	// (n−1)·L = 8 positions.
	vals := bigs(7, 2, 13)
	const runs = 48
	counts := make(map[int]int)
	for trial := 0; trial < runs; trial++ {
		results, _, err := RunCtx(context.Background(), cfg, vals, fmt.Sprintf("uniform-%d", trial), nil)
		if err != nil {
			t.Fatal(err)
		}
		r := results[0]
		if r.Rank != 2 || len(r.ZeroPositions) != 1 {
			t.Fatalf("trial %d: rank %d positions %v", trial, r.Rank, r.ZeroPositions)
		}
		counts[r.ZeroPositions[0]]++
	}
	// Loose uniformity: with 48 runs over 8 slots, expect ≈6 per slot;
	// require broad coverage and no dominating slot.
	if len(counts) < 5 {
		t.Errorf("zero landed in only %d distinct positions: %v", len(counts), counts)
	}
	for pos, c := range counts {
		if c > runs/2 {
			t.Errorf("position %d absorbed %d/%d runs; shuffle looks biased: %v", pos, c, runs, counts)
		}
	}
}

// TestProtocolOverRealTCP runs the complete protocol across real TCP
// loopback connections with wirecodec frames — the deployment shape of
// the paper's "fully distributed framework", on its ECC group. Every
// ciphertext, proof and chain vector crosses an actual socket.
func TestProtocolOverRealTCP(t *testing.T) {
	cfg := Config{Group: group.Secp160r1(), L: 5}
	vals := []int64{19, 3, 27}
	addrs, err := transport.FreeLoopbackAddrs(len(vals))
	if err != nil {
		t.Fatal(err)
	}
	results := make([]Result, len(vals))
	errs := make([]error, len(vals))
	var wg sync.WaitGroup
	for me := range vals {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			fab, err := transport.NewTCPFabric(addrs, me, 20*time.Second)
			if err != nil {
				errs[me] = err
				return
			}
			defer fab.Close()
			rng := fixedbig.NewDRBG(fmt.Sprintf("tcp-party-%d", me))
			results[me], errs[me] = PartyCtx(context.Background(), cfg, me, fab, big.NewInt(vals[me]), rng)
		}()
	}
	wg.Wait()
	for me, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", me, err)
		}
	}
	want := wantRanks(vals)
	for me, r := range results {
		if r.Rank != want[me] {
			t.Errorf("party %d: rank %d over TCP, want %d", me, r.Rank, want[me])
		}
	}
}

// TestProveDecryptionHonestRun: the integrity-extended chain must
// produce the same ranks as the plain protocol.
func TestProveDecryptionHonestRun(t *testing.T) {
	g, err := group.GenerateDLGroup(128, fixedbig.NewDRBG("pd-group"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Group: g, L: 5, ProveDecryption: true}
	vals := []int64{21, 4, 30, 17}
	results, fab, err := RunCtx(context.Background(), cfg, bigs(vals...), "pd-honest", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := wantRanks(vals)
	for j, r := range results {
		if r.Rank != want[j] {
			t.Errorf("party %d: rank %d, want %d", j, r.Rank, want[j])
		}
	}
	// The evidence inflates traffic: compare with a plain run.
	_, fabPlain, err := RunCtx(context.Background(), Config{Group: g, L: 5}, bigs(vals...), "pd-honest", nil)
	if err != nil {
		t.Fatal(err)
	}
	if fab.Stats().TotalBytes() <= fabPlain.Stats().TotalBytes() {
		t.Error("integrity evidence should cost extra bytes")
	}
}

// TestProveDecryptionTwoParties exercises the smallest chain.
func TestProveDecryptionTwoParties(t *testing.T) {
	g, err := group.GenerateDLGroup(128, fixedbig.NewDRBG("pd2-group"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Group: g, L: 4, ProveDecryption: true}
	results, _, err := RunCtx(context.Background(), cfg, bigs(9, 2), "pd-two", nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Rank != 1 || results[1].Rank != 2 {
		t.Errorf("ranks %d, %d", results[0].Rank, results[1].Rank)
	}
}

// TestProveDecryptionCatchesWrongKeyStrip: a chain hop that strips with
// a key other than its registered share is rejected by its successor.
// The cheater follows the entire protocol except that it swaps in a
// fresh private key for the chain phase.
func TestProveDecryptionCatchesWrongKeyStrip(t *testing.T) {
	g, err := group.GenerateDLGroup(128, fixedbig.NewDRBG("pd-cheat-group"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Group: g, L: 4, ProveDecryption: true, SkipProofs: true}
	vals := bigs(11, 6, 14)
	scheme := elgamal.NewScheme(g)
	sched := newSchedule(cfg, len(vals))
	fab, errs, err := transport.RunMesh(context.Background(), len(vals), nil, func(ctx context.Context, me int, fab transport.Net) error {
		rng := fixedbig.NewDRBG(fmt.Sprintf("pd-cheat-%d", me))
		if me != 1 {
			_, err := PartyCtx(ctx, cfg, me, fab, vals[me], rng)
			return err
		}
		// The cheater: honest key phase and comparison circuit, but
		// the chain uses a swapped private key, so its strip proofs
		// cannot verify against its registered share.
		key, joint, ys, err := keyPhase(ctx, cfg, sched, scheme, me, fab, rng)
		if err != nil {
			return err
		}
		myBits, theirCts, err := publishBits(ctx, cfg, sched, scheme, me, fab, joint, vals[me], rng)
		if err != nil {
			return err
		}
		mySet, err := compareAll(ctx, cfg, scheme, joint, myBits, theirCts, rng)
		if err != nil {
			return err
		}
		wrongX, err := g.RandomScalar(rng)
		if err != nil {
			return err
		}
		forged := &elgamal.KeyPair{X: wrongX, Y: key.Y}
		_, err = chainPhase(ctx, cfg, sched, scheme, me, fab, forged, ys, mySet, rng)
		return err
	}, transport.WithRecvTimeout(5*time.Second))
	if fab == nil {
		t.Fatal(err)
	}
	var rejections int
	for _, err := range errs {
		if err != nil {
			rejections++
		}
	}
	if rejections == 0 {
		t.Fatal("wrong-key strip went undetected")
	}
}

// TestRandomValuesQuick is the property-based check on the sorting
// protocol: for random triples, the computed ranks equal the plaintext
// descending ranks with the paper's tie rule.
func TestRandomValuesQuick(t *testing.T) {
	g, err := group.GenerateDLGroup(128, fixedbig.NewDRBG("quick-group"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Group: g, L: 6, SkipProofs: true}
	trial := 0
	f := func(a, b, c uint8) bool {
		trial++
		vals := []int64{int64(a % 64), int64(b % 64), int64(c % 64)}
		results, _, err := RunCtx(context.Background(), cfg, bigs(vals...), fmt.Sprintf("quick-%d", trial), nil)
		if err != nil {
			return false
		}
		want := wantRanks(vals)
		for j, r := range results {
			if r.Rank != want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
