package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"testing"
	"time"

	"groupranking/internal/blame"
	"groupranking/internal/fixedbig"
	"groupranking/internal/leakcheck"
	"groupranking/internal/transport"
	"groupranking/internal/unlinksort"
)

// Byzantine chaos suite: every schedule injects one actively malicious
// party — a crypto-level deviation (bad key proof, wrong-key strip,
// own-set tampering), a wire-level attack (equivocated broadcast,
// tampered ciphertext, replayed stale round) or both — and asserts the
// covert-security contract:
//
//  1. honest parties never emit a wrong ranking (they abort, or their
//     output is correct);
//  2. at least one honest party's abort carries a blame certificate;
//  3. every certificate accuses the injected adversary — never an
//     honest party — and the offline verifier (internal/blame)
//     confirms it from the recorded evidence alone.

// Protocol round tags of the unlinkable sort, fixed by its wire format
// (the package keeps them unexported; the suite targets them by value).
const (
	roundKeys     = 1
	roundBits     = 5
	roundTaus     = 6
	roundChain    = 7 // chain hop j sends at roundChain + j
	byzSubOffset  = 64
	byzParties    = 4
	byzRecvWindow = 5 * time.Second
)

var byzVals = []int64{20, 7, 29, 13}
var byzRanks = []int{2, 4, 1, 3}

// runByz executes one schedule: all parties run the unlinkable sort
// over a shared in-process fabric (transport.RunMesh), optionally
// wrapped in a FaultNet, and every party's error is returned (unlike
// RunCtx, which collapses them to the root cause) so the suite can assert no certificate anywhere accuses
// an honest party.
func runByz(t *testing.T, cfg unlinksort.Config, seed string, plan *transport.FaultPlan) ([]unlinksort.Result, []error) {
	t.Helper()
	var fn *transport.FaultNet
	var wrap func(transport.Net) transport.Net
	if plan != nil {
		wrap = func(fab transport.Net) transport.Net {
			fn = transport.NewFaultNet(fab, *plan)
			return fn
		}
	}
	results := make([]unlinksort.Result, len(byzVals))
	fab, errs, err := transport.RunMesh(context.Background(), len(byzVals), wrap, func(ctx context.Context, p int, net transport.Net) error {
		var err error
		results[p], err = unlinksort.PartyCtx(ctx, cfg, p, net, big.NewInt(byzVals[p]), fixedbig.PartyDRBG(seed, p))
		return err
	}, transport.WithRecvTimeout(byzRecvWindow))
	if fab == nil {
		t.Fatal(err)
	}
	if fn != nil {
		fn.Flush()
		fn.Wait()
	}
	return results, errs
}

// assertBlamed enforces the contract on one adversarial schedule's
// outcome: no honest party finished with a wrong rank, at least one
// certificate was issued, and every certificate accuses the adversary
// and survives offline verification. wantCheck, when non-empty,
// additionally pins the check every certificate must carry.
func assertBlamed(t *testing.T, results []unlinksort.Result, errs []error, adversary int, wantCheck string) {
	t.Helper()
	certs := 0
	for p, err := range errs {
		if err == nil {
			if p != adversary && results[p].Rank != byzRanks[p] {
				t.Fatalf("honest party %d finished with rank %d, want %d — wrong ranking under attack",
					p, results[p].Rank, byzRanks[p])
			}
			continue
		}
		var ae *transport.AbortError
		if !errors.As(err, &ae) {
			if errors.Is(err, context.Canceled) {
				continue
			}
			t.Fatalf("party %d failed without a typed abort: %v", p, err)
		}
		cert := transport.CertOf(err)
		if cert == nil {
			continue // secondary effect (cancellation, timeout): carries no evidence
		}
		certs++
		if cert.Accused != adversary {
			t.Fatalf("party %d's certificate accuses party %d, adversary is %d — FALSE ACCUSATION\nabort: %v\ncert: %s",
				p, cert.Accused, adversary, ae, cert)
		}
		if ae.Party != adversary {
			t.Fatalf("party %d's abort names party %d, adversary is %d: %v", p, ae.Party, adversary, ae)
		}
		if wantCheck != "" && cert.Check != wantCheck {
			t.Fatalf("party %d's certificate carries check %q, want %q: %s", p, cert.Check, wantCheck, cert)
		}
		if verr := blame.Verify(cert); verr != nil {
			t.Fatalf("party %d's certificate fails offline verification: %v\ncert: %s", p, verr, cert)
		}
	}
	if certs == 0 {
		t.Fatalf("no party issued a blame certificate; errors: %v", errs)
	}
}

// TestByzCryptoDeviations injects the protocol-level deviations: a key
// proof that cannot verify, a chain hop stripping with an unregistered
// key, and a hop tampering with its own pass-through set. The chain
// deviations run under ProveDecryption and only on parties before the
// last hop — the final hop's strip has no successor to verify it
// (documented protocol limitation, DESIGN.md §3.6).
func TestByzCryptoDeviations(t *testing.T) {
	leakcheck.Check(t)
	g := chaosGroup(t)
	seeds := 4
	if testing.Short() {
		seeds = 1
	}
	type deviation struct {
		behavior   unlinksort.ByzBehavior
		adversarys []int
		check      string
		proofs     bool // run with key proofs enabled
		proveDec   bool
	}
	deviations := []deviation{
		{unlinksort.ByzBadKeyProof, []int{0, 1, 2, 3}, transport.CheckKeyProof, true, false},
		{unlinksort.ByzWrongDecryption, []int{0, 1, 2}, transport.CheckPartialDecryption, false, true},
		{unlinksort.ByzTamperOwnSet, []int{0, 1, 2}, transport.CheckOwnSetTampered, false, true},
	}
	for _, d := range deviations {
		for _, adv := range d.adversarys {
			for s := 0; s < seeds; s++ {
				d, adv, s := d, adv, s
				t.Run(fmt.Sprintf("%s-adv%d-seed%d", d.behavior, adv, s), func(t *testing.T) {
					t.Parallel()
					cfg := unlinksort.Config{
						Group: g, L: 5,
						SkipProofs:      !d.proofs,
						ProveDecryption: d.proveDec,
						Byz:             &unlinksort.Byz{Party: adv, Behavior: d.behavior},
					}
					results, errs := runByz(t, cfg, fmt.Sprintf("byz-%s-%d-%d", d.behavior, adv, s), nil)
					assertBlamed(t, results, errs, adv, d.check)
				})
			}
		}
	}
}

// TestByzEquivocation has the adversary announce different payloads to
// different parties in a broadcast round; the echo sub-round must pin
// the blame on the sender at every honest party.
func TestByzEquivocation(t *testing.T) {
	leakcheck.Check(t)
	g := chaosGroup(t)
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	rounds := []struct {
		name     string
		round    int
		proveDec bool
	}{
		{"keys", roundKeys, false},
		{"bits", roundBits, false},
		{"anchors", roundTaus, true},
	}
	for _, rc := range rounds {
		for adv := 0; adv < byzParties; adv++ {
			if rc.proveDec && adv >= byzParties-1 {
				continue // chain integrity checks need a successor hop
			}
			for s := 0; s < seeds; s++ {
				rc, adv, s := rc, adv, s
				t.Run(fmt.Sprintf("%s-adv%d-seed%d", rc.name, adv, s), func(t *testing.T) {
					t.Parallel()
					cfg := unlinksort.Config{Group: g, L: 5, SkipProofs: true, ProveDecryption: rc.proveDec}
					plan := transport.FaultPlan{
						Seed:  int64(1000*adv + s),
						Rules: []transport.FaultRule{{Kind: transport.FaultEquivocate, Round: rc.round, From: adv, To: -1}},
					}
					results, errs := runByz(t, cfg, fmt.Sprintf("byz-eq-%s-%d-%d", rc.name, adv, s), &plan)
					// The equivocated leg may surface either as a digest
					// mismatch (equivocation) or as the substituted payload
					// failing the shape check (malformed) — both accuse the
					// sender, so the check kind is left open here.
					assertBlamed(t, results, errs, adv, "")
				})
			}
		}
	}
}

// TestByzTamperedCiphertexts corrupts the adversary's outgoing payloads
// at one protocol round (a party is responsible for its own links, so
// tampering there is attributed to it).
func TestByzTamperedCiphertexts(t *testing.T) {
	leakcheck.Check(t)
	g := chaosGroup(t)
	cases := []struct {
		name       string
		round      func(adv int) int
		to         func(adv int) int // -1 = every leg
		adversarys []int
	}{
		{"key-share", func(int) int { return roundKeys }, func(int) int { return -1 }, []int{0, 1, 2, 3}},
		{"bit-vector", func(int) int { return roundBits }, func(int) int { return -1 }, []int{0, 1, 2, 3}},
		{"tau-set", func(int) int { return roundTaus }, func(int) int { return 0 }, []int{1, 2, 3}},
		{"chain-vector", func(adv int) int { return roundChain + adv }, func(adv int) int { return adv + 1 }, []int{0, 1, 2}},
		{"final-set", func(int) int { return roundChain + 3 }, func(int) int { return -1 }, []int{3}},
	}
	for _, c := range cases {
		for _, adv := range c.adversarys {
			c, adv := c, adv
			t.Run(fmt.Sprintf("%s-adv%d", c.name, adv), func(t *testing.T) {
				t.Parallel()
				cfg := unlinksort.Config{Group: g, L: 5, SkipProofs: true}
				plan := transport.FaultPlan{
					Seed:  int64(adv),
					Rules: []transport.FaultRule{{Kind: transport.FaultCorrupt, Round: c.round(adv), From: adv, To: c.to(adv)}},
				}
				results, errs := runByz(t, cfg, fmt.Sprintf("byz-tamper-%s-%d", c.name, adv), &plan)
				assertBlamed(t, results, errs, adv, transport.CheckMalformed)
			})
		}
	}
}

// TestByzReplayStale has the adversary re-send its previous round's
// message in place of the current one; the round-tag check must abort
// naming the sender with a round-replay certificate.
func TestByzReplayStale(t *testing.T) {
	leakcheck.Check(t)
	g := chaosGroup(t)
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	for adv := 0; adv < byzParties; adv++ {
		for s := 0; s < seeds; s++ {
			adv, s := adv, s
			t.Run(fmt.Sprintf("adv%d-seed%d", adv, s), func(t *testing.T) {
				t.Parallel()
				cfg := unlinksort.Config{Group: g, L: 5, SkipProofs: true}
				plan := transport.FaultPlan{
					Seed:  int64(100*adv + s),
					Rules: []transport.FaultRule{{Kind: transport.FaultReplayStale, Round: roundBits, From: adv, To: -1}},
				}
				results, errs := runByz(t, cfg, fmt.Sprintf("byz-replay-%d-%d", adv, s), &plan)
				assertBlamed(t, results, errs, adv, transport.CheckRoundReplay)
			})
		}
	}
}

// TestByzHonestControl is the no-adversary arm: the same harness with
// no deviation must complete with the correct ranking in every
// configuration the adversarial schedules run under.
func TestByzHonestControl(t *testing.T) {
	leakcheck.Check(t)
	g := chaosGroup(t)
	cases := []struct {
		name     string
		proofs   bool
		proveDec bool
	}{
		{"plain", false, false},
		{"proofs", true, false},
		{"provedec", false, true},
		{"full", true, true},
	}
	for _, c := range cases {
		for s := 0; s < 2; s++ {
			c, s := c, s
			t.Run(fmt.Sprintf("%s-seed%d", c.name, s), func(t *testing.T) {
				t.Parallel()
				cfg := unlinksort.Config{Group: g, L: 5, SkipProofs: !c.proofs, ProveDecryption: c.proveDec}
				results, errs := runByz(t, cfg, fmt.Sprintf("byz-honest-%s-%d", c.name, s), nil)
				for p, err := range errs {
					if err != nil {
						t.Fatalf("honest run failed at party %d: %v", p, err)
					}
					if results[p].Rank != byzRanks[p] {
						t.Fatalf("party %d ranked %d, want %d", p, results[p].Rank, byzRanks[p])
					}
				}
			})
		}
	}
}
