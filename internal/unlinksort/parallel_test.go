package unlinksort

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"groupranking/internal/blame"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
)

// TestWorkerCountInvariance is the determinism contract of the parallel
// kernels: the same seed must produce bit-identical results — ranks,
// zero counts AND the shuffled zero positions — at every worker count,
// because all randomness is pre-drawn serially in the reference order
// and only the pure group arithmetic fans out.
func TestWorkerCountInvariance(t *testing.T) {
	g := group.Secp160r1()
	betas := []*big.Int{
		big.NewInt(7), big.NewInt(3), big.NewInt(11),
		big.NewInt(3), big.NewInt(0), big.NewInt(12),
	}
	run := func(t *testing.T, cfg Config) []Result {
		t.Helper()
		res, _, err := RunCtx(context.Background(), cfg, betas, "worker-invariance", nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, proofs := range []bool{false, true} {
		name := "plain"
		if proofs {
			name = "prove-decryption"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Group: g, L: 5, ProveDecryption: proofs, Workers: 1}
			serial := run(t, cfg)
			for _, w := range []int{2, 7} {
				cfg.Workers = w
				got := run(t, cfg)
				if !reflect.DeepEqual(serial, got) {
					t.Errorf("workers=%d diverged from the serial reference:\nserial   %+v\nparallel %+v",
						w, serial, got)
				}
			}
		})
	}
}

// TestInvalidCurveKeyShareAbortsOverTCP is the invalid-curve regression
// over the real serialising transport: a malicious party publishes an
// off-curve point as its key share, and every honest party must reject
// it at the receive boundary with a typed abort naming the attacker,
// not fold it into the joint public key. An off-curve point has no
// compressed form, so what the attacker can put on the wire is an
// abscissa with no point over it: (1, 1) encodes as x = 1, the smallest
// such abscissa on secp160r1 (1 − 3 + b is a non-residue mod p), which
// decompression refuses.
func TestInvalidCurveKeyShareAbortsOverTCP(t *testing.T) {
	g := group.Secp160r1()
	evil, err := group.UnsafeElementFromCoords(g, big.NewInt(1), big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if group.Validate(g, evil) == nil {
		t.Fatal("test point is unexpectedly on the curve; pick other coordinates")
	}
	if _, err := g.Decode(g.AppendElement(nil, evil)); err == nil {
		t.Fatal("x = 1 decompresses onto the curve; pick another abscissa")
	}
	keyShareAttackOverTCP(t, g, evil)
}

// TestForeignGroupKeyShareAbortsOverTCP: in a secp160r1 run, a party
// whose key-share payload names secp256r1 and carries a valid P-256
// point decodes cleanly — the payload names its group — and must still
// be refused at once by group.Validate, naming the sender with a
// certificate blame.Verify confirms.
func TestForeignGroupKeyShareAbortsOverTCP(t *testing.T) {
	for i, abort := range keyShareAttackOverTCP(t, group.Secp160r1(), group.ExpGen(group.Secp256r1(), big.NewInt(7))) {
		if abort.Cert == nil || abort.Cert.Check != transport.CheckInvalidElement {
			t.Errorf("honest party %d aborted without an invalid-element certificate: %v", i+1, abort)
		}
	}
}

// TestWrongWidthChallengeAbortsOverTCP: in a secp160r1 run, a party
// that publishes a proper key share and commitment and then a challenge
// vector one byte wider than the group order's width is refused at
// once by every honest verifier, naming it, with a malformed-payload
// certificate blame.Verify confirms.
func TestWrongWidthChallengeAbortsOverTCP(t *testing.T) {
	g := group.Secp160r1()
	width := wirecodec.WidthOf(g.Order()) + 1
	aborts := attackOverTCP(t, g, func(fab transport.Net) {
		rng := fixedbig.NewDRBG("wrong-width-challenger")
		ctx := context.Background()
		x, _ := g.RandomScalar(rng)
		if _, err := transport.EchoBroadcastCtx(ctx, fab, 0, roundPublishKeys, g.ElementLen(), group.ExpGen(g, x)); err != nil {
			return
		}
		r, _ := g.RandomScalar(rng)
		if _, err := transport.EchoBroadcastCtx(ctx, fab, 0, roundProofCommit, g.ElementLen(), group.ExpGen(g, r)); err != nil {
			return
		}
		chals := []*big.Int{big.NewInt(0), big.NewInt(5), big.NewInt(6)}
		run, err := wirecodec.UintsOf(width, chals)
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = transport.EchoBroadcastCtx(ctx, fab, 0, roundProofChallenge, 2*width, run)
	})
	for i, abort := range aborts {
		if abort.Cert == nil || abort.Cert.Check != transport.CheckMalformed {
			t.Errorf("honest party %d aborted without a malformed-payload certificate: %v", i+1, abort)
		} else if got, _ := abort.Cert.Item("type-got"); !strings.Contains(string(got), "width 22") {
			t.Errorf("honest party %d's certificate records %q, not the 22-byte run", i+1, got)
		}
	}
}

// keyShareAttackOverTCP runs attackOverTCP with party 0 publishing evil
// as its key share in the protocol's consistent broadcast (echo
// sub-round included, so only the share gives it away).
func keyShareAttackOverTCP(t *testing.T, g group.Group, evil group.Element) []*transport.AbortError {
	t.Helper()
	return attackOverTCP(t, g, func(fab transport.Net) {
		_, _ = transport.EchoBroadcastCtx(context.Background(), fab, 0, roundPublishKeys, g.ElementLen(), evil)
	})
}

// attackOverTCP runs three parties over loopback TCP on g, party 0
// running attack, and requires both honest parties to abort naming
// party 0 well inside the receive bound, not by waiting it out. Every
// certificate an abort carries must pass blame.Verify. It returns the
// honest parties' aborts.
func attackOverTCP(t *testing.T, g group.Group, attack func(fab transport.Net)) []*transport.AbortError {
	t.Helper()
	const n, bound = 3, 20 * time.Second
	addrs, err := transport.FreeLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	honestDone := make(chan struct{})
	errs := make([]error, n) // the honest parties' outcomes
	var wg, honestWG sync.WaitGroup
	wg.Add(n)
	honestWG.Add(n - 1)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			fab, err := transport.NewTCPFabric(addrs, i, bound)
			if err != nil {
				errs[i] = err
				if i != 0 {
					honestWG.Done()
				}
				return
			}
			defer fab.Close()
			if i == 0 {
				// The attacker: attack, then idle until the honest
				// parties have aborted (closing earlier could turn their
				// failure into a peer-down abort instead). Its last
				// broadcast fails when the honest parties abort, so its
				// errors are not checked.
				attack(fab)
				<-honestDone
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), bound)
			defer cancel()
			rng := fixedbig.NewDRBG(fmt.Sprintf("invalid-curve-party-%d", i))
			_, errs[i] = PartyCtx(ctx, Config{Group: g, L: 4}, i, fab, big.NewInt(int64(i)), rng)
			// Stay connected until the other honest party is done too, so
			// that its abort is about the attacker, not about this party
			// hanging up.
			honestWG.Done()
			<-honestDone
		}()
	}
	go func() {
		honestWG.Wait()
		close(honestDone)
	}()
	wg.Wait()

	if took := time.Since(start); took > bound/2 {
		t.Errorf("the honest parties took %v to abort, against a %v receive bound", took, bound)
	}
	var aborts []*transport.AbortError
	for i := 1; i < n; i++ {
		err := errs[i]
		if err == nil {
			t.Fatalf("honest party %d accepted the attack", i)
		}
		var abort *transport.AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("honest party %d returned an untyped error: %v", i, err)
		}
		if abort.Party != 0 || errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("honest party %d blamed party %d (want the attacker, 0, not a timeout): %v", i, abort.Party, err)
		}
		if abort.Cert != nil {
			if err := blame.Verify(abort.Cert); err != nil {
				t.Errorf("honest party %d's certificate does not verify: %v", i, err)
			}
		}
		aborts = append(aborts, abort)
	}
	return aborts
}
