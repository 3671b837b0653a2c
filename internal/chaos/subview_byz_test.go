package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"

	"groupranking/internal/blame"
	"groupranking/internal/fixedbig"
	"groupranking/internal/leakcheck"
	"groupranking/internal/transport"
	"groupranking/internal/unlinksort"
)

// Sub-round composition under active tampering: the framework runs its
// sort sub-protocol over a SubView (round-offset window) of the outer
// fabric, so corruption injected at a sub-round boundary must still
// surface as a typed abort naming the TRUE sender in sub-view
// coordinates — whether the sub-view sits over an in-process FaultNet
// or over a real recovering TCP mesh.

// assertSubViewBlame checks every honest member's error: failures must
// be typed aborts, and every abort carrying evidence (a certificate)
// must name the cheater in SUB-VIEW coordinates and survive offline
// verification. Cert-less aborts are secondary effects — a gather cut
// short by a sibling's cancellation — and carry no accusation.
func assertSubViewBlame(t *testing.T, errs []error, cheater int) {
	t.Helper()
	blamed := 0
	for p, err := range errs {
		if p == cheater || err == nil {
			continue
		}
		var ae *transport.AbortError
		if !errors.As(err, &ae) {
			if errors.Is(err, context.Canceled) {
				continue
			}
			t.Fatalf("sub-view party %d failed without a typed abort: %v", p, err)
		}
		cert := transport.CertOf(err)
		if cert == nil {
			continue
		}
		if cert.Accused != cheater {
			t.Fatalf("sub-view party %d's certificate accuses %d, cheater is %d — FALSE ACCUSATION\nabort: %v\ncert: %s",
				p, cert.Accused, cheater, ae, cert)
		}
		if ae.Party != cheater {
			t.Fatalf("sub-view party %d's abort names party %d, cheater is %d: %v", p, ae.Party, cheater, ae)
		}
		if verr := blame.Verify(cert); verr != nil {
			t.Fatalf("sub-view party %d's certificate fails offline verification: %v\ncert: %s", p, verr, cert)
		}
		blamed++
	}
	if blamed == 0 {
		t.Fatalf("no honest sub-view member blamed the cheater with a certificate; errors: %v", errs)
	}
}

// TestSubViewOverFaultNetTamper corrupts one member's outgoing key
// share inside a sub-round window of a larger in-process fabric: the
// abort must name the cheater by its SUB-VIEW index, not its parent
// index, and carry a verifiable certificate.
func TestSubViewOverFaultNetTamper(t *testing.T) {
	leakcheck.Check(t)
	g := chaosGroup(t)
	const offset = 20
	members := []int{1, 2, 3} // parent indices; cheater is parent 2 = sub-view 1
	cheater := 1
	fab, err := transport.New(5, transport.WithRecvTimeout(byzRecvWindow))
	if err != nil {
		t.Fatal(err)
	}
	plan := transport.FaultPlan{
		Seed: 7,
		// Parent coordinates: sub-view round 1 (key shares) maps to
		// parent round offset+1; the cheater's parent index is 2.
		Rules: []transport.FaultRule{{Kind: transport.FaultCorrupt, Round: offset + roundKeys, From: 2, To: -1}},
	}
	fn := transport.NewFaultNet(fab, plan)
	sv, err := transport.NewSubView(fn, members, offset)
	if err != nil {
		t.Fatal(err)
	}
	cfg := unlinksort.Config{Group: g, L: 4, SkipProofs: true}
	vals := []int64{9, 5, 12}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for p := range members {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := fixedbig.NewDRBG(fmt.Sprintf("sv-faultnet-%d", p))
			_, err := unlinksort.PartyCtx(ctx, cfg, p, sv, big.NewInt(vals[p]), rng)
			if err != nil {
				errs[p] = err
				cancel()
			}
		}()
	}
	wg.Wait()
	fn.Flush()
	fn.Wait()
	assertSubViewBlame(t, errs, cheater)
}

// TestSubViewOverRecoveringMeshTamper runs the same attack over a real
// recovering TCP mesh: the cheater's endpoint corrupts its outgoing
// key-share legs inside the sub-round window, and the echo sub-round
// (active on real fabrics) must attribute the tampering to the cheater
// at every honest member — a party is responsible for its own links.
func TestSubViewOverRecoveringMeshTamper(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP mesh")
	}
	leakcheck.Check(t)
	g := chaosGroup(t)
	const offset = byzSubOffset
	const n = 3
	const cheater = 1
	addrs, err := transport.FreeLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := unlinksort.Config{Group: g, L: 4, SkipProofs: true}
	vals := []int64{9, 5, 12}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make([]error, n)
	journals := sessionJournals(t, "sv-byz-mesh", n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			fab, err := transport.OpenTCPFabric(addrs, p, byzRecvWindow,
				transport.MuxOptions{Recovery: &transport.MuxRecovery{Grace: 2 * time.Second}}, "sv-byz-mesh", journals[p])
			if err != nil {
				errs[p] = err
				cancel()
				return
			}
			defer fab.Close()
			var net transport.Net = fab
			var fn *transport.FaultNet
			if p == cheater {
				// Corrupt the leg to member 0 only: the honest members'
				// digests of the same broadcast then disagree with each
				// other, so the honest echoes alone convict the cheater —
				// no reliance on the cheater's own echo surviving its exit.
				fn = transport.NewFaultNet(fab, transport.FaultPlan{
					Seed:  11,
					Rules: []transport.FaultRule{{Kind: transport.FaultCorrupt, Round: offset + roundKeys, From: cheater, To: 0}},
				})
				net = fn
			}
			sv, err := transport.NewSubView(net, []int{0, 1, 2}, offset)
			if err != nil {
				errs[p] = err
				cancel()
				return
			}
			rng := fixedbig.NewDRBG(fmt.Sprintf("sv-mesh-%d", p))
			_, err = unlinksort.PartyCtx(ctx, cfg, p, sv, big.NewInt(vals[p]), rng)
			if err != nil {
				errs[p] = err
				if p == cheater {
					// The cheater often detects its own equivocation first
					// (the honest echoes disagree with its claim). Its exit
					// must not cut the honest members off mid-verdict: drain
					// so its in-flight echo frames reach them, and leave
					// cancellation to the honest aborts.
					fab.Drain(0)
				} else {
					cancel()
				}
			}
			if fn != nil {
				fn.Flush()
				fn.Wait()
			}
		}()
	}
	wg.Wait()
	assertSubViewBlame(t, errs, cheater)
}
