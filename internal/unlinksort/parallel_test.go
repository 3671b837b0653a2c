package unlinksort

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"sync"
	"testing"
	"time"

	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/transport"
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
// over the real serialising transport: a malicious party gob-sends a
// structurally well-formed but off-curve point as its key share. Before
// the fix the honest parties would fold it into the joint public key
// (gob decoding cannot check membership); now every honest party must
// reject it at the receive boundary with a typed abort naming the
// attacker.
func TestInvalidCurveKeyShareAbortsOverTCP(t *testing.T) {
	g := group.Secp160r1()
	evil, err := group.UnsafeElementFromCoords(g, big.NewInt(1), big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if group.Validate(g, evil) == nil {
		t.Fatal("test point is unexpectedly on the curve; pick other coordinates")
	}

	const n = 3
	addrs, err := transport.FreeLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	honestDone := make(chan struct{})
	errs := make([]error, n)
	var wg, honestWG sync.WaitGroup
	wg.Add(n)
	honestWG.Add(n - 1)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			fab, err := transport.NewTCPFabric(addrs, i, 20*time.Second)
			if err != nil {
				errs[i] = err
				if i != 0 {
					honestWG.Done()
				}
				return
			}
			defer fab.Close()
			if i == 0 {
				// The attacker: broadcast the off-curve share where the
				// protocol publishes key shares, then idle until the
				// honest parties have aborted (closing earlier could
				// turn their failure into a peer-down abort instead).
				errs[i] = fab.Broadcast(roundPublishKeys, 0, g.ElementLen(), evil)
				<-honestDone
				return
			}
			defer honestWG.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			rng := fixedbig.NewDRBG(fmt.Sprintf("invalid-curve-party-%d", i))
			_, errs[i] = PartyCtx(ctx, Config{Group: g, L: 4}, i, fab, big.NewInt(int64(i)), rng)
		}()
	}
	go func() {
		honestWG.Wait()
		close(honestDone)
	}()
	wg.Wait()

	if errs[0] != nil {
		t.Fatalf("attacker failed to send: %v", errs[0])
	}
	for i := 1; i < n; i++ {
		err := errs[i]
		if err == nil {
			t.Fatalf("honest party %d accepted an off-curve key share", i)
		}
		var abort *transport.AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("honest party %d returned an untyped error: %v", i, err)
		}
		if abort.Party != 0 {
			t.Errorf("honest party %d blamed party %d, want the attacker (0): %v", i, abort.Party, err)
		}
	}
}
