package unlinksort

import (
	"context"
	"fmt"
	"math/big"
	"testing"
	"time"

	"groupranking/internal/elgamal"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/transport"
)

// Malformed-message robustness: honest parties must reject wire garbage
// with descriptive errors, never panic or produce wrong ranks. Each test
// plays one cheating role against honest PartyCtx goroutines; fabric
// timeouts turn the resulting stalls into clean errors.

// runWithCheater spawns n−1 honest parties (indices ≠ cheaterIdx) and
// the given cheater, returning every party's error.
func runWithCheater(t *testing.T, cfg Config, vals []int64, cheaterIdx int, cheater func(fab transport.Net) error) []error {
	t.Helper()
	n := len(vals)
	fab, err := transport.New(n, transport.WithRecvTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, n)
	done := make(chan int, n)
	for me := 0; me < n; me++ {
		me := me
		go func() {
			defer func() { done <- me }()
			if me == cheaterIdx {
				errs[me] = cheater(fab)
				return
			}
			rng := fixedbig.NewDRBG(fmt.Sprintf("mal-honest-%d", me))
			_, errs[me] = PartyCtx(context.Background(), cfg, me, fab, big.NewInt(vals[me]), rng)
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	return errs
}

func malformedConfig(t *testing.T) Config {
	t.Helper()
	g, err := group.GenerateDLGroup(128, fixedbig.NewDRBG("mal-group"))
	if err != nil {
		t.Fatal(err)
	}
	return Config{Group: g, L: 4, SkipProofs: true}
}

func countErrors(errs []error, skip int) int {
	n := 0
	for i, err := range errs {
		if i == skip {
			continue
		}
		if err != nil {
			n++
		}
	}
	return n
}

func TestHonestPartiesRejectGarbageKeyShare(t *testing.T) {
	cfg := malformedConfig(t)
	vals := []int64{3, 7, 11}
	errs := runWithCheater(t, cfg, vals, 2, func(fab transport.Net) error {
		return fab.Broadcast(roundPublishKeys, 2, 4, "not a key")
	})
	if countErrors(errs, 2) == 0 {
		t.Fatal("garbage key share went unrejected")
	}
}

func TestHonestPartiesRejectWrongLengthBitVector(t *testing.T) {
	cfg := malformedConfig(t)
	vals := []int64{3, 7, 11}
	g := cfg.Group
	errs := runWithCheater(t, cfg, vals, 2, func(fab transport.Net) error {
		rng := fixedbig.NewDRBG("mal-bits")
		scheme := elgamal.NewScheme(g)
		key, err := scheme.GenerateKey(rng)
		if err != nil {
			return err
		}
		if err := fab.Broadcast(roundPublishKeys, 2, g.ElementLen(), key.Y); err != nil {
			return err
		}
		if _, err := transport.GatherAll(context.Background(), fab, 2, -1); err != nil {
			return err
		}
		// Publish a bit vector that is one ciphertext short.
		short := make([]elgamal.Ciphertext, cfg.L-1)
		for i := range short {
			if short[i], err = scheme.EncryptExp(key.Y, big.NewInt(0), rng); err != nil {
				return err
			}
		}
		return fab.Broadcast(roundPublishBits, 2, 1, bitsMsg{Cts: short})
	})
	if countErrors(errs, 2) == 0 {
		t.Fatal("short bit vector went unrejected")
	}
}

func TestCollectorRejectsWrongSizeTauSet(t *testing.T) {
	cfg := malformedConfig(t)
	vals := []int64{3, 7, 11}
	g := cfg.Group
	errs := runWithCheater(t, cfg, vals, 2, func(fab transport.Net) error {
		rng := fixedbig.NewDRBG("mal-tau")
		scheme := elgamal.NewScheme(g)
		key, err := scheme.GenerateKey(rng)
		if err != nil {
			return err
		}
		if err := fab.Broadcast(roundPublishKeys, 2, g.ElementLen(), key.Y); err != nil {
			return err
		}
		if _, err := transport.GatherAll(context.Background(), fab, 2, -1); err != nil {
			return err
		}
		// Publish a well-formed bit vector so the honest parties reach
		// the chain phase...
		bits := make([]elgamal.Ciphertext, cfg.L)
		for i := range bits {
			if bits[i], err = scheme.EncryptExp(key.Y, big.NewInt(0), rng); err != nil {
				return err
			}
		}
		if err := fab.Broadcast(roundPublishBits, 2, 1, bitsMsg{Cts: bits}); err != nil {
			return err
		}
		if _, err := transport.GatherAll(context.Background(), fab, 2, -1); err != nil {
			return err
		}
		// ...then hand P_0 a τ set of the wrong size.
		return fab.Send(roundCollectTaus, 2, 0, 1, tauSetMsg{Set: bits[:1]})
	})
	// P_0 must reject; downstream honest parties stall into timeouts.
	if errs[0] == nil {
		t.Fatal("collector accepted a wrong-size τ set")
	}
}
