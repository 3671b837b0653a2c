package ssmpc

import (
	"context"
	"crypto/rand"
	"errors"
	"math/big"
	"strings"
	"testing"
	"time"

	"groupranking/internal/fixedbig"
	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
)

// These tests pin the engine's receive-boundary hardening: a peer on a
// real network can send anything, so on every receive path a
// structurally malformed or out-of-field batch must surface as a typed
// abort naming the sender — never a panic, never a silent acceptance —
// before any element enters a recombination.

func boundaryEngine(t *testing.T) (*Engine, *transport.Fabric) {
	t.Helper()
	p, err := rand.Prime(fixedbig.NewDRBG("boundary-prime"), 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 3, Degree: 1, P: p}
	fab, err := transport.New(3, transport.WithRecvTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineCtx(context.Background(), cfg, 1, fab, fixedbig.NewDRBG("boundary-rng"))
	if err != nil {
		t.Fatal(err)
	}
	return e, fab
}

// boundaryOps are the engine's four receive paths, each run as party 1's
// first operation (round 1) on a batch of two.
var boundaryOps = []struct {
	name    string
	gathers bool // receives from every peer, not from a dealer alone
	run     func(e *Engine) error
}{
	{"ShareBatch", false, func(e *Engine) error { _, err := e.ShareBatch(0, nil, 2); return err }},
	{"RandomElements", true, func(e *Engine) error { _, err := e.RandomElements(2); return err }},
	{"MulBatch", true, func(e *Engine) error { _, err := e.MulBatch(make([]Share, 2), make([]Share, 2)); return err }},
	{"OpenBatch", true, func(e *Engine) error { _, err := e.OpenBatch(make([]Share, 2)); return err }},
}

type boundaryCase struct {
	name    string
	payload func(p *big.Int) any
	want    string
}

// run is a batch at the given width; width 0 means the prime's.
func run(p *big.Int, width int, xs ...*big.Int) wirecodec.Uints {
	if width == 0 {
		width = wirecodec.WidthOf(p)
	}
	u, err := wirecodec.UintsOf(width, xs)
	if err != nil {
		panic(err)
	}
	return u
}

// The cases keep the names they had when a batch was a []*big.Int; each
// sends that hostile value's nearest run-form counterpart. A run has no
// nil entry and no sign, so a nil element is a run without its bytes
// and −1 is its two's complement at the prime's width, all ones; a
// multiple or a value too wide for the prime's width can only come at a
// width of its own, which the width check refuses.
var boundaryCases = []boundaryCase{
	{"not a batch", func(*big.Int) any { return "garbage" }, "malformed"},
	{"wrong count", func(p *big.Int) any { return run(p, 0, big.NewInt(1)) }, "malformed"},
	{"nil element", func(p *big.Int) any { return wirecodec.Uints{Width: wirecodec.WidthOf(p)} }, "malformed"},
	{"negative element", func(p *big.Int) any {
		allOnes := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(8*wirecodec.WidthOf(p))), big.NewInt(1))
		return run(p, 0, allOnes, big.NewInt(1))
	}, "out-of-field"},
	{"equal to p", func(p *big.Int) any { return run(p, 0, big.NewInt(1), p) }, "out-of-field"},
	{"unreduced multiple", func(p *big.Int) any {
		m := new(big.Int).Lsh(p, 3)
		return run(p, wirecodec.WidthOf(m), m, big.NewInt(1))
	}, "malformed"},
	{"wider than the field", func(p *big.Int) any {
		m := new(big.Int).Lsh(p, 200)
		return run(p, wirecodec.WidthOf(m), big.NewInt(1), m)
	}, "malformed"},
	{"narrower than the field", func(p *big.Int) any { return run(p, wirecodec.WidthOf(p)-1, big.NewInt(1), big.NewInt(2)) }, "malformed"},
}

// checkBoundary has party 0 cheat with the case's payload (party 2, where
// the operation hears from it, sends an honest batch) and requires the
// typed abort that names party 0.
func checkBoundary(t *testing.T, opIndex int, tc boundaryCase) {
	t.Helper()
	op := boundaryOps[opIndex]
	e, fab := boundaryEngine(t)
	if err := fab.Send(1, 0, 1, 4, tc.payload(e.cfg.P)); err != nil {
		t.Fatal(err)
	}
	if op.gathers {
		if err := fab.Send(1, 2, 1, 4, run(e.cfg.P, 0, big.NewInt(3), big.NewInt(4))); err != nil {
			t.Fatal(err)
		}
	}
	err := op.run(e)
	if err == nil {
		t.Fatal("cheating peer's batch accepted")
	}
	var abort *transport.AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("error %v is not a typed abort", err)
	}
	if abort.Party != 0 {
		t.Errorf("abort names party %d, want the cheater 0", abort.Party)
	}
	if !strings.Contains(err.Error(), tc.want) {
		t.Errorf("error %q does not mention %q", err, tc.want)
	}
}

func TestReceiveBoundary(t *testing.T) {
	for i, op := range boundaryOps {
		for _, tc := range boundaryCases {
			i, tc := i, tc
			t.Run(op.name+"/"+tc.name, func(t *testing.T) { checkBoundary(t, i, tc) })
		}
	}
}

// The two ShareBatch tests below predate the table and keep their names;
// they run its ShareBatch rows.

func TestShareBatchRejectsOutOfFieldElements(t *testing.T) {
	for _, tc := range boundaryCases[:4] {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { checkBoundary(t, 0, tc) })
	}
}

func TestShareBatchRejectsUnreducedElement(t *testing.T) {
	checkBoundary(t, 0, boundaryCases[4])
}
