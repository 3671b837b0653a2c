package unlinksort

import (
	"context"
	"math/big"
	"sync"
	"testing"

	"groupranking/internal/group"
	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
)

// widthTap checks every payload a party sends against the bytes the
// protocol declares for it: the frame must be the declared bytes plus
// framing, a closed form in the party count alone. It counts the
// messages it checked per kind.
type widthTap struct {
	transport.Net
	t    *testing.T
	mu   sync.Mutex
	seen map[string]int
}

// framing returns a payload's kind and its frame length beyond the
// declared bytes: the 9-byte frame header, the group byte and the u32
// count prefixes. A vector with proofs off is V (a count and n row
// counts) and the empty Input, Stripped and Proofs matrices (one count
// each).
func framing(payload any, n int) (string, int, bool) {
	switch payload.(type) {
	case group.Element:
		return "key share", 9 + 1, true
	case bitsMsg:
		return "bits", 9 + 1 + 4, true
	case tauSetMsg:
		return "tau set", 9 + 1 + 4, true
	case vectorMsg:
		return "vector", 9 + 1 + 4 + 4*n + 3*4, true
	case finalMsg:
		return "final set", 9 + 1 + 4, true
	}
	return "", 0, false
}

func (w *widthTap) check(bytes int, payload any) {
	kind, extra, ok := framing(payload, w.N())
	if !ok {
		return
	}
	frame, err := wirecodec.Marshal(payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.t.Errorf("%s: %v", kind, err)
	} else if len(frame) != bytes+extra {
		w.t.Errorf("%s: %d-byte frame for %d declared bytes, want %d + %d", kind, len(frame), bytes, bytes, extra)
	}
	w.seen[kind]++
}

func (w *widthTap) Send(round, from, to, bytes int, payload any) error {
	w.check(bytes, payload)
	return w.Net.Send(round, from, to, bytes, payload)
}

func (w *widthTap) Broadcast(round, from, bytes int, payload any) error {
	w.check(bytes, payload)
	return w.Net.Broadcast(round, from, bytes, payload)
}

// TestFrameWidthsPinned: every element-carrying payload of a seeded
// n = 4 run — key shares, bits, τ sets, chain vectors (proofs off) and
// final sets — encodes to exactly its declared bytes plus framing, on
// both curves and a DL group, whatever the coordinates: each element is
// its group's ElementLen bytes, so the declared cost model is the wire.
func TestFrameWidthsPinned(t *testing.T) {
	dl, err := group.ToyDL256()
	if err != nil {
		t.Fatal(err)
	}
	betas := []*big.Int{big.NewInt(5), big.NewInt(0), big.NewInt(7), big.NewInt(5)}
	for _, g := range []group.Group{group.Secp160r1(), group.Secp256r1(), dl} {
		t.Run(g.Name(), func(t *testing.T) {
			tap := &widthTap{t: t, seen: map[string]int{}}
			wrap := func(n transport.Net) transport.Net { tap.Net = n; return tap }
			if _, _, err := RunCtx(context.Background(), Config{Group: g, L: 3}, betas, "widths-"+g.Name(), wrap); err != nil {
				t.Fatal(err)
			}
			for _, kind := range []string{"key share", "bits", "tau set", "vector", "final set"} {
				if tap.seen[kind] == 0 {
					t.Errorf("no %s payload was sent", kind)
				}
			}
		})
	}
}
