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
// framing, a closed form in the party count, L and the group's element
// and scalar widths alone. It counts the messages it checked per kind.
type widthTap struct {
	transport.Net
	t    *testing.T
	g    group.Group
	l    int
	mu   sync.Mutex
	seen map[string]int
}

// framing returns a payload's kind and its frame length beyond the
// declared bytes: the 9-byte frame header, the group byte, the u32
// count prefixes and each integer run's 6-byte header (u16 width, u32
// count). A vector with proofs off is V (a count and n row counts) and
// the empty Input, Stripped and Proofs matrices (one count each). A
// challenge vector carries its unread self slot, one scalar beyond the
// n − 1 it declares.
//
// With proofs on, a vector is four full matrices. The protocol
// declares it as five ciphertexts per V slot ("≈ 5×"): V and Input are
// n(n−1)L ciphertexts each, Stripped and the transcripts (n−1)²L each
// (no hop strips or proves its own set), and a transcript is two
// elements and a run of two scalars, so the frame differs from the
// declared bytes by a closed form in n, L, the element width E and the
// scalar width S.
func (w *widthTap) framing(payload any) (string, int, bool) {
	n, l := w.N(), w.l
	e, sw := w.g.ElementLen(), wirecodec.WidthOf(w.g.Order())
	switch m := payload.(type) {
	case group.Element:
		return "key share", 9 + 1, true
	case wirecodec.Uints:
		if m.Len() == 1 {
			return "proof response", 9 + 6, true
		}
		return "challenge vector", 9 + 6 + sw, true
	case bitsMsg:
		return "bits", 9 + 1 + 4, true
	case tauSetMsg:
		return "tau set", 9 + 1 + 4, true
	case vectorMsg:
		if len(m.Proofs) == 0 {
			return "vector", 9 + 1 + 4 + 4*n + 3*4, true
		}
		ct, slots, own := 2*e, n*(n-1)*l, (n-1)*(n-1)*l
		frame := 9 + 1 + 4*(4+4*n) + (2*slots+own)*ct + own*(2*e+6+2*sw)
		return "proof vector", frame - 5*slots*ct, true
	case finalMsg:
		return "final set", 9 + 1 + 4, true
	}
	return "", 0, false
}

func (w *widthTap) check(bytes int, payload any) {
	kind, extra, ok := w.framing(payload)
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

// TestFrameWidthsPinned: every element- or scalar-carrying payload of
// a seeded n = 4 run — key shares, the key proof's challenge vectors
// and responses, bits, τ sets, chain vectors (proofs off, and with
// ProveDecryption on, with their transcripts) and final sets — encodes
// to exactly its declared bytes plus framing, on both curves and a DL
// group, whatever the coordinates and scalars: each element is its
// group's ElementLen bytes and each scalar its order's width, so the
// declared cost model is the wire.
func TestFrameWidthsPinned(t *testing.T) {
	betas := []*big.Int{big.NewInt(5), big.NewInt(0), big.NewInt(7), big.NewInt(5)}
	for _, g := range []group.Group{group.Secp160r1(), group.Secp256r1(), group.ToyDL256()} {
		for _, proofs := range []bool{false, true} {
			name := g.Name()
			kinds := []string{"key share", "challenge vector", "proof response", "bits", "tau set", "vector", "final set"}
			if proofs {
				name += "/prove-decryption"
				kinds[5] = "proof vector"
			}
			t.Run(name, func(t *testing.T) {
				cfg := Config{Group: g, L: 3, ProveDecryption: proofs}
				tap := &widthTap{t: t, g: g, l: cfg.L, seen: map[string]int{}}
				wrap := func(n transport.Net) transport.Net { tap.Net = n; return tap }
				if _, _, err := RunCtx(context.Background(), cfg, betas, "widths-"+g.Name(), wrap); err != nil {
					t.Fatal(err)
				}
				for _, kind := range kinds {
					if tap.seen[kind] == 0 {
						t.Errorf("no %s payload was sent", kind)
					}
				}
			})
		}
	}
}
