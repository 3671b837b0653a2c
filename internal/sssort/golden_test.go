package sssort

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/big"
	"sync"
	"testing"

	"groupranking/internal/fixedbig"
	"groupranking/internal/ssmpc"
	"groupranking/internal/transport"
)

// tapNet hashes every frame each party sends: round, endpoints, charged
// size and the digest of the payload's wirecodec frame — the bytes a TCP
// mesh would put on the wire. Each party sends from its own goroutine,
// so the per-sender hashes need no lock.
type tapNet struct {
	transport.Net
	sent []hash.Hash
}

func (t *tapNet) Send(round, from, to, bytes int, payload any) error {
	d, err := transport.PayloadDigest(payload)
	if err != nil {
		return err
	}
	var hdr [32]byte
	binary.BigEndian.PutUint64(hdr[0:], uint64(round))
	binary.BigEndian.PutUint64(hdr[8:], uint64(from))
	binary.BigEndian.PutUint64(hdr[16:], uint64(to))
	binary.BigEndian.PutUint64(hdr[24:], uint64(bytes))
	t.sent[from].Write(hdr[:])
	t.sent[from].Write(d)
	return t.Net.Send(round, from, to, bytes, payload)
}

func (t *tapNet) Broadcast(round, from, bytes int, payload any) error {
	for to := 0; to < t.N(); to++ {
		if to == from {
			continue
		}
		if err := t.Send(round, from, to, bytes, payload); err != nil {
			return err
		}
	}
	return nil
}

// goldenTranscript runs one seeded SortOpen among n parties (every party
// deals one value) and returns the hex sha256 over the per-party frame
// hashes followed by the opened sequence.
func goldenTranscript(t *testing.T, n, degree, primeBits, l int) string {
	t.Helper()
	p, err := fixedbig.Prime(fixedbig.NewDRBG(fmt.Sprintf("golden-field-%d", primeBits)), primeBits)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ssmpc.Config{N: n, Degree: degree, P: p, Kappa: 40}
	fab, err := transport.New(n)
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapNet{Net: fab, sent: make([]hash.Hash, n)}
	for i := range tap.sent {
		tap.sent[i] = sha256.New()
	}
	values := fixedbig.NewDRBG("golden-values")
	secrets := make([]*big.Int, n)
	for i := range secrets {
		if secrets[i], err = fixedbig.RandBits(values, l); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opened := make([][]*big.Int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for me := 0; me < n; me++ {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if errs[me] != nil {
					cancel()
				}
			}()
			rng := fixedbig.NewDRBG(fmt.Sprintf("golden-party-%d", me))
			e, err := ssmpc.NewEngineCtx(ctx, cfg, me, tap, rng)
			if err != nil {
				errs[me] = err
				return
			}
			shares := make([]ssmpc.Share, n)
			for dealer := 0; dealer < n; dealer++ {
				var s *big.Int
				if dealer == me {
					s = secrets[me]
				}
				if shares[dealer], err = e.Share(dealer, s); err != nil {
					errs[me] = err
					return
				}
			}
			opened[me], errs[me] = SortOpen(e, shares, l)
		}()
	}
	wg.Wait()
	for me, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", me, err)
		}
	}
	total := sha256.New()
	for _, h := range tap.sent {
		total.Write(h.Sum(nil))
	}
	for i, v := range opened[0] {
		if i > 0 && opened[0][i-1].Cmp(v) > 0 {
			t.Fatalf("opened sequence not sorted at %d", i)
		}
		total.Write(v.FillBytes(make([]byte, (primeBits+7)/8)))
	}
	return hex.EncodeToString(total.Sum(nil))
}

// TestGoldenTranscript pins "seeded runs keep their shares": the digest
// of every frame every party sends in a seeded in-memory SortOpen must
// equal the one recorded before the engine left math/big (commit
// 86016ff). A change to the order or width of any RNG draw, to which
// root RandomBits picks, or to any frame's encoding moves it.
func TestGoldenTranscript(t *testing.T) {
	cases := []struct {
		n, degree, primeBits, l int
		want                    string
	}{
		{5, 2, 75, 27, "ac92d652dfbdf0c0c61c1a25764e2ddd5c90d200771dc95f37777351aa35f6d4"},
		{3, 1, 110, 62, "747a76dc978baacc52db9447c5a5de0d35f0cc0aed3b788acd396e0dd5918633"},
		{3, 1, 140, 62, "cb21be34d4770b87b7a473ec6252fd3756c2f3d3931a309855146e32e0474890"}, // past 2^128: the three-limb multiply (recorded on the four-limb one)
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n%d_d%d_p%d", tc.n, tc.degree, tc.primeBits), func(t *testing.T) {
			got := goldenTranscript(t, tc.n, tc.degree, tc.primeBits, tc.l)
			if got != tc.want {
				t.Errorf("transcript digest %s, want %s", got, tc.want)
			}
		})
	}
}
