package sssort

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"testing"

	"groupranking/internal/fixedbig"
	"groupranking/internal/nettap"
	"groupranking/internal/ssmpc"
	"groupranking/internal/transport"
)

// goldenTranscript runs one seeded SortOpen among n parties (every party
// deals one value) and returns the hex sha256 over the per-party frame
// hashes followed by the opened sequence.
func goldenTranscript(t *testing.T, n, degree, primeBits, l int) string {
	t.Helper()
	p, err := fixedbig.Prime(fixedbig.NewDRBG(fmt.Sprintf("golden-field-%d", primeBits)), primeBits)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ssmpc.Config{N: n, Degree: degree, P: p}
	values := fixedbig.NewDRBG("golden-values")
	secrets := make([]*big.Int, n)
	for i := range secrets {
		if secrets[i], err = fixedbig.RandBits(values, l); err != nil {
			t.Fatal(err)
		}
	}
	var tap *nettap.Tap
	wrap := func(fab transport.Net) transport.Net {
		tap = nettap.New(fab)
		return tap
	}
	opened := make([][]*big.Int, n)
	fab, errs, err := transport.RunMesh(context.Background(), n, wrap, func(ctx context.Context, me int, net transport.Net) error {
		e, err := ssmpc.NewEngineCtx(ctx, cfg, me, net, fixedbig.PartyDRBG("golden", me))
		if err != nil {
			return err
		}
		shares := make([]ssmpc.Share, n)
		for dealer := 0; dealer < n; dealer++ {
			var s *big.Int
			if dealer == me {
				s = secrets[me]
			}
			sh, err := e.ShareBatch(dealer, []*big.Int{s}, 1)
			if err != nil {
				return err
			}
			shares[dealer] = sh[0]
		}
		opened[me], err = SortOpen(e, shares, l)
		return err
	})
	if fab == nil {
		t.Fatal(err)
	}
	for me, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", me, err)
		}
	}
	total := sha256.New()
	tap.WriteSums(total)
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
// 86016ff), re-recorded when wire-format version 3 changed every
// frame's version byte (at version 2 the old digests still come out)
// and when version 4 sent shares as fixed-width integer runs instead of
// sign ‖ length ‖ magnitude — both times with every frame's round,
// endpoints, declared bytes and integers, and the opened sequence,
// unchanged. Re-recorded once more when the comparison's sequential
// prefix-OR became a tree of carry maps and a sort came to draw all its
// mask bits in one batch: the frames and rounds changed then, the
// opened sequence did not. Re-recorded when the comparison's high mask
// became one integer dealt by every party beside the mask bits' random
// elements instead of κ + 1 more shared bits: the frames changed, the
// rounds and the opened sequence did not. A change to the order or
// width of any RNG draw, to which root RandomBits picks, or to any
// frame's encoding moves it.
func TestGoldenTranscript(t *testing.T) {
	cases := []struct {
		n, degree, primeBits, l int
		want                    string
	}{
		{5, 2, 75, 27, "ca5f920891e3e28c01bead43b51096374ded411d370f0ead6eecb804fd15e401"},
		{3, 1, 110, 62, "07adb61077a718fae2a88938e474a9f69f0a31782d54bc32d3fac1e9240f69ef"},
		{3, 1, 140, 62, "b45da6a15e53a58f67c8a9d73b0b9adee8fe57ae9dc4799baa98e9819e447925"}, // past 2^128: the three-limb multiply (recorded on the four-limb one)
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
