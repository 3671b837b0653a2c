package unlinksort

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"testing"

	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/nettap"
	"groupranking/internal/transport"
)

// goldenTranscript runs one seeded RunCtx among four parties on the
// named group and returns the hex sha256 over the per-party frame hashes
// (nettap) followed by every party's rank, zero count and zero
// positions.
func goldenTranscript(t *testing.T, groupName string, workers int) string {
	t.Helper()
	g, err := group.ByName(groupName)
	if err != nil {
		t.Fatal(err)
	}
	const n, l = 4, 6
	values := fixedbig.NewDRBG("unlinksort-golden-values")
	betas := make([]*big.Int, n)
	for i := range betas {
		if betas[i], err = fixedbig.RandBits(values, l); err != nil {
			t.Fatal(err)
		}
	}
	var tap *nettap.Tap
	wrap := func(fab transport.Net) transport.Net {
		tap = nettap.New(fab)
		return tap
	}
	cfg := Config{Group: g, L: l, Workers: workers}
	results, _, err := RunCtx(context.Background(), cfg, betas, "unlinksort-golden", wrap)
	if err != nil {
		t.Fatal(err)
	}
	total := sha256.New()
	tap.WriteSums(total)
	put := func(v int) { total.Write(binary.BigEndian.AppendUint64(nil, uint64(v))) }
	for _, r := range results {
		put(r.Rank)
		put(r.Zeros)
		for _, z := range r.ZeroPositions {
			put(z)
		}
	}
	return hex.EncodeToString(total.Sum(nil))
}

// TestGoldenTranscript pins the sorter's seeded transcript at the paper's
// ECC setting (secp160r1, on the fold), at P-256 (on the four-limb
// field) and on the demo DL group, at one worker and the default: every
// frame every party sends, and each party's result. A change to a curve
// or field body that moves any element, to the order or width of any
// RNG draw, or to any frame's encoding moves it; the worker count must
// not.
func TestGoldenTranscript(t *testing.T) {
	for _, tc := range []struct {
		group string
		want  string
	}{
		{"secp160r1", "dfbbcabae52c2173858b61e851bf961d8d7a9da4e3d6afa5303453a19937de61"},
		{"secp256r1", "0dd11bbcf24317919263a9aecd1c2b3bebbf313e3ed5ac5c64b83a26c5dc279a"},
		{"toy-dl-256", "8462fdca4520c59e33b3ae080ed3066b589c1602787fae638d9ee012c48af37b"},
	} {
		for _, workers := range []int{1, 0} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.group, workers), func(t *testing.T) {
				if got := goldenTranscript(t, tc.group, workers); got != tc.want {
					t.Errorf("transcript digest %s, want %s", got, tc.want)
				}
			})
		}
	}
}
