package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"groupranking/internal/group"
	"groupranking/internal/nettap"
	"groupranking/internal/transport"
)

// goldenTranscript runs one seeded RunCtx of the full framework, four
// participants and the initiator on secp160r1, and returns the hex
// sha256 over the per-party frame hashes (nettap) followed by every
// participant's rank, the initiator's submissions (participant, claimed
// rank, profile, recomputed gain) and the suspicious list.
func goldenTranscript(t *testing.T, proveDecryption bool, workers int) string {
	t.Helper()
	params := Params{
		N: 4, M: 4, T: 2, D1: 6, D2: 4, H: 6, K: 2,
		Group: group.Secp160r1(), Sorter: SorterUnlinkable,
		ProveDecryption: proveDecryption, Workers: workers,
	}
	in := testInputs(t, params, "core-golden-inputs")
	var tap *nettap.Tap
	wrap := func(fab transport.Net) transport.Net {
		tap = nettap.New(fab)
		return tap
	}
	res, _, err := RunCtx(context.Background(), params, in, "core-golden", wrap)
	if err != nil {
		t.Fatal(err)
	}
	total := sha256.New()
	tap.WriteSums(total)
	put := func(v int64) { total.Write(binary.BigEndian.AppendUint64(nil, uint64(v))) }
	for _, r := range res.Ranks {
		put(int64(r))
	}
	for _, s := range res.Submissions {
		put(int64(s.Participant))
		put(int64(s.ClaimedRank))
		for _, v := range s.Profile.Values {
			put(v)
		}
		total.Write([]byte(s.Gain.String()))
	}
	for _, p := range res.Suspicious {
		put(int64(p))
	}
	return hex.EncodeToString(total.Sum(nil))
}

// TestGoldenTranscript pins the paper's full protocol (§III: the gain
// computation, the unlinkable comparison and the top-k submission) at
// its ECC setting, secp160r1 with n = 4, with and without the
// decryption proofs, at one worker and the default: every frame every
// party sends, and the run's outcome. A change to any phase's messages,
// to the order or width of any RNG draw or to a frame's encoding moves
// it; the worker count must not.
func TestGoldenTranscript(t *testing.T) {
	for _, tc := range []struct {
		proveDecryption bool
		want            string
	}{
		{false, "4116402fa1cfd021d80a5a92a0fc98346d3139a16b04ec7020ac676dcd72b848"},
		{true, "aecd02effcf46a5641f3c4eadf9753d98b02d4985802d616e00eba31c82a9fb8"},
	} {
		for _, workers := range []int{1, 0} {
			t.Run(fmt.Sprintf("prove-decryption=%t/workers=%d", tc.proveDecryption, workers), func(t *testing.T) {
				if got := goldenTranscript(t, tc.proveDecryption, workers); got != tc.want {
					t.Errorf("transcript digest %s, want %s", got, tc.want)
				}
			})
		}
	}
}
