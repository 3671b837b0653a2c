package core

import (
	"context"
	"testing"

	"groupranking/internal/transport"
)

// TestRoundTagBandsDisjoint is the SubView round-offset collision
// regression test. The crash-recovery runtime journals and deduplicates
// messages by (peer, seq) but replays them by round tag, and the
// distributed session handshake reserves tag 0 — so the framework's
// round-tag space must stay partitioned: gain rounds in {1, 2}, every
// phase-2 sort round inside the SubView band [phase2RoundOffset, 1<<20),
// and the submission alone at 1<<20. A sorter that outgrew its band (or
// a shrunk offset) would let two different logical messages share a tag,
// which journal replay would then serve to the wrong receive. Both
// sorters run here so neither can drift out of the band unnoticed.
func TestRoundTagBandsDisjoint(t *testing.T) {
	for _, sorter := range []Sorter{SorterUnlinkable, SorterSecretSharing} {
		sorter := sorter
		t.Run(sorter.String(), func(t *testing.T) {
			params := smallParams(t, 4)
			params.Sorter = sorter
			in := testInputs(t, params, "round-bands")
			_, fab, err := RunCtx(context.Background(), params, in, "round-bands-run", nil)
			if err != nil {
				t.Fatal(err)
			}
			stats := fab.Stats()
			var gain, sort, submission int64
			for round, rs := range stats.PerRound {
				switch {
				case round == roundGainRequest || round == roundGainReply:
					gain += rs.Messages
				case round >= phase2RoundOffset && round < roundSubmission:
					sort += rs.Messages
				case round == roundSubmission:
					submission += rs.Messages
				default:
					// roundSession never appears in-process (the harness skips
					// the handshake), and nothing may ever sit between the
					// bands — that is the collision this test exists to catch.
					t.Errorf("round tag %d (%d messages) outside every band: not gain {%d,%d}, sort [%d,%d), or submission %d",
						round, rs.Messages, roundGainRequest, roundGainReply,
						phase2RoundOffset, roundSubmission, roundSubmission)
				}
			}
			for name, got := range map[string]int64{"gain": gain, "sort": sort, "submission": submission} {
				if got == 0 {
					t.Errorf("no messages in the %s band — the partition check covered nothing", name)
				}
			}
			if stats.MaxRound != roundSubmission {
				t.Errorf("max round %d, want the submission tag %d", stats.MaxRound, roundSubmission)
			}
			// The echo band (round + 1<<24) is derived per broadcast round,
			// so every protocol tag must stay below it or an echo sub-round
			// would collide with a protocol round.
			if transport.IsEchoRound(stats.MaxRound) {
				t.Errorf("max round %d reaches into the reserved echo band", stats.MaxRound)
			}
		})
	}
}
