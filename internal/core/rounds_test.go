package core

import (
	"context"
	"sync"
	"testing"

	"groupranking/internal/dotprod"
	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
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

// frameTap checks every framework-round payload a party sends against
// the bytes its schedule row charges: the frame must be the charged
// bytes plus framing, a closed form in the payload's counts alone. It
// counts the payloads it checked per kind and passes the sorter's on.
type frameTap struct {
	transport.Net
	t    *testing.T
	mu   sync.Mutex
	seen map[string]int
}

// framing returns a payload's kind and its frame length beyond the
// charged bytes: the 9-byte frame header, then for a gain request the
// u32 s and the 6-byte header (u16 width, u32 count) of each of its
// s + 2 integer runs, for a reply one run header, and for a submission
// its declined flag, its rank and its u32 value count, which a
// decline's one charged byte stands for.
func framing(payload any) (string, int, bool) {
	switch m := payload.(type) {
	case *dotprod.BobMessage:
		return "gain request", 9 + 4 + 6*(len(m.QX)+2), true
	case *dotprod.AliceReply:
		return "gain reply", 9 + 6, true
	case submissionMsg:
		if m.Declined {
			return "decline", 9 + 1 + 8 + 4 - 1, true
		}
		return "submission", 9 + 1 + 8 + 4 - 8, true
	}
	return "", 0, false
}

func (f *frameTap) Send(round, from, to, bytes int, payload any) error {
	if kind, extra, ok := framing(payload); ok {
		frame, err := wirecodec.Marshal(payload)
		f.mu.Lock()
		if err != nil {
			f.t.Errorf("%s: %v", kind, err)
		} else if len(frame) != bytes+extra {
			f.t.Errorf("%s: %d-byte frame for %d charged bytes, want %d + %d", kind, len(frame), bytes, bytes, extra)
		}
		f.seen[kind]++
		f.mu.Unlock()
	}
	return f.Net.Send(round, from, to, bytes, payload)
}

// TestFrameWidthsPinned: every gain request, gain reply, submission and
// decline of a seeded run encodes to exactly the bytes its row of the
// framework's schedule charges plus framing, so the schedule's sizes are
// the wire's. The session announcement's size is nominal and is not
// pinned; the sorter's rows are pinned by internal/unlinksort's test of
// the same name.
func TestFrameWidthsPinned(t *testing.T) {
	params := smallParams(t, 4)
	tap := &frameTap{t: t, seen: map[string]int{}}
	wrap := func(n transport.Net) transport.Net { tap.Net = n; return tap }
	if _, _, err := RunCtx(context.Background(), params, testInputs(t, params, "frame-widths"), "frame-widths-run", wrap); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"gain request", "gain reply", "submission", "decline"} {
		if tap.seen[kind] == 0 {
			t.Errorf("no %s was sent", kind)
		}
	}
}
