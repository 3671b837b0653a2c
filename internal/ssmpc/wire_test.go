package ssmpc

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"
	"time"

	"groupranking/internal/fixedbig"
	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
)

// widthTap checks every batch a party sends against the bytes the
// engine declares for it: an integer run's frame is the declared
// count × width bytes plus the 9-byte frame header and the run's 6-byte
// header (u16 width, u32 count), whatever the values.
type widthTap struct {
	transport.Net
	t    *testing.T
	mu   sync.Mutex
	seen int
}

func (w *widthTap) check(bytes int, payload any) {
	frame, err := wirecodec.Marshal(payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := payload.(wirecodec.Uints); !ok || err != nil {
		w.t.Errorf("a %T batch: %v", payload, err)
	} else if len(frame) != bytes+9+6 {
		w.t.Errorf("%d-byte frame for %d declared bytes, want %d + 15", len(frame), bytes, bytes)
	}
	w.seen++
}

func (w *widthTap) Send(round, from, to, bytes int, payload any) error {
	w.check(bytes, payload)
	return w.Net.Send(round, from, to, bytes, payload)
}

func (w *widthTap) Broadcast(round, from, bytes int, payload any) error {
	w.check(bytes, payload)
	return w.Net.Broadcast(round, from, bytes, payload)
}

// TestFrameWidthsPinned: share, multiplication and opening batches of
// a seeded run — random bits included, whose squares open, and a
// product opened with a zero-sharing — encode to
// exactly their declared bytes plus framing at a two-limb and a
// three-limb prime.
func TestFrameWidthsPinned(t *testing.T) {
	for _, bits := range []int{75, 140} {
		t.Run(fmt.Sprintf("p%d", bits), func(t *testing.T) {
			p, err := fixedbig.Prime(fixedbig.NewDRBG(fmt.Sprintf("widths-%d", bits)), bits)
			if err != nil {
				t.Fatal(err)
			}
			const n = 3
			cfg := Config{N: n, Degree: 1, P: p}
			var tap *widthTap
			wrap := func(fab transport.Net) transport.Net {
				tap = &widthTap{Net: fab, t: t}
				return tap
			}
			fab, errs, err := transport.RunMesh(context.Background(), n, wrap, func(ctx context.Context, me int, net transport.Net) error {
				e, err := NewEngineCtx(ctx, cfg, me, net, fixedbig.PartyDRBG("widths", me))
				if err != nil {
					return err
				}
				secrets := []*big.Int{big.NewInt(1), new(big.Int).Sub(p, big.NewInt(1)), big.NewInt(0)}
				shares, err := e.ShareBatch(0, secrets, len(secrets))
				if err == nil {
					shares, err = e.MulBatch(shares, shares)
				}
				if err == nil {
					_, err = e.OpenBatch(shares)
				}
				var m Masks
				if err == nil {
					m, err = e.RandomBits(2, 1, 8, 1)
				}
				if err == nil {
					_, err = e.OpenWide(m.Bits[:1], e.Products(m.Bits[1:], m.Bits[1:]), m.Zeros)
				}
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
			if tap.seen == 0 {
				t.Fatal("no batch was sent")
			}
		})
	}
}

// TestNarrowShareBatchAbortsOverTCP: over the real serialising
// transport, a party whose multiplication batch is one byte narrower
// than the prime's width is refused at the receive boundary, by every
// honest party, naming it.
func TestNarrowShareBatchAbortsOverTCP(t *testing.T) {
	shareAttackOverTCP(t, "malformed mul batch from party 0", func(p *big.Int) any {
		return run(p, wirecodec.WidthOf(p)-1, big.NewInt(1), big.NewInt(2))
	})
}

// TestOutOfFieldShareAbortsOverTCP: the same with a batch at the
// prime's width carrying p itself.
func TestOutOfFieldShareAbortsOverTCP(t *testing.T) {
	shareAttackOverTCP(t, "party 0 sent an out-of-field mul element", func(p *big.Int) any { return run(p, 0, big.NewInt(1), p) })
}

// shareAttackOverTCP runs three parties over loopback TCP, party 0
// sending each honest party hostile(P) as its piece of the first
// multiplication, and requires both honest parties to abort naming
// party 0 well inside the receive bound, not by waiting it out, and
// neither to blame the other; each abort must carry the receive check's
// diagnosis, want.
func shareAttackOverTCP(t *testing.T, want string, hostile func(p *big.Int) any) {
	t.Helper()
	const n, bound = 3, 20 * time.Second
	p, err := fixedbig.Prime(fixedbig.NewDRBG("tcp-share-attack"), 75)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: n, Degree: 1, P: p}
	addrs, err := transport.FreeLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	honestDone := make(chan struct{})
	errs := make([]error, n)
	var wg, honestWG sync.WaitGroup
	wg.Add(n)
	honestWG.Add(n - 1)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			fab, err := transport.NewTCPFabric(addrs, i, bound)
			if err != nil {
				errs[i] = err
				if i != 0 {
					honestWG.Done()
				}
				return
			}
			defer fab.Close()
			if i == 0 {
				// The attacker: send the hostile pieces, then stay
				// connected until the honest parties are done, so that
				// their aborts are about the pieces, not a hang-up.
				for j := 1; j < n; j++ {
					_ = fab.Send(1, 0, j, 2*wirecodec.WidthOf(p), hostile(p))
				}
				<-honestDone
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), bound)
			defer cancel()
			e, err := NewEngineCtx(ctx, cfg, i, fab, fixedbig.NewDRBG(fmt.Sprintf("tcp-share-party-%d", i)))
			if err == nil {
				as := []Share{e.ConstShare(big.NewInt(3)), e.ConstShare(big.NewInt(4))}
				_, err = e.MulBatch(as, as)
			}
			errs[i] = err
			honestWG.Done()
			<-honestDone
		}()
	}
	go func() {
		honestWG.Wait()
		close(honestDone)
	}()
	wg.Wait()

	if took := time.Since(start); took > bound/2 {
		t.Errorf("the honest parties took %v to abort, against a %v receive bound", took, bound)
	}
	for i := 1; i < n; i++ {
		err := errs[i]
		if err == nil {
			t.Fatalf("honest party %d accepted the hostile batch", i)
		}
		var abort *transport.AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("honest party %d returned an untyped error: %v", i, err)
		}
		if abort.Party != 0 || errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("honest party %d blamed party %d (want the attacker, 0, not a timeout): %v", i, abort.Party, err)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("honest party %d aborted with %q, want it to mention %q", i, err, want)
		}
	}
}
