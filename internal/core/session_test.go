package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
)

// establishAll runs the session round for every party whose params are
// given (indexed by party) and returns each party's error.
func establishAll(t *testing.T, params []Params) []error {
	t.Helper()
	return establishAllOver(t, params, func(net transport.Net) transport.Net { return net })
}

// establishAllOver is establishAll with every party's endpoint wrapped.
func establishAllOver(t *testing.T, params []Params, wrap func(transport.Net) transport.Net) []error {
	t.Helper()
	fab, err := transport.New(len(params), transport.WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	net := wrap(fab)
	errs := make([]error, len(params))
	var wg sync.WaitGroup
	for i := range params {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = establishSession(context.Background(), params[i], i, net, "")
		}()
	}
	wg.Wait()
	return errs
}

func TestEstablishSessionAgreement(t *testing.T) {
	params := smallParams(t, 3)
	all := make([]Params, params.N+1)
	for i := range all {
		all[i] = params
	}
	for i, err := range establishAll(t, all) {
		if err != nil {
			t.Errorf("party %d: %v", i, err)
		}
	}
}

func TestEstablishSessionMismatch(t *testing.T) {
	params := smallParams(t, 3)
	all := make([]Params, params.N+1)
	for i := range all {
		all[i] = params
	}
	all[2].K++ // party 2 was configured with a different top-k cut
	errs := establishAll(t, all)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("party %d accepted the session despite the mismatch", i)
		}
		if !errors.Is(err, ErrSessionMismatch) {
			t.Errorf("party %d: error %v does not carry ErrSessionMismatch", i, err)
		}
		var abort *transport.AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("party %d: error %v is not a typed abort", i, err)
		}
		if abort.Phase != PhaseSession {
			t.Errorf("party %d: abort phase %q, want %q", i, abort.Phase, PhaseSession)
		}
		// Every honest party names the misconfigured one; the
		// misconfigured party names the first honest peer.
		want := 2
		if i == 2 {
			want = 0
		}
		if abort.Party != want {
			t.Errorf("party %d: abort names party %d, want %d", i, abort.Party, want)
		}
		if i != 2 && !strings.Contains(err.Error(), "top-k cut") {
			t.Errorf("party %d: diagnosis %q does not name the disagreeing parameter", i, err)
		}
	}
}

// otherBuildNet is party 1's endpoint in another build: edit rewrites
// its outgoing session announcement.
type otherBuildNet struct {
	transport.Net
	edit func(*sessionMsg)
}

func (n otherBuildNet) Broadcast(round, from, bytes int, payload any) error {
	if m, ok := payload.(sessionMsg); ok && from == 1 {
		n.edit(&m)
		payload = m
	}
	return n.Net.Broadcast(round, from, bytes, payload)
}

// TestEstablishSessionCodecMismatch: a party built with a different
// wire-codec version, or with session version 5 (a secret-sharing
// comparison's high mask drawn as κ + 1 shared bits, before it became
// one integer dealt by every party in the mask bits' first round), is
// refused during establishment with an abort naming the field — not
// left to fail on an undecodable frame or a mismatched round deep
// inside a crypto phase. Party 1's announcement is rewritten on the
// wire alone, so party 1 itself still sees matching peers; the refusal
// under test is everyone else's.
func TestEstablishSessionCodecMismatch(t *testing.T) {
	params := smallParams(t, 3)
	all := make([]Params, params.N+1)
	for i := range all {
		all[i] = params
	}
	for _, tc := range []struct {
		name string
		edit func(*sessionMsg)
		want string
	}{
		{"codec", func(m *sessionMsg) { m.Codec = 99 }, fmt.Sprintf("codec version (mine %d, theirs 99)", wirecodec.Version)},
		{"session", func(m *sessionMsg) { m.Version = 5 }, fmt.Sprintf("wire version (mine %d, theirs 5)", sessionVersion)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := establishAllOver(t, all, func(net transport.Net) transport.Net { return otherBuildNet{net, tc.edit} })
			for i, err := range errs {
				if i == 1 {
					continue
				}
				if err == nil {
					t.Fatalf("party %d accepted the session despite the skew", i)
				}
				if !errors.Is(err, ErrSessionMismatch) {
					t.Errorf("party %d: error %v does not carry ErrSessionMismatch", i, err)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("party %d: diagnosis %q does not name the field (%q)", i, err, tc.want)
				}
			}
		})
	}
}

// TestEstablishSessionMalformed covers a peer that talks on the session
// round without sending a session announcement at all.
func TestEstablishSessionMalformed(t *testing.T) {
	params := smallParams(t, 3)
	fab, err := transport.New(params.N+1, transport.WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rogue := params.N // party 3 broadcasts garbage instead
	if err := fab.Broadcast(roundSession, rogue, 4, "hello"); err != nil {
		t.Fatal(err)
	}
	errs := make([]error, rogue)
	var wg sync.WaitGroup
	for i := 0; i < rogue; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = establishSession(context.Background(), params, i, fab, "")
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("party %d accepted a malformed session announcement", i)
		}
		if !errors.Is(err, ErrSessionMismatch) {
			t.Errorf("party %d: error %v does not carry ErrSessionMismatch", i, err)
		}
		var abort *transport.AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("party %d: error %v is not a typed abort", i, err)
		}
		if abort.Party != rogue {
			t.Errorf("party %d: abort names party %d, want %d", i, abort.Party, rogue)
		}
	}
}

func TestEstablishSessionRejectsInvalidParams(t *testing.T) {
	fab, err := transport.New(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := establishSession(context.Background(), Params{}, 0, fab, ""); err == nil {
		t.Fatal("invalid params accepted")
	}
}
