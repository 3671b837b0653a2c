package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"groupranking/internal/transport"
)

// establishAll runs the session round for every party whose params are
// given (indexed by party) and returns each party's error.
func establishAll(t *testing.T, params []Params) []error {
	t.Helper()
	fab, err := transport.New(len(params), transport.WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, len(params))
	var wg sync.WaitGroup
	for i := range params {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = EstablishSessionCtx(context.Background(), params[i], i, fab, "")
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

// TestEstablishSessionCodecMismatch: a party built with a different
// wire-codec version is refused during establishment with an abort
// naming the codec field — not left to fail on an undecodable frame
// deep inside a crypto phase.
func TestEstablishSessionCodecMismatch(t *testing.T) {
	params := smallParams(t, 3)
	all := make([]Params, params.N+1)
	for i := range all {
		all[i] = params
	}
	all[1].WireCodec = 99 // party 1 speaks a future codec
	errs := establishAll(t, all)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("party %d accepted the session despite the codec skew", i)
		}
		if !errors.Is(err, ErrSessionMismatch) {
			t.Errorf("party %d: error %v does not carry ErrSessionMismatch", i, err)
		}
		if i != 1 && !strings.Contains(err.Error(), "codec version") {
			t.Errorf("party %d: diagnosis %q does not name the codec field", i, err)
		}
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
			_, errs[i] = EstablishSessionCtx(context.Background(), params, i, fab, "")
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
	if _, err := EstablishSessionCtx(context.Background(), Params{}, 0, fab, ""); err == nil {
		t.Fatal("invalid params accepted")
	}
}
