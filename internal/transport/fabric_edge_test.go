package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRecvAfterMarkDown covers the crash-detection drain contract:
// messages sent before the crash are still delivered, and only then do
// receives fail with a peer-down abort naming the dead party.
func TestRecvAfterMarkDown(t *testing.T) {
	fab, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Send(1, 0, 1, 8, "before-crash"); err != nil {
		t.Fatal(err)
	}
	fab.MarkDown(0)
	got, err := fab.RecvCtx(context.Background(), 1, 0, 1)
	if err != nil || got != "before-crash" {
		t.Fatalf("pre-crash message not drained: %v, %v", got, err)
	}
	_, err = fab.RecvCtx(context.Background(), 1, 0, 2)
	var abort *AbortError
	if !errors.As(err, &abort) || !errors.Is(err, ErrPeerDown) {
		t.Fatalf("want peer-down abort, got %v", err)
	}
	if abort.Party != 0 || abort.Round != 2 {
		t.Errorf("abort names party %d round %d, want party 0 round 2", abort.Party, abort.Round)
	}
	// MarkDown is idempotent and out-of-range indices are ignored.
	fab.MarkDown(0)
	fab.MarkDown(-1)
	fab.MarkDown(99)
}

// TestRecvCtxCancellation verifies a blocked receive unblocks promptly
// on context cancellation with a typed abort, not a hang or a timeout.
func TestRecvCtxCancellation(t *testing.T) {
	fab, err := New(2, WithRecvTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := fab.RecvCtx(ctx, 1, 0, 7)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		var abort *AbortError
		if !errors.As(err, &abort) || !errors.Is(err, context.Canceled) {
			t.Fatalf("want cancellation abort, got %v", err)
		}
		if abort.Party != 0 || abort.Round != 7 {
			t.Errorf("abort names party %d round %d, want party 0 round 7", abort.Party, abort.Round)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled receive did not unblock")
	}
}

// TestRoundMismatchAbort verifies the round-tag check: consuming a
// message with the wrong tag is a typed abort, because a shifted stream
// means an earlier message was dropped, duplicated or reordered.
func TestRoundMismatchAbort(t *testing.T) {
	fab, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Send(3, 0, 1, 8, "tagged-3"); err != nil {
		t.Fatal(err)
	}
	_, err = fab.RecvCtx(context.Background(), 1, 0, 5)
	if !errors.Is(err, ErrRoundMismatch) {
		t.Fatalf("want round-mismatch abort, got %v", err)
	}
	// Round -1 accepts any tag (legacy Recv path).
	if err := fab.Send(3, 0, 1, 8, "tagged-again"); err != nil {
		t.Fatal(err)
	}
	if _, err := fab.RecvCtx(context.Background(), 1, 0, -1); err != nil {
		t.Fatalf("wildcard round rejected a message: %v", err)
	}
}

// TestGatherAllPartial verifies GatherAll fails with the abort of
// the first unreachable party rather than hanging on later ones.
func TestGatherAllPartial(t *testing.T) {
	fab, err := New(3, WithRecvTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Send(4, 1, 0, 8, "from-1"); err != nil {
		t.Fatal(err)
	}
	fab.MarkDown(2)
	_, err = GatherAll(context.Background(), fab, 0, 4)
	var abort *AbortError
	if !errors.As(err, &abort) || abort.Party != 2 {
		t.Fatalf("want abort naming party 2, got %v", err)
	}
}
