package transport

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"groupranking/internal/leakcheck"
)

// meshTap is the decoration the RunMesh test wraps the fabric in.
type meshTap struct{ Net }

// TestRunMeshRootCause pins the one in-process mesh runner: every party
// runs at once, the first failure cancels the rest, every goroutine has
// exited when it returns, the root cause follows the one index-order
// rule, and the undecorated fabric comes back even on error.
func TestRunMeshRootCause(t *testing.T) {
	leakcheck.Check(t)
	errLow, errHigh := errors.New("party 1 failed"), errors.New("party 3 failed")
	// blocked waits on a peer that never sends, so it returns only once
	// the runner cancels.
	blocked := func(ctx context.Context, me int, net Net) error {
		_, err := net.RecvCtx(ctx, me, (me+1)%net.N(), -1)
		return err
	}
	cases := []struct {
		name string
		n    int
		runs int
		body func(ctx context.Context, me int, net Net) error
		want error // the root cause; nil for a clean run
	}{
		{"every party runs at once", 8, 1, func(ctx context.Context, me int, net Net) error {
			if err := net.Broadcast(1, me, 1, me); err != nil {
				return err
			}
			_, err := GatherAll(ctx, net, me, 1)
			return err
		}, nil},
		{"one failure cancels the blocked rest", 4, 1, func(ctx context.Context, me int, net Net) error {
			if me == 3 {
				return errHigh
			}
			return blocked(ctx, me, net)
		}, errHigh},
		// Party 3 always fails first; party 1 fails only after the
		// cancellation party 3 caused, yet the lower index wins.
		{"lowest-index real failure wins", 4, 20, func(ctx context.Context, me int, net Net) error {
			switch me {
			case 3:
				return errHigh
			case 1:
				blocked(ctx, me, net)
				return errLow
			}
			return blocked(ctx, me, net)
		}, errLow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for run := 0; run < tc.runs; run++ {
				var exited atomic.Int32
				var decorated Net
				wrap := func(fab Net) Net {
					decorated = fab
					return meshTap{fab}
				}
				fab, errs, err := RunMesh(context.Background(), tc.n, wrap, func(ctx context.Context, me int, net Net) error {
					defer exited.Add(1)
					if _, ok := net.(meshTap); !ok {
						t.Errorf("party %d talks through %T, not the decorated net", me, net)
					}
					return tc.body(ctx, me, net)
				})
				if got := exited.Load(); got != int32(tc.n) {
					t.Fatalf("run %d: %d of %d parties had exited on return", run, got, tc.n)
				}
				if fab == nil || Net(fab) != decorated {
					t.Fatalf("run %d: returned fabric %v is not the undecorated one", run, fab)
				}
				if len(errs) != tc.n {
					t.Fatalf("run %d: %d party errors for %d parties", run, len(errs), tc.n)
				}
				if tc.want == nil {
					if err != nil {
						t.Fatalf("run %d: clean mesh failed: %v (party errors %v)", run, err, errs)
					}
					continue
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("run %d: root cause %v, want %v (party errors %v)", run, err, tc.want, errs)
				}
				for me, perr := range errs {
					if !errors.Is(perr, errLow) && !errors.Is(perr, errHigh) && !errors.Is(perr, context.Canceled) {
						t.Errorf("run %d: party %d ended with %v, neither its failure nor a cancellation", run, me, perr)
					}
				}
			}
		})
	}
}
