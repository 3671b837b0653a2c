package core

import (
	"context"
	"testing"

	"groupranking/internal/obsv"
	"groupranking/internal/unlinksort"
)

// TestEveryPhaseObserved is the observability guard: every named
// protocol phase in core and the phase-2 sorters must appear in the
// emitted trace, so no phase can silently fall out of observation when
// code moves.
func TestEveryPhaseObserved(t *testing.T) {
	runAndCollect := func(t *testing.T, sorter Sorter) map[string]bool {
		t.Helper()
		params := smallParams(t, 4)
		params.Sorter = sorter // proofs stay enabled: key-proof must show up
		// Multi-worker pools must not lose spans: every exponentiation a
		// kernel goroutine performs is still charged to the party's
		// current phase, because the span is opened before the fan-out.
		params.Workers = 3
		in := testInputs(t, params, "phase-guard")
		reg := obsv.NewRegistry()
		ctx := obsv.WithRegistry(context.Background(), reg)
		if _, _, err := RunCtx(ctx, params, in, "phase-guard-run", nil); err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, s := range reg.Spans() {
			seen[s.Phase] = true
		}
		return seen
	}

	t.Run("unlinkable", func(t *testing.T) {
		seen := runAndCollect(t, SorterUnlinkable)
		for _, phase := range append(append([]string{}, Phases...), unlinksort.Phases...) {
			if !seen[phase] {
				t.Errorf("phase %q missing from the trace (saw %v)", phase, keys(seen))
			}
		}
	})
	t.Run("secret-sharing", func(t *testing.T) {
		seen := runAndCollect(t, SorterSecretSharing)
		for _, phase := range append(append([]string{}, Phases...), PhaseSSSort) {
			if !seen[phase] {
				t.Errorf("phase %q missing from the trace (saw %v)", phase, keys(seen))
			}
		}
	})
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
