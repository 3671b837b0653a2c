package ssmpc

import (
	"context"
	"fmt"

	"groupranking/internal/fixedbig"
	"groupranking/internal/transport"
)

// Result carries one party's program output.
type Result[T any] struct {
	Party int
	Value T
}

// RunProgram executes the same SPMD program on all cfg.N parties, one
// goroutine per party over a fresh in-memory fabric (transport.RunMesh).
// It returns the per-party results (indexed by party), the fabric (for
// stats and trace) and the mesh runner's root-cause error. Each party
// gets an independent deterministic DRBG derived from seed
// (fixedbig.PartyDRBG); pass distinct seeds for statistically
// independent runs.
func RunProgram[T any](cfg Config, seed string, opts []transport.Option, prog func(e *Engine) (T, error)) ([]Result[T], *transport.Fabric, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	results := make([]Result[T], cfg.N)
	fab, _, err := transport.RunMesh(context.Background(), cfg.N, nil, func(ctx context.Context, me int, net transport.Net) error {
		eng, err := NewEngineCtx(ctx, cfg, me, net, fixedbig.PartyDRBG(seed, me))
		if err != nil {
			return err
		}
		v, err := prog(eng)
		if err != nil {
			return fmt.Errorf("party %d: %w", me, err)
		}
		results[me] = Result[T]{Party: me, Value: v}
		return nil
	}, opts...)
	if err != nil {
		return nil, fab, err
	}
	return results, fab, nil
}
