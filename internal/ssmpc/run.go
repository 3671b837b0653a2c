package ssmpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"groupranking/internal/fixedbig"
	"groupranking/internal/transport"
)

// Result carries one party's program output.
type Result[T any] struct {
	Party    int
	Value    T
	Counters Counters
}

// RunProgram executes the same SPMD program on all cfg.N parties, one
// goroutine per party, over a fresh in-memory fabric. It returns the
// per-party results (indexed by party), the fabric (for stats and trace),
// and the first error any party hit. Each party gets an independent
// deterministic DRBG derived from seed; pass distinct seeds for
// statistically independent runs, or use RunProgramRand for crypto/rand.
func RunProgram[T any](cfg Config, seed string, opts []transport.Option, prog func(e *Engine) (T, error)) ([]Result[T], *transport.Fabric, error) {
	rngs := make([]io.Reader, cfg.N)
	for i := range rngs {
		rngs[i] = fixedbig.NewDRBG(fmt.Sprintf("%s-party-%d", seed, i))
	}
	return runWith(cfg, rngs, opts, prog)
}

func runWith[T any](cfg Config, rngs []io.Reader, opts []transport.Option, prog func(e *Engine) (T, error)) ([]Result[T], *transport.Fabric, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	fab, err := transport.New(cfg.N, opts...)
	if err != nil {
		return nil, nil, err
	}
	// One failed party cancels its siblings so nobody blocks forever on
	// a receive that will never be served.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := make([]Result[T], cfg.N)
	errs := make([]error, cfg.N)
	var wg sync.WaitGroup
	for p := 0; p < cfg.N; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng, err := NewEngineCtx(ctx, cfg, p, fab, rngs[p])
			if err != nil {
				errs[p] = err
				cancel()
				return
			}
			v, err := prog(eng)
			if err != nil {
				errs[p] = fmt.Errorf("party %d: %w", p, err)
				cancel()
				return
			}
			results[p] = Result[T]{Party: p, Value: v, Counters: eng.Counters()}
		}()
	}
	wg.Wait()
	// Prefer the root-cause error: cancellation aborts are secondary
	// effects of the first real failure.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil || (errors.Is(firstErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, fab, firstErr
	}
	return results, fab, nil
}
