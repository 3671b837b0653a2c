package unlinksort

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
)

// Ablation benchmarks for the design choices DESIGN.md calls out.

// benchSortAblation runs the standalone sorting protocol with a given
// configuration tweak.
func benchSortAblation(b *testing.B, mutate func(*Config)) {
	b.Helper()
	g, err := group.GenerateDLGroup(256, fixedbig.NewDRBG("ablation-bench-group"))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Group: g, L: 12}
	mutate(&cfg)
	betas := []*big.Int{big.NewInt(100), big.NewInt(7), big.NewInt(4000), big.NewInt(255), big.NewInt(90)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunCtx(context.Background(), cfg, betas, fmt.Sprintf("ablate-%d", i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Cost of the τ re-randomisation that defeats the linkage attack
// (TestMissingReRandomizationLeaksBits): compare On vs Off.
func BenchmarkAblation_ReRandomize_On(b *testing.B) {
	benchSortAblation(b, func(c *Config) {})
}

func BenchmarkAblation_ReRandomize_Off(b *testing.B) {
	benchSortAblation(b, func(c *Config) { c.unsafeNoReRandomize = true })
}

// Cost of the n-verifier key-knowledge proofs.
func BenchmarkAblation_Proofs_On(b *testing.B) {
	benchSortAblation(b, func(c *Config) {})
}

func BenchmarkAblation_Proofs_Off(b *testing.B) {
	benchSortAblation(b, func(c *Config) { c.SkipProofs = true })
}
