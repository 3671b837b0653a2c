// Package sssort implements the paper's secret-sharing baseline sorting
// protocol in the style of Jónsson, Kreitz and Uddin (Section II): a
// Batcher odd-even merge-sort network — "a variant of the merge sort
// algorithm" with O(n·log²n) comparators — whose compare-and-swap gates
// run the SS comparison primitive and the oblivious swap
// max = c·(a−b)+b over the ssmpc engine.
//
// Comparators are grouped into parallel layers; all comparisons in a
// layer are batched, so a layer costs the rounds of a single comparison.
package sssort

import (
	"fmt"
	"math/big"

	"groupranking/internal/ssmpc"
)

// Comparator orders the pair of wires (Lo, Hi): after it fires, wire Lo
// holds the minimum and wire Hi the maximum.
type Comparator struct {
	Lo, Hi int
}

// network returns the comparator layers of Batcher's odd-even merge sort
// for n wires. Comparators within a layer touch disjoint wires and may
// fire concurrently. The construction handles arbitrary n (not just
// powers of two).
func network(n int) [][]Comparator {
	var layers [][]Comparator
	for p := 1; p < n; p <<= 1 {
		for k := p; k >= 1; k >>= 1 {
			var layer []Comparator
			for j := k % p; j+k < n; j += 2 * k {
				for i := 0; i < k && i+j+k < n; i++ {
					if (i+j)/(2*p) == (i+j+k)/(2*p) {
						layer = append(layer, Comparator{Lo: i + j, Hi: i + j + k})
					}
				}
			}
			if len(layer) > 0 {
				layers = append(layers, layer)
			}
		}
	}
	return layers
}

// Comparators returns the total comparator count of the network for n
// wires — the quantity the Section VI-B cost model multiplies by the
// per-comparison cost.
func Comparators(n int) int {
	total := 0
	for _, layer := range network(n) {
		total += len(layer)
	}
	return total
}

// Depth returns the number of parallel layers for n wires (O(log²n)).
func Depth(n int) int { return len(network(n)) }

// sortShares obliviously sorts shared l-bit values in ascending order.
// Every party calls it in lockstep with its own shares. The returned
// shares are a sorted permutation of the inputs; nothing is opened.
// The comparisons' masks (l bits and one dealt integer a comparator)
// are drawn for every layer at once, before the first, so their three
// rounds are paid once per sort.
func sortShares(e *ssmpc.Engine, values []ssmpc.Share, l int) ([]ssmpc.Share, error) {
	if l <= 0 {
		return nil, fmt.Errorf("sssort: bit width must be positive, got %d", l)
	}
	out := make([]ssmpc.Share, len(values))
	copy(out, values)
	layers := network(len(values))
	if len(layers) == 0 {
		return out, nil
	}
	per, c := ssmpc.MaskBits(l), Comparators(len(values))
	bits, highs, err := e.RandomBits(c*per, c, ssmpc.MaskWidth(l))
	if err != nil {
		return nil, fmt.Errorf("sssort: comparison masks: %w", err)
	}
	for _, layer := range layers {
		k := len(layer)
		as := make([]ssmpc.Share, k)
		bs := make([]ssmpc.Share, k)
		for i, c := range layer {
			as[i] = out[c.Lo]
			bs[i] = out[c.Hi]
		}
		// c = [a ≥ b] for each comparator.
		cs, err := e.GTEBatch(as, bs, l, bits[:k*per], highs[:k])
		bits, highs = bits[k*per:], highs[k:]
		if err != nil {
			return nil, fmt.Errorf("sssort: layer comparison: %w", err)
		}
		// max = c·(a−b) + b, min = a + b − max; one batched multiplication.
		diffs := make([]ssmpc.Share, k)
		for i := range layer {
			diffs[i] = e.Sub(as[i], bs[i])
		}
		prods, err := e.MulBatch(cs, diffs)
		if err != nil {
			return nil, fmt.Errorf("sssort: oblivious swap: %w", err)
		}
		for i, c := range layer {
			max := e.Add(prods[i], bs[i])
			min := e.Sub(e.Add(as[i], bs[i]), max)
			out[c.Lo] = min
			out[c.Hi] = max
		}
	}
	return out, nil
}

// SortOpen sorts the shared values and opens the sorted sequence to all
// parties. This is how the baseline group-ranking framework uses the
// sorting protocol: the sorted multiset of masked β values becomes
// public and each participant locates her own β to learn her rank
// (Section VII feeds the β values to the baseline sorter the same way).
func SortOpen(e *ssmpc.Engine, values []ssmpc.Share, l int) ([]*big.Int, error) {
	sorted, err := sortShares(e, values, l)
	if err != nil {
		return nil, err
	}
	opened, err := e.OpenBatch(sorted)
	if err != nil {
		return nil, fmt.Errorf("sssort: opening sorted values: %w", err)
	}
	return opened, nil
}

// RankDescending returns the 1-based rank of mine within the ascending
// sorted slice when ranking is by non-increasing value (rank 1 is the
// largest), i.e. 1 + |{v : v > mine}|. Equal values share a rank, the
// paper's tie rule.
func RankDescending(sortedAscending []*big.Int, mine *big.Int) int {
	greater := 0
	for _, v := range sortedAscending {
		if v.Cmp(mine) > 0 {
			greater++
		}
	}
	return greater + 1
}
