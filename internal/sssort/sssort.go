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

// swaps is one layer's compare-and-swaps after their products: the
// layer's inputs at degree d and each product p = c·(a − b) still at
// degree 2d. Until the products are reduced, wire Lo holds a − p (the
// minimum) and wire Hi b + p (the maximum) at degree 2d alone.
type swaps struct {
	layer  []Comparator
	as, bs []ssmpc.Share
	prods  []ssmpc.Wide
}

// wide returns every wire at degree 2d: the layer's wires from its
// products, the others widened from out.
func (s *swaps) wide(e *ssmpc.Engine, out []ssmpc.Share) []ssmpc.Wide {
	w := make([]ssmpc.Wide, len(out))
	for i, v := range out {
		w[i] = e.Widen(v)
	}
	for i, c := range s.layer {
		w[c.Lo] = e.SubWide(e.Widen(s.as[i]), s.prods[i])
		w[c.Hi] = e.AddWide(e.Widen(s.bs[i]), s.prods[i])
	}
	return w
}

// settle writes the layer's wires into out at degree d from the reduced
// products.
func (s *swaps) settle(e *ssmpc.Engine, out, prods []ssmpc.Share) {
	for i, c := range s.layer {
		out[c.Lo] = e.Sub(s.as[i], prods[i])
		out[c.Hi] = e.Add(s.bs[i], prods[i])
	}
}

// sorted is an oblivious sort before its opening: every wire at degree
// d but those of the last layer, whose products are still at degree 2d,
// and the zero-sharings, two a comparator of that layer, that randomise
// their opening.
type sorted struct {
	wires []ssmpc.Share
	last  swaps
	zeros []ssmpc.Wide
}

// sortShares obliviously sorts shared l-bit values in ascending order.
// Every party calls it in lockstep with its own shares; nothing is
// opened. The comparisons' masks (l bits and one dealt integer a
// comparator) and the last layer's zero-sharings are drawn for every
// layer at once, before the first, so their two rounds are paid once
// per sort. A layer's products are not reduced in a round of their own:
// the next layer opens its masked comparison inputs from them at degree
// 2d, and their reduction rides in the first round of that comparison's
// less-than, which does not read them.
func sortShares(e *ssmpc.Engine, values []ssmpc.Share, l int) (sorted, error) {
	if l <= 0 {
		return sorted{}, fmt.Errorf("sssort: bit width must be positive, got %d", l)
	}
	out := make([]ssmpc.Share, len(values))
	copy(out, values)
	layers := network(len(values))
	if len(layers) == 0 {
		return sorted{wires: out}, nil
	}
	per, c := ssmpc.MaskBits(l), Comparators(len(values))
	masks, err := e.RandomBits(c*per, c, ssmpc.MaskWidth(l), 2*len(layers[len(layers)-1]))
	if err != nil {
		return sorted{}, fmt.Errorf("sssort: comparison masks: %w", err)
	}
	bits, highs := masks.Bits, masks.Highs
	var prev swaps
	for _, layer := range layers {
		k := len(layer)
		wide := prev.wide(e, out)
		ds := make([]ssmpc.Wide, k)
		for i, c := range layer {
			ds[i] = e.SubWide(wide[c.Lo], wide[c.Hi])
		}
		lows, reduced, err := e.GTEOpen(ds, l, bits[:k*per], highs[:k], prev.prods)
		bits, highs = bits[k*per:], highs[k:]
		if err != nil {
			return sorted{}, fmt.Errorf("sssort: layer comparison: %w", err)
		}
		prev.settle(e, out, reduced)
		// c = [a ≥ b] for each comparator, and max = c·(a−b) + b,
		// min = a − c·(a−b), whose products the next layer reduces.
		next := swaps{layer: layer, as: make([]ssmpc.Share, k), bs: make([]ssmpc.Share, k)}
		diffs := make([]ssmpc.Share, k)
		for i, c := range layer {
			next.as[i], next.bs[i] = out[c.Lo], out[c.Hi]
			diffs[i] = e.Sub(next.as[i], next.bs[i])
		}
		next.prods = e.Products(e.GTEFinish(diffs, lows, l), diffs)
		prev = next
	}
	return sorted{wires: out, last: prev, zeros: masks.Zeros}, nil
}

// SortOpen sorts the shared values and opens the sorted sequence to all
// parties. This is how the baseline group-ranking framework uses the
// sorting protocol: the sorted multiset of masked β values becomes
// public and each participant locates her own β to learn her rank
// (Section VII feeds the β values to the baseline sorter the same way).
// The last layer's wires open from their degree-2d shares, each with a
// zero-sharing added, in the same round as the others.
func SortOpen(e *ssmpc.Engine, values []ssmpc.Share, l int) ([]*big.Int, error) {
	s, err := sortShares(e, values, l)
	if err != nil {
		return nil, err
	}
	// The opening's order: the settled wires, then the last layer's.
	var order []int
	var settled []ssmpc.Share
	last := make([]bool, len(s.wires))
	for _, c := range s.last.layer {
		last[c.Lo], last[c.Hi] = true, true
	}
	for w, v := range s.wires {
		if !last[w] {
			order, settled = append(order, w), append(settled, v)
		}
	}
	all := s.last.wide(e, s.wires)
	var wide []ssmpc.Wide
	for _, c := range s.last.layer {
		order, wide = append(order, c.Lo, c.Hi), append(wide, all[c.Lo], all[c.Hi])
	}
	opened, err := e.OpenWide(settled, wide, s.zeros)
	if err != nil {
		return nil, fmt.Errorf("sssort: opening sorted values: %w", err)
	}
	out := make([]*big.Int, len(opened))
	for i, w := range order {
		out[w] = opened[i]
	}
	return out, nil
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
