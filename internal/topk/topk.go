// Package topk implements the second baseline the paper discusses
// (Section II, Burkhart and Dimitropoulos, "Fast privacy-preserving
// top-k queries using secret sharing"): a probabilistic protocol that
// finds a threshold separating the k largest of n privately held
// values by iterative bucketised counting over Shamir shares.
//
// Each round the current candidate range is split into B buckets; every
// party secret-shares the indicator vector of its value's bucket; the
// per-bucket totals are reconstructed publicly and the search recurses
// into the bucket containing the k-th largest value. The protocol is
// fast — O(log_B 2^l) rounds of n sharings — but, exactly as the paper
// notes, "it cannot be guaranteed to terminate with a correct result
// every time": when several values tie at the threshold the selection
// is ambiguous, which the Result reports instead of hiding.
//
// Privacy: the opened bucket histograms reveal coarse distribution
// information by design (that is the protocol's trade-off versus the
// oblivious sorting network); individual values stay hidden inside
// buckets of more than one element.
package topk

import (
	"fmt"
	"math/big"

	"groupranking/internal/ssmpc"
)

// Result is the public outcome every party computes.
type Result struct {
	// Threshold is the lower edge of the final bucket: every value
	// strictly above it is among the top k.
	Threshold *big.Int
	// AboveCount is the number of values strictly above Threshold
	// (≤ k).
	AboveCount int
	// BoundaryCount is the number of values inside the final bucket;
	// AboveCount + BoundaryCount ≥ k. When AboveCount + BoundaryCount
	// exceeds k, the boundary values tie and the selection is ambiguous
	// — the probabilistic failure mode the paper attributes to this
	// protocol.
	BoundaryCount int
	// Exact reports whether exactly k values were isolated.
	Exact bool
	// Rounds is how many refinement iterations ran.
	Rounds int
}

// Run executes the protocol among the engine's parties: every party
// contributes its l-bit value, k is the selection size and buckets the
// histogram width per refinement round (≥ 2). All parties receive the
// same Result.
func Run(e *ssmpc.Engine, myValue *big.Int, l, k, buckets int) (*Result, error) {
	n := e.Config().N
	switch {
	case l <= 0 || l > 62:
		return nil, fmt.Errorf("topk: bit width %d outside (0, 62]", l)
	case k < 1 || k > n:
		return nil, fmt.Errorf("topk: k=%d outside [1, %d]", k, n)
	case buckets < 2:
		return nil, fmt.Errorf("topk: need at least two buckets, got %d", buckets)
	case myValue.Sign() < 0 || myValue.BitLen() > l:
		return nil, fmt.Errorf("topk: value does not fit in %d bits", l)
	}
	v := myValue.Int64()

	lo, hi := int64(0), int64(1)<<uint(l) // candidate range [lo, hi)
	need := k                             // how many of the top k remain inside [lo, hi)
	res := &Result{}
	for hi-lo > 1 {
		res.Rounds++
		width := (hi - lo + int64(buckets) - 1) / int64(buckets)
		nBuckets := int((hi - lo + width - 1) / width)

		// Local indicator vector of my value's bucket (zero vector when
		// my value left the candidate range in an earlier round).
		indicator := make([]*big.Int, nBuckets)
		for i := range indicator {
			indicator[i] = big.NewInt(0)
		}
		if v >= lo && v < hi {
			indicator[int((v-lo)/width)] = big.NewInt(1)
		}

		// Every party deals its indicator; shares are summed and the
		// histogram opened.
		sums := make([]ssmpc.Share, nBuckets)
		for dealer := 0; dealer < n; dealer++ {
			var payload []*big.Int
			if dealer == e.Party() {
				payload = indicator
			}
			shares, err := e.ShareBatch(dealer, payload, nBuckets)
			if err != nil {
				return nil, fmt.Errorf("topk: sharing histogram: %w", err)
			}
			for i, s := range shares {
				if dealer == 0 {
					sums[i] = s
					continue
				}
				sums[i] = e.Add(sums[i], s)
			}
		}
		counts, err := e.OpenBatch(sums)
		if err != nil {
			return nil, fmt.Errorf("topk: opening histogram: %w", err)
		}
		// Receive-boundary check: each opened bucket total is a sum of n
		// 0/1 indicators, so anything outside [0, n] means a party dealt
		// garbage shares (the value would otherwise be truncated silently
		// by the Int64 conversions below).
		nBig := big.NewInt(int64(n))
		for i, c := range counts {
			if c.Sign() < 0 || c.Cmp(nBig) > 0 {
				return nil, fmt.Errorf("topk: opened histogram count at bucket %d outside [0, %d]", i, n)
			}
		}

		// Walk buckets from the top until the remaining quota is met.
		remaining := need
		target := -1
		for i := nBuckets - 1; i >= 0; i-- {
			c := int(counts[i].Int64())
			if c >= remaining {
				target = i
				need = remaining
				break
			}
			remaining -= c
		}
		if target < 0 {
			return nil, fmt.Errorf("topk: fewer than k values in range; inconsistent inputs")
		}
		newLo := lo + int64(target)*width
		newHi := newLo + width
		if newHi > hi {
			newHi = hi
		}
		inBucket := int(counts[target].Int64())
		lo, hi = newLo, newHi
		res.BoundaryCount = inBucket
		if hi-lo == 1 || inBucket == need {
			// Either the bucket is a single value or it holds exactly
			// the remainder of the quota; both terminate.
			break
		}
	}

	res.Threshold = big.NewInt(lo)
	res.AboveCount = k - need
	res.Exact = res.AboveCount+res.BoundaryCount == k
	return res, nil
}
