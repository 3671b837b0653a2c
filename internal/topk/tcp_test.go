package topk

import (
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"

	"groupranking/internal/fixedbig"
	"groupranking/internal/ssmpc"
	"groupranking/internal/transport"
)

// TestTopKOverTCP runs the threshold protocol over a real loopback TCP
// mesh: it exercises the share-batch wire codec and the
// receive-boundary checks on the deployment transport, not just the
// in-memory fabric.
func TestTopKOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP test skipped in short mode")
	}
	vals := []int64{9, 3, 14}
	const l, k, buckets = 4, 1, 4
	cfg := testConfig(t, len(vals))
	addrs, err := transport.FreeLoopbackAddrs(len(vals))
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, len(vals))
	errs := make([]error, len(vals))
	var wg sync.WaitGroup
	for me := range vals {
		me := me
		wg.Add(1)
		go func() {
			defer wg.Done()
			fab, err := transport.NewTCPFabric(addrs, me, 10*time.Second)
			if err != nil {
				errs[me] = err
				return
			}
			defer fab.Close()
			e, err := ssmpc.NewEngine(cfg, me, fab, fixedbig.NewDRBG(fmt.Sprintf("topk-tcp-%d", me)))
			if err != nil {
				errs[me] = err
				return
			}
			results[me], errs[me] = Run(e, big.NewInt(vals[me]), l, k, buckets)
		}()
	}
	wg.Wait()
	for me, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", me, err)
		}
	}
	first := results[0]
	for me, r := range results[1:] {
		if r.Threshold.Cmp(first.Threshold) != 0 || r.Exact != first.Exact {
			t.Fatalf("party %d disagrees over TCP: %+v vs %+v", me+1, r, first)
		}
	}
	checkThreshold(t, vals, k, first)
}
