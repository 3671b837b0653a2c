// Distributed: the COMPLETE group-ranking framework over real TCP
// connections — an initiator and three participants, here goroutines,
// but the same code runs as separate processes or machines via
// cmd/rankparty. All three phases cross actual sockets: the masked
// dot-product gain computation, the identity-unlinkable comparison and
// the top-k submission. Before any crypto is spent, the parties run a
// session handshake confirming they agree on the group, bit widths, k
// and sorter. Run with:
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"groupranking"
	"groupranking/internal/transport"
)

func main() {
	// A marketing campaign: the initiator privately weights age
	// (closeness to 30) and activity (the higher the better); each
	// participant holds a private profile.
	q, err := groupranking.NewQuestionnaire([]groupranking.Attribute{
		{Name: "age", Kind: groupranking.EqualTo},
		{Name: "activity", Kind: groupranking.GreaterThan},
	})
	if err != nil {
		log.Fatal(err)
	}
	criterion := groupranking.Criterion{Values: []int64{30, 0}, Weights: []int64{2, 1}}
	profiles := []groupranking.Profile{
		{Values: []int64{30, 50}}, // ada: exact age match, solid activity
		{Values: []int64{25, 60}}, // ben: close age, high activity
		{Values: []int64{45, 90}}, // cam: far age, very high activity
	}
	names := []string{"ada", "ben", "cam"}

	// In a real deployment these are the parties' published endpoints;
	// index 0 is the initiator.
	addrs, err := transport.FreeLoopbackAddrs(len(profiles) + 1)
	if err != nil {
		log.Fatal(err)
	}
	// Every party must start with identical protocol options — the
	// session handshake aborts the run if they disagree.
	opts := groupranking.Options{
		K:  2,
		D1: 7, D2: 4, H: 6,
		GroupName: "toy-dl-256", // demo group; use secp160r1+ in production
		Seed:      "distributed-example",
	}

	fmt.Println("An initiator and three participants run the full ranking")
	fmt.Println("framework over TCP; each participant learns only its own rank,")
	fmt.Println("and only the top-2 submit their profiles.")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := groupranking.RankInitiatorParty(context.Background(), q, criterion, addrs, opts)
		if err != nil {
			log.Fatalf("initiator: %v", err)
		}
		fmt.Printf("  initiator received %d submissions:\n", len(res.Submissions))
		for _, s := range res.Submissions {
			fmt.Printf("    rank %d: %s %v (recomputed gain %v)\n",
				s.ClaimedRank, names[s.Participant], s.Profile.Values, s.Gain)
		}
	}()
	for j := 1; j <= len(profiles); j++ {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := groupranking.RankParticipantParty(context.Background(), q, addrs, j, profiles[j-1], opts)
			if err != nil {
				log.Fatalf("%s: %v", names[j-1], err)
			}
			fmt.Printf("  %s learned: my gain ranks #%d\n", names[j-1], res.Rank)
		}()
	}
	wg.Wait()
	fmt.Println("Done — the same protocol runs across machines via cmd/rankparty")
	fmt.Println("(and groupranking.UnlinkableSortParty serves the standalone sorting primitive).")
}
