// Package unlinksort implements the paper's central contribution: the
// identity-unlinkable multiparty sorting protocol (Fig. 1, steps 5–9,
// "unlinkable gain comparison" and ranking extraction). Each of n parties
// holds one l-bit unsigned value β_j; at the end each party learns only
// the rank of its own value (1 = largest), and — provided at least two
// parties are honest — no coalition of up to n−2 colluders can link an
// inferred value interval to its owner's identity.
//
// The construction follows the paper exactly:
//
//  1. Every party generates an ElGamal key share and proves knowledge of
//     it to all others with the multi-verifier Schnorr proof.
//  2. Every party publishes the bitwise exponent-ElGamal encryption of
//     its value under the joint key y = Π y_j.
//  3. Every party homomorphically evaluates the comparison circuit
//     γ, ω, τ of step 7 against every other party's ciphertext using its
//     own bits in the clear: the resulting τ vector for pair (j, i)
//     contains a zero iff β_j < β_i.
//  4. The τ ciphertexts travel a decrypt-and-shuffle chain (step 8):
//     each party strips its own key layer, exponent-blinds every
//     ciphertext so non-zero plaintexts become uniformly random, and
//     randomly permutes every set it does not own.
//  5. Each owner decrypts its own returned set with its remaining key
//     layer and counts zeros d; its rank is d+1.
//
// The package runs one party per goroutine over a transport.Fabric, so
// byte and round accounting reflect the real message complexity
// (O(l·n²) ciphertexts per party, O(n) rounds).
package unlinksort

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/big"

	"groupranking/internal/elgamal"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/kernel"
	"groupranking/internal/obsv"
	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
	"groupranking/internal/zkp"
)

// Span names of this protocol's phases, in execution order. The
// observability guard test asserts every one of them appears in an
// emitted trace (PhaseKeyProof only when proofs are enabled), so no
// phase can silently fall out of observation.
const (
	PhaseKeygen      = "keygen"
	PhaseKeyProof    = "key-proof"
	PhasePublishBits = "publish-bits"
	PhaseCompare     = "compare"
	PhaseChain       = "chain"
	PhaseFinalSet    = "final-set"
)

// Phases lists the span names above for the guard test.
var Phases = []string{PhaseKeygen, PhaseKeyProof, PhasePublishBits, PhaseCompare, PhaseChain, PhaseFinalSet}

// Config fixes the protocol parameters shared by all parties.
type Config struct {
	// Group is the DDH-hard group for the ElGamal layer.
	Group group.Group
	// L is the bit width of the compared values.
	L int
	// SkipProofs disables the key-knowledge proofs. No entry point sets
	// it: the security tests and the root package's ablation benchmark
	// (BenchmarkAblation_Proofs_Off) do, and core.Params.SkipProofs passes the
	// chaos suites' setting through.
	SkipProofs bool
	// UnsafeNoReRandomize skips the re-randomisation of the τ
	// ciphertexts in step 7. It exists ONLY for the ablation benchmark
	// and the regression test that demonstrates the linkage attack this
	// re-randomisation prevents (an adversary can otherwise recover an
	// honest party's bits by comparing ciphertext components; see
	// TestMissingReRandomizationLeaksBits). Never enable it in a
	// deployment.
	UnsafeNoReRandomize bool
	// ProveDecryption makes every chain processor attach Chaum–Pedersen
	// proofs that each key layer it strips uses its registered key
	// share, verified by the next hop. This is an extension beyond the
	// paper's honest-but-curious model: it catches wrong-key partial
	// decryption (which would silently corrupt ranks) but not
	// substitution during blinding or shuffling — full malicious
	// security would additionally need verifiable-shuffle proofs, which
	// the paper leaves out of scope.
	ProveDecryption bool
	// Workers bounds the goroutines each party fans its crypto kernels
	// out on (bitwise encryption, the per-peer comparison circuit, the
	// chain's strip-blind-shuffle, the final zero scan). 0 means
	// runtime.NumCPU, 1 forces the serial reference path. Results are
	// bit-identical at every worker count: all randomness is pre-drawn
	// serially in the reference draw order, workers get pure arithmetic.
	Workers int
	// Byz makes one party deviate from the protocol (see ByzBehavior).
	// It exists ONLY for the Byzantine chaos suite and robustness tests,
	// which assert that every deviation ends in a blame certificate
	// accusing the deviating party. Never set in a deployment.
	Byz *Byz
}

func (c Config) validate() error {
	if c.Group == nil {
		return fmt.Errorf("unlinksort: missing group")
	}
	if c.L <= 0 {
		return fmt.Errorf("unlinksort: bit width must be positive, got %d", c.L)
	}
	return nil
}

// Result is one party's protocol output.
type Result struct {
	// Rank is the party's 1-based rank, 1 = largest value. Ties share
	// the same rank (the paper's tie rule).
	Rank int
	// Zeros is the number of zero plaintexts found, i.e. the number of
	// parties with a strictly larger value; Rank = Zeros + 1.
	Zeros int
	// ZeroPositions are the indices within the returned (shuffled) set
	// where the zeros appeared. The owner legitimately sees them; the
	// unlinkability tests check they are uniformly distributed across
	// reruns, which is what the chain's permutations guarantee.
	ZeroPositions []int
}

// Protocol round tags for the transport trace (netsim replay groups
// messages by these).
const (
	roundPublishKeys = iota + 1
	roundProofCommit
	roundProofChallenge
	roundProofResponse
	roundPublishBits
	roundCollectTaus
	roundChainBase // chain hop j uses roundChainBase + j
)

// schedule is the sorting protocol's rounds for one run: the rows the
// call sites send with, and all of them in execution order (a step the
// Config leaves out has no row).
type schedule struct {
	keys, commit, challenge, response, bits, anchors, taus, final transport.Round

	hops    []transport.Round // party h to h + 1, for h < n − 1
	commits []transport.Round // ProveDecryption: party h's output commitments, h < n
	all     []transport.Round
}

// newSchedule builds the schedule of a run of n parties under cfg, its
// sizes in the group's element, ciphertext and scalar widths.
func newSchedule(cfg Config, n int) *schedule {
	s := &schedule{}
	row := func(tag int, phase string, pattern transport.Pattern, from, to [2]int, bytes int) transport.Round {
		r := transport.Round{Tag: tag, Phase: phase, Pattern: pattern, From: from, To: to, Bytes: bytes}
		s.all = append(s.all, r)
		return r
	}
	every, one := [2]int{0, n}, func(p int) [2]int { return [2]int{p, p + 1} }
	elem, scalar := cfg.Group.ElementLen(), wirecodec.WidthOf(cfg.Group.Order())
	ct := elgamal.NewScheme(cfg.Group).EncodedLen()
	set := (n - 1) * cfg.L * ct // one owner's τ set
	vector := n * set
	s.keys = row(roundPublishKeys, PhaseKeygen, transport.EchoBroadcast, every, every, elem)
	if !cfg.SkipProofs {
		s.commit = row(roundProofCommit, PhaseKeyProof, transport.EchoBroadcast, every, every, elem)
		// The challenge run also carries the self slot's unread zero,
		// which is not charged.
		s.challenge = row(roundProofChallenge, PhaseKeyProof, transport.EchoBroadcast, every, every, (n-1)*scalar)
		s.response = row(roundProofResponse, PhaseKeyProof, transport.EchoBroadcast, every, every, scalar)
	}
	s.bits = row(roundPublishBits, PhasePublishBits, transport.EchoBroadcast, every, every, cfg.L*ct)
	collect := "collect-taus" // the τ collection's phase in aborts, inside the chain span
	if cfg.ProveDecryption {
		s.anchors = row(roundCollectTaus, collect, transport.EchoBroadcast, every, every, sha256.Size)
		vector *= 5 // Input + Stripped + 4 proof values per ciphertext ≈ 5× payload.
	}
	s.taus = row(roundCollectTaus, collect, transport.PointToPoint, [2]int{1, n}, one(0), set)
	for h := 0; h < n; h++ {
		if cfg.ProveDecryption {
			s.commits = append(s.commits, row(roundChainBase+h, PhaseChain, transport.PlainBroadcast, one(h), every, n*sha256.Size))
		}
		if h < n-1 {
			s.hops = append(s.hops, row(roundChainBase+h, PhaseChain, transport.ChainHop, one(h), one(h+1), vector))
		}
	}
	// The last hop returns every other owner's set.
	s.final = row(roundChainBase+n-1, PhaseFinalSet, transport.PointToPoint, one(n-1), [2]int{0, n - 1}, set)
	return s
}

// Schedule is the protocol's rounds for n parties under cfg, in order.
func Schedule(cfg Config, n int) []transport.Round { return newSchedule(cfg, n).all }

// Payload types exchanged over the fabric. The types stay
// package-private; wire.go registers a codec for each from init.
type (
	bitsMsg struct {
		Cts []elgamal.Ciphertext
	}
	tauSetMsg struct {
		Set []elgamal.Ciphertext // (n−1)·L ciphertexts owned by the sender
	}
	vectorMsg struct {
		V [][]elgamal.Ciphertext // indexed by owner
		// The fields below are present only under Config.ProveDecryption.
		// Input is the vector the sender received (bound to the
		// hop-before-last's broadcast commitment, so the sender cannot
		// fabricate it); Stripped is Input with the sender's key layer
		// removed, in Input order (already known to the previous hop, so
		// no permutation information leaks); Proofs[owner][i] is the
		// Chaum–Pedersen transcript tying Input[owner][i] to
		// Stripped[owner][i] under the sender's registered key share.
		Input    [][]elgamal.Ciphertext
		Stripped [][]elgamal.Ciphertext
		Proofs   [][]zkp.EqualityTranscript
	}
	// anchorMsg commits every owner's original τ set before the chain
	// starts (ProveDecryption mode).
	anchorMsg struct {
		Hash []byte
	}
	// commitMsg commits a chain hop's output vector, one hash per owner
	// set (ProveDecryption mode).
	commitMsg struct {
		Hashes [][]byte
	}
	finalMsg struct {
		Set []elgamal.Ciphertext
	}
)

// PartyCtx runs one party's side of the protocol over the fabric: me is
// the party index in [0, n), beta the party's l-bit value. Every party
// must call it concurrently with the same Config. Every blocking receive
// honours ctx, so when a sibling party fails and the runner cancels,
// this party unblocks promptly with a typed *AbortError instead of
// hanging on a channel that will never deliver.
func PartyCtx(ctx context.Context, cfg Config, me int, fab transport.Net, beta *big.Int, rng io.Reader) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	n := fab.N()
	if n < 2 {
		return Result{}, fmt.Errorf("unlinksort: need at least two parties, got %d", n)
	}
	if beta.Sign() < 0 || beta.BitLen() > cfg.L {
		return Result{}, fmt.Errorf("unlinksort: value does not fit in %d bits", cfg.L)
	}
	// Observability: the party handle (if any) rides in on the context.
	// Wrapping the group charges every exponentiation below — including
	// those inside elgamal and zkp — to this party's current span, and
	// wrapping the net charges its sends; both wrappers are nil no-ops
	// when observability is off.
	obs := obsv.PartyFrom(ctx)
	cfg.Group = obsv.Group(cfg.Group, obs)
	fab = obsv.ObservedNet(fab, obs)
	defer obs.End()
	scheme := elgamal.NewScheme(cfg.Group)
	sched := newSchedule(cfg, n)

	// Step 5: key generation and knowledge proofs.
	obs.Begin(PhaseKeygen)
	key, joint, ys, err := keyPhase(ctx, cfg, sched, scheme, me, fab, rng)
	if err != nil {
		return Result{}, err
	}
	// The joint key is now fixed for the rest of the run and masks every
	// ciphertext this party will produce: switch to a scheme with a
	// fixed-base table for it. (The generator's table is cached inside
	// the group itself.)
	scheme = scheme.WithPrecomp(joint)

	// Step 6: publish the bitwise encryption of beta.
	obs.Begin(PhasePublishBits)
	myBits, theirCts, err := publishBits(ctx, cfg, sched, scheme, me, fab, joint, beta, rng)
	if err != nil {
		return Result{}, err
	}

	// Step 7: homomorphic comparison circuit against every other party.
	obs.Begin(PhaseCompare)
	mySet, err := compareAll(ctx, cfg, scheme, joint, myBits, theirCts, rng)
	if err != nil {
		return Result{}, err
	}

	// Step 8: decrypt-and-shuffle chain.
	obs.Begin(PhaseChain)
	finalSet, err := chainPhase(ctx, cfg, sched, scheme, me, fab, key, ys, mySet, rng)
	if err != nil {
		return Result{}, err
	}

	// Step 9: strip the last layer and count zeros, a chunk at a time.
	isZero := make([]bool, len(finalSet))
	size := hopChunkSize(cfg.Group, len(finalSet), kernel.Workers(cfg.Workers))
	if err := kernel.Map(ctx, cfg.Workers, (len(finalSet)+size-1)/size, func(c int) error {
		lo, hi := c*size, min((c+1)*size, len(finalSet))
		copy(isZero[lo:hi], scheme.ZeroSet(key.X, finalSet[lo:hi]))
		return nil
	}); err != nil {
		return Result{}, transport.AnnotatePhase(err, PhaseFinalSet)
	}
	var positions []int
	for idx, z := range isZero {
		if z {
			positions = append(positions, idx)
		}
	}
	zeros := len(positions)
	return Result{Rank: zeros + 1, Zeros: zeros, ZeroPositions: positions}, nil
}

// keyPhase publishes key shares, runs the n-verifier knowledge proofs,
// and returns this party's key pair, the joint public key and every
// party's key share (needed to verify chain decryption proofs).
func keyPhase(ctx context.Context, cfg Config, sched *schedule, scheme *elgamal.Scheme, me int, fab transport.Net, rng io.Reader) (*elgamal.KeyPair, group.Element, []group.Element, error) {
	g := cfg.Group
	n := fab.N()
	key, err := scheme.GenerateKey(rng)
	if err != nil {
		return nil, nil, nil, err
	}
	// Key shares go out as a consistent broadcast: on real fabrics the
	// echo sub-round catches an initiator announcing different shares to
	// different parties (which would give each victim a different joint
	// key); in-process fabrics skip the echo entirely.
	received, err := transport.EchoBroadcastCtx(ctx, fab, me, sched.keys.Tag, sched.keys.Bytes, key.Y)
	if err != nil {
		return nil, nil, nil, transport.AnnotatePhase(err, sched.keys.Phase)
	}
	ys := make([]group.Element, n)
	for j := 0; j < n; j++ {
		if j == me {
			ys[j] = key.Y
			continue
		}
		y, ok := received[j].(group.Element)
		if !ok {
			return nil, nil, nil, malformedAbort(j, me, sched.keys.Tag, sched.keys.Phase,
				fmt.Sprintf("a malformed key share (%T)", received[j]), "group element")
		}
		// Wire decoding puts the share on the curve its payload named,
		// which a hostile peer picks; membership in the session's group
		// MUST be checked here, or a foreign or off-curve key share
		// mounts an invalid-curve attack through the joint key.
		if err := group.Validate(g, y); err != nil {
			return nil, nil, nil, transport.Abort(j, sched.keys.Tag, sched.keys.Phase,
				fmt.Errorf("unlinksort: party %d sent an invalid key share: %w", j, err)).
				WithCert(certInvalidElement(g, j, me, sched.keys.Tag, sched.keys.Phase, y))
		}
		ys[j] = y
	}

	if !cfg.SkipProofs {
		obsv.PartyOf(cfg.Group).Begin(PhaseKeyProof)
		if err := proofPhase(ctx, cfg, sched, me, fab, key, ys, rng); err != nil {
			return nil, nil, nil, err
		}
	}
	return key, scheme.JointPublicKey(ys), ys, nil
}

// proofPhase interleaves all n multi-verifier Schnorr proofs: every
// party is simultaneously the prover of its own key share and a verifier
// of everyone else's, in three broadcast rounds.
func proofPhase(ctx context.Context, cfg Config, sched *schedule, me int, fab transport.Net, key *elgamal.KeyPair, ys []group.Element, rng io.Reader) error {
	g := cfg.Group
	n := fab.N()
	q := g.Order()
	scalarBytes := wirecodec.WidthOf(q)

	// All three proof rounds are consistent broadcasts: the proof is only
	// sound against all verifiers at once if every verifier saw the same
	// commitment, challenge vector and response.
	prover := zkp.NewProver(g, key.X)
	h, err := prover.Commit(rng)
	if err != nil {
		return err
	}
	commits, err := transport.EchoBroadcastCtx(ctx, fab, me, sched.commit.Tag, sched.commit.Bytes, h)
	if err != nil {
		return transport.AnnotatePhase(err, sched.commit.Phase)
	}

	// One challenge share per foreign prover, broadcast as one run of n
	// scalars at the order's width, indexed by prover. The self slot is
	// never read (no party challenges itself) and travels as zero.
	myChallenges := make([]*big.Int, n)
	for j := 0; j < n; j++ {
		if j == me {
			myChallenges[j] = big.NewInt(0)
			continue
		}
		if myChallenges[j], err = zkp.NewChallenge(g, rng); err != nil {
			return err
		}
	}
	myRun, err := wirecodec.UintsOf(scalarBytes, myChallenges)
	if err != nil {
		return err
	}
	challengeMsgs, err := transport.EchoBroadcastCtx(ctx, fab, me, sched.challenge.Tag, sched.challenge.Bytes, myRun)
	if err != nil {
		return transport.AnnotatePhase(err, sched.challenge.Phase)
	}
	// Every verifier's vector, checked once: n scalars at the order's
	// width, each below the order.
	challenges := make([][]*big.Int, n)
	toMe := make([]*big.Int, 0, n-1)
	for j := 0; j < n; j++ {
		if j == me {
			challenges[j] = myChallenges
			continue
		}
		if challenges[j], err = wirecodec.IntsOf(challengeMsgs[j], q, n); err != nil {
			return malformedAbort(j, me, sched.challenge.Tag, sched.challenge.Phase,
				"a challenge vector: "+err.Error(), fmt.Sprintf("%d %d-byte scalars below the group order", n, scalarBytes))
		}
		toMe = append(toMe, challenges[j][me])
	}
	z, err := prover.Respond(toMe)
	if err != nil {
		return err
	}
	if cfg.byzFor(me) == ByzBadKeyProof {
		// Covert deviation: the perturbed response fails verification at
		// every honest verifier, which must pin the blame on this party.
		z = new(big.Int).Add(z, big.NewInt(1))
	}
	zRun, err := wirecodec.UintsOf(scalarBytes, []*big.Int{z})
	if err != nil {
		return err
	}
	responses, err := transport.EchoBroadcastCtx(ctx, fab, me, sched.response.Tag, sched.response.Bytes, zRun)
	if err != nil {
		return transport.AnnotatePhase(err, sched.response.Phase)
	}

	// Verify every foreign proof against the challenge shares all
	// verifiers published.
	for j := 0; j < n; j++ {
		if j == me {
			continue
		}
		hj, ok := commits[j].(group.Element)
		if !ok {
			return malformedAbort(j, me, sched.commit.Tag, sched.commit.Phase,
				fmt.Sprintf("a malformed proof commitment (%T)", commits[j]), "group element")
		}
		if err := group.Validate(g, hj); err != nil {
			return transport.Abort(j, sched.commit.Tag, sched.commit.Phase,
				fmt.Errorf("unlinksort: party %d sent an invalid proof commitment: %w", j, err)).
				WithCert(certInvalidElement(g, j, me, sched.commit.Tag, sched.commit.Phase, hj))
		}
		zj, err := wirecodec.IntsOf(responses[j], q, 1)
		if err != nil {
			return malformedAbort(j, me, sched.response.Tag, sched.response.Phase,
				"a proof response: "+err.Error(), fmt.Sprintf("1 %d-byte scalar below the group order", scalarBytes))
		}
		chalForJ := make([]*big.Int, 0, n-1)
		for v := 0; v < n; v++ {
			if v != j {
				chalForJ = append(chalForJ, challenges[v][j])
			}
		}
		if !zkp.Verify(cfg.Group, ys[j], hj, chalForJ, zj[0]) {
			return transport.Abort(j, sched.response.Tag, sched.response.Phase,
				fmt.Errorf("unlinksort: party %d failed the key-knowledge proof", j)).
				WithCert(certKeyProof(g, j, me, ys[j], hj, chalForJ, zj[0]))
		}
	}
	return nil
}

// publishBits broadcasts E(β)_B and gathers everyone else's, returning
// this party's plaintext bits and the foreign ciphertext vectors indexed
// by party.
func publishBits(ctx context.Context, cfg Config, sched *schedule, scheme *elgamal.Scheme, me int, fab transport.Net, joint group.Element, beta *big.Int, rng io.Reader) ([]uint8, [][]elgamal.Ciphertext, error) {
	n := fab.N()
	bits, err := fixedbig.Bits(beta, cfg.L)
	if err != nil {
		return nil, nil, err
	}
	// Pre-draw the per-bit encryption randomness serially (reference
	// draw order), then fan the pure encryption arithmetic out.
	rs := make([]*big.Int, cfg.L)
	for t := range rs {
		if rs[t], err = scheme.Group().RandomScalar(rng); err != nil {
			return nil, nil, err
		}
	}
	mine := make([]elgamal.Ciphertext, cfg.L)
	if err := kernel.Map(ctx, cfg.Workers, cfg.L, func(t int) error {
		mine[t] = scheme.EncryptExpR(joint, big.NewInt(int64(bits[t])), rs[t])
		return nil
	}); err != nil {
		return nil, nil, transport.AnnotatePhase(err, "publish-bits")
	}
	// The bit vectors feed every party's comparison circuit: a consistent
	// broadcast stops a cheater from giving different parties different
	// encryptions of its value (which would let it occupy a different
	// rank in each victim's view).
	gathered, err := transport.EchoBroadcastCtx(ctx, fab, me, sched.bits.Tag, sched.bits.Bytes, bitsMsg{Cts: mine})
	if err != nil {
		return nil, nil, transport.AnnotatePhase(err, sched.bits.Phase)
	}
	theirs := make([][]elgamal.Ciphertext, n)
	for j := 0; j < n; j++ {
		if j == me {
			continue
		}
		msg, ok := gathered[j].(bitsMsg)
		if !ok || len(msg.Cts) != cfg.L {
			return nil, nil, malformedAbort(j, me, sched.bits.Tag, sched.bits.Phase,
				"a malformed bit vector", fmt.Sprintf("%d ciphertexts", cfg.L))
		}
		if err := validateSet(cfg.Group, j, msg.Cts); err != nil {
			return nil, nil, err
		}
		theirs[j] = msg.Cts
	}
	return bits, theirs, nil
}

// validateSet checks every component of a received ciphertext set for
// group membership (see group.Validate); from names the sender for the
// typed abort.
func validateSet(g group.Group, from int, set []elgamal.Ciphertext) error {
	for _, ct := range set {
		err := group.Validate(g, ct.C)
		if err == nil {
			err = group.Validate(g, ct.C1)
		}
		if err != nil {
			return transport.EnsureAbort(
				fmt.Errorf("unlinksort: party %d sent an invalid ciphertext: %w", from, err), from, "unlinksort")
		}
	}
	return nil
}

// compareAll evaluates the step-7 circuit of Fig. 1 against every other
// party and returns this party's flattened τ set ((n−1)·L ciphertexts).
// For each counterpart i and bit position t (1-based from the LSB):
//
//	γ^t = β_j^t ⊕ β_i^t            (affine in the ciphertext, β_j public to j)
//	ω^t = (l−t+1)·(1−γ^t) + Σ_{v>t} γ^v
//	τ^t = ω^t + β_j^t
//
// τ^t = 0 exactly at the most significant differing bit when that bit is
// 1 in β_i and 0 in β_j, i.e. the set contains a zero iff β_j < β_i.
// Every τ is re-randomised, so that it is not a deterministic function of
// the published E(β_i) bits (which would leak β_j's bits by ciphertext
// comparison; TestMissingReRandomizationLeaksBits carries out that attack
// against the UnsafeNoReRandomize ablation, which leaves rr nil).
func compareAll(ctx context.Context, cfg Config, scheme *elgamal.Scheme, joint group.Element, myBits []uint8, theirCts [][]elgamal.Ciphertext, rng io.Reader) ([]elgamal.Ciphertext, error) {
	l := cfg.L
	// Pre-draw each peer circuit's randomness serially in the reference
	// order — one scalar for the suffix-sum zero encryption, then one
	// re-randomiser per bit — so the fan-out below is pure arithmetic
	// and the output is identical at every worker count.
	type peerWork struct {
		cts  []elgamal.Ciphertext
		zero *big.Int
		rr   []*big.Int
	}
	var peers []peerWork
	for _, cts := range theirCts {
		if cts == nil {
			continue // self slot
		}
		w := peerWork{cts: cts}
		var err error
		if w.zero, err = scheme.Group().RandomScalar(rng); err != nil {
			return nil, err
		}
		if !cfg.UnsafeNoReRandomize {
			w.rr = make([]*big.Int, l)
			for t := range w.rr {
				if w.rr[t], err = scheme.Group().RandomScalar(rng); err != nil {
					return nil, err
				}
			}
		}
		peers = append(peers, w)
	}

	outs := make([][]elgamal.Ciphertext, len(peers))
	if err := kernel.Map(ctx, cfg.Workers, len(peers), func(pi int) error {
		w := peers[pi]
		outs[pi] = scheme.CompareCircuit(joint, w.cts, myBits, w.zero, w.rr)
		return nil
	}); err != nil {
		return nil, transport.AnnotatePhase(err, PhaseCompare)
	}

	set := make([]elgamal.Ciphertext, 0, len(peers)*l)
	for _, taus := range outs {
		set = append(set, taus...)
	}
	return set, nil
}

// chainPhase implements step 8: all sets travel P_0 → P_1 → … → P_{n−1};
// each party strips its key layer from, exponent-blinds, and permutes
// every set it does not own; the last party returns each set to its
// owner.
//
// Under Config.ProveDecryption the chain additionally carries integrity
// evidence for the strip step: owners broadcast hash anchors of their
// original sets, every hop broadcasts a hash commitment of its output
// vector, and every hop's message includes the vector it received (bound
// to the previous commitment) together with Chaum–Pedersen proofs that
// each key layer was stripped with the registered share. Each hop
// verifies its predecessor before processing.
func chainPhase(ctx context.Context, cfg Config, sched *schedule, scheme *elgamal.Scheme, me int, fab transport.Net, key *elgamal.KeyPair, ys []group.Element, mySet []elgamal.Ciphertext, rng io.Reader) ([]elgamal.Ciphertext, error) {
	n := fab.N()

	// Owners anchor their sets (ProveDecryption) and hand them to P_0.
	// The anchor exchange is a consistent broadcast — the anchors are the
	// root of the whole chain-integrity argument, so a cheater must not
	// be able to show different anchors to different verifiers — and it
	// completes in full (data plus echo sub-round) before any τ set goes
	// out, preserving per-channel round order.
	anchors := make([][]byte, n)
	if cfg.ProveDecryption {
		all, err := transport.EchoBroadcastCtx(ctx, fab, me, sched.anchors.Tag, sched.anchors.Bytes, anchorMsg{Hash: hashSet(scheme, mySet)})
		if err != nil {
			return nil, transport.AnnotatePhase(err, sched.anchors.Phase)
		}
		for j := 0; j < n; j++ {
			if j == me {
				anchors[me] = hashSet(scheme, mySet)
				continue
			}
			msg, ok := all[j].(anchorMsg)
			if !ok || len(msg.Hash) != sha256.Size {
				return nil, malformedAbort(j, me, sched.anchors.Tag, sched.anchors.Phase,
					"a malformed set anchor", "32-byte digest")
			}
			anchors[j] = msg.Hash
		}
	}
	var v [][]elgamal.Ciphertext
	if me == 0 {
		v = make([][]elgamal.Ciphertext, n)
		v[0] = mySet
		for j := 1; j < n; j++ {
			payload, err := fab.RecvCtx(ctx, 0, j, sched.taus.Tag)
			if err != nil {
				return nil, transport.AnnotatePhase(err, sched.taus.Phase)
			}
			msg, ok := payload.(tauSetMsg)
			if !ok || len(msg.Set) != (n-1)*cfg.L {
				return nil, malformedAbort(j, 0, sched.taus.Tag, sched.taus.Phase,
					"a malformed τ set", fmt.Sprintf("%d ciphertexts", (n-1)*cfg.L))
			}
			if cfg.ProveDecryption && !bytes.Equal(hashSet(scheme, msg.Set), anchors[j]) {
				return nil, transport.Abort(j, sched.taus.Tag, sched.taus.Phase,
					fmt.Errorf("unlinksort: party %d's τ set does not match its anchor", j)).
					WithCert(certSetAnchor(j, 0, sched.taus.Tag,
						fmt.Sprintf("party %d's τ set does not hash to the anchor it broadcast", j),
						anchors[j], encodeSetBytes(scheme, msg.Set)))
			}
			if err := validateSet(cfg.Group, j, msg.Set); err != nil {
				return nil, err
			}
			v[j] = msg.Set
		}
	} else if err := fab.Send(sched.taus.Tag, me, 0, sched.taus.Bytes, tauSetMsg{Set: mySet}); err != nil {
		return nil, transport.AnnotatePhase(err, sched.taus.Phase)
	}

	// recvCommit receives the output commitment party from broadcast in
	// row r (ProveDecryption mode).
	recvCommit := func(r transport.Round, from int, what string) ([][]byte, error) {
		payload, err := fab.RecvCtx(ctx, me, from, r.Tag)
		if err != nil {
			return nil, transport.AnnotatePhase(err, r.Phase)
		}
		msg, ok := payload.(commitMsg)
		if !ok || len(msg.Hashes) != n {
			return nil, malformedAbort(from, me, r.Tag, r.Phase, "a malformed "+what, fmt.Sprintf("%d digests", n))
		}
		return msg.Hashes, nil
	}

	// The chain. Party me receives V from me−1 (except P_0 who starts),
	// verifies its predecessor in ProveDecryption mode, processes every
	// set it does not own, and forwards.
	if me > 0 {
		hop := sched.hops[me-1]
		var prevCommit [][]byte
		if cfg.ProveDecryption {
			// The binding for the predecessor's claimed input: owners'
			// anchors at the first hop, the hop-before-last's broadcast
			// commitment afterwards. The predecessor's own commitment
			// precedes its vector on the same channel.
			prevCommit = anchors
			var err error
			if me > 1 {
				if prevCommit, err = recvCommit(sched.commits[me-2], me-2, "output commitment"); err != nil {
					return nil, err
				}
			}
			if _, err = recvCommit(sched.commits[me-1], me-1, "output commitment"); err != nil {
				return nil, err
			}
		}
		payload, err := fab.RecvCtx(ctx, me, me-1, hop.Tag)
		if err != nil {
			return nil, transport.AnnotatePhase(err, hop.Phase)
		}
		msg, ok := payload.(vectorMsg)
		if !ok || len(msg.V) != n {
			return nil, malformedAbort(me-1, me, hop.Tag, hop.Phase,
				fmt.Sprintf("a malformed chain vector (%T)", payload), fmt.Sprintf("vector of %d owner sets", n))
		}
		for owner := range msg.V {
			if err := validateSet(cfg.Group, me-1, msg.V[owner]); err != nil {
				return nil, err
			}
		}
		if cfg.ProveDecryption {
			for owner := range msg.Stripped {
				if err := validateSet(cfg.Group, me-1, msg.Stripped[owner]); err != nil {
					return nil, err
				}
			}
			if err := verifyChainHop(cfg, scheme, me, me-1, hop.Tag, ys[me-1], prevCommit, msg); err != nil {
				return nil, err
			}
		}
		v = msg.V
	}

	out := vectorMsg{V: make([][]elgamal.Ciphertext, n)}
	if cfg.ProveDecryption {
		out.Input = v
		out.Stripped = make([][]elgamal.Ciphertext, n)
		out.Proofs = make([][]zkp.EqualityTranscript, n)
	}
	stripKey := key
	if cfg.byzFor(me) == ByzWrongDecryption {
		// Covert deviation: strip with a key other than the registered
		// share — the silent rank corruption ProveDecryption exists to
		// catch. The transcripts are internally consistent for the wrong
		// key, so only verification against the REGISTERED share (by the
		// next hop) exposes it.
		stripKey = &elgamal.KeyPair{X: new(big.Int).Add(key.X, big.NewInt(1)), Y: key.Y}
	}
	for owner := 0; owner < n; owner++ {
		if owner == me {
			out.V[owner] = v[owner]
			continue
		}
		if cfg.ProveDecryption {
			stripped, proofs, err := stripWithProofs(ctx, cfg, scheme, stripKey, v[owner], rng)
			if err != nil {
				return nil, err
			}
			out.Stripped[owner] = stripped
			out.Proofs[owner] = proofs
			if out.V[owner], err = blindAndShuffle(ctx, cfg, scheme, stripped, rng); err != nil {
				return nil, err
			}
			continue
		}
		processed, err := processSet(ctx, cfg, scheme, stripKey.X, v[owner], rng)
		if err != nil {
			return nil, err
		}
		out.V[owner] = processed
	}
	if cfg.byzFor(me) == ByzTamperOwnSet && len(out.V[me]) > 0 {
		// Covert deviation: re-blind one ciphertext of the set this hop
		// must pass through untouched. The copy matters — in-process runs
		// share set memory across goroutines, and the deviation must
		// corrupt only this party's outgoing message, not the honest
		// copies upstream.
		tampered := append([]elgamal.Ciphertext(nil), out.V[me]...)
		tampered[0] = scheme.ExponentBlindR(tampered[0], big.NewInt(3))
		out.V[me] = tampered
	}

	if cfg.ProveDecryption {
		hashes := make([][]byte, n)
		for owner := range out.V {
			hashes[owner] = hashSet(scheme, out.V[owner])
		}
		if err := fab.Broadcast(sched.commits[me].Tag, me, sched.commits[me].Bytes, commitMsg{Hashes: hashes}); err != nil {
			return nil, transport.AnnotatePhase(err, sched.commits[me].Phase)
		}
	}
	if me < n-1 {
		if err := fab.Send(sched.hops[me].Tag, me, me+1, sched.hops[me].Bytes, out); err != nil {
			return nil, transport.AnnotatePhase(err, sched.hops[me].Phase)
		}
	} else {
		// Last hop: return each set to its owner.
		for owner := 0; owner < n-1; owner++ {
			if err := fab.Send(sched.final.Tag, me, owner, sched.final.Bytes, finalMsg{Set: out.V[owner]}); err != nil {
				return nil, transport.AnnotatePhase(err, PhaseChain)
			}
		}
	}

	// Receive my fully processed set. Under ProveDecryption the last
	// hop's commitment broadcast precedes it on the same channel: consume
	// it and verify the final set against it. Other hops' commitment
	// broadcasts to non-successors stay queued unread, which is harmless
	// on per-pair channels.
	obsv.PartyOf(cfg.Group).Begin(PhaseFinalSet)
	last, round := n-1, sched.final.Tag
	if me == last {
		return out.V[me], nil
	}
	var commit [][]byte
	var err error
	if cfg.ProveDecryption {
		if commit, err = recvCommit(sched.final, last, "final commitment"); err != nil {
			return nil, err
		}
	}
	payload, err := fab.RecvCtx(ctx, me, last, round)
	if err != nil {
		return nil, transport.AnnotatePhase(err, sched.final.Phase)
	}
	msg, ok := payload.(finalMsg)
	if !ok || len(msg.Set) != len(mySet) {
		return nil, malformedAbort(last, me, round, sched.final.Phase,
			"a malformed final set", fmt.Sprintf("%d ciphertexts", len(mySet)))
	}
	if cfg.ProveDecryption && !bytes.Equal(hashSet(scheme, msg.Set), commit[me]) {
		return nil, transport.Abort(last, round, PhaseFinalSet,
			fmt.Errorf("unlinksort: final set does not match party %d's commitment", last)).
			WithCert(certSetAnchor(last, me, round,
				fmt.Sprintf("party %d delivered a final set that does not hash to its own broadcast commitment", last),
				commit[me], encodeSetBytes(scheme, msg.Set)))
	}
	if err := validateSet(cfg.Group, last, msg.Set); err != nil {
		return nil, err
	}
	return msg.Set, nil
}

// hashSet commits a ciphertext set (SHA-256 over the encoded sequence).
// One reused buffer feeds the hash, so committing a whole set allocates
// a single ciphertext-sized scratch slice instead of one per entry.
func hashSet(scheme *elgamal.Scheme, set []elgamal.Ciphertext) []byte {
	h := sha256.New()
	buf := make([]byte, 0, scheme.EncodedLen())
	for _, ct := range set {
		buf = scheme.AppendEncode(buf[:0], ct)
		h.Write(buf)
	}
	return h.Sum(nil)
}

// verifyChainHop checks a predecessor's message in ProveDecryption mode:
// its claimed Input matches the previous commitment; every strip proof
// verifies under the predecessor's registered key share; the untouched
// own set passed through unmodified. Every failure is a typed abort
// naming prev and carrying a blame certificate the offline verifier in
// internal/blame can re-check; me and round locate the evidence.
func verifyChainHop(cfg Config, scheme *elgamal.Scheme, me, prev, round int, prevKey group.Element, prevCommit [][]byte, msg vectorMsg) error {
	n := len(msg.V)
	if len(msg.Input) != n || len(msg.Stripped) != n || len(msg.Proofs) != n {
		return malformedAbort(prev, me, round, PhaseChain,
			"a chain vector with missing decryption evidence", "input, stripped and proof vectors")
	}
	for owner := 0; owner < n; owner++ {
		if !bytes.Equal(hashSet(scheme, msg.Input[owner]), prevCommit[owner]) {
			return transport.Abort(prev, round, PhaseChain,
				fmt.Errorf("unlinksort: party %d's claimed input for owner %d does not match the committed vector", prev, owner)).
				WithCert(certSetAnchor(prev, me, round,
					fmt.Sprintf("party %d's claimed chain input for owner %d does not hash to the committed vector", prev, owner),
					prevCommit[owner], encodeSetBytes(scheme, msg.Input[owner])))
		}
		if owner == prev {
			// The predecessor does not process its own set; it must pass
			// through byte-identical.
			if !bytes.Equal(hashSet(scheme, msg.V[owner]), hashSet(scheme, msg.Input[owner])) {
				return transport.Abort(prev, round, PhaseChain,
					fmt.Errorf("unlinksort: party %d modified its own set in transit", prev)).
					WithCert(certOwnSetTampered(prev, me, round,
						encodeSetBytes(scheme, msg.Input[owner]), encodeSetBytes(scheme, msg.V[owner])))
			}
			continue
		}
		if len(msg.Proofs[owner]) != len(msg.Input[owner]) || len(msg.Stripped[owner]) != len(msg.Input[owner]) {
			return malformedAbort(prev, me, round, PhaseChain,
				fmt.Sprintf("mismatched decryption evidence for owner %d", owner),
				fmt.Sprintf("%d stripped ciphertexts and proofs", len(msg.Input[owner])))
		}
		for i := range msg.Input[owner] {
			in, st := msg.Input[owner][i], msg.Stripped[owner][i]
			if !cfg.Group.Equal(in.C1, st.C1) {
				return transport.Abort(prev, round, PhaseChain,
					fmt.Errorf("unlinksort: party %d altered ciphertext randomness for owner %d", prev, owner)).
					WithCert(certStrippedRandomness(cfg.Group, prev, me, round, in, st))
			}
			if !zkp.VerifyPartialDecryption(cfg.Group, prevKey, in.C1, in.C, st.C, msg.Proofs[owner][i]) {
				return transport.Abort(prev, round, PhaseChain,
					fmt.Errorf("unlinksort: party %d failed decryption proof %d of owner %d", prev, i, owner)).
					WithCert(certPartialDecryption(cfg.Group, prev, me, round, in, st, msg.Proofs[owner][i], prevKey))
			}
		}
	}
	return nil
}

// hopChunk caps how many ciphertexts of a set one StripBlind call
// takes: enough that the call's two field inversions vanish in the
// per-ciphertext average, few enough that its tables stay in tens of
// kilobytes.
const hopChunk = 16

// hopChunkSize is how many ciphertexts of an n-ciphertext set each
// StripBlind call of a hop, or ZeroSet call of the final decrypt, takes:
// on a group whose MultiExp batches, the set split into a whole number of
// near-equal chunks per worker, none above hopChunk; one ciphertext a
// call elsewhere, where a batch shares nothing and the finest fan-out
// balances best. Every element leaves StripBlind in canonical form, so
// the output does not depend on the split.
func hopChunkSize(g group.Group, n, workers int) int {
	if !group.MultiExpBatches(g) || n == 0 {
		return 1
	}
	workers = min(workers, n)
	perWorker := (n + workers*hopChunk - 1) / (workers * hopChunk)
	chunks := workers * perWorker
	return (n + chunks - 1) / chunks
}

// processSet strips this party's key layer from every ciphertext,
// exponent-blinds it (zero plaintexts stay zero, everything else becomes
// uniformly random), and applies a fresh random permutation. The strip
// and blind — three random-base exponentiations per ciphertext, the bulk
// of the protocol's serial chain cost — fan out across workers a chunk
// at a time; the blinding scalars are pre-drawn in index order and the
// shuffle draws after them, exactly the reference sequence.
func processSet(ctx context.Context, cfg Config, scheme *elgamal.Scheme, x *big.Int, set []elgamal.Ciphertext, rng io.Reader) ([]elgamal.Ciphertext, error) {
	blinds, err := drawScalars(scheme, len(set), rng)
	if err != nil {
		return nil, err
	}
	out := make([]elgamal.Ciphertext, len(set))
	size := hopChunkSize(cfg.Group, len(set), kernel.Workers(cfg.Workers))
	if err := kernel.Map(ctx, cfg.Workers, (len(set)+size-1)/size, func(c int) error {
		lo, hi := c*size, min((c+1)*size, len(set))
		copy(out[lo:hi], scheme.StripBlind(x, set[lo:hi], blinds[lo:hi]))
		return nil
	}); err != nil {
		return nil, transport.AnnotatePhase(err, PhaseChain)
	}
	if err := shuffle(out, rng); err != nil {
		return nil, err
	}
	return out, nil
}

// stripWithProofs strips the key layer from every ciphertext and proves
// each strip with a Chaum–Pedersen transcript, in the set's received
// order so no permutation information leaks. Each proof pre-draws its
// commit randomness and challenge (in ProveEquality's order) serially;
// the strip and transcript arithmetic fan out.
func stripWithProofs(ctx context.Context, cfg Config, scheme *elgamal.Scheme, key *elgamal.KeyPair, set []elgamal.Ciphertext, rng io.Reader) ([]elgamal.Ciphertext, []zkp.EqualityTranscript, error) {
	g := cfg.Group
	rs := make([]*big.Int, len(set))
	cs := make([]*big.Int, len(set))
	for i := range set {
		var err error
		if rs[i], err = g.RandomScalar(rng); err != nil {
			return nil, nil, err
		}
		if cs[i], err = zkp.NewChallenge(g, rng); err != nil {
			return nil, nil, err
		}
	}
	stripped := make([]elgamal.Ciphertext, len(set))
	proofs := make([]zkp.EqualityTranscript, len(set))
	if err := kernel.Map(ctx, cfg.Workers, len(set), func(i int) error {
		ct := set[i]
		stripped[i] = scheme.PartialDecrypt(key.X, ct)
		proofs[i] = zkp.ProvePartialDecryptionR(g, key.X, key.Y, ct.C1, ct.C, stripped[i].C, rs[i], cs[i])
		return nil
	}); err != nil {
		return nil, nil, transport.AnnotatePhase(err, PhaseChain)
	}
	return stripped, proofs, nil
}

// blindAndShuffle exponent-blinds and permutes an already-stripped set.
func blindAndShuffle(ctx context.Context, cfg Config, scheme *elgamal.Scheme, set []elgamal.Ciphertext, rng io.Reader) ([]elgamal.Ciphertext, error) {
	blinds, err := drawScalars(scheme, len(set), rng)
	if err != nil {
		return nil, err
	}
	out := make([]elgamal.Ciphertext, len(set))
	if err := kernel.Map(ctx, cfg.Workers, len(set), func(i int) error {
		out[i] = scheme.ExponentBlindR(set[i], blinds[i])
		return nil
	}); err != nil {
		return nil, transport.AnnotatePhase(err, PhaseChain)
	}
	if err := shuffle(out, rng); err != nil {
		return nil, err
	}
	return out, nil
}

// drawScalars draws k scalars from rng in order.
func drawScalars(scheme *elgamal.Scheme, k int, rng io.Reader) ([]*big.Int, error) {
	out := make([]*big.Int, k)
	for i := range out {
		var err error
		if out[i], err = scheme.Group().RandomScalar(rng); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// shuffle is a Fisher–Yates permutation driven by the protocol RNG.
func shuffle(set []elgamal.Ciphertext, rng io.Reader) error {
	for i := len(set) - 1; i > 0; i-- {
		jBig, err := fixedbig.RandInt(rng, big.NewInt(int64(i+1)))
		if err != nil {
			return err
		}
		j := int(jBig.Int64())
		set[i], set[j] = set[j], set[i]
	}
	return nil
}

// RunParty is the one sorting-party runner: RunCtx runs it once per
// goroutine and UnlinkableSortParty once per process. It attaches the
// party's handle from the context's observability registry and labels
// its profile samples, keys the party's DRBG from seed
// (fixedbig.PartyDRBG), runs PartyCtx over net and turns a failure into
// a typed *transport.AbortError.
//
// seed must already be resolved (explicit or drawn): with an empty one
// every party's DRBG would be keyed by a public constant, so it is
// refused.
func RunParty(ctx context.Context, cfg Config, me int, net transport.Net, beta *big.Int, seed string) (Result, error) {
	if seed == "" {
		return Result{}, fmt.Errorf("unlinksort: party %d has no seed to derive its randomness from", me)
	}
	var res Result
	var err error
	ctx = obsv.WithParty(ctx, obsv.RegistryFrom(ctx).Party(me))
	obsv.Do(ctx, me, func(ctx context.Context) {
		res, err = PartyCtx(ctx, cfg, me, net, beta, fixedbig.PartyDRBG(seed, me))
	})
	return res, transport.EnsureAbort(err, me, "unlinksort")
}

// RunCtx executes the whole protocol in-process, one RunParty goroutine
// per party over one fabric (transport.RunMesh), with deterministic
// per-party randomness derived from seed. It returns the per-party
// results (indexed by party) and the fabric for stats and trace
// inspection. wrap, when non-nil, decorates the net (fault injection
// hooks in here: wrap receives the shared fabric and returns the Net the
// parties actually use). The first party to fail cancels every sibling,
// so no goroutine is left blocked on a receive that will never
// complete; the returned error is always a typed *AbortError, the mesh
// runner's root cause.
func RunCtx(ctx context.Context, cfg Config, betas []*big.Int, seed string, wrap func(transport.Net) transport.Net, opts ...transport.Option) ([]Result, *transport.Fabric, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	n := len(betas)
	if n < 2 {
		return nil, nil, fmt.Errorf("unlinksort: need at least two parties, got %d", n)
	}
	// Validate inputs before spawning, so a bad value is reported as the
	// caller's error naming its party, not as one party's abort.
	for j, beta := range betas {
		if beta.Sign() < 0 || beta.BitLen() > cfg.L {
			return nil, nil, fmt.Errorf("unlinksort: party %d value does not fit in %d bits", j, cfg.L)
		}
	}
	results := make([]Result, n)
	fab, _, err := transport.RunMesh(ctx, n, wrap, func(ctx context.Context, me int, net transport.Net) error {
		var err error
		results[me], err = RunParty(ctx, cfg, me, net, betas[me], seed)
		return err
	}, opts...)
	if err != nil {
		return nil, fab, err
	}
	return results, fab, nil
}
