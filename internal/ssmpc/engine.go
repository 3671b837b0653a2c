// Package ssmpc is a synchronous n-party secret-sharing MPC engine over
// Shamir shares: the substrate of the paper's secret-sharing baseline
// (Section II). It provides linear operations locally, BGW/GRR98
// multiplication with degree reduction, batched openings, joint random
// elements and bits, and a statistically masked secure comparison in the
// style of the SS comparison primitives the paper cites ([5, 6]).
//
// Every party runs the same SPMD program against its own Engine; the
// engines communicate over a transport.Fabric and count multiplication
// invocations, openings and communication rounds — the quantities the
// paper's Section VI-B efficiency analysis is stated in.
package ssmpc

import (
	"context"
	"fmt"
	"io"
	"math/big"

	"groupranking/internal/kernel"
	"groupranking/internal/obsv"
	"groupranking/internal/shamir"
	"groupranking/internal/transport"
)

// Config describes one MPC session.
type Config struct {
	// N is the number of parties; it must satisfy N ≥ 2·Degree+1 so
	// multiplication degree reduction is possible — the constraint that
	// caps the baseline at (n−1)/2 colluders (Section II).
	N int
	// Degree is the sharing polynomial degree d (max colluders).
	Degree int
	// P is the field prime. For comparisons on l-bit values it must
	// exceed 2^(l+Kappa+3).
	P *big.Int
	// Kappa is the statistical hiding parameter (default 40).
	Kappa int
	// Workers bounds the goroutines batched recombinations fan out on
	// (0 = NumCPU, 1 = serial). Sharing stays serial — it consumes the
	// party RNG — so results are identical at every worker count.
	Workers int
}

func (c Config) validate() error {
	if c.N < 1 {
		return fmt.Errorf("ssmpc: need at least one party")
	}
	if c.Degree < 0 || c.N < 2*c.Degree+1 {
		return fmt.Errorf("ssmpc: n=%d cannot support degree %d (need n ≥ 2d+1)", c.N, c.Degree)
	}
	if c.P == nil || !c.P.ProbablyPrime(16) {
		return fmt.Errorf("ssmpc: field modulus missing or composite")
	}
	return nil
}

// Counters tallies the cost quantities of Section VI-B.
type Counters struct {
	Mults  int64 // invocations of the multiplication protocol
	Opens  int64 // opening phases (batched openings count once per value)
	Rounds int64 // synchronous communication rounds
}

// Share is this party's share of a secret (abscissa = party index + 1).
type Share struct {
	y *big.Int
}

// Engine is one party's endpoint of the MPC session.
type Engine struct {
	cfg    Config
	me     int
	fab    transport.Net
	rng    io.Reader
	ctx    context.Context
	round  int
	ctr    Counters
	obs    *obsv.Party
	lambda []*big.Int // Lagrange coefficients at 0 for abscissae 1..N
}

// NewEngine creates party me's endpoint. All parties must share the same
// Config and Fabric.
func NewEngine(cfg Config, me int, fab transport.Net, rng io.Reader) (*Engine, error) {
	return NewEngineCtx(context.Background(), cfg, me, fab, rng)
}

// NewEngineCtx is NewEngine with cancellation: every receive the engine
// performs honours ctx, so a crashed or cancelled sibling turns into a
// prompt typed *AbortError instead of a hung protocol round.
func NewEngineCtx(ctx context.Context, cfg Config, me int, fab transport.Net, rng io.Reader) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Kappa <= 0 {
		cfg.Kappa = 40
	}
	if me < 0 || me >= cfg.N {
		return nil, fmt.Errorf("ssmpc: party index %d out of range", me)
	}
	if fab.N() != cfg.N {
		return nil, fmt.Errorf("ssmpc: fabric has %d endpoints, config has %d", fab.N(), cfg.N)
	}
	xs := make([]int, cfg.N)
	for i := range xs {
		xs[i] = i + 1
	}
	lambda, err := shamir.LagrangeAtZero(xs, cfg.P)
	if err != nil {
		return nil, fmt.Errorf("ssmpc: precomputing Lagrange coefficients: %w", err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Observability: the party handle rides in on the context; the net
	// wrapper charges this engine's sends to the party's current span.
	obs := obsv.PartyFrom(ctx)
	fab = obsv.ObservedNet(fab, obs)
	return &Engine{cfg: cfg, me: me, fab: fab, rng: rng, ctx: ctx, obs: obs, lambda: lambda}, nil
}

// recv is the engine's context-aware, round-checked receive.
func (e *Engine) recv(from, round int) (any, error) {
	p, err := e.fab.RecvCtx(e.ctx, e.me, from, round)
	return p, transport.AnnotatePhase(err, "ssmpc")
}

// gather is the engine's context-aware, round-checked GatherAll.
func (e *Engine) gather(round int) ([]any, error) {
	all, err := e.fab.GatherAllCtx(e.ctx, e.me, round)
	return all, transport.AnnotatePhase(err, "ssmpc")
}

// Party returns this engine's party index.
func (e *Engine) Party() int { return e.me }

// Counters returns a snapshot of this party's cost counters.
func (e *Engine) Counters() Counters { return e.ctr }

// Config returns the session configuration.
func (e *Engine) Config() Config { return e.cfg }

// fieldBytes is the wire size of one field element.
func (e *Engine) fieldBytes() int { return (e.cfg.P.BitLen() + 7) / 8 }

// nextRound advances the synchronous round counter.
func (e *Engine) nextRound() int {
	e.round++
	e.ctr.Rounds++
	e.obs.Add(obsv.OpSSRound, 1)
	return e.round
}

// ShareBatch deals the given secrets (only the dealer's slice is read)
// and returns each party's shares, one communication round for the whole
// batch. count tells non-dealers how many secrets to expect.
func (e *Engine) ShareBatch(dealer int, secrets []*big.Int, count int) ([]Share, error) {
	round := e.nextRound()
	if e.me == dealer {
		if len(secrets) != count {
			return nil, fmt.Errorf("ssmpc: dealer has %d secrets, count is %d", len(secrets), count)
		}
		// perParty[j][k] is party j's share of secret k.
		perParty := make([][]*big.Int, e.cfg.N)
		for j := range perParty {
			perParty[j] = make([]*big.Int, count)
		}
		for k, s := range secrets {
			shares, err := shamir.Split(s, e.cfg.Degree, e.cfg.N, e.cfg.P, e.rng)
			if err != nil {
				return nil, err
			}
			for j := range shares {
				perParty[j][k] = shares[j].Y
			}
		}
		for j := 0; j < e.cfg.N; j++ {
			if j == e.me {
				continue
			}
			if err := e.fab.Send(round, e.me, j, count*e.fieldBytes(), perParty[j]); err != nil {
				return nil, err
			}
		}
		return wrapAll(perParty[e.me]), nil
	}
	payload, err := e.recv(dealer, round)
	if err != nil {
		return nil, err
	}
	ys, ok := payload.([]*big.Int)
	if !ok || len(ys) != count {
		return nil, transport.EnsureAbort(
			fmt.Errorf("ssmpc: malformed share batch from dealer %d", dealer), dealer, "ssmpc")
	}
	if err := e.checkBatch(ys, dealer, "share"); err != nil {
		return nil, err
	}
	return wrapAll(ys), nil
}

// checkBatch is the receive-boundary element check: over a real network
// a peer can send anything, so every share must be present and reduced
// mod P before it enters any recombination. Failures surface as typed
// aborts naming the sender.
func (e *Engine) checkBatch(ys []*big.Int, from int, kind string) error {
	for _, y := range ys {
		if y == nil || y.Sign() < 0 || y.Cmp(e.cfg.P) >= 0 {
			return transport.EnsureAbort(
				fmt.Errorf("ssmpc: party %d sent an out-of-field %s element", from, kind), from, "ssmpc")
		}
	}
	return nil
}

// Share deals a single secret.
func (e *Engine) Share(dealer int, secret *big.Int) (Share, error) {
	var secrets []*big.Int
	if e.me == dealer {
		secrets = []*big.Int{secret}
	}
	out, err := e.ShareBatch(dealer, secrets, 1)
	if err != nil {
		return Share{}, err
	}
	return out[0], nil
}

// OpenBatch reveals the given shared values to every party in one round.
func (e *Engine) OpenBatch(shares []Share) ([]*big.Int, error) {
	round := e.nextRound()
	e.ctr.Opens += int64(len(shares))
	e.obs.Add(obsv.OpSSOpen, int64(len(shares)))
	mine := make([]*big.Int, len(shares))
	for i, s := range shares {
		mine[i] = s.y
	}
	// Openings are broadcasts of share vectors (the opened-histogram
	// rounds of the top-k framework ride on this): on real fabrics they
	// run as echo broadcasts so a party feeding different shares to
	// different peers — splitting the group over what a histogram
	// contains — is identified instead of silently skewing the
	// reconstruction. In-process runs skip the echo.
	all, err := transport.EchoBroadcastCtx(e.ctx, e.fab, e.me, round, len(shares)*e.fieldBytes(), mine)
	if err != nil {
		return nil, transport.AnnotatePhase(err, "ssmpc")
	}
	cols, err := e.columns(all, mine, len(shares), "open")
	if err != nil {
		return nil, err
	}
	out := make([]*big.Int, len(shares))
	if err := kernel.Map(e.ctx, e.cfg.Workers, len(shares), func(k int) error {
		acc := new(big.Int)
		for j := 0; j < e.cfg.N; j++ {
			acc.Add(acc, new(big.Int).Mul(e.lambda[j], cols[j][k]))
		}
		out[k] = acc.Mod(acc, e.cfg.P)
		return nil
	}); err != nil {
		return nil, transport.AnnotatePhase(err, "ssmpc")
	}
	return out, nil
}

// columns validates one gathered batch per party and returns it indexed
// by party, with this party's own slice in place — the layout the
// parallel Lagrange recombinations read.
func (e *Engine) columns(all []any, mine []*big.Int, k int, kind string) ([][]*big.Int, error) {
	cols := make([][]*big.Int, e.cfg.N)
	for j := 0; j < e.cfg.N; j++ {
		if j == e.me {
			cols[j] = mine
			continue
		}
		ys, ok := all[j].([]*big.Int)
		if !ok || len(ys) != k {
			return nil, transport.EnsureAbort(
				fmt.Errorf("ssmpc: malformed %s batch from party %d", kind, j), j, "ssmpc")
		}
		if err := e.checkBatch(ys, j, kind); err != nil {
			return nil, err
		}
		cols[j] = ys
	}
	return cols, nil
}

// Open reveals one shared value.
func (e *Engine) Open(s Share) (*big.Int, error) {
	out, err := e.OpenBatch([]Share{s})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Add returns a share of a+b (local).
func (e *Engine) Add(a, b Share) Share {
	y := new(big.Int).Add(a.y, b.y)
	return Share{y: y.Mod(y, e.cfg.P)}
}

// Sub returns a share of a−b (local).
func (e *Engine) Sub(a, b Share) Share {
	y := new(big.Int).Sub(a.y, b.y)
	return Share{y: y.Mod(y, e.cfg.P)}
}

// Scale returns a share of k·a (local).
func (e *Engine) Scale(a Share, k *big.Int) Share {
	y := new(big.Int).Mul(a.y, k)
	return Share{y: y.Mod(y, e.cfg.P)}
}

// AddConst returns a share of a+k (local).
func (e *Engine) AddConst(a Share, k *big.Int) Share {
	y := new(big.Int).Add(a.y, k)
	return Share{y: y.Mod(y, e.cfg.P)}
}

// ConstShare returns a degree-0 share of the public constant k (local).
func (e *Engine) ConstShare(k *big.Int) Share {
	return Share{y: new(big.Int).Mod(k, e.cfg.P)}
}

// MulBatch multiplies element-wise with one degree-reduction round
// (GRR98): each party reshares its degree-2d product share with a fresh
// degree-d polynomial, and the new share is the Lagrange combination of
// the received pieces.
func (e *Engine) MulBatch(as, bs []Share) ([]Share, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("ssmpc: MulBatch length mismatch %d vs %d", len(as), len(bs))
	}
	k := len(as)
	if k == 0 {
		return nil, nil
	}
	round := e.nextRound()
	e.ctr.Mults += int64(k)
	e.obs.Add(obsv.OpSSMul, int64(k))

	// perParty[j][i] is the piece for party j of my i-th product share.
	perParty := make([][]*big.Int, e.cfg.N)
	for j := range perParty {
		perParty[j] = make([]*big.Int, k)
	}
	for i := 0; i < k; i++ {
		h := new(big.Int).Mul(as[i].y, bs[i].y)
		h.Mod(h, e.cfg.P)
		pieces, err := shamir.Split(h, e.cfg.Degree, e.cfg.N, e.cfg.P, e.rng)
		if err != nil {
			return nil, err
		}
		for j := range pieces {
			perParty[j][i] = pieces[j].Y
		}
	}
	for j := 0; j < e.cfg.N; j++ {
		if j == e.me {
			continue
		}
		if err := e.fab.Send(round, e.me, j, k*e.fieldBytes(), perParty[j]); err != nil {
			return nil, err
		}
	}
	all, err := e.gather(round)
	if err != nil {
		return nil, err
	}
	cols, err := e.columns(all, perParty[e.me], k, "mul")
	if err != nil {
		return nil, err
	}
	out := make([]Share, k)
	if err := kernel.Map(e.ctx, e.cfg.Workers, k, func(i int) error {
		acc := new(big.Int)
		for j := 0; j < e.cfg.N; j++ {
			acc.Add(acc, new(big.Int).Mul(e.lambda[j], cols[j][i]))
		}
		out[i] = Share{y: acc.Mod(acc, e.cfg.P)}
		return nil
	}); err != nil {
		return nil, transport.AnnotatePhase(err, "ssmpc")
	}
	return out, nil
}

// Mul multiplies two shared values (one multiplication invocation).
func (e *Engine) Mul(a, b Share) (Share, error) {
	out, err := e.MulBatch([]Share{a}, []Share{b})
	if err != nil {
		return Share{}, err
	}
	return out[0], nil
}

func wrapAll(ys []*big.Int) []Share {
	out := make([]Share, len(ys))
	for i, y := range ys {
		out[i] = Share{y: y}
	}
	return out
}
