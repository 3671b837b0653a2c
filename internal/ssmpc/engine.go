// Package ssmpc is a synchronous n-party secret-sharing MPC engine over
// Shamir shares: the substrate of the paper's secret-sharing baseline
// (Section II). It provides linear operations locally, BGW/GRR98
// multiplication with degree reduction, products opened without one,
// batched openings, joint random elements and bits, and a statistically
// masked secure comparison in the style of the SS comparison primitives
// the paper cites ([5, 6]).
//
// Every party runs the same SPMD program against its own Engine; the
// engines communicate over a transport.Fabric and count multiplication
// invocations (degree reductions), openings and communication rounds —
// the quantities the paper's Section VI-B efficiency analysis is stated
// in.
//
// The comparison's masks. Mod2m opens y = x + r' + 2^m·r” for an
// l'-bit x. The low mask r' is m shared random bits, which the bitwise
// less-than needs one by one. The high mask r” is only ever added, so
// it is not drawn bit by bit, as in Catrina and de Hoogh's Mod2m: each
// party j deals a uniform integer u_j in [0, 2^w), w = κ + l' − m, and
// r” = Σ_j u_j. This is safe in the semi-honest model the engine
// assumes throughout, where a dealer of u_j follows the protocol as
// every dealer of a share or a product already does:
//
//   - Hiding. Write x + r' = 2^m·q + ρ. Since r' is uniform mod 2^m, ρ
//     is uniform and independent of x, and given ρ, q ∈ [0, 2^(l'−m)]
//     is fixed by x. What a coalition sees of y is then ρ and q + S + c,
//     where c is the sum of its own u_j and S the sum of the honest
//     ones, independent of everything else. S contains at least one
//     uniform u_j, so every value of it has probability at most 2^−w,
//     and shifting it by q rather than by another q' moves its
//     distribution by at most |q − q'|/2^w ≤ 2^(l'−m)/2^w = 2^−κ in
//     statistical distance: y is within 2^−κ of independent of x,
//     whatever the coalition.
//   - No wrap. y is at most 2^l' + 2^m + n·(2^w − 1)·2^m − 2, so the
//     opening is the integer y as long as p exceeds that maximum, n
//     included; checkWidth refuses a narrower field, naming n and the
//     most parties the prime carries, and CheckWidth lets a caller
//     refuse such a session before its first round. The
//     framework's field (core's ssFieldPrime, l + κ + 8 bits for l-bit
//     comparisons, where w = κ + 1) carries it for every n ≤ 64: the
//     bound is then n·2^(l+κ+1) + (3 − n)·2^l − 2 < 2^(l+κ+7), below
//     any prime of that width. A larger n is refused by checkWidth
//     unless the drawn prime happens to exceed the bound.
//
// The integers ride the first round of the RandomBits call that draws
// the bits, in the same frame, and no round is added.
//
// Products opened without a reduction. A product of two degree-d shares
// is a degree-2d share (a Wide), and n ≥ 2d + 1 parties hold enough
// points to interpolate it. Opening it as it is would show the whole
// product polynomial, whose coefficients 1..2d depend on the factors'
// polynomials and not on the product alone. So a Wide is opened only
// after a degree-2d sharing with uniform coefficients 1..2d is added to
// it, every party dealing a share of that sharing (Damgård and Nielsen,
// CRYPTO 2007): a zero-sharing where the product itself is wanted (the
// mask squares r² of RandomBits, the last layer of a sort), Mod2m's
// high mask r” where the product is masked anyway. The argument, for a
// coalition of at most d parties and one honest dealer h of the added
// sharing Z (its constant term z is 0, or u_h for r”):
//
//   - The coalition's d points of Z_h are uniform and independent of
//     z, as any d points of a degree-2d polynomial are.
//   - Given z and those d points, Z_h has d free coefficients left, and
//     they are uniform. The opened polynomial Y is fixed by its value
//     y = Y(0) and the coalition's own d points of it up to the same d
//     free coefficients, so Y is uniform among the polynomials that
//     agree with what the coalition already holds and with y: the
//     opening shows y and nothing else.
//   - r” at degree 2d. Its value is still Σ_j u_j, a sum holding the
//     uniform u_h, and its shares are independent of that value (the
//     first point), so the hiding argument above goes through
//     unchanged: y is within 2^−κ of independent of x. The degree costs
//     nothing: a dealer sends one element per party at either degree,
//     and r” is only ever added, never multiplied.
//
// The squares of RandomBits are opened this way, two rounds instead of
// three. A sort's compare-and-swap products feed the next layer's Mod2m
// opening unreduced, and their reduction rides in the first round of
// that layer's less-than, which does not read them (GTEOpen's pending);
// the last layer's products are opened with zero-sharings (OpenWide).
//
// Shares are field.Elem values (limbs in Montgomery form on the shared
// limb field, internal/field), so every local operation is
// allocation-free. A message is one integer run (wirecodec.Uints) at
// the prime's width: an element is written straight into it at Send
// (toWire) and read back with FromBytes at the receive check (fromWire),
// which is also the < p check, with no *big.Int in between.
package ssmpc

import (
	"context"
	"fmt"
	"io"
	"math/big"

	"groupranking/internal/field"
	"groupranking/internal/obsv"
	"groupranking/internal/shamir"
	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
)

// Config describes one MPC session.
type Config struct {
	// N is the number of parties; it must satisfy N ≥ 2·Degree+1 so
	// that a product's degree-2d shares can be reduced or opened — the
	// constraint that caps the baseline at (n−1)/2 colluders
	// (Section II).
	N int
	// Degree is the sharing polynomial degree d (max colluders).
	Degree int
	// P is the field prime, at most field.MaxBits wide. For
	// comparisons it must exceed the largest masked opening, which
	// grows with N (see the package doc; checkWidth).
	P *big.Int
}

// Kappa is the statistical hiding parameter of the comparison: the
// masks it opens hide a value statistically up to 2^−Kappa. Every
// caller uses this one value, and the session announcement pins it.
const Kappa = 40

func (c Config) validate() error {
	_, err := c.field()
	return err
}

// field checks the configuration and returns the field of c.P, which
// shamir builds (and tests for primality) once per prime per process.
func (c Config) field() (*shamir.Field, error) {
	if c.N < 1 {
		return nil, fmt.Errorf("ssmpc: need at least one party")
	}
	if c.Degree < 0 || c.N < 2*c.Degree+1 {
		return nil, fmt.Errorf("ssmpc: n=%d cannot support degree %d (need n ≥ 2d+1)", c.N, c.Degree)
	}
	f, err := shamir.NewField(c.P)
	if err != nil {
		return nil, fmt.Errorf("ssmpc: field modulus missing, composite or too wide: %w", err)
	}
	return f, nil
}

// Share is this party's share of a secret (abscissa = party index + 1).
type Share struct {
	y field.Elem
}

// Engine is one party's endpoint of the MPC session.
type Engine struct {
	cfg   Config
	me    int
	fab   transport.Net
	rng   io.Reader
	ctx   context.Context
	round int
	obs   *obsv.Party // counts the cost quantities of Section VI-B

	f      *shamir.Field
	sch    *shamir.Scheme // degree-d sharing at abscissae 1..N, with the Lagrange coefficients at 0
	wide   *shamir.Scheme // degree-2d sharing: masks and zero-sharings added to a Wide before it opens
	pieces []field.Elem   // one polynomial's N pieces, as deal writes them out
	one    Share
	// Public constants the comparison protocols scale by, converted
	// once: pow2[i] = 2^i and invPow2[i] = 2^−i for i < bitlen(P).
	pow2, invPow2 []field.Elem
}

// NewEngineCtx creates party me's endpoint. All parties must share the
// same Config and Fabric. Every receive the engine performs honours ctx,
// so a crashed or cancelled sibling turns into a prompt typed
// *AbortError instead of a hung protocol round.
func NewEngineCtx(ctx context.Context, cfg Config, me int, fab transport.Net, rng io.Reader) (*Engine, error) {
	f, err := cfg.field()
	if err != nil {
		return nil, err
	}
	if me < 0 || me >= cfg.N {
		return nil, fmt.Errorf("ssmpc: party index %d out of range", me)
	}
	if fab.N() != cfg.N {
		return nil, fmt.Errorf("ssmpc: fabric has %d endpoints, config has %d", fab.N(), cfg.N)
	}
	sch, err := shamir.NewScheme(f, cfg.Degree, cfg.N)
	if err != nil {
		return nil, fmt.Errorf("ssmpc: preparing the sharing scheme: %w", err)
	}
	wide, err := shamir.NewScheme(f, 2*cfg.Degree, cfg.N)
	if err != nil {
		return nil, fmt.Errorf("ssmpc: preparing the degree-2d sharing scheme: %w", err)
	}
	// Observability: the party handle rides in on the context; the net
	// wrapper charges this engine's sends to the party's current span.
	obs := obsv.PartyFrom(ctx)
	fab = obsv.ObservedNet(fab, obs)
	e := &Engine{cfg: cfg, me: me, fab: fab, rng: rng, ctx: ctx, obs: obs,
		f: f, sch: sch, wide: wide, pieces: make([]field.Elem, cfg.N), one: Share{y: f.One()}}

	width := cfg.P.BitLen()
	e.pow2 = make([]field.Elem, width)
	e.invPow2 = make([]field.Elem, width)
	var half field.Elem
	f.Add(&half, &e.one.y, &e.one.y)
	f.Inv(&half, &half)
	e.pow2[0], e.invPow2[0] = e.one.y, e.one.y
	for i := 1; i < width; i++ {
		f.Add(&e.pow2[i], &e.pow2[i-1], &e.pow2[i-1])
		f.Mul(&e.invPow2[i], &e.invPow2[i-1], &half)
	}
	return e, nil
}

// recv is the engine's context-aware, round-checked receive.
func (e *Engine) recv(from, round int) (any, error) {
	p, err := e.fab.RecvCtx(e.ctx, e.me, from, round)
	return p, transport.AnnotatePhase(err, "ssmpc")
}

// gather is the engine's context-aware, round-checked GatherAll.
func (e *Engine) gather(round int) ([]any, error) {
	all, err := transport.GatherAll(e.ctx, e.fab, e.me, round)
	return all, transport.AnnotatePhase(err, "ssmpc")
}

// Party returns this engine's party index.
func (e *Engine) Party() int { return e.me }

// fieldBytes is the wire size of one field element, its run's width.
func (e *Engine) fieldBytes() int { return wirecodec.WidthOf(e.cfg.P) }

// nextRound advances the synchronous round counter.
func (e *Engine) nextRound() int {
	e.round++
	e.obs.Add(obsv.OpSSRound, 1)
	return e.round
}

// toWire writes one message's elements into a run at the prime's
// width: one allocation for the batch.
func (e *Engine) toWire(xs []field.Elem) wirecodec.Uints {
	w := e.fieldBytes()
	u := wirecodec.Uints{Width: w, Data: make([]byte, w*len(xs))}
	for i := range xs {
		e.f.FillBytes(u.At(i), &xs[i])
	}
	return u
}

// fromWire is the receive-boundary check and conversion in one: over a
// real network a peer can send anything, so a payload must be a run of
// exactly len(dst) elements at the prime's width, each reduced mod P
// (FromBytes refuses the rest), before any of it enters a recombination.
// There is no other way for a received value to become an Elem.
// Failures surface as typed aborts naming the sender.
func (e *Engine) fromWire(dst []field.Elem, payload any, from int, kind string) error {
	w := e.fieldBytes()
	u, ok := payload.(wirecodec.Uints)
	if !ok || u.Width != w || len(u.Data) != len(dst)*w {
		return transport.EnsureAbort(
			fmt.Errorf("ssmpc: malformed %s batch from party %d", kind, from), from, "ssmpc")
	}
	var buf [32]byte
	for i := range dst {
		copy(buf[32-w:], u.At(i))
		if dst[i], ok = e.f.FromBytes(&buf); !ok {
			return transport.EnsureAbort(
				fmt.Errorf("ssmpc: party %d sent an out-of-field %s element", from, kind), from, "ssmpc")
		}
	}
	return nil
}

// deal splits each secret with sch and returns the pieces as one slab
// indexed [party·k + secret], k = len(secrets): party j's message is
// the contiguous run j·k..j·k+k.
func (e *Engine) deal(sch *shamir.Scheme, secrets []field.Elem) ([]field.Elem, error) {
	slab := make([]field.Elem, e.cfg.N*len(secrets))
	for i := range secrets {
		if err := e.split(slab, len(secrets), i, sch, &secrets[i]); err != nil {
			return nil, err
		}
	}
	return slab, nil
}

// split shares one secret with sch into column i of a slab of k columns.
func (e *Engine) split(slab []field.Elem, k, i int, sch *shamir.Scheme, secret *field.Elem) error {
	if err := sch.Split(e.pieces, secret, e.rng); err != nil {
		return err
	}
	for j := range e.pieces {
		slab[j*k+i] = e.pieces[j]
	}
	return nil
}

// sendPieces sends every other party its run of a dealt slab.
func (e *Engine) sendPieces(round int, slab []field.Elem, k int) error {
	for j := 0; j < e.cfg.N; j++ {
		if j == e.me {
			continue
		}
		if err := e.fab.Send(round, e.me, j, k*e.fieldBytes(), e.toWire(slab[j*k:(j+1)*k])); err != nil {
			return err
		}
	}
	return nil
}

// columns validates one gathered batch per party and returns them as
// one slab indexed [party·k + element], with this party's own batch in
// place — the layout the Lagrange recombinations read.
func (e *Engine) columns(all []any, mine []field.Elem, kind string) ([]field.Elem, error) {
	k := len(mine)
	cols := make([]field.Elem, e.cfg.N*k)
	for j := 0; j < e.cfg.N; j++ {
		col := cols[j*k : (j+1)*k]
		if j == e.me {
			copy(col, mine)
			continue
		}
		if err := e.fromWire(col, all[j], j, kind); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// recombine returns Σ_j λ_j·cols[j·k+i] for each i: the value at zero of
// the polynomial through every party's i-th element. A plain loop: at a
// few tens of nanoseconds per element a goroutine fan-out costs more
// than the work.
func (e *Engine) recombine(cols []field.Elem, k int) []field.Elem {
	out := make([]field.Elem, k)
	var t field.Elem
	for j, lambda := range e.sch.Lambda {
		col := cols[j*k : (j+1)*k]
		for i := range col {
			e.f.Mul(&t, &lambda, &col[i])
			e.f.Add(&out[i], &out[i], &t)
		}
	}
	return out
}

// ShareBatch deals the given secrets (only the dealer's slice is read)
// and returns each party's shares, one communication round for the whole
// batch. count tells non-dealers how many secrets to expect.
func (e *Engine) ShareBatch(dealer int, secrets []*big.Int, count int) ([]Share, error) {
	round := e.nextRound()
	if count < 0 {
		return nil, fmt.Errorf("ssmpc: negative share count %d", count)
	}
	mine := make([]field.Elem, count)
	if e.me == dealer {
		if len(secrets) != count {
			return nil, fmt.Errorf("ssmpc: dealer has %d secrets, count is %d", len(secrets), count)
		}
		for i, s := range secrets {
			mine[i] = e.f.Reduce(s)
		}
		slab, err := e.deal(e.sch, mine)
		if err != nil {
			return nil, err
		}
		if err := e.sendPieces(round, slab, count); err != nil {
			return nil, err
		}
		copy(mine, slab[e.me*count:])
		return wrapAll(mine), nil
	}
	payload, err := e.recv(dealer, round)
	if err != nil {
		return nil, err
	}
	if err := e.fromWire(mine, payload, dealer, "share"); err != nil {
		return nil, err
	}
	return wrapAll(mine), nil
}

// OpenBatch reveals the given shared values to every party in one round.
func (e *Engine) OpenBatch(shares []Share) ([]*big.Int, error) {
	return e.OpenWide(shares, nil, nil)
}

// OpenWide reveals shares and, after them, the values of ws in one
// round. Each ws[i] opens from its degree-2d shares with zeros[i] added
// first, a degree-2d sharing of zero that RandomBits dealt, so the
// opening shows the value alone (see the package doc).
func (e *Engine) OpenWide(shares []Share, ws, zeros []Wide) ([]*big.Int, error) {
	masked, err := e.randomise(ws, zeros)
	if err != nil {
		return nil, err
	}
	mine := make([]field.Elem, 0, len(shares)+len(ws))
	for _, s := range shares {
		mine = append(mine, s.y)
	}
	opened, err := e.open(append(mine, masked...))
	if err != nil {
		return nil, err
	}
	out := make([]*big.Int, len(opened))
	for i := range opened {
		out[i] = e.f.ToBig(&opened[i])
	}
	return out, nil
}

// randomise returns this party's shares of ws[i] + zeros[i], the shares
// a product opening sends.
func (e *Engine) randomise(ws, zeros []Wide) ([]field.Elem, error) {
	if len(zeros) != len(ws) {
		return nil, fmt.Errorf("ssmpc: %d products to open need as many zero-sharings, got %d", len(ws), len(zeros))
	}
	out := make([]field.Elem, len(ws))
	for i := range ws {
		e.f.Add(&out[i], &ws[i].y, &zeros[i].y)
	}
	return out, nil
}

// open reveals the values of the given shares, of degree at most 2d,
// in one round.
func (e *Engine) open(mine []field.Elem) ([]field.Elem, error) {
	round := e.nextRound()
	e.obs.Add(obsv.OpSSOpen, int64(len(mine)))
	// Openings are broadcasts of share vectors (the opened-histogram
	// rounds of the top-k framework ride on this): on real fabrics they
	// run as echo broadcasts so a party feeding different shares to
	// different peers — splitting the group over what a histogram
	// contains — is identified instead of silently skewing the
	// reconstruction. In-process runs skip the echo.
	all, err := transport.EchoBroadcastCtx(e.ctx, e.fab, e.me, round, len(mine)*e.fieldBytes(), e.toWire(mine))
	if err != nil {
		return nil, transport.AnnotatePhase(err, "ssmpc")
	}
	cols, err := e.columns(all, mine, "open")
	if err != nil {
		return nil, err
	}
	return e.recombine(cols, len(mine)), nil
}

// Add returns a share of a+b (local).
func (e *Engine) Add(a, b Share) Share {
	e.f.Add(&a.y, &a.y, &b.y)
	return a
}

// Sub returns a share of a−b (local).
func (e *Engine) Sub(a, b Share) Share {
	e.f.Sub(&a.y, &a.y, &b.y)
	return a
}

// scale returns a share of k·a for a constant k in the field (local).
func (e *Engine) scale(a Share, k *field.Elem) Share {
	e.f.Mul(&a.y, &a.y, k)
	return a
}

// ConstShare returns a degree-0 share of the public constant k (local).
func (e *Engine) ConstShare(k *big.Int) Share {
	return Share{y: e.f.Reduce(k)}
}

// Wide is this party's share of a value at degree 2d: the local product
// of two shares, a mask dealt at degree 2d, or a sum of such and of
// shares. It takes sums, but no product and no plain opening: it leaves
// the party only through an opening that first adds a degree-2d mask
// (OpenWide, GTEOpen) or through a degree reduction (GTEOpen's pending).
type Wide struct {
	y field.Elem
}

// Widen returns a as a degree-2d share (local).
func (e *Engine) Widen(a Share) Wide { return Wide(a) }

// AddWide returns a share of a+b at degree 2d (local).
func (e *Engine) AddWide(a, b Wide) Wide {
	e.f.Add(&a.y, &a.y, &b.y)
	return a
}

// SubWide returns a share of a−b at degree 2d (local).
func (e *Engine) SubWide(a, b Wide) Wide {
	e.f.Sub(&a.y, &a.y, &b.y)
	return a
}

// Products returns the element-wise products at degree 2d (local): no
// round, and no multiplication is charged until a reduction takes them.
func (e *Engine) Products(as, bs []Share) []Wide {
	out := make([]Wide, len(as))
	for i := range out {
		e.f.Mul(&out[i].y, &as[i].y, &bs[i].y)
	}
	return out
}

// MulBatch multiplies element-wise with one degree-reduction round.
func (e *Engine) MulBatch(as, bs []Share) ([]Share, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("ssmpc: MulBatch length mismatch %d vs %d", len(as), len(bs))
	}
	prods, _, err := e.reduce(e.Products(as, bs), nil)
	return prods, err
}

// reduce brings the degree-2d shares of prods and then of pending to
// degree d in one round (GRR98): each party reshares its shares with
// fresh degree-d polynomials, and the new share is the Lagrange
// combination of the received pieces. Every reduced value is charged
// as one multiplication; a batch of none costs no round.
func (e *Engine) reduce(prods, pending []Wide) (products, reduced []Share, err error) {
	k := len(prods) + len(pending)
	if k == 0 {
		return nil, nil, nil
	}
	round := e.nextRound()
	e.obs.Add(obsv.OpSSMul, int64(k))
	mine := make([]field.Elem, 0, k)
	for _, w := range prods {
		mine = append(mine, w.y)
	}
	for _, w := range pending {
		mine = append(mine, w.y)
	}
	slab, err := e.deal(e.sch, mine)
	if err != nil {
		return nil, nil, err
	}
	if err := e.sendPieces(round, slab, k); err != nil {
		return nil, nil, err
	}
	all, err := e.gather(round)
	if err != nil {
		return nil, nil, err
	}
	cols, err := e.columns(all, slab[e.me*k:(e.me+1)*k], "mul")
	if err != nil {
		return nil, nil, err
	}
	out := wrapAll(e.recombine(cols, k))
	return out[:len(prods)], out[len(prods):], nil
}

func wrapAll(ys []field.Elem) []Share {
	out := make([]Share, len(ys))
	for i, y := range ys {
		out[i] = Share{y: y}
	}
	return out
}

func wrapWide(ys []field.Elem) []Wide {
	out := make([]Wide, len(ys))
	for i, y := range ys {
		out[i] = Wide{y: y}
	}
	return out
}
