package main

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"groupranking/internal/dotprod"
	"groupranking/internal/elgamal"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/journal"
	"groupranking/internal/kernel"
	"groupranking/internal/ssmpc"
	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
	"groupranking/internal/workload"
	"groupranking/internal/zkp"
)

// The calibration pass times each layer's exported functions on this
// host, in this run, so that count × unit cost can be set against the
// measured CPU time. Every figure is the median of calibrationBatches
// batches of a fixed number of calls.
const calibrationBatches = 5

// perCall runs calibrationBatches batches of count calls to f and
// returns the median time of one call.
func perCall(count int, f func()) time.Duration {
	batches := make([]float64, calibrationBatches)
	for b := range batches {
		start := time.Now()
		for i := 0; i < count; i++ {
			f()
		}
		batches[b] = float64(time.Since(start)) / float64(count)
	}
	return time.Duration(median(batches))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func ns(d time.Duration) float64 { return float64(d) }

// must turns a calibration step's error into a panic that calibrate
// recovers: the steps run on fixed, valid inputs, so an error is a bug
// in the benchmark, but one worth reporting with its message.
func must[T any](v T, err error) T {
	if err != nil {
		panic(calibrationError{err})
	}
	return v
}

type calibrationError struct{ err error }

// calibrate measures every unit cost for a workload: the group as
// group.ByName resolves groupName, n participants. Files go under dir.
func calibrate(groupName string, n int, dir string) (m metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(calibrationError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("calibration: %w", ce.err)
		}
	}()
	m = metrics{}
	rng := fixedbig.NewDRBG("bench/calibrate")
	g := must(group.ByName(groupName))
	calibrateHost(m, rng)
	calibrateGroup(m, g, rng)
	calibrateElGamal(m, g, rng)
	calibrateZKP(m, g, n, rng)
	bob, ct := calibrateDotprod(m, g, rng)
	calibrateCodec(m, bob, ct)
	calibrateSSMPC(m)
	calibrateKernel(m)
	calibrateTransport(m)
	calibrateJournal(m, dir)
	return m, nil
}

func calibrateHost(m metrics, rng io.Reader) {
	m["host.nproc"] = float64(runtime.NumCPU())
	m["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	// The limb fast path is the cross-host yardstick, and the generic
	// path under the same name shows what callers by name pay for it.
	fast := expCost(group.Secp160r1(), rng)
	byName := expCost(must(group.ByName("secp160r1")), rng)
	m["host.ref_exp_us"] = us(fast)
	m["group.fastpath_gap"] = float64(byName) / float64(fast)
}

// expCost times one variable-base exponentiation.
func expCost(g group.Group, rng io.Reader) time.Duration {
	base := group.ExpGen(g, must(g.RandomScalar(rng)))
	k := must(g.RandomScalar(rng))
	return perCall(20, func() { g.Exp(base, k) })
}

func calibrateGroup(m metrics, g group.Group, rng io.Reader) {
	a := group.ExpGen(g, must(g.RandomScalar(rng)))
	b := group.ExpGen(g, must(g.RandomScalar(rng)))
	k := must(g.RandomScalar(rng))
	m["group.exp_us"] = us(expCost(g, rng))
	m["group.expgen_us"] = us(perCall(50, func() { group.ExpGen(g, k) }))
	m["group.op_us"] = us(perCall(200, func() { g.Op(a, b) }))
	m["group.exp_allocs"] = testing.AllocsPerRun(5, func() { g.Exp(a, k) })
}

func calibrateElGamal(m metrics, g group.Group, rng io.Reader) {
	plain := elgamal.NewScheme(g)
	key := must(plain.GenerateKey(rng))
	// The sorter encrypts under one joint key through a fixed-base table.
	scheme := plain.WithPrecomp(key.Y)
	one := big.NewInt(1)
	ct := must(scheme.EncryptExp(key.Y, one, rng))
	m["elgamal.encrypt_us"] = us(perCall(20, func() { must(scheme.EncryptExp(key.Y, one, rng)) }))
	m["elgamal.rerandomize_us"] = us(perCall(20, func() { must(scheme.ReRandomize(key.Y, ct, rng)) }))
	m["elgamal.partial_decrypt_us"] = us(perCall(20, func() { scheme.PartialDecrypt(key.X, ct) }))
	m["elgamal.exponent_blind_us"] = us(perCall(20, func() { must(scheme.ExponentBlind(ct, rng)) }))
	buf := make([]byte, 0, scheme.EncodedLen())
	m["elgamal.append_encode_ns"] = ns(perCall(200, func() { scheme.AppendEncode(buf[:0], ct) }))
}

func calibrateZKP(m metrics, g group.Group, n int, rng io.Reader) {
	x := must(g.RandomScalar(rng))
	y := group.ExpGen(g, x)
	t := must(zkp.Prove(g, x, n-1, rng))
	m["zkp.prove_us"] = us(perCall(20, func() { must(zkp.Prove(g, x, n-1, rng)) }))
	m["zkp.verify_us"] = us(perCall(20, func() { zkp.VerifyTranscript(g, y, t) }))
	h := group.ExpGen(g, must(g.RandomScalar(rng)))
	st := zkp.EqualityStatement{Y: y, H: h, Z: g.Exp(h, x)}
	et := must(zkp.ProveEquality(g, x, st, rng))
	m["zkp.equality_prove_us"] = us(perCall(20, func() { must(zkp.ProveEquality(g, x, st, rng)) }))
	m["zkp.equality_verify_us"] = us(perCall(20, func() { zkp.VerifyEquality(g, st, et) }))
}

// calibrateDotprod times one full Bob/Alice exchange at the workloads'
// dimensions and returns the two registered message types the codec
// figures are taken on.
func calibrateDotprod(m metrics, g group.Group, rng io.Reader) (*dotprod.BobMessage, elgamal.Ciphertext) {
	q := must(workload.Uniform(attrM, attrT))
	bits := workload.BetaBits(attrM, bitsD1, bitsD2, bitsH) + 33 // core's phase-1 field width
	params := dotprod.DefaultSRange(must(fixedbig.Prime(rng, bits)))
	w := must(q.ParticipantVector(must(workload.RandomProfile(q, bitsD1, rng))))
	v := must(q.InitiatorVector(must(workload.RandomCriterion(q, bitsD1, bitsD2, rng)), big.NewInt(1<<(bitsH-1))))
	alpha := big.NewInt(17)
	m["dotprod.exchange_us"] = us(perCall(20, func() { must(dotprod.Compute(params, w, v, alpha, rng)) }))
	_, msg, err := dotprod.NewBob(params, w, rng)
	must(msg, err)
	scheme := elgamal.NewScheme(g)
	key := must(scheme.GenerateKey(rng))
	return msg, must(scheme.EncryptExp(key.Y, big.NewInt(1), rng))
}

func calibrateCodec(m metrics, msg *dotprod.BobMessage, ct elgamal.Ciphertext) {
	values := []any{msg, ct}
	var frames [][]byte
	kib := 0.0
	for _, v := range values {
		frame := must(wirecodec.Marshal(v))
		frames = append(frames, frame)
		kib += float64(len(frame)) / 1024
	}
	enc := perCall(200, func() {
		for _, v := range values {
			must(wirecodec.Marshal(v))
		}
	})
	dec := perCall(200, func() {
		for _, f := range frames {
			must(wirecodec.Unmarshal(f))
		}
	})
	m["wirecodec.encode_ns_per_kb"] = ns(enc) / kib
	m["wirecodec.decode_ns_per_kb"] = ns(dec) / kib
	m["wirecodec.encode_allocs"] = testing.AllocsPerRun(20, func() {
		for _, v := range values {
			must(wirecodec.Marshal(v))
		}
	})
}

// calibrateSSMPC times one batched multiplication plus one batched
// opening among five parties over the in-memory fabric.
func calibrateSSMPC(m metrics) {
	const parties, batch, rounds = 5, 16, 20
	bits := workload.BetaBits(attrM, bitsD1, bitsD2, bitsH) + 40 + 8 // core's SS field width
	cfg := ssmpc.Config{N: parties, Degree: (parties - 1) / 2, P: must(fixedbig.Prime(fixedbig.NewDRBG("bench/ss-field"), bits))}
	d := perCall(1, func() {
		_, _, err := ssmpc.RunProgram(cfg, "bench/calibrate", nil, func(e *ssmpc.Engine) (struct{}, error) {
			secrets := make([]*big.Int, batch)
			for i := range secrets {
				secrets[i] = big.NewInt(int64(i + 2))
			}
			shares, err := e.ShareBatch(0, secrets, batch)
			for r := 0; r < rounds && err == nil; r++ {
				var prod []ssmpc.Share
				if prod, err = e.MulBatch(shares, shares); err == nil {
					_, err = e.OpenBatch(prod)
				}
			}
			return struct{}{}, err
		})
		must(0, err)
	})
	m["ssmpc.mul_open_us"] = us(d) / rounds
}

func calibrateKernel(m metrics) {
	const items = 1 << 14
	d := perCall(20, func() {
		must(0, kernel.Map(context.Background(), 0, items, func(int) error { return nil }))
	})
	m["kernel.map_overhead_ns"] = ns(d) / items
}

// pingPong times one 1 KiB round trip between endpoints 0 and 1 of a
// two-party fabric.
func pingPong(a, b transport.Net) time.Duration {
	const trips = 200
	ctx := context.Background()
	payload := make([]byte, 1024)
	echoed := make(chan error, 1)
	go func() {
		for i := 0; i < calibrationBatches*trips; i++ {
			if _, err := b.RecvCtx(ctx, 1, 0, -1); err != nil {
				echoed <- err
				return
			}
			if err := b.Send(0, 1, 0, len(payload), payload); err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	d := perCall(trips, func() {
		must(0, a.Send(0, 0, 1, len(payload), payload))
		must(a.RecvCtx(ctx, 0, 1, -1))
	})
	must(0, <-echoed)
	return d
}

// formMesh has every party of an n-party mesh run form(addrs, me) at
// once and returns what each made.
func formMesh[T any](n int, form func(addrs []string, me int) (T, error)) []T {
	addrs := must(transport.FreeLoopbackAddrs(n))
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for me := 0; me < n; me++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[me], errs[me] = form(addrs, me)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		must(0, err)
	}
	return out
}

func calibrateTransport(m metrics) {
	const timeout = 30 * time.Second
	tcp := func(addrs []string, me int) (*transport.TCPFabric, error) {
		return transport.NewTCPFabric(addrs, me, timeout)
	}
	m["transport.mesh_setup_ms"] = ms(perCall(1, func() {
		for _, f := range formMesh(6, tcp) {
			f.Close()
		}
	}))

	mem := must(transport.New(2))
	m["transport.fabric_rtt_us"] = us(pingPong(mem, mem))

	pair := formMesh(2, tcp)
	m["transport.tcp_rtt_us"] = us(pingPong(pair[0], pair[1]))
	for _, f := range pair {
		f.Close()
	}

	muxes := formMesh(2, func(addrs []string, me int) (*transport.SessionMux, error) {
		return transport.NewSessionMux(addrs, me, timeout, transport.MuxOptions{})
	})
	a, b := must(muxes[0].Open("bench", 0)), must(muxes[1].Open("bench", 0))
	m["transport.mux_rtt_us"] = us(pingPong(a, b))
	for _, mux := range muxes {
		mux.Close()
	}
}

func calibrateJournal(m metrics, dir string) {
	const records = 1000
	payload := make([]byte, 1024)
	seq := uint64(0)
	appendTo := func(j *journal.Journal) {
		seq++
		must(0, j.LogSend(1, 0, len(payload), seq, payload))
	}
	path := filepath.Join(dir, "calibrate.journal")
	defer os.Remove(path)
	j := must(journal.Open(path))
	m["journal.append_us"] = us(perCall(records/calibrationBatches, func() { appendTo(j) }))
	must(0, j.Close())
	m["journal.open_replay_ms"] = ms(perCall(1, func() {
		must(0, must(journal.Open(path)).Close())
	}))

	// A Sync with nothing new to write costs nothing, so each timed one
	// follows an append, whose own cost is taken off again.
	syncPath := filepath.Join(dir, "calibrate-sync.journal")
	defer os.Remove(syncPath)
	j = must(journal.Open(syncPath))
	withSync := perCall(10, func() {
		appendTo(j)
		must(0, j.Sync())
	})
	must(0, j.Close())
	m["journal.fsync_us"] = max(0, us(withSync)-m["journal.append_us"])
}
