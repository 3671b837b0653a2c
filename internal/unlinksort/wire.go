package unlinksort

import (
	"fmt"

	"groupranking/internal/elgamal"
	"groupranking/internal/wirecodec"
	"groupranking/internal/zkp"
)

// Hand-rolled wire codecs for every round payload, registered from
// init. A payload that carries ciphertexts opens with the one byte
// naming their group (wirecodec.ElementWriter), then count-prefixed
// concatenations of the elgamal/zkp wire forms, so its length is fixed
// by its counts and the group. Decoding runs the named group's Decode
// (and reads proof scalars at its order's width, below the order); that
// it is the session's group is still checked by the receive paths via
// group.Validate. The key proof's challenge vectors and responses are
// bare integer runs (wirecodec.Uints), checked by proofPhase.

func appendCts(dst []byte, w *wirecodec.ElementWriter, cts []elgamal.Ciphertext) ([]byte, error) {
	dst = wirecodec.AppendU32(dst, uint32(len(cts)))
	var err error
	for _, ct := range cts {
		if dst, err = elgamal.AppendCiphertext(dst, w, ct); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendCtSet is the payload of a message that is one ciphertext list.
func appendCtSet(dst []byte, cts []elgamal.Ciphertext) ([]byte, error) {
	dst, w := wirecodec.BeginElements(dst)
	return appendCts(dst, &w, cts)
}

// readCtSet parses what appendCtSet wrote.
func readCtSet(r *wirecodec.Reader) []elgamal.Ciphertext {
	r.Group()
	return readCts(r)
}

func readCts(r *wirecodec.Reader) []elgamal.Ciphertext {
	n := r.Count(2 * r.ElementLen())
	out := make([]elgamal.Ciphertext, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, elgamal.ReadCiphertext(r))
		if r.Err() != nil {
			return nil
		}
	}
	return out
}

func appendCtMatrix(dst []byte, w *wirecodec.ElementWriter, m [][]elgamal.Ciphertext) ([]byte, error) {
	dst = wirecodec.AppendU32(dst, uint32(len(m)))
	var err error
	for _, row := range m {
		if dst, err = appendCts(dst, w, row); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func readCtMatrix(r *wirecodec.Reader) [][]elgamal.Ciphertext {
	n := r.Count(4) // each row carries at least its u32 count
	out := make([][]elgamal.Ciphertext, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, readCts(r))
		if r.Err() != nil {
			return nil
		}
	}
	return out
}

func appendProofMatrix(dst []byte, w *wirecodec.ElementWriter, m [][]zkp.EqualityTranscript) ([]byte, error) {
	dst = wirecodec.AppendU32(dst, uint32(len(m)))
	var err error
	for _, row := range m {
		dst = wirecodec.AppendU32(dst, uint32(len(row)))
		for _, t := range row {
			if dst, err = zkp.AppendTranscript(dst, w, t); err != nil {
				return nil, err
			}
		}
	}
	return dst, nil
}

func readProofMatrix(r *wirecodec.Reader) [][]zkp.EqualityTranscript {
	n := r.Count(4)
	out := make([][]zkp.EqualityTranscript, 0, n)
	for i := 0; i < n; i++ {
		k := r.Count(2*r.ElementLen() + 6) // two elements + a scalar run's header
		row := make([]zkp.EqualityTranscript, 0, k)
		for j := 0; j < k; j++ {
			row = append(row, zkp.ReadTranscript(r))
			if r.Err() != nil {
				return nil
			}
		}
		out = append(out, row)
	}
	return out
}

func appendHashes(dst []byte, hs [][]byte) []byte {
	dst = wirecodec.AppendU32(dst, uint32(len(hs)))
	for _, h := range hs {
		dst = wirecodec.AppendBytes(dst, h)
	}
	return dst
}

func readHashes(r *wirecodec.Reader) [][]byte {
	n := r.Count(4)
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.Bytes())
		if r.Err() != nil {
			return nil
		}
	}
	return out
}

func finishMsg(r *wirecodec.Reader, kind string) error {
	if err := r.Finish(); err != nil {
		return fmt.Errorf("unlinksort: %s: %w", kind, err)
	}
	return nil
}

func init() {
	base := wirecodec.IDRangeProtocol + 2 // 32/33 are dotprod's

	wirecodec.Register(base, "unlinksort bits", []any{bitsMsg{}},
		func(dst []byte, v any) ([]byte, error) { return appendCtSet(dst, v.(bitsMsg).Cts) },
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			m := bitsMsg{Cts: readCtSet(r)}
			return m, finishMsg(r, "bits message")
		})

	wirecodec.Register(base+1, "unlinksort tau set", []any{tauSetMsg{}},
		func(dst []byte, v any) ([]byte, error) { return appendCtSet(dst, v.(tauSetMsg).Set) },
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			m := tauSetMsg{Set: readCtSet(r)}
			return m, finishMsg(r, "tau set")
		})

	wirecodec.Register(base+2, "unlinksort vector", []any{vectorMsg{}},
		func(dst []byte, v any) ([]byte, error) {
			m := v.(vectorMsg)
			dst, w := wirecodec.BeginElements(dst)
			var err error
			if dst, err = appendCtMatrix(dst, &w, m.V); err != nil {
				return nil, err
			}
			if dst, err = appendCtMatrix(dst, &w, m.Input); err != nil {
				return nil, err
			}
			if dst, err = appendCtMatrix(dst, &w, m.Stripped); err != nil {
				return nil, err
			}
			return appendProofMatrix(dst, &w, m.Proofs)
		},
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			r.Group()
			m := vectorMsg{
				V:        readCtMatrix(r),
				Input:    readCtMatrix(r),
				Stripped: readCtMatrix(r),
				Proofs:   readProofMatrix(r),
			}
			return m, finishMsg(r, "vector message")
		})

	wirecodec.Register(base+3, "unlinksort anchor", []any{anchorMsg{}},
		func(dst []byte, v any) ([]byte, error) {
			return wirecodec.AppendBytes(dst, v.(anchorMsg).Hash), nil
		},
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			m := anchorMsg{Hash: r.Bytes()}
			return m, finishMsg(r, "anchor")
		})

	wirecodec.Register(base+4, "unlinksort commitment", []any{commitMsg{}},
		func(dst []byte, v any) ([]byte, error) {
			return appendHashes(dst, v.(commitMsg).Hashes), nil
		},
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			m := commitMsg{Hashes: readHashes(r)}
			return m, finishMsg(r, "commitment")
		})

	wirecodec.Register(base+5, "unlinksort final set", []any{finalMsg{}},
		func(dst []byte, v any) ([]byte, error) { return appendCtSet(dst, v.(finalMsg).Set) },
		func(data []byte) (any, error) {
			r := wirecodec.NewReader(data)
			m := finalMsg{Set: readCtSet(r)}
			return m, finishMsg(r, "final set")
		})
}
