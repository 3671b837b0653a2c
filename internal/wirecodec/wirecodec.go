// Package wirecodec is the framework's wire format, and its only one:
// hand-rolled fixed-width binary codecs for every message that crosses
// a transport or journal boundary. The codecs write length-prefixed
// versioned frames with deterministic layouts, so the same value always
// produces the same bytes — which is what lets the transport digest
// layer hash the frame itself.
//
// Frame layout (all integers big-endian):
//
//	offset 0: magic 'G','W'         (2 bytes)
//	offset 2: codec version         (1 byte, currently 4)
//	offset 3: type ID               (u16, registry key)
//	offset 5: payload length        (u32, ≤ MaxPayload)
//	offset 9: payload               (length bytes, codec-specific)
//
// The version byte is a transport-level tripwire; the authoritative
// compatibility check is the codec-version field pinned during session
// establishment, which turns a mismatch into a typed session abort
// naming the parameter instead of a mid-protocol decode error.
//
// Packages register their message codecs from init via Register;
// registration is not safe for concurrent use and must finish before
// any encode/decode traffic. A type without a codec does not cross a
// process boundary: encoding it fails with ErrUnregisteredType at the
// sender, and a frame carrying an unassigned type ID (including 1, the
// gob-fallback frame version 1 of this format had) is refused with
// UnknownTypeError at the receiver.
package wirecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sync"

	"groupranking/internal/group"
)

const (
	// Version is the wire-format version this build speaks. Peers pin
	// it during session establishment; frames carrying any other value
	// are rejected at the boundary. Version 2 dropped the gob-fallback
	// frame (type ID 1) and gave the service control messages codecs;
	// version 3 carries every group element as its group's fixed-width
	// canonical bytes under one group byte per payload (ElementWriter);
	// version 4 carries every integer as fixed-width bytes of its
	// modulus (Uints) and retires the signed big-integer frames.
	Version = 4

	// headerLen is the fixed frame header size.
	headerLen = 9

	// MaxPayload bounds a single frame's payload (64 MiB). The largest
	// legitimate message — a permuted ciphertext matrix with proofs —
	// is well under 1 MiB at production parameters.
	MaxPayload = 1 << 26
)

// Reserved type IDs. Protocol packages allocate from the documented
// ranges below; collisions panic at init.
const (
	idRetired     uint16 = 1 // version 1's gob-fallback frame; see retired
	idNil         uint16 = 2
	IDElement     uint16 = 3
	idRetiredInt  uint16 = 4 // up to version 3, one signed *big.Int; see retired
	idRetiredInts uint16 = 5 // up to version 3, a []*big.Int; see retired
	idInt         uint16 = 6
	idString      uint16 = 7
	idBytes       uint16 = 8
	idUints       uint16 = 9

	// IDRangeCrypto is the base ID for crypto-layer payloads
	// (elgamal, zkp): 16–31.
	IDRangeCrypto uint16 = 16
	// IDRangeProtocol is the base ID for protocol messages
	// (unlinksort, dotprod, ssmpc): 32–63.
	IDRangeProtocol uint16 = 32
	// IDRangeCore is the base ID for session-layer messages: 64–79.
	IDRangeCore uint16 = 64
	// IDRangeTransport is the base ID for transport envelopes and
	// control frames: 80–95.
	IDRangeTransport uint16 = 80
	// IDRangeService is the base ID for the rankd daemons' control-plane
	// messages: 96–111.
	IDRangeService uint16 = 96
	// IDRangeTest is the base ID for codecs that _test.go files register
	// from their own init for test scaffolding payloads: 0xFF00–0xFFFF.
	// No non-test code may allocate here.
	IDRangeTest uint16 = 0xFF00
)

// retired reports type IDs that once carried a frame and never will
// again. They are not reassigned: Register refuses them, so a peer from
// a build that still sends one gets an UnknownTypeError, not a misparse
// as whatever took the number over. Beside version 1's gob fallback
// these are the per-stack transport frames the one link layer replaced
// — the tcp envelope (82), the recovery hello (84) and the mux hello
// (85) —, the recovery envelope (83) the recovering mux replaced, the
// sign ‖ u32 len ‖ magnitude integer frames (4, 5) the fixed-width run
// (Uints, 9) replaced, and the bare equality transcript (17), which
// nothing sent.
func retired(id uint16) bool {
	switch id {
	case idRetired, idRetiredInt, idRetiredInts, IDRangeCrypto + 1,
		IDRangeTransport + 2, IDRangeTransport + 3, IDRangeTransport + 4, IDRangeTransport + 5:
		return true
	}
	return false
}

var frameMagic = [2]byte{'G', 'W'}

// Boundary errors. Decode failures are reported, never panicked, so a
// hostile peer cannot crash the receive loop.
var (
	ErrBadMagic       = errors.New("wirecodec: bad frame magic")
	ErrTruncatedFrame = errors.New("wirecodec: truncated frame")
	ErrOversizedFrame = errors.New("wirecodec: frame exceeds size cap")
	// ErrUnregisteredType: the value's type has no registered codec, so
	// it has no wire form. Always carried inside an EncodeError.
	ErrUnregisteredType = errors.New("wirecodec: no codec registered for type")
)

// EncodeError reports that a value could not be turned into frame
// bytes. It is raised before a single byte reaches the writer, so it
// is a fault of the sending program — an unregistered type, a malformed
// integer run, an oversized payload — and says nothing about the peer or
// the link the frame was meant for.
type EncodeError struct {
	Type string // the codec's name, or the Go type when none is registered
	Err  error
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("wirecodec: encoding %s: %v", e.Type, e.Err)
}

func (e *EncodeError) Unwrap() error { return e.Err }

// VersionError reports a frame speaking a different wire-format
// version than this build.
type VersionError struct {
	Got, Want uint8
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wirecodec: frame version %d, this build speaks %d", e.Got, e.Want)
}

// UnknownTypeError reports a frame whose type ID has no registered
// decoder in this build.
type UnknownTypeError struct {
	ID uint16
}

func (e *UnknownTypeError) Error() string {
	return fmt.Sprintf("wirecodec: no codec registered for type ID %d", e.ID)
}

// EncodeFunc appends v's payload bytes to dst. It must be
// deterministic: one value, one encoding.
type EncodeFunc func(dst []byte, v any) ([]byte, error)

// DecodeFunc parses a complete payload back into a value. It must
// consume every byte (end with Reader.Finish) and must not retain
// data, which may be a pooled buffer.
type DecodeFunc func(data []byte) (any, error)

type codec struct {
	id   uint16
	name string
	enc  EncodeFunc
	dec  DecodeFunc
}

var (
	encByType = map[reflect.Type]*codec{}
	decByID   = map[uint16]*codec{}
)

// Register installs a codec for the concrete dynamic types of the
// given prototypes. Several types may share one ID (the element codec
// covers every group's element type). Call from init only; duplicate
// IDs or types panic immediately rather than corrupting traffic later.
func Register(id uint16, name string, prototypes []any, enc EncodeFunc, dec DecodeFunc) {
	if id == 0 || id == idNil || retired(id) {
		panic(fmt.Sprintf("wirecodec: type ID %d is reserved", id))
	}
	if _, dup := decByID[id]; dup {
		panic(fmt.Sprintf("wirecodec: type ID %d registered twice", id))
	}
	c := &codec{id: id, name: name, enc: enc, dec: dec}
	decByID[id] = c
	for _, p := range prototypes {
		t := reflect.TypeOf(p)
		if t == nil {
			panic("wirecodec: nil prototype")
		}
		if _, dup := encByType[t]; dup {
			panic(fmt.Sprintf("wirecodec: type %v registered twice", t))
		}
		encByType[t] = c
	}
}

// lookup resolves v's codec; a type without one is an error.
func lookup(v any) (*codec, error) {
	if v == nil {
		return decByID[idNil], nil
	}
	t := reflect.TypeOf(v)
	if c, ok := encByType[t]; ok {
		return c, nil
	}
	return nil, &EncodeError{Type: t.String(), Err: ErrUnregisteredType}
}

// AppendValue appends one complete frame encoding v to dst. Every
// failure is an *EncodeError.
func AppendValue(dst []byte, v any) ([]byte, error) {
	c, err := lookup(v)
	if err != nil {
		return nil, err
	}
	start := len(dst)
	dst = append(dst, frameMagic[0], frameMagic[1], Version)
	dst = appendU16(dst, c.id)
	dst = AppendU32(dst, 0) // length backfilled below
	out, err := c.enc(dst, v)
	if err != nil {
		return nil, &EncodeError{Type: c.name, Err: err}
	}
	n := len(out) - start - headerLen
	if n > MaxPayload {
		return nil, &EncodeError{Type: c.name, Err: fmt.Errorf("%w: payload is %d bytes", ErrOversizedFrame, n)}
	}
	binary.BigEndian.PutUint32(out[start+5:], uint32(n))
	return out, nil
}

// Marshal encodes v as one frame in a fresh buffer.
func Marshal(v any) ([]byte, error) {
	return AppendValue(nil, v)
}

// consumeValue parses one frame from the front of data, returning the
// value and the bytes consumed.
func consumeValue(data []byte) (any, int, error) {
	if len(data) < headerLen {
		return nil, 0, ErrTruncatedFrame
	}
	if data[0] != frameMagic[0] || data[1] != frameMagic[1] {
		return nil, 0, ErrBadMagic
	}
	if data[2] != Version {
		return nil, 0, &VersionError{Got: data[2], Want: Version}
	}
	id := binary.BigEndian.Uint16(data[3:5])
	n := int(binary.BigEndian.Uint32(data[5:9]))
	if n > MaxPayload {
		return nil, 0, fmt.Errorf("%w: %d-byte payload", ErrOversizedFrame, n)
	}
	if len(data) < headerLen+n {
		return nil, 0, ErrTruncatedFrame
	}
	c, ok := decByID[id]
	if !ok {
		return nil, 0, &UnknownTypeError{ID: id}
	}
	v, err := c.dec(data[headerLen : headerLen+n])
	if err != nil {
		return nil, 0, fmt.Errorf("wirecodec: decoding %s: %w", c.name, err)
	}
	return v, headerLen + n, nil
}

// Unmarshal parses exactly one frame spanning all of data.
func Unmarshal(data []byte) (any, error) {
	v, n, err := consumeValue(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("wirecodec: %d trailing bytes after frame", len(data)-n)
	}
	return v, nil
}

// Pooled encode/decode buffers. Oversized buffers are dropped rather
// than returned so one pathological message cannot pin memory.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// WriteValue encodes v into a pooled buffer and writes the frame to w
// in a single Write call, so stream transports emit one packet per
// message without an allocation per send. An *EncodeError means nothing
// was written; any other error is the writer's.
func WriteValue(w io.Writer, v any) error {
	b := getBuf()
	defer putBuf(b)
	out, err := AppendValue((*b)[:0], v)
	if err != nil {
		return err
	}
	*b = out
	_, err = w.Write(out)
	return err
}

// sizedPayload is the longest payload ReadValue sizes its buffer for
// from the header alone. A longer one grows its buffer only as bytes
// arrive, so that a header claiming up to MaxPayload bytes, which anyone
// who can reach a listener can send, costs what was sent and not the
// claim.
const sizedPayload = 64 << 10

// ReadValue reads one frame from r and decodes it. Short reads and
// malformed headers surface as errors; the payload passes through a
// pooled buffer, which is safe because decoders copy what they keep.
func ReadValue(r io.Reader) (any, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != frameMagic[0] || hdr[1] != frameMagic[1] {
		return nil, ErrBadMagic
	}
	if hdr[2] != Version {
		return nil, &VersionError{Got: hdr[2], Want: Version}
	}
	id := binary.BigEndian.Uint16(hdr[3:5])
	n := int(binary.BigEndian.Uint32(hdr[5:9]))
	if n > MaxPayload {
		return nil, fmt.Errorf("%w: %d-byte payload", ErrOversizedFrame, n)
	}
	c, ok := decByID[id]
	if !ok {
		return nil, &UnknownTypeError{ID: id}
	}
	b := getBuf()
	defer putBuf(b)
	payload, err := readPayload(r, (*b)[:0], n)
	*b = payload
	if err != nil {
		return nil, fmt.Errorf("wirecodec: reading %s payload: %w", c.name, err)
	}
	v, err := c.dec(payload)
	if err != nil {
		return nil, fmt.Errorf("wirecodec: decoding %s: %w", c.name, err)
	}
	return v, nil
}

// readPayload reads n bytes from r into buf and returns buf grown as
// needed: to n at once when n is at most sizedPayload, else doubling
// each time the bytes that arrived fill it.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	if n <= sizedPayload {
		buf = slices.Grow(buf, n)[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(len(buf)+1, n-len(buf)))
		}
		got, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF // as io.ReadFull reports a part-read whole
		}
		buf = buf[:len(buf)+got]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// Builtin codecs: nil, group elements, integer runs, and the scalar
// types protocol messages are built from.
func init() {
	decByID[idNil] = &codec{
		id: idNil, name: "nil",
		enc: func(dst []byte, v any) ([]byte, error) { return dst, nil },
		dec: func(data []byte) (any, error) {
			if len(data) != 0 {
				return nil, fmt.Errorf("nil frame carries %d payload bytes", len(data))
			}
			return nil, nil
		},
	}

	protos := make([]any, 0, 2)
	for _, e := range group.ElementPrototypes() {
		protos = append(protos, e)
	}
	Register(IDElement, "group element", protos,
		func(dst []byte, v any) ([]byte, error) {
			dst, w := BeginElements(dst)
			return w.Append(dst, v.(group.Element))
		},
		func(data []byte) (any, error) {
			r := NewReader(data)
			r.Group()
			e := r.Element()
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return e, nil
		})

	Register(idUints, "integer run", []any{Uints{}},
		func(dst []byte, v any) ([]byte, error) { return AppendUints(dst, v.(Uints)) },
		func(data []byte) (any, error) {
			r := NewReader(data)
			v := r.Uints()
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return v, nil
		})

	Register(idInt, "int", []any{int(0)},
		func(dst []byte, v any) ([]byte, error) { return AppendI64(dst, int64(v.(int))), nil },
		func(data []byte) (any, error) {
			r := NewReader(data)
			v := r.Int()
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return v, nil
		})

	Register(idString, "string", []any{""},
		func(dst []byte, v any) ([]byte, error) { return AppendString(dst, v.(string)), nil },
		func(data []byte) (any, error) {
			r := NewReader(data)
			v := r.String()
			if err := r.Finish(); err != nil {
				return nil, err
			}
			return v, nil
		})

	Register(idBytes, "byte slice", []any{[]byte{}},
		func(dst []byte, v any) ([]byte, error) { return AppendBytes(dst, v.([]byte)), nil },
		func(data []byte) (any, error) {
			r := NewReader(data)
			v := r.Bytes()
			if err := r.Finish(); err != nil {
				return nil, err
			}
			if v == nil {
				v = []byte{}
			}
			return v, nil
		})
}
