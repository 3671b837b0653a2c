package wirecodec

import (
	"encoding/binary"
	"fmt"

	"groupranking/internal/group"
)

// Reader parses the fixed-width primitives codecs are built from. It
// latches the first error: every accessor after a failure returns a
// zero value and does nothing, so decoders read a whole structure
// straight through and check Err once at the end. A Reader never
// panics on truncated, oversized or garbage input — that is the
// receive-boundary contract fuzzed by this package's tests.
type Reader struct {
	data []byte
	off  int
	err  error

	g    group.Group // the group the payload's byte named (Group); nil for none
	read bool        // whether an element was read under g
}

// NewReader reads from data. The Reader aliases data; accessors that
// return byte slices copy, so the caller may reuse data afterwards.
func NewReader(data []byte) *Reader {
	return &Reader{data: data}
}

// Err returns the first parse error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the unread byte count.
func (r *Reader) Len() int { return len(r.data) - r.off }

// Fail latches err, unless it is nil or an error is latched already:
// how a decoder built on the Reader refuses what only it can check.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) fail(format string, args ...any) {
	r.Fail(fmt.Errorf("wirecodec: "+format, args...))
}

// take returns the next n raw bytes without copying, or nil on
// truncation.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Len() < n {
		r.fail("truncated input: need %d bytes, have %d", n, r.Len())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int stored as I64, rejecting values that do not fit.
func (r *Reader) Int() int {
	v := r.I64()
	n := int(v)
	if int64(n) != v {
		r.fail("integer %d overflows int", v)
		return 0
	}
	return n
}

// Bool reads one byte as a bool, rejecting anything but 0 or 1.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("malformed bool")
		return false
	}
}

// Bytes reads a u32-length-prefixed byte string, returning a copy.
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a u32-length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U32())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Count reads a u32 element count and validates it against the bytes
// remaining: a count that could not possibly fit (each element needs at
// least minBytes) is rejected before any allocation, so a hostile
// 4-byte header cannot demand a multi-gigabyte slice.
func (r *Reader) Count(minBytes int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n < 0 || n > r.Len()/minBytes {
		r.fail("implausible element count %d for %d remaining bytes", n, r.Len())
		return 0
	}
	return n
}

// Uints reads one integer run (see Uints), refusing a width outside
// [1, maxWidth] and a count the payload cannot hold before allocating.
// Whether the width and the values fit the receiver's modulus is the
// receiver's check (IntsOf, or a field's FromBytes).
func (r *Reader) Uints() Uints {
	w := int(r.U16())
	if r.err != nil {
		return Uints{}
	}
	if w < 1 || w > maxWidth {
		r.fail("integer run width %d outside [1, %d]", w, maxWidth)
		return Uints{}
	}
	b := r.take(r.Count(w) * w)
	if b == nil {
		return Uints{}
	}
	return Uints{Width: w, Data: append([]byte(nil), b...)}
}

// Group reads a payload's group byte (see ElementWriter), naming the
// group every later Element decodes under; 0 names none.
func (r *Reader) Group() {
	id := r.U8()
	if r.err != nil || id == 0 {
		return
	}
	g, err := group.ByWireID(id)
	if err != nil {
		r.fail("%v", err)
		return
	}
	r.g = g
}

// ElementLen returns the width of one element of the payload's group,
// or 0 before Group has named one.
func (r *Reader) ElementLen() int {
	if r.g == nil {
		return 0
	}
	return r.g.ElementLen()
}

// Element reads one element of the payload's group: exactly ElementLen
// bytes, which the group's Decode accepts or refuses, so a returned
// element is a member of the group the payload named. Whether that is
// the session's group is for the receiver to check (group.Validate).
func (r *Reader) Element() group.Element {
	if r.err != nil {
		return nil
	}
	if r.g == nil {
		r.fail("element in a payload that names no group")
		return nil
	}
	b := r.take(r.g.ElementLen())
	if b == nil {
		return nil
	}
	e, err := r.g.Decode(b)
	if err != nil {
		r.fail("%v", err)
		return nil
	}
	r.read = true
	return e
}

// Value reads one nested self-describing value frame.
func (r *Reader) Value() any {
	if r.err != nil {
		return nil
	}
	v, n, err := consumeValue(r.data[r.off:])
	if err != nil {
		r.fail("nested value: %w", err) // keep UnknownTypeError et al. matchable
		return nil
	}
	r.off += n
	return v
}

// Finish returns the latched error, or an error if unread bytes
// remain. Every codec decoder ends with it so a frame whose payload
// carries trailing garbage is rejected rather than silently accepted;
// so is a payload that names a group and carries no element, which its
// encoder would have written with group byte 0.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.Len() != 0 {
		return fmt.Errorf("wirecodec: %d trailing bytes after value", r.Len())
	}
	if r.g != nil && !r.read {
		return fmt.Errorf("wirecodec: payload names group %s and carries no element", r.g.Name())
	}
	return nil
}

// Append helpers: the encode-side counterparts, all appending to dst
// and returning the extended slice so codecs compose without
// intermediate allocations.

// AppendU8 appends one byte.
func AppendU8(dst []byte, v uint8) []byte { return append(dst, v) }

// appendU16 appends a big-endian uint16.
func appendU16(dst []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(dst, v) }

// AppendU32 appends a big-endian uint32.
func AppendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }

// AppendU64 appends a big-endian uint64.
func AppendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

// AppendI64 appends a big-endian two's-complement int64.
func AppendI64(dst []byte, v int64) []byte { return AppendU64(dst, uint64(v)) }

// AppendBool appends a bool as one byte.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBytes appends a u32-length-prefixed byte string.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// AppendString appends a u32-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// ElementWriter appends the group elements of one payload. A payload
// that carries elements names their group once, in one byte ahead of
// them (group.WireID), and each element follows as its group's
// fixed-width canonical bytes (Group.AppendElement), with no tag or
// length of its own: the form Group.Encode hashes and blame
// certificates carry. BeginElements appends that byte; the first
// element fills it in, and every later one must belong to the same
// group. It stays 0, naming no group, on a payload without elements and
// on one whose group ByName does not know (a generated test group):
// such a payload has a frame, so it can be digested, but no receiver
// decodes an element under byte 0.
type ElementWriter struct {
	slot int         // offset of the group byte in the payload's buffer
	g    group.Group // the first element's group; nil before it
}

// BeginElements appends a payload's group byte, 0 until an element
// names its group, and returns the writer for the payload's elements.
func BeginElements(dst []byte) ([]byte, ElementWriter) {
	return append(dst, 0), ElementWriter{slot: len(dst)}
}

// Append appends e as its group's canonical bytes.
func (w *ElementWriter) Append(dst []byte, e group.Element) ([]byte, error) {
	g := group.Of(e)
	switch {
	case g == nil:
		return nil, fmt.Errorf("wirecodec: element of type %T records no group", e)
	case w.g == nil:
		w.g, dst[w.slot] = g, group.WireID(g)
	case g != w.g:
		return nil, fmt.Errorf("wirecodec: %s element in a %s payload", g.Name(), w.g.Name())
	}
	return g.AppendElement(dst, e), nil
}
