// Package binenc holds the pieces every binary encoding in this module is
// built from: the predictor's Save stream, the engine's outcome stream and
// the decision log's frames (DESIGN.md §14). Integers are uvarints or
// zig-zag varints, floats their IEEE-754 bits in eight bytes little-endian,
// strings a uvarint length and their bytes. A Reader accepts only the
// shortest encoding of a varint, so a value has exactly one encoding and a
// stream that decodes re-encodes to the same bytes.
package binenc

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendFloat appends v's IEEE-754 bits, eight bytes little-endian.
func AppendFloat(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// Reader decodes a binary stream. The first failure sticks: every later
// read returns zero, and Err says what went wrong.
type Reader struct {
	buf []byte
	err error
}

// NewReader reads buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err is the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len is the number of bytes left unread.
func (r *Reader) Len() int { return len(r.buf) }

// Fail records a failure unless one is already recorded, and stops the
// reader.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.buf = nil
}

// Uvarint reads a uvarint in its shortest encoding.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.Fail("truncated or overlong uvarint")
		return 0
	}
	if n > 1 && r.buf[n-1] == 0 {
		r.Fail("uvarint %d not in its shortest encoding", v)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zig-zag varint in its shortest encoding.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a uvarint that must fit an int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt {
		r.Fail("uvarint %d overflows an int", v)
		return 0
	}
	return int(v)
}

// SignedInt reads a varint that must fit an int.
func (r *Reader) SignedInt() int {
	v := r.Varint()
	if v < math.MinInt || v > math.MaxInt {
		r.Fail("varint %d overflows an int", v)
		return 0
	}
	return int(v)
}

// Length reads a count of items at least size bytes long each, and fails
// unless that many fit in what remains: a count is checked before anything
// is allocated for it.
func (r *Reader) Length(size int) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(len(r.buf)/size) {
		r.Fail("length %d exceeds the %d bytes that remain", v, len(r.buf))
		return 0
	}
	return int(v)
}

// Bytes reads the next n bytes, which the returned slice aliases.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.buf) {
		r.Fail("%d bytes wanted, %d remain", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// Prefixed reads a uvarint length and that many bytes, as AppendString
// writes them.
func (r *Reader) Prefixed() []byte { return r.Bytes(r.Length(1)) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// Float reads an IEEE-754 double.
func (r *Reader) Float() float64 {
	if b := r.Bytes(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}
