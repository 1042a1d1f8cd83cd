package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Codec limits. MaxFrame bounds a frame's payload so a corrupt or
// hostile length prefix can never balloon an allocation; result bodies
// are canonical JSON of campaign summaries and stay far below it.
const (
	// Magic opens every frame. Two bytes chosen to be invalid UTF-8 and
	// an invalid HTTP method start, so a client that accidentally speaks
	// HTTP at the worker port fails the handshake immediately.
	Magic uint16 = 0xF1EE

	// Version is the protocol generation this package encodes. A frame
	// carries its version; see Compat in doc.go for the rules.
	Version uint8 = 1

	// MaxFrame is the maximum payload length WriteFrame accepts and
	// ReadFrame honors.
	MaxFrame = 16 << 20

	// HeaderLen is the fixed frame-header size:
	// magic u16 | version u8 | type u8 | length u32.
	HeaderLen = 8
)

// Errors surfaced by the consume path. All are terminal for the
// connection that produced them: framing is byte-positional, so one
// bad offset poisons everything after it.
var (
	ErrShortBuffer = errors.New("wire: read past end of buffer")
	ErrBadMagic    = errors.New("wire: bad frame magic")
	ErrBadVersion  = errors.New("wire: unsupported protocol version")
	ErrFrameSize   = errors.New("wire: frame exceeds MaxFrame")
)

// Writer appends big-endian fields to a reusable byte slice. The zero
// value is ready; Reset keeps the backing array so a long-lived
// connection allocates only while its largest frame is still growing.
type Writer struct {
	B []byte
}

// Reset empties the writer, keeping capacity.
func (w *Writer) Reset() { w.B = w.B[:0] }

// Len returns the number of bytes written since the last Reset.
func (w *Writer) Len() int { return len(w.B) }

func (w *Writer) WriteUint8(v uint8)   { w.B = append(w.B, v) }
func (w *Writer) WriteUint16(v uint16) { w.B = binary.BigEndian.AppendUint16(w.B, v) }
func (w *Writer) WriteUint32(v uint32) { w.B = binary.BigEndian.AppendUint32(w.B, v) }
func (w *Writer) WriteUint64(v uint64) { w.B = binary.BigEndian.AppendUint64(w.B, v) }

// WriteBool encodes a bool as one byte, 0 or 1.
func (w *Writer) WriteBool(v bool) {
	if v {
		w.WriteUint8(1)
	} else {
		w.WriteUint8(0)
	}
}

// WriteBytes appends a u32 length prefix followed by p verbatim.
func (w *Writer) WriteBytes(p []byte) {
	w.WriteUint32(uint32(len(p)))
	w.B = append(w.B, p...)
}

// WriteString appends s with the same framing as WriteBytes.
func (w *Writer) WriteString(s string) {
	w.WriteUint32(uint32(len(s)))
	w.B = append(w.B, s...)
}

// Reader consumes big-endian fields from a byte slice. Errors are
// sticky: after the first short read every subsequent Read returns a
// zero value, so decoders read all fields unconditionally and check
// Err once at the end.
type Reader struct {
	B   []byte
	off int
	err error
}

// NewReader returns a reader positioned at the start of b.
func NewReader(b []byte) *Reader { return &Reader{B: b} }

// Err returns the first consume error, or nil.
func (r *Reader) Err() error { return r.err }

// take claims n bytes, or trips the sticky error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.B)-r.off < n {
		r.err = ErrShortBuffer
		return nil
	}
	p := r.B[r.off : r.off+n]
	r.off += n
	return p
}

func (r *Reader) ReadUint8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *Reader) ReadUint16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint16(p)
}

func (r *Reader) ReadUint32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

func (r *Reader) ReadUint64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

func (r *Reader) ReadBool() bool { return r.ReadUint8() != 0 }

// ReadBytes consumes a u32 length prefix and returns the following
// bytes as a subslice of the reader's buffer — no copy. Callers that
// retain the value past the buffer's reuse must copy; the message
// decoders in msg.go do.
func (r *Reader) ReadBytes() []byte {
	n := r.ReadUint32()
	if r.err != nil {
		return nil
	}
	return r.take(int(n))
}

// ReadString consumes a u32 length prefix and returns the following
// bytes as a string (which copies, so strings are always safe to keep).
func (r *Reader) ReadString() string { return string(r.ReadBytes()) }

// headerError renders a reject reason with the offending value, for
// connection-teardown logs.
func headerError(err error, v uint64) error { return fmt.Errorf("%w (%#x)", err, v) }
