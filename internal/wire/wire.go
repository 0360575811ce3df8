// Package wire is the one varint codec behind the .lckp checkpoint and
// .lref trace formats. A Codec either encodes to a bufio.Writer or
// decodes from a bufio.Reader through the same calls: every primitive
// takes a pointer, writing the value it points to when encoding and
// filling it when decoding. A format is then one function per section,
// run by its writer and its reader alike, so the two cannot drift and
// every bound the reader enforces is enforced on write as well.
//
// A Codec keeps the first error and turns every later call into a
// no-op, so section code checks Err only where a value steers control
// flow: a loop bound or an index. Decoding never trusts a declared
// length for more than the bytes behind it (strings are capped, slices
// grow one element at a time), and encoding allocates nothing per
// value: varints are appended into the writer's free buffer, or into a
// scratch array when that is nearly full, and error labels are
// formatted only when an error is built. A write error is kept by the
// bufio.Writer and returned by End.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Codec runs one stream in one direction.
type Codec struct {
	w      *bufio.Writer // set when encoding
	r      *bufio.Reader // set when decoding
	format string        // the error prefix: the format's name
	err    error
	buf    [binary.MaxVarintLen64]byte // scratch for one varint or word
}

// NewEncoder returns a Codec that encodes to w. Errors it builds begin
// with "format: ".
func NewEncoder(w io.Writer, format string) *Codec {
	return &Codec{w: bufio.NewWriter(w), format: format}
}

// NewDecoder returns a Codec that decodes from r. Errors it builds
// begin with "format: ".
func NewDecoder(r io.Reader, format string) *Codec {
	return &Codec{r: bufio.NewReader(r), format: format}
}

// Decoding reports whether c decodes.
func (c *Codec) Decoding() bool { return c.r != nil }

// Err returns the first error c met, or nil.
func (c *Codec) Err() error { return c.err }

// Fail records err unless an earlier error is already kept.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Failf records an error, prefixed with the format's name, unless an
// earlier error is already kept.
func (c *Codec) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(c.format+": "+format, args...)
	}
}

// Uvarint codes *v as an unsigned varint in [0, max].
func Uvarint[T ~int | ~int64 | ~uint64](c *Codec, v *T, max T, what string) {
	if c.err != nil {
		return
	}
	if c.r == nil {
		if *v < 0 || max < 0 || uint64(*v) > uint64(max) {
			c.Failf("%s %d outside [0,%d]", what, *v, max)
			return
		}
		c.w.Write(binary.AppendUvarint(c.space(), uint64(*v)))
		return
	}
	u, err := binary.ReadUvarint(c.r)
	if err != nil {
		c.Failf("reading %s: %w", what, err)
		return
	}
	if max < 0 || u > uint64(max) {
		c.Failf("%s %d outside [0,%d]", what, u, max)
		return
	}
	*v = T(u)
}

// Varint codes *v as a zigzag varint in [lo, hi].
func Varint[T ~int | ~int32 | ~int64](c *Codec, v *T, lo, hi T, what string) {
	if c.err != nil {
		return
	}
	if c.r == nil {
		if *v < lo || *v > hi {
			c.Failf("%s %d outside [%d,%d]", what, *v, lo, hi)
			return
		}
		c.w.Write(binary.AppendVarint(c.space(), int64(*v)))
		return
	}
	x, err := binary.ReadVarint(c.r)
	if err != nil {
		c.Failf("reading %s: %w", what, err)
		return
	}
	if x < int64(lo) || x > int64(hi) {
		c.Failf("%s %d outside [%d,%d]", what, x, lo, hi)
		return
	}
	*v = T(x)
}

// Byte codes *v as one raw byte no greater than max.
func Byte[T ~uint8](c *Codec, v *T, max T, what string) {
	if c.err != nil {
		return
	}
	if c.r == nil {
		if *v > max {
			c.Failf("%s %d exceeds %d", what, *v, max)
			return
		}
		c.w.WriteByte(uint8(*v))
		return
	}
	b, err := c.r.ReadByte()
	if err != nil {
		c.Failf("reading %s: %w", what, err)
		return
	}
	if T(b) > max {
		c.Failf("%s %d exceeds %d", what, b, max)
		return
	}
	*v = T(b)
}

// Bool codes *v as one byte, 0 or 1.
func (c *Codec) Bool(v *bool, what string) {
	var b uint8
	if *v {
		b = 1
	}
	Byte(c, &b, 1, what)
	if c.r != nil {
		*v = b == 1
	}
}

// Word codes *v as a fixed 8-byte little-endian word.
func (c *Codec) Word(v *uint64, what string) {
	if c.err != nil {
		return
	}
	if c.r == nil {
		c.w.Write(binary.LittleEndian.AppendUint64(c.space(), *v))
		return
	}
	b := c.buf[:8]
	if _, err := io.ReadFull(c.r, b); err != nil {
		c.Failf("reading %s: %w", what, err)
		return
	}
	*v = binary.LittleEndian.Uint64(b)
}

// Float codes *v as the fixed word of its IEEE 754 bits.
func (c *Codec) Float(v *float64, what string) {
	u := math.Float64bits(*v)
	c.Word(&u, what)
	if c.r != nil {
		*v = math.Float64frombits(u)
	}
}

// String codes *v as a varint length in [0, max] and its bytes.
func (c *Codec) String(v *string, max int, what string) {
	n := len(*v)
	Uvarint(c, &n, max, what)
	if c.err != nil {
		return
	}
	if c.r == nil {
		c.w.WriteString(*v)
		return
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(c.r, b); err != nil {
		c.Failf("reading %s: %w", what, err)
		return
	}
	*v = string(b)
}

// Slice codes the length of *s, which must lie in [lo, hi] and which
// what names, and then each element through elem, which gets the
// element's index. Decoding appends one zero element at a time before
// elem fills it, so a declared length costs no more than the elements
// actually read.
func Slice[E any](c *Codec, s *[]E, lo, hi int, what string, elem func(i int, e *E)) {
	n := len(*s)
	Uvarint(c, &n, hi, what)
	if c.err == nil && n < lo {
		c.Failf("%s %d below %d", what, n, lo)
	}
	for i := 0; i < n && c.err == nil; i++ {
		if c.r != nil {
			var zero E
			*s = append(*s, zero)
		}
		elem(i, &(*s)[i])
	}
}

// Header codes the magic string and version byte that open a stream;
// decoding rejects any other.
func (c *Codec) Header(magic string, version uint8) {
	if c.r == nil {
		c.w.WriteString(magic)
		c.w.WriteByte(version)
		return
	}
	got, err := c.r.Peek(len(magic))
	if err != nil {
		c.Failf("reading magic: %w", err)
		return
	}
	if string(got) != magic {
		c.Failf("bad magic %q (want %q)", got, magic)
		return
	}
	c.r.Discard(len(magic))
	v := version
	Byte(c, &v, math.MaxUint8, "version")
	if c.err == nil && v != version {
		c.Failf("unsupported version %d (want %d)", v, version)
	}
}

// End finishes the stream and returns the first error: an encoder
// flushes, and a decoder requires the input to end here.
func (c *Codec) End() error {
	if c.err != nil {
		return c.err
	}
	if c.r == nil {
		c.err = c.w.Flush()
	} else if _, err := c.r.ReadByte(); err != io.EOF {
		c.Failf("trailing bytes after the last section")
	}
	return c.err
}

// space returns an empty buffer with room for one varint or word: the
// writer's free buffer, or c's scratch array when that is too short.
func (c *Codec) space() []byte {
	if b := c.w.AvailableBuffer(); cap(b) >= len(c.buf) {
		return b
	}
	return c.buf[:0]
}
