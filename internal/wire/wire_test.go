package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// record is one value of every kind the codec carries.
type record struct {
	N     int
	T     int64
	Addr  uint64
	Delta int32
	Kind  uint8
	Flag  bool
	RNG   uint64
	Mean  float64
	Name  string
	List  []int
}

// code is record's layout, written once for both directions.
func code(c *Codec, r *record) {
	c.Header("TEST", 3)
	Uvarint(c, &r.N, 1000, "n")
	Varint(c, &r.T, math.MinInt64, math.MaxInt64, "t")
	Uvarint(c, &r.Addr, math.MaxUint64, "addr")
	Varint(c, &r.Delta, -5, 5, "delta")
	Byte(c, &r.Kind, 7, "kind")
	c.Bool(&r.Flag, "flag")
	c.Word(&r.RNG, "rng")
	c.Float(&r.Mean, "mean")
	c.String(&r.Name, 16, "name")
	Slice(c, &r.List, 1, 4, "list length", func(_ int, v *int) { Uvarint(c, v, 9, "list entry") })
}

func sample() record {
	return record{N: 300, T: -1 << 40, Addr: math.MaxUint64, Delta: -5, Kind: 7, Flag: true,
		RNG: 0x0123456789abcdef, Mean: 2.5, Name: "identity", List: []int{9, 0, 3}}
}

func encode(r *record) ([]byte, error) {
	var buf bytes.Buffer
	c := NewEncoder(&buf, "test")
	code(c, r)
	err := c.End()
	return buf.Bytes(), err
}

func decode(data []byte) (record, error) {
	var r record
	c := NewDecoder(bytes.NewReader(data), "test")
	code(c, &r)
	return r, c.End()
}

// TestRoundTrip pins the bytes each primitive writes (the encodings
// encoding/binary defines) and that decoding restores every value.
func TestRoundTrip(t *testing.T) {
	want := sample()
	data, err := encode(&want)
	if err != nil {
		t.Fatal(err)
	}
	exp := []byte("TEST\x03")
	exp = binary.AppendUvarint(exp, 300)
	exp = binary.AppendVarint(exp, -1<<40)
	exp = binary.AppendUvarint(exp, math.MaxUint64)
	exp = binary.AppendVarint(exp, -5)
	exp = append(exp, 7, 1)
	exp = binary.LittleEndian.AppendUint64(exp, 0x0123456789abcdef)
	exp = binary.LittleEndian.AppendUint64(exp, math.Float64bits(2.5))
	exp = append(append(exp, 8), "identity"...)
	exp = append(exp, 3, 9, 0, 3)
	if !bytes.Equal(data, exp) {
		t.Fatalf("encoded % x\nwant    % x", data, exp)
	}
	got, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
}

// TestBoundsHoldBothWays checks that every bound fails the encoder on
// a value and the decoder on that value's bytes.
func TestBoundsHoldBothWays(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*record)
		want   string
		decode string // the decoder's error, when it differs
	}{
		{"uvarint cap", func(r *record) { r.N = 1001 }, "test: n 1001 outside [0,1000]", ""},
		{"negative uvarint", func(r *record) { r.N = -1 }, "test: n -1 outside [0,1000]",
			"test: n 18446744073709551615 outside [0,1000]"},
		{"varint low", func(r *record) { r.Delta = -6 }, "test: delta -6 outside [-5,5]", ""},
		{"varint high", func(r *record) { r.Delta = 6 }, "test: delta 6 outside [-5,5]", ""},
		{"byte cap", func(r *record) { r.Kind = 8 }, "test: kind 8 exceeds 7", ""},
		{"string cap", func(r *record) { r.Name = strings.Repeat("x", 17) }, "test: name 17 outside [0,16]", ""},
		{"slice too short", func(r *record) { r.List = nil }, "test: list length 0 below 1", ""},
		{"slice too long", func(r *record) { r.List = make([]int, 5) }, "test: list length 5 outside [0,4]", ""},
		{"slice entry", func(r *record) { r.List[1] = 10 }, "test: list entry 10 outside [0,9]", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := sample()
			tc.mutate(&r)
			if _, err := encode(&r); err == nil || err.Error() != tc.want {
				t.Errorf("encode error %v, want %q", err, tc.want)
			}
			// Build the bytes by hand: the encoder refuses to.
			want := tc.want
			if tc.decode != "" {
				want = tc.decode
			}
			if _, err := decode(forge(r)); err == nil || err.Error() != want {
				t.Errorf("decode error %v, want %q", err, want)
			}
		})
	}
}

// forge encodes r without any bound, as a hostile writer would.
func forge(r record) []byte {
	b := []byte("TEST\x03")
	b = binary.AppendUvarint(b, uint64(r.N))
	b = binary.AppendVarint(b, r.T)
	b = binary.AppendUvarint(b, r.Addr)
	b = binary.AppendVarint(b, int64(r.Delta))
	b = append(b, r.Kind, 1)
	b = binary.LittleEndian.AppendUint64(b, r.RNG)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Mean))
	b = append(binary.AppendUvarint(b, uint64(len(r.Name))), r.Name...)
	b = binary.AppendUvarint(b, uint64(len(r.List)))
	for _, v := range r.List {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

func TestDecodeRejects(t *testing.T) {
	s := sample()
	valid := forge(s)
	flag := len(valid) - 1 - 3 - 9 - 8 - 8 - 1 // the Bool byte
	badFlag := append([]byte{}, valid...)
	badFlag[flag] = 2
	cases := []struct {
		name string
		data []byte
		want string
		is   error
	}{
		{"empty", nil, "test: reading magic", io.EOF},
		{"bad magic", []byte("NOPE\x03"), "bad magic", nil},
		{"bad version", []byte("TEST\x04"), "unsupported version 4", nil},
		{"truncated varint", append([]byte("TEST\x03"), 0x80), "reading n", io.ErrUnexpectedEOF},
		{"truncated word", valid[:flag+4], "reading rng", io.ErrUnexpectedEOF},
		{"truncated string", valid[:len(valid)-6], "reading name", io.ErrUnexpectedEOF},
		{"truncated slice", valid[:len(valid)-1], "reading list entry", io.EOF},
		{"flag not 0 or 1", badFlag, "test: flag 2 exceeds 1", nil},
		{"trailing byte", append(append([]byte{}, valid...), 0), "trailing bytes", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decode(tc.data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("error %v does not wrap %v", err, tc.is)
			}
		})
	}
}

// TestFirstErrorKept checks that a failure turns later calls into
// no-ops: nothing more is written or read, and Err stays the first.
func TestFirstErrorKept(t *testing.T) {
	var buf bytes.Buffer
	c := NewEncoder(&buf, "test")
	n, m := 5, 1
	Uvarint(c, &n, 4, "first")
	Uvarint(c, &m, 0, "second")
	if err := c.End(); err == nil || err.Error() != "test: first 5 outside [0,4]" {
		t.Fatalf("End() = %v, want the first error", err)
	}
	if buf.Len() != 0 {
		t.Errorf("encoder wrote %d bytes after failing", buf.Len())
	}
	d := NewDecoder(bytes.NewReader([]byte{5, 1}), "test")
	Uvarint(d, &n, 4, "first")
	n = 0
	Uvarint(d, &n, 9, "second")
	if n != 0 || d.Err() == nil || !strings.Contains(d.Err().Error(), "first") {
		t.Errorf("decoder read on after failing: n = %d, err %v", n, d.Err())
	}
}

// TestSliceGrowsWithInput checks that a declared length the input does
// not back costs no more than the elements actually present.
func TestSliceGrowsWithInput(t *testing.T) {
	data := binary.AppendUvarint(nil, 1<<40)
	data = append(data, 1, 2, 3)
	var list []int64
	alloc := allocated(func() {
		c := NewDecoder(bytes.NewReader(data), "test")
		Slice(c, &list, 0, math.MaxInt, "length", func(_ int, v *int64) { Uvarint(c, v, 9, "entry") })
		if err := c.End(); !errors.Is(err, io.EOF) {
			t.Errorf("End() = %v, want EOF reading the fourth entry", err)
		}
	})
	// Three entries are present; the fourth is appended before its read fails.
	if len(list) != 4 || alloc > 64<<10 {
		t.Errorf("grew to %d entries with %d bytes allocated, want 4 within 64 KiB", len(list), alloc)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEncodeAllocatesNothingPerValue pins the encoder's cost: no
// primitive allocates, slices and labels included.
func TestEncodeAllocatesNothingPerValue(t *testing.T) {
	c := NewEncoder(io.Discard, "test")
	r := sample()
	allocs := testing.AllocsPerRun(1000, func() {
		Uvarint(c, &r.N, 1000, "n")
		Varint(c, &r.T, math.MinInt64, math.MaxInt64, "t")
		Uvarint(c, &r.Addr, math.MaxUint64, "addr")
		Varint(c, &r.Delta, -5, 5, "delta")
		Byte(c, &r.Kind, 7, "kind")
		c.Bool(&r.Flag, "flag")
		c.Word(&r.RNG, "rng")
		c.Float(&r.Mean, "mean")
		c.String(&r.Name, 16, "name")
		Slice(c, &r.List, 1, 4, "list length", func(_ int, v *int) { Uvarint(c, v, 9, "list entry") })
	})
	if err := c.End(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("encoding one record allocates %.1f times, want 0", allocs)
	}
}
