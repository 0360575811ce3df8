package replay

import (
	"io"
	"math"
	"os"

	"locality/internal/procsim"
	"locality/internal/wire"
)

// Write streams the trace to w in the wire format. The encoding is
// canonical — a given Trace always produces the same bytes — so
// re-encoding a decoded trace is byte-identical, which the golden
// fixture test relies on.
func Write(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	c := wire.NewEncoder(w, "replay")
	code(c, t)
	return c.End()
}

// WriteFile writes the trace to path.
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read decodes a trace from r, validating every structural invariant.
// It never trusts a declared count for more than an incremental
// allocation, so truncated, corrupt, or adversarial inputs fail with
// an error rather than a panic or a huge allocation.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{}
	c := wire.NewDecoder(r, "replay")
	code(c, t)
	if err := c.End(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadFile decodes the trace at path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// code runs the whole layout, for Write and Read alike. The placement
// must cover every node, which is checked as soon as its length is
// coded, and the streams are appended one at a time, so a header
// declaring a huge machine cannot make Read allocate what the input
// does not back.
func code(c *wire.Codec, t *Trace) {
	c.Header(Magic, Version)
	h := &t.Header
	wire.Uvarint(c, &h.Radix, maxRadix, "radix")
	wire.Uvarint(c, &h.Dims, maxDims, "dims")
	wire.Uvarint(c, &h.Contexts, maxContexts, "contexts")
	wire.Uvarint(c, &h.LineSize, maxLineSize, "line size")
	wire.Uvarint(c, &h.Warmup, 1<<62, "warmup")
	wire.Uvarint(c, &h.Window, 1<<62, "window")
	c.String(&h.MappingName, maxNameLen, "mapping name")
	if c.Err() != nil {
		return
	}
	nodes, err := h.geometry()
	if err != nil {
		c.Fail(err)
		return
	}
	wire.Slice(c, &h.Place, nodes, nodes, "placement length", func(_ int, p *int) {
		wire.Uvarint(c, p, nodes-1, "placement entry")
	})
	for i, n := 0, h.Threads(); i < n && c.Err() == nil; i++ {
		if c.Decoding() {
			t.Threads = append(t.Threads, nil)
		}
		wire.Slice(c, &t.Threads[i], 0, math.MaxInt, "stream length", func(_ int, r *Rec) { record(c, r) })
	}
	// Home addresses are delta-coded; the cap on each delta keeps the
	// running address from overflowing.
	wire.Slice(c, &t.Home, 0, math.MaxInt, "home table length", func(i int, e *HomeEntry) {
		var prev uint64
		if i > 0 {
			prev = t.Home[i-1].Addr
		}
		delta := e.Addr - prev
		wire.Uvarint(c, &delta, math.MaxUint64-prev, "home address delta")
		if i > 0 && delta == 0 {
			c.Failf("home table not strictly ascending at entry %d", i)
		}
		if c.Decoding() {
			e.Addr = prev + delta
		}
		wire.Uvarint(c, &e.Thread, nodes-1, "home owner thread")
	})
}

// record codes one stream record: its frozen wire kind, then its
// argument unless the kind carries none.
func record(c *wire.Codec, r *Rec) {
	var kind uint8
	if !c.Decoding() {
		kind, _ = wireKindOf(r.Kind) // Validate vetted every kind Write sees
	}
	wire.Byte(c, &kind, wireHalt, "record kind")
	if c.Decoding() && c.Err() == nil {
		k, err := opKindOf(kind)
		if err != nil {
			c.Fail(err)
			return
		}
		r.Kind = k
	}
	if hasArg(r.Kind) {
		max := uint64(math.MaxUint64)
		if r.Kind == procsim.OpCompute {
			max = maxComputeArg
		}
		wire.Uvarint(c, &r.Arg, max, "record argument")
	}
}
