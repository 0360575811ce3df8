package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pb is a minimal protocol-buffer encoder for building test profiles.
type pb []byte

func (b pb) varint(tag int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(tag)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(tag int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(tag)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func (b pb) packed(tag int, vs ...uint64) pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return b.bytes(tag, body)
}

// TestLeafPackageTime decodes a synthetic CPU profile: samples must be
// charged to the package of their leaf frame, inlined frames resolved
// to the innermost function, with packed and unpacked repeated fields
// and type-parameter names handled.
func TestLeafPackageTime(t *testing.T) {
	strs := []string{
		"", "samples", "count", "cpu", "nanoseconds",
		"locality/internal/netsim.(*Network).Step",     // 5
		"locality/internal/machine.(*Machine).advance", // 6
		"runtime.mallocgc",                             // 7
		"gcWriteBarrier",                               // 8
		"encoding/json.Marshal",                        // 9
		"locality/internal/engine.Grid[go.shape.struct { locality/internal/x.Y }]", // 10
	}
	var p pb
	p = p.bytes(1, pb{}.varint(1, 1).varint(2, 2)) // samples/count
	p = p.bytes(1, pb{}.varint(1, 3).varint(2, 4)) // cpu/nanoseconds
	// Function id i+1 is named strs[5+i].
	for i := 0; i < 6; i++ {
		p = p.bytes(5, pb{}.varint(1, uint64(i+1)).varint(2, uint64(5+i)))
	}
	// Location 1 inlines netsim (first line, the leaf) into machine.
	p = p.bytes(4, pb{}.varint(1, 1).bytes(4, pb{}.varint(1, 1)).bytes(4, pb{}.varint(1, 2)))
	for loc, fn := range map[uint64]uint64{2: 3, 3: 4, 4: 5, 5: 6, 6: 2} {
		p = p.bytes(4, pb{}.varint(1, loc).bytes(4, pb{}.varint(1, fn)))
	}
	p = p.bytes(2, pb{}.packed(1, 1, 6).packed(2, 1, 30)) // netsim, via inlining
	p = p.bytes(2, pb{}.packed(1, 2, 1).packed(2, 1, 10)) // runtime
	p = p.bytes(2, pb{}.varint(1, 3).varint(2, 1).varint(2, 5))
	p = p.bytes(2, pb{}.packed(1, 4).packed(2, 1, 20)) // encoding/json
	p = p.bytes(2, pb{}.packed(1, 5).packed(2, 1, 35)) // engine, generic
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	byPkg, err := leafPackageTime(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"locality/internal/netsim": 30, "runtime": 15, "encoding/json": 20, "locality/internal/engine": 35,
	}
	if len(byPkg) != len(want) {
		t.Errorf("packages %v, want %v", byPkg, want)
	}
	for k, v := range want {
		if byPkg[k] != v {
			t.Errorf("%s: %d ns, want %d", k, byPkg[k], v)
		}
	}
	shares, total := hostShares(byPkg)
	if total != 100 {
		t.Errorf("total %d, want 100", total)
	}
	for b, v := range map[string]float64{"netsim": 0.30, "runtime": 0.15, "encoding_json": 0.20, "other": 0.35, "machine": 0} {
		if math.Abs(shares[b]-v) > 1e-12 {
			t.Errorf("share %s = %v, want %v", b, shares[b], v)
		}
	}
	if _, err := leafPackageTime([]byte("not a profile")); err == nil {
		t.Error("garbage input decoded without error")
	}
}
