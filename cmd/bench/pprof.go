package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzip-compressed protocol-buffer profiles that
// runtime/pprof writes, with the standard library only. It reads the
// four tables a leaf-package attribution needs — samples, locations,
// functions and strings — and skips every other field.

// pbField is one decoded protocol-buffer field. Varint and fixed-width
// fields carry num; length-delimited fields carry buf.
type pbField struct {
	tag  int
	wire int
	num  uint64
	buf  []byte
}

// pbFields splits one protocol-buffer message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad field key")
		}
		b = b[n:]
		f := pbField{tag: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.num, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("pprof: truncated fixed64")
			}
			f.num, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			size, n := binary.Uvarint(b)
			if n <= 0 || size > uint64(len(b)-n) {
				return nil, errors.New("pprof: bad length")
			}
			f.buf, b = b[n:n+int(size)], b[n+int(size):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("pprof: truncated fixed32")
			}
			f.num, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// uints returns a repeated integer field's values, packed or not.
func (f pbField) uints() ([]uint64, error) {
	if f.wire != 2 {
		return []uint64{f.num}, nil
	}
	var out []uint64
	for b := f.buf; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// leafPackageTime decodes a runtime/pprof CPU profile and sums each
// sample's CPU time into the package of its leaf frame. Inlined frames
// are resolved: a location's first line is the innermost function, so
// time spent in a function inlined into its caller counts toward the
// inlined function's package. The value used is the sample type whose
// unit is nanoseconds (the last one when none is).
func leafPackageTime(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}

	var strs []string
	type sample struct{ locs, vals []uint64 }
	var samples []sample
	var sampleUnits []uint64        // string-table index of each sample type's unit
	leafFunc := map[uint64]uint64{} // location id -> innermost function id
	funcName := map[uint64]uint64{} // function id -> name string index
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		if f.tag == 6 { // string_table
			strs = append(strs, string(f.buf))
			continue
		}
		if f.tag != 1 && f.tag != 2 && f.tag != 4 && f.tag != 5 {
			continue
		}
		sub, err := pbFields(f.buf)
		if err != nil {
			return nil, err
		}
		switch f.tag {
		case 1: // sample_type
			for _, s := range sub {
				if s.tag == 2 {
					sampleUnits = append(sampleUnits, s.num)
				}
			}
		case 2: // sample
			var s sample
			for _, g := range sub {
				vs, err := g.uints()
				if err != nil {
					return nil, err
				}
				switch g.tag {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					s.vals = append(s.vals, vs...)
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var lines [][]byte
			for _, g := range sub {
				switch {
				case g.tag == 1:
					id = g.num
				case g.tag == 4 && g.wire == 2:
					lines = append(lines, g.buf)
				}
			}
			if len(lines) == 0 {
				continue
			}
			line, err := pbFields(lines[0])
			if err != nil {
				return nil, err
			}
			for _, g := range line {
				if g.tag == 1 {
					leafFunc[id] = g.num
				}
			}
		case 5: // function
			var id, name uint64
			for _, g := range sub {
				switch g.tag {
				case 1:
					id = g.num
				case 2:
					name = g.num
				}
			}
			funcName[id] = name
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}

	valueIdx := len(sampleUnits) - 1
	for i, u := range sampleUnits {
		if str(u) == "nanoseconds" {
			valueIdx = i
		}
	}
	out := map[string]int64{}
	for _, s := range samples {
		if valueIdx < 0 || valueIdx >= len(s.vals) || len(s.locs) == 0 {
			continue
		}
		pkg := "?" // a location without line information
		if fn, ok := leafFunc[s.locs[0]]; ok {
			pkg = funcPackage(str(funcName[fn]))
		}
		out[pkg] += int64(s.vals[valueIdx])
	}
	return out, nil
}

// funcPackage returns the import path of a Go symbol name such as
// "locality/internal/netsim.(*Network).Step" or
// "encoding/json.(*decodeState).object". Type-parameter lists can hold
// slashes and dots of their own, so the path ends at the first dot
// after the last slash that precedes any '['. A name with no package
// qualifier is an assembly stub of the runtime, such as gcWriteBarrier.
func funcPackage(name string) string {
	head := name
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i]
	}
	start := strings.LastIndexByte(head, '/') + 1
	if dot := strings.IndexByte(head[start:], '.'); dot >= 0 {
		return head[:start+dot]
	}
	return "runtime"
}

// hostBuckets are the host_share.<bucket> groups the CPU profile is
// reported in: the repo's own layers (topology because netsim routes
// through it on every hop), plus the Go runtime, the network stack and
// JSON coding. Everything else lands in "other", so the shares sum
// to 1.
var hostBuckets = []string{
	"netsim", "topology", "cohsim", "cachesim", "procsim", "sim", "machine", "workload",
	"core", "serve", "checkpoint", "replay", "runtime", "net", "encoding_json", "other",
}

// hostBucket maps an import path to its host_share bucket.
func hostBucket(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "locality/internal/"):
		layer := strings.TrimPrefix(pkg, "locality/internal/")
		for _, b := range hostBuckets {
			if b == layer {
				return b
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "net"
	case pkg == "encoding/json":
		return "encoding_json"
	}
	return "other"
}

// hostShares folds per-package CPU time into the host_share buckets,
// as fractions of the profile's total. total is the profile's CPU time
// in nanoseconds; zero when the profile holds no samples, in which case
// every share is zero too.
func hostShares(byPkg map[string]int64) (shares map[string]float64, total int64) {
	shares = make(map[string]float64, len(hostBuckets))
	for _, b := range hostBuckets {
		shares[b] = 0
	}
	for _, v := range byPkg {
		total += v
	}
	if total == 0 {
		return shares, 0
	}
	for pkg, v := range byPkg {
		shares[hostBucket(pkg)] += float64(v) / float64(total)
	}
	return shares, total
}
