package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadCheckpoint drives the decoder with arbitrary bytes. The
// contract under test: Read never panics and never over-allocates, and
// any input it accepts is a valid checkpoint whose canonical
// re-encoding decodes to the same thing (no parse-ambiguous inputs).
func FuzzReadCheckpoint(f *testing.F) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := Write(&buf, testCheckpoint()); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(append([]byte(Magic), Version))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	// Flip a byte in each region of the file: fingerprint, clocks,
	// transaction table, component states, retired slots.
	for _, i := range []int{4, 5, 8, 24, 64, len(valid) / 3, len(valid) / 2, len(valid) - 2} {
		mut := append([]byte{}, valid...)
		mut[i] ^= 0xff
		f.Add(mut)
	}
	// A declared count far beyond the actual data.
	huge := append([]byte{}, valid[:16]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x7f)
	f.Add(huge)
	// The attribution section, and a huge machine declared with an
	// empty placement.
	var attributed bytes.Buffer
	if err := Write(&attributed, attributedCheckpoint()); err != nil {
		f.Fatal(err)
	}
	f.Add(attributed.Bytes())
	f.Add(hostileCheckpoint())
	// Files from the builds that had fault injection, time-sliced
	// sampling and settable protocol latencies: their retired slots are
	// nonzero.
	for _, name := range []string{"golden-faulted.lckp", "golden-sliced.lckp", "golden-latency.lckp"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted checkpoint fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, c); err != nil {
			t.Fatalf("accepted checkpoint fails to re-encode: %v", err)
		}
		again, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("canonical re-encoding fails to decode: %v", err)
		}
		var buf2 bytes.Buffer
		if err := Write(&buf2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
