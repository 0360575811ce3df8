package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"locality/internal/cohsim"
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
	// transaction table, component states.
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
	// The reference checkpoint as the version 2 build wrote it, as is
	// and relabelled version 3, so its fields decode misaligned.
	v2, err := os.ReadFile(filepath.Join("testdata", "golden-v2.lckp"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	relabelled := append([]byte{}, v2...)
	relabelled[len(Magic)] = Version
	f.Add(relabelled)
	// A message payload of a kind no engine sends: the one byte in which
	// two encodings differing only in that kind differ.
	wb := testCheckpoint()
	msg := wb.Net.Messages[0].Payload.(cohsim.Msg)
	msg.Kind = cohsim.MsgWB
	wb.Net.Messages[0].Payload = msg
	var wbBuf bytes.Buffer
	if err := Write(&wbBuf, wb); err != nil {
		f.Fatal(err)
	}
	badKind := append([]byte{}, valid...)
	for i := range badKind {
		if badKind[i] != wbBuf.Bytes()[i] {
			badKind[i] = 200
			break
		}
	}
	f.Add(badKind)

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
