package main

import (
	"strings"
	"testing"

	"locality/internal/sweepgrid"
)

// testGrid builds a minimal grid under the named kernel, so
// resume parsing can be exercised against real Header/KernelComment
// values.
func testGrid(t *testing.T, kernel string) *sweepgrid.Grid {
	t.Helper()
	g, err := sweepgrid.New(sweepgrid.Spec{
		Radix: 4, Dims: 2, Contexts: []int{1}, Mappings: "identity",
		Warmup: 1, Window: 1, Ratio: 2, Kernel: kernel,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var testHeader = []string{"mapping", "d", "contexts", "prefetch", "B", "g", "tm", "rm", "Tm", "Tt", "tt", "rt", "utilization"}

func TestResumeRowsParsesPartialOutput(t *testing.T) {
	csv := strings.Join([]string{
		testGrid(t, "event").KernelComment(),
		strings.Join(testHeader, ","),
		"identity,1,1,false,11.9,3.2,21.4,0.046,12.8,34.4,35.1,0.0285,0.138",
		"random:1,2.5,1,false,11.9,3.2,21.4,0.046,12.8,34.4,35.1,0.0285,0.138",
		"transpose,2,1,false,error=machine stalled,,,,,,,,",
		"identity,1,2,false,11.9,3.2", // cut off mid-write
	}, "\n") + "\n"
	rows, err := resumeRows(strings.NewReader(csv), testGrid(t, "event"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rows[rowKey("identity", "1")]; !ok {
		t.Error("completed row identity/p1 not indexed")
	}
	if _, ok := rows[rowKey("random:1", "1")]; !ok {
		t.Error("completed row random:1/p1 not indexed")
	}
	// The error row and the truncated row are indexed (or not) but must
	// never be usable.
	prefix := []string{"transpose", "2", "1", "false"}
	if row, ok := rows[rowKey("transpose", "1")]; ok && usableResumeRow(row, prefix, len(testHeader)) {
		t.Error("error= row counted as usable")
	}
	prefix = []string{"identity", "1", "2", "false"}
	if row, ok := rows[rowKey("identity", "2")]; ok && usableResumeRow(row, prefix, len(testHeader)) {
		t.Error("truncated row counted as usable")
	}
}

func TestResumeRowsDropsTrailingGarbage(t *testing.T) {
	// A crash can leave a final line with an unterminated quote, or cut
	// a row inside its last field so that it still has full width; rows
	// before it must survive, the torn tail must not.
	for _, tail := range []string{
		`random:1,2.5,1,false,"11.9`,
		"random:1,2.5,1,false,11.9,3.2,21.4,0.046,12.8,34.4,35.1,0.0285,0.",
	} {
		csv := strings.Join(testHeader, ",") + "\n" +
			"identity,1,1,false,11.9,3.2,21.4,0.046,12.8,34.4,35.1,0.0285,0.138\n" + tail
		rows, err := resumeRows(strings.NewReader(csv), testGrid(t, "event"))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rows[rowKey("identity", "1")]; !ok {
			t.Errorf("tail %q: row before the torn tail was dropped", tail)
		}
		if _, ok := rows[rowKey("random:1", "1")]; ok {
			t.Errorf("tail %q: torn trailing row was indexed", tail)
		}
	}
}

func TestResumeRowsRejectsHeaderMismatch(t *testing.T) {
	faultHeader := strings.Join(append(append([]string{}, testHeader...), "retries", "home_retries", "dropped", "fault_cycles"), ",")
	if _, err := resumeRows(strings.NewReader(faultHeader+"\n"), testGrid(t, "event")); err == nil {
		t.Error("output with the retired fault-accounting columns accepted for resume")
	}
	if _, err := resumeRows(strings.NewReader(""), testGrid(t, "event")); err == nil {
		t.Error("empty resume file accepted")
	}
}

func TestResumeRowsRejectsKernelMismatch(t *testing.T) {
	body := strings.Join(testHeader, ",") + "\n" +
		"identity,1,1,false,11.9,3.2,21.4,0.046,12.8,34.4,35.1,0.0285,0.138\n"

	// An event sweep must refuse rows recorded under the tick kernel,
	// and name both kernels in the error.
	in := testGrid(t, "tick").KernelComment() + "\n" + body
	_, err := resumeRows(strings.NewReader(in), testGrid(t, "event"))
	if err == nil {
		t.Fatal("tick-kernel resume file accepted for an event sweep")
	}
	for _, want := range []string{"tick", "event"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("kernel-mismatch error %q does not name %q", err, want)
		}
	}

	// Rows from a kernel this build no longer has are refused too.
	if _, err := resumeRows(strings.NewReader("# kernel=sharded\n"+body), testGrid(t, "event")); err == nil {
		t.Error("resume file from the removed sharded kernel accepted")
	}

	// Matching kernel comment: accepted, rows indexed.
	in = testGrid(t, "tick").KernelComment() + "\n" + body
	rows, err := resumeRows(strings.NewReader(in), testGrid(t, "tick"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rows[rowKey("identity", "1")]; !ok {
		t.Error("row under the matching kernel comment not indexed")
	}

	// Legacy file with no kernel comment: accepted for compatibility.
	if _, err := resumeRows(strings.NewReader(body), testGrid(t, "tick")); err != nil {
		t.Errorf("legacy resume file without kernel comment rejected: %v", err)
	}
}

func TestUsableResumeRow(t *testing.T) {
	prefix := []string{"identity", "1", "2", "false"}
	good := []string{"identity", "1", "2", "false", "11.9", "3.2", "21.4", "0.046", "12.8", "34.4", "35.1", "0.0285", "0.138"}
	if !usableResumeRow(good, prefix, len(testHeader)) {
		t.Error("complete row rejected")
	}
	cases := map[string][]string{
		"short row":        good[:7],
		"error row":        {"identity", "1", "2", "false", "error=stalled", "", "", "", "", "", "", "", ""},
		"empty measure":    {"identity", "1", "2", "false", "", "", "", "", "", "", "", "", ""},
		"wrong mapping":    append([]string{"random:1"}, good[1:]...),
		"wrong prefetch":   {"identity", "1", "2", "true", "11.9", "3.2", "21.4", "0.046", "12.8", "34.4", "35.1", "0.0285", "0.138"},
		"wrong distance":   {"identity", "2", "2", "false", "11.9", "3.2", "21.4", "0.046", "12.8", "34.4", "35.1", "0.0285", "0.138"},
		"extra column row": append(append([]string{}, good...), "x"),
	}
	for name, row := range cases {
		if usableResumeRow(row, prefix, len(testHeader)) {
			t.Errorf("%s counted as usable", name)
		}
	}
}
