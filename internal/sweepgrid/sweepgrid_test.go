package sweepgrid

import (
	"context"
	"strings"
	"testing"
)

func mustGrid(t *testing.T, spec Spec) *Grid {
	t.Helper()
	g, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridOrderIsContextsMajor(t *testing.T) {
	g := mustGrid(t, Spec{
		Radix: 4, Dims: 2, Contexts: []int{1, 2}, Mappings: "identity,random:1",
		Warmup: 100, Window: 300, Ratio: 2,
	})
	if g.Len() != 4 {
		t.Fatalf("len = %d, want 4", g.Len())
	}
	var keys []string
	for i := 0; i < g.Len(); i++ {
		keys = append(keys, g.Key(i))
	}
	want := []string{"identity p=1", "random-1 p=1", "identity p=2", "random-1 p=2"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("grid order = %v, want %v", keys, want)
		}
	}
}

func TestGridRunRowDeterministic(t *testing.T) {
	spec := Spec{
		Radix: 4, Dims: 2, Contexts: []int{1}, Mappings: "identity",
		Warmup: 200, Window: 600, Ratio: 2,
	}
	row := func() []string {
		g := mustGrid(t, spec)
		met, err := g.Run(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return g.FormatRow(0, met)
	}
	a, b := row(), row()
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("same cell produced different rows:\n%v\n%v", a, b)
	}
	if len(a) != len(mustGrid(t, spec).Header()) {
		t.Errorf("row width %d != header width", len(a))
	}
	if a[0] != "identity" || a[2] != "1" {
		t.Errorf("row identity columns wrong: %v", a)
	}
}

// TestGridRunsMachinesPastDefaultCache: a 65×65 torus at one context
// has 4,225 state words, more than the default 4,096 cache lines, so
// the cell's machine needs a larger cache to run at all. The window is
// long enough for the cell to measure traffic.
func TestGridRunsMachinesPastDefaultCache(t *testing.T) {
	g := mustGrid(t, Spec{
		Radix: 65, Dims: 2, Contexts: []int{1}, Mappings: "identity,random:1",
		Warmup: 1, Window: 100, Ratio: 2,
	})
	if _, err := g.Run(context.Background(), 0); err != nil {
		t.Fatalf("cell %s: %v", g.Key(0), err)
	}
}

// TestGridRunRefusesAnEmptyWindow: a window too short to inject a
// message or complete a transaction is an error, not a row of zeros.
func TestGridRunRefusesAnEmptyWindow(t *testing.T) {
	g := mustGrid(t, Spec{Radix: 4, Dims: 2, Contexts: []int{1}, Mappings: "identity,random:1", Warmup: 1, Window: 1, Ratio: 2})
	for i := 0; i < g.Len(); i++ {
		if met, err := g.Run(context.Background(), i); err == nil || !strings.Contains(err.Error(), "no traffic measured") {
			t.Errorf("cell %s: metrics %+v, error %v; want a no-traffic error", g.Key(i), met, err)
		}
	}
}

func TestGridErrorRowShape(t *testing.T) {
	g := mustGrid(t, Spec{Radix: 4, Dims: 2, Contexts: []int{1}, Mappings: "identity", Warmup: 1, Window: 1, Ratio: 2})
	row := g.ErrorRow(0, context.DeadlineExceeded)
	if len(row) != len(g.Header()) {
		t.Fatalf("error row width %d != header width %d", len(row), len(g.Header()))
	}
	if !strings.HasPrefix(row[4], "error=") {
		t.Errorf("first measurement column = %q, want error= marker", row[4])
	}
	for _, cell := range row[5:] {
		if cell != "" {
			t.Errorf("error row padding not empty: %v", row)
		}
	}
}

func TestGridSpecValidation(t *testing.T) {
	bad := []Spec{
		{Radix: 4, Dims: 2, Mappings: "identity", Window: 1},                                     // no contexts
		{Radix: 4, Dims: 2, Contexts: []int{0}, Mappings: "identity", Window: 1},                 // bad context
		{Radix: 4, Dims: 2, Contexts: []int{1}, Mappings: "identity"},                            // no window
		{Radix: 4, Dims: 2, Contexts: []int{1}, Mappings: "nosuch", Window: 1},                   // bad selector
		{Radix: 4, Dims: 2, Contexts: []int{1}, Mappings: "identity", Window: 1, Kernel: "warp"}, // bad kernel
		{Radix: 4, Dims: 2, Contexts: []int{1}, Mappings: "identity", Window: 1, Watchdog: -5},   // negative watchdog
		{Radix: 4, Dims: 2, Contexts: []int{1}, Mappings: "identity", Window: 1, Ratio: -1},      // negative clock ratio
		{Radix: 2, Dims: 16, Contexts: []int{1}, Mappings: "identity", Window: 1},                // more dimensions than a network has
		{Radix: 1025, Dims: 2, Contexts: []int{1}, Mappings: "identity", Window: 1},              // more than 2^20 nodes
		{Radix: 4, Dims: 2, Contexts: []int{1, 1025}, Mappings: "identity", Window: 1},           // more contexts than a checkpoint holds
		{Radix: 4, Dims: 1, Contexts: []int{1<<60 + 1}, Mappings: "identity", Window: 1},         // state words that overflowed the cache sizing
		{Radix: 1024, Dims: 2, Contexts: []int{2}, Mappings: "identity", Window: 1},              // more than 2^20 state words
	}
	for i, spec := range bad {
		if _, err := New(spec); err == nil {
			t.Errorf("spec %d accepted, want error", i)
		}
	}
}
