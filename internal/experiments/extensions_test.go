package experiments

import (
	"context"
	"testing"
)

func TestRunTolerance(t *testing.T) {
	cfg := ToleranceConfig{Radix: 4, Dims: 2, Warmup: 1500, Window: 6000, Mapping: "random:1"}
	rows, err := RunTolerance(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	if rows[0].SpeedupVsBase != 1 {
		t.Errorf("baseline speedup = %g, want 1", rows[0].SpeedupVsBase)
	}
	// Every tolerance mechanism must beat blocking.
	for _, r := range rows[1:] {
		if r.SpeedupVsBase <= 1 {
			t.Errorf("%s speedup = %.2f, want > 1", r.Label, r.SpeedupVsBase)
		}
	}
	// Four contexts hide the most latency.
	if rows[5].SpeedupVsBase <= rows[4].SpeedupVsBase {
		t.Errorf("p=4 (%.2f) should beat p=2 (%.2f)", rows[5].SpeedupVsBase, rows[4].SpeedupVsBase)
	}
	// Combining prefetch with weak ordering beats either alone.
	if rows[3].SpeedupVsBase <= rows[1].SpeedupVsBase || rows[3].SpeedupVsBase <= rows[2].SpeedupVsBase {
		t.Errorf("combined mechanisms (%.2f) should beat prefetch (%.2f) and weak ordering (%.2f) alone",
			rows[3].SpeedupVsBase, rows[1].SpeedupVsBase, rows[2].SpeedupVsBase)
	}
}

func TestRunToleranceErrors(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultToleranceConfig()
	cfg.Mapping = "bogus"
	if _, err := RunTolerance(ctx, cfg); err == nil {
		t.Error("bad mapping selector should error")
	}
	cfg = DefaultToleranceConfig()
	cfg.Radix = 0
	if _, err := RunTolerance(ctx, cfg); err == nil {
		t.Error("bad radix should error")
	}
}

func TestRunDimensionStudy(t *testing.T) {
	fc := DimensionConfig{Nodes: 4096, Dims: []int{1, 2, 3, 4}, Contexts: 1}
	rows, err := RunDimensionStudy(fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		// Higher dimension ⇒ shorter random distances, lower Th limit,
		// smaller locality gain, better absolute random performance.
		if rows[i].RandomDistance >= rows[i-1].RandomDistance {
			t.Errorf("n=%d: random distance should fall with dimension", rows[i].Dims)
		}
		if rows[i].HopLimit >= rows[i-1].HopLimit {
			t.Errorf("n=%d: Th limit should fall with dimension", rows[i].Dims)
		}
		if rows[i].Gain >= rows[i-1].Gain {
			t.Errorf("n=%d: locality gain should fall with dimension", rows[i].Dims)
		}
		if rows[i].RandomIssueTime >= rows[i-1].RandomIssueTime {
			t.Errorf("n=%d: random-mapping tt should improve with dimension", rows[i].Dims)
		}
	}
}
