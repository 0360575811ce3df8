package sim

import (
	"reflect"
	"testing"
)

// scripted is a component with a fixed set of event cycles. Each event
// cycle must be executed via Tick; it records every Tick and every
// Advance span so tests can verify the kernel never skips over an
// event and always partitions time exactly.
type scripted struct {
	t      *testing.T
	events map[int64]bool // cycles at which this component acts
	last   int64          // last cycle either ticked or advanced through

	ticked   []int64
	advanced [][2]int64 // (from, to] spans applied in bulk
	quietAcc int64      // per-cycle state accrued while quiescent
}

func newScripted(t *testing.T, events ...int64) *scripted {
	m := make(map[int64]bool, len(events))
	for _, e := range events {
		m[e] = true
	}
	return &scripted{t: t, events: m, last: -1}
}

func (s *scripted) Tick(now int64) {
	if now != s.last+1 {
		s.t.Fatalf("Tick(%d) after last=%d: kernel skipped over cycles without Advance", now, s.last)
	}
	s.last = now
	s.ticked = append(s.ticked, now)
	if !s.events[now] {
		s.quietAcc++ // quiescent cycles accrue whether ticked or advanced
	}
}

func (s *scripted) NextEvent() int64 {
	next := Never
	for e := range s.events {
		if e > s.last && e < next {
			next = e
		}
	}
	return next
}

func (s *scripted) Advance(to int64) {
	if to <= s.last {
		s.t.Fatalf("Advance(%d) with last=%d: non-positive span", to, s.last)
	}
	for c := s.last + 1; c <= to; c++ {
		if s.events[c] {
			s.t.Fatalf("Advance(%d) skipped over event at cycle %d", to, c)
		}
	}
	s.advanced = append(s.advanced, [2]int64{s.last, to})
	s.quietAcc += to - s.last
	s.last = to
}

func TestRunExecutesEveryEventCycle(t *testing.T) {
	a := newScripted(t, 0, 7, 8, 30)
	b := newScripted(t, 3, 29)
	k := New(a, b)
	k.Run(40)

	if k.Now() != 40 {
		t.Fatalf("Now() = %d, want 40", k.Now())
	}
	// Every event cycle of every component must have been executed.
	for _, s := range []*scripted{a, b} {
		got := make(map[int64]bool)
		for _, c := range s.ticked {
			got[c] = true
		}
		for e := range s.events {
			if !got[e] {
				t.Errorf("event cycle %d never ticked (ticked %v)", e, s.ticked)
			}
		}
	}
	// Both components see the same executed cycles: the kernel ticks
	// all components on every executed cycle.
	if !reflect.DeepEqual(a.ticked, b.ticked) {
		t.Errorf("components ticked on different cycles: %v vs %v", a.ticked, b.ticked)
	}
	st := k.Stats()
	if st.Ticked+st.Skipped != 40 {
		t.Errorf("Ticked %d + Skipped %d != 40", st.Ticked, st.Skipped)
	}
	if st.Skipped == 0 {
		t.Error("expected some cycles skipped for a sparse event script")
	}
	// Per-cycle quiescent accrual must cover every non-event cycle
	// exactly once, ticked or advanced.
	wantQuiet := int64(40 - len(a.events))
	if a.quietAcc != wantQuiet {
		t.Errorf("a.quietAcc = %d, want %d", a.quietAcc, wantQuiet)
	}
}

func TestRunMatchesRunTick(t *testing.T) {
	run := func(event bool) (*scripted, *scripted, Stats) {
		a := newScripted(t, 1, 2, 3, 17)
		b := newScripted(t, 5, 50, 51)
		k := New(a, b)
		if event {
			k.Run(60)
		} else {
			k.RunTick(60)
		}
		return a, b, k.Stats()
	}
	ea, eb, est := run(true)
	ta, tb, tst := run(false)
	// Identical end state: same last cycle, same quiescent accrual.
	if ea.last != ta.last || eb.last != tb.last {
		t.Errorf("last cycles differ: event (%d,%d) vs tick (%d,%d)", ea.last, eb.last, ta.last, tb.last)
	}
	if ea.quietAcc != ta.quietAcc || eb.quietAcc != tb.quietAcc {
		t.Errorf("quiescent accrual differs: event (%d,%d) vs tick (%d,%d)",
			ea.quietAcc, eb.quietAcc, ta.quietAcc, tb.quietAcc)
	}
	if tst.Skipped != 0 || tst.Ticked != 60 {
		t.Errorf("tick mode stats = %+v, want 60 ticked / 0 skipped", tst)
	}
	if est.Cycles() != 60 {
		t.Errorf("event mode Cycles() = %d, want 60", est.Cycles())
	}
}

func TestAllQuiescentSkipsToEnd(t *testing.T) {
	a := newScripted(t) // no events at all
	k := New(a)
	k.Run(1000)
	if k.Now() != 1000 {
		t.Fatalf("Now() = %d, want 1000", k.Now())
	}
	st := k.Stats()
	// First cycle of the run is always executed; the rest skip.
	if st.Ticked != 1 || st.Skipped != 999 {
		t.Errorf("stats = %+v, want 1 ticked / 999 skipped", st)
	}
	if a.quietAcc != 1000 {
		t.Errorf("quietAcc = %d, want 1000", a.quietAcc)
	}
}

func TestOnSkipReportsExactSpans(t *testing.T) {
	a := newScripted(t, 0, 10)
	k := New(a)
	var spans [][2]int64
	k.SetOnSkip(func(from, to int64) { spans = append(spans, [2]int64{from, to}) })
	k.Run(20)
	// Cycle 0 executes, 1..9 skip (to=10), 10 executes, 11..19 skip (to=20).
	want := [][2]int64{{1, 10}, {11, 20}}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("skip spans = %v, want %v", spans, want)
	}
}

func TestRunAcrossChunkBoundaries(t *testing.T) {
	// Many Run calls must behave like one long run: end state and
	// total cycles identical, only the forced first-cycle executions
	// differ in the ticked/skipped split.
	chunked := newScripted(t, 4, 99, 100)
	kc := New(chunked)
	for i := 0; i < 30; i++ {
		kc.Run(5)
	}
	whole := newScripted(t, 4, 99, 100)
	kw := New(whole)
	kw.Run(150)

	if kc.Now() != 150 || kw.Now() != 150 {
		t.Fatalf("Now() = %d / %d, want 150", kc.Now(), kw.Now())
	}
	if chunked.last != whole.last || chunked.quietAcc != whole.quietAcc {
		t.Errorf("chunked end state (last %d, quiet %d) != whole (last %d, quiet %d)",
			chunked.last, chunked.quietAcc, whole.last, whole.quietAcc)
	}
	if got := kc.Stats().Cycles(); got != 150 {
		t.Errorf("chunked Cycles() = %d, want 150", got)
	}
}

// immediate reports NextEvent == now+1 always, so nothing ever skips.
type immediate struct{ ticks int64 }

func (i *immediate) Tick(now int64)   { i.ticks++ }
func (i *immediate) NextEvent() int64 { return i.ticks } // == last+1
func (i *immediate) Advance(to int64) { panic("must never advance") }

func TestAlwaysBusyComponentPreventsSkipping(t *testing.T) {
	i := &immediate{}
	k := New(i)
	k.Run(64)
	if i.ticks != 64 {
		t.Errorf("ticks = %d, want 64", i.ticks)
	}
	if st := k.Stats(); st.Skipped != 0 {
		t.Errorf("Skipped = %d, want 0", st.Skipped)
	}
}

func TestParseKernel(t *testing.T) {
	for in, want := range map[string]KernelKind{"event": KernelEvent, "tick": KernelTick} {
		got, err := ParseKernel(in)
		if err != nil || got != want {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v", in, got, err, want)
		}
		if got.String() != in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), in)
		}
	}
	for _, in := range []string{"parallel", "sharded"} {
		if _, err := ParseKernel(in); err == nil {
			t.Errorf("ParseKernel accepted the unknown kernel %q", in)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Ticked: 25, Skipped: 75}
	if s.Cycles() != 100 {
		t.Errorf("Cycles() = %d", s.Cycles())
	}
	if got := s.SkipRatio(); got != 0.75 {
		t.Errorf("SkipRatio() = %v, want 0.75", got)
	}
	if (Stats{}).SkipRatio() != 0 {
		t.Error("zero Stats SkipRatio should be 0")
	}
	d := s.Sub(Stats{Ticked: 5, Skipped: 25})
	if d != (Stats{Ticked: 20, Skipped: 50}) {
		t.Errorf("Sub = %+v", d)
	}
}
