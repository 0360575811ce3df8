package sim

import (
	"fmt"
	"math/rand"
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

// rig is one TestRunMatchesRunTick input: components in registration
// order, the scripted state behind each (states[0] is never a
// sleeper, so its ticks are the executed cycles), the sleeper range,
// and the hooks that need the kernel.
type rig struct {
	comps  []Component
	states []*scripted
	lo, hi int
	hooks  []*hook
}

// fixedRig is two fixed scripts; the second is a sleeper.
func fixedRig(t *testing.T) rig {
	a := newScripted(t, 1, 2, 3, 17)
	b := newScripted(t, 5, 50, 51)
	return rig{comps: []Component{a, b}, states: []*scripted{a, b}, lo: 1, hi: 2}
}

// wakeRig is a random script: six sleepers between two hooks. At each
// of its own event cycles a hook touches one sleeper and gives it an
// event, as the protocol wakes a processor: the hook before the
// sleepers at the current cycle, the hook after them at a later one.
// The wake plan is drawn up front, so every kernel mode applies the
// same changes.
func wakeRig(t *testing.T, seed int64, cycles int64) rig {
	rng := rand.New(rand.NewSource(seed))
	draw := func(p float64) []int64 {
		var ev []int64
		for c := int64(0); c < cycles; c++ {
			if rng.Float64() < p {
				ev = append(ev, c)
			}
		}
		return ev
	}
	const n = 6
	r := rig{lo: 1, hi: 1 + n}
	preEv, postEv := draw(0.06), draw(0.06)
	sleepers := make([]*scripted, n)
	for i := range sleepers {
		sleepers[i] = newScripted(t, draw(0.02)...)
	}
	type wake struct {
		s     int
		delay int64
	}
	preWake, postWake := map[int64]wake{}, map[int64]wake{}
	for _, c := range preEv {
		preWake[c] = wake{s: rng.Intn(n)}
	}
	for _, c := range postEv {
		postWake[c] = wake{s: rng.Intn(n), delay: 1 + rng.Int63n(20)}
	}
	waker := func(plan map[int64]wake) func(*hook, int64) {
		return func(h *hook, now int64) {
			if w, ok := plan[now]; ok {
				h.k.Touch(r.lo + w.s)
				sleepers[w.s].events[now+w.delay] = true
			}
		}
	}
	pre := &hook{scripted: newScripted(t, preEv...), fn: waker(preWake)}
	post := &hook{scripted: newScripted(t, postEv...), fn: waker(postWake)}
	r.comps = append(r.comps, pre)
	r.states = append(r.states, pre.scripted)
	for _, s := range sleepers {
		r.comps = append(r.comps, s)
		r.states = append(r.states, s)
	}
	r.comps = append(r.comps, post)
	r.states = append(r.states, post.scripted)
	r.hooks = []*hook{pre, post}
	return r
}

type rigMode int

const (
	modeTick rigMode = iota
	modeDense
	modeSleepers
)

type rigResult struct {
	last, quiet []int64
	executed    []int64
	stats       Stats
	attr        []int64
	none        int64
	pending     []int
	sweeps      [][2]int64 // next event and argmin after each chunk
}

func runRig(r rig, mode rigMode, attr bool, chunks []int64) rigResult {
	k := New(r.comps...)
	for _, h := range r.hooks {
		h.k = k
	}
	if mode == modeSleepers {
		k.SetSleepers(r.lo, r.hi)
	}
	if attr {
		k.EnableAttribution()
	}
	var res rigResult
	for _, n := range chunks {
		if mode == modeTick {
			k.RunTick(n)
		} else {
			k.Run(n)
		}
		res.pending = append(res.pending, k.pending)
		if attr {
			next, arg := k.sweep()
			res.sweeps = append(res.sweeps, [2]int64{next, int64(arg)})
		}
	}
	for _, s := range r.states {
		res.last = append(res.last, s.last)
		res.quiet = append(res.quiet, s.quietAcc)
	}
	res.executed = r.states[0].ticked
	res.stats = k.Stats()
	res.attr, res.none = k.Attribution()
	return res
}

// TestRunMatchesRunTick runs each input under RunTick, under Run with
// every component ticked on every executed cycle, and under Run with
// sleepers. All three must leave every component in the same state.
// The two Run variants must also execute the same cycles, charge them
// to the same components, and agree on the next event and its argmin
// after every chunk.
func TestRunMatchesRunTick(t *testing.T) {
	type input struct {
		name   string
		build  func() rig
		chunks []int64 // lengths of successive Run/RunTick calls
	}
	inputs := []input{
		{"fixed", func() rig { return fixedRig(t) }, []int64{60}},
		// The sleeper ticks at 50, the last cycle of a Run, and is due
		// again at 51, the first cycle of the next.
		{"fixed/chunked", func() rig { return fixedRig(t) }, []int64{5, 46, 9}},
	}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(-seed))
		var chunks []int64
		total := int64(0)
		for total < 400 {
			n := 1 + rng.Int63n(60)
			chunks = append(chunks, n)
			total += n
		}
		inputs = append(inputs, input{fmt.Sprintf("wake/seed%d", seed), func() rig { return wakeRig(t, seed, total+40) }, chunks})
	}
	for _, in := range inputs {
		var total int64
		for _, n := range in.chunks {
			total += n
		}
		for _, attr := range []bool{false, true} {
			name := in.name
			if attr {
				name += "/attr"
			}
			t.Run(name, func(t *testing.T) {
				tick := runRig(in.build(), modeTick, attr, in.chunks)
				dense := runRig(in.build(), modeDense, attr, in.chunks)
				sleep := runRig(in.build(), modeSleepers, attr, in.chunks)
				for _, got := range []rigResult{dense, sleep} {
					if !reflect.DeepEqual(got.last, tick.last) || !reflect.DeepEqual(got.quiet, tick.quiet) {
						t.Errorf("end state differs from tick mode: last %v quiet %v, tick last %v quiet %v",
							got.last, got.quiet, tick.last, tick.quiet)
					}
					if got.stats.Cycles() != total {
						t.Errorf("event mode Cycles() = %d, want %d", got.stats.Cycles(), total)
					}
				}
				if tick.stats != (Stats{Ticked: total}) {
					t.Errorf("tick mode stats = %+v, want %d ticked / 0 skipped", tick.stats, total)
				}
				if !reflect.DeepEqual(sleep.executed, dense.executed) {
					t.Errorf("executed cycles differ:\n dense:    %v\n sleepers: %v", dense.executed, sleep.executed)
				}
				if sleep.stats != dense.stats || !reflect.DeepEqual(sleep.pending, dense.pending) {
					t.Errorf("stats/pending differ: dense %+v %v, sleepers %+v %v", dense.stats, dense.pending, sleep.stats, sleep.pending)
				}
				if !reflect.DeepEqual(sleep.attr, dense.attr) || sleep.none != dense.none {
					t.Errorf("attribution differs: dense %v+%d, sleepers %v+%d", dense.attr, dense.none, sleep.attr, sleep.none)
				}
				if !reflect.DeepEqual(sleep.sweeps, dense.sweeps) || !reflect.DeepEqual(tick.sweeps, dense.sweeps) {
					t.Errorf("next events differ:\n tick:     %v\n dense:    %v\n sleepers: %v", tick.sweeps, dense.sweeps, sleep.sweeps)
				}
			})
		}
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
