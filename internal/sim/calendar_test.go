package sim

import (
	"reflect"
	"testing"
)

// hook is a scripted component that also runs fn each time it ticks:
// the stand-in for a protocol that wakes sleepers from its Tick.
type hook struct {
	*scripted
	k  *Kernel
	fn func(h *hook, now int64)
}

func (h *hook) Tick(now int64) {
	h.scripted.Tick(now)
	if h.fn != nil {
		h.fn(h, now)
	}
}

func TestSleeperTouchedBeforeItsSlotTicksThisCycle(t *testing.T) {
	s := newScripted(t) // quiescent until woken
	h := &hook{scripted: newScripted(t, 5), fn: func(h *hook, now int64) {
		if now == 5 {
			h.k.Touch(1)
			if s.last != 4 {
				t.Errorf("touched before its slot: sleeper applied through %d, want 4", s.last)
			}
			s.events[5] = true
		}
	}}
	k := New(h, s)
	h.k = k
	k.SetSleepers(1, 2)
	k.Run(10)
	// Cycle 0 ticks every sleeper (the calendar starts with all of
	// them due); the wake at 5 must tick it in cycle 5 itself.
	if want := []int64{0, 5}; !reflect.DeepEqual(s.ticked, want) {
		t.Errorf("sleeper ticked at %v, want %v", s.ticked, want)
	}
}

func TestSleeperTouchedAfterItsSlotTicksNextCycle(t *testing.T) {
	s := newScripted(t)
	h := &hook{scripted: newScripted(t, 5), fn: func(h *hook, now int64) {
		if now == 5 {
			h.k.Touch(0)
			if s.last != 5 {
				t.Errorf("touched after its slot: sleeper applied through %d, want 5", s.last)
			}
			s.events[6] = true
		}
	}}
	k := New(s, h)
	h.k = k
	k.SetSleepers(0, 1)
	k.Run(10)
	if want := []int64{0, 6}; !reflect.DeepEqual(s.ticked, want) {
		t.Errorf("sleeper ticked at %v, want %v", s.ticked, want)
	}
}

func TestRunReturnsWithSleepersCurrent(t *testing.T) {
	sleepers := []*scripted{newScripted(t, 3, 40), newScripted(t, 17), newScripted(t)}
	// The sampler runs after the sleepers' slots and syncs them, as the
	// machine's slicer does before reading processor counters.
	sampler := &hook{scripted: newScripted(t, 9, 33), fn: func(h *hook, now int64) {
		if !h.events[now] {
			return
		}
		h.k.Sync()
		for i, s := range sleepers {
			if s.last != now {
				t.Errorf("cycle %d: Sync left sleeper %d applied through %d", now, i, s.last)
			}
		}
	}}
	comps := []Component{newScripted(t, 25)}
	for _, s := range sleepers {
		comps = append(comps, s)
	}
	k := New(append(comps, sampler)...)
	sampler.k = k
	k.SetSleepers(1, 1+len(sleepers))
	for _, n := range []int64{7, 1, 30, 12} {
		k.Run(n)
		for i, s := range sleepers {
			if s.last != k.Now()-1 {
				t.Errorf("after Run to %d: sleeper %d applied through %d, want %d", k.Now(), i, s.last, k.Now()-1)
			}
		}
	}
	if got := sleepers[2].ticked; !reflect.DeepEqual(got, []int64{0}) {
		t.Errorf("quiescent sleeper ticked at %v, want only the first cycle", got)
	}
}

func TestRunTickTicksEverySleeper(t *testing.T) {
	a := newScripted(t, 2)
	s := newScripted(t, 30)
	k := New(a, s)
	k.SetSleepers(1, 2)
	k.Run(10) // builds the calendar; s ticks only at cycle 0
	k.RunTick(10)
	k.Run(20) // rebuilds it
	var want []int64
	want = append(want, 0)
	for c := int64(10); c < 21; c++ {
		want = append(want, c)
	}
	want = append(want, 30)
	if !reflect.DeepEqual(s.ticked, want) {
		t.Errorf("sleeper ticked at %v, want %v", s.ticked, want)
	}
	if s.last != 39 || a.last != 39 {
		t.Errorf("applied through %d / %d, want 39", a.last, s.last)
	}
}
