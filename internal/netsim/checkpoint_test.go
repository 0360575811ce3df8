package netsim

import (
	"math/rand"
	"strings"
	"testing"
)

// midTrafficCheckpoint captures a 4×4 fabric mid-traffic, with worms
// stretched across routers, and checks that the capture restores.
func midTrafficCheckpoint(t *testing.T) CheckpointState {
	t.Helper()
	nw := newNet(t, 4, 2, 4)
	rng := rand.New(rand.NewSource(41))
	for cycle := 0; cycle < 60; cycle++ {
		sendRandom(t, rng, nw)
		nw.Step()
	}
	s := nw.Checkpoint()
	if err := newNet(t, 4, 2, 4).Restore(s); err != nil {
		t.Fatalf("unmutated checkpoint: %v", err)
	}
	return s
}

// fedInput returns a held output of s whose feeding input buffers
// flits, as (router position in s.Routers, output key, input).
func fedInput(t *testing.T, s CheckpointState) (r, key, input int) {
	t.Helper()
	for r, rs := range s.Routers {
		for key, owner := range rs.Owner {
			if owner != -1 && len(rs.Inputs[rs.OwnerInput[key]]) > 0 {
				return r, key, rs.OwnerInput[key]
			}
		}
	}
	t.Fatal("checkpoint holds no worm with buffered body flits")
	return 0, 0, 0
}

// TestRestoreRejectsUndrainableStates mutates a real checkpoint into
// fabric states no run can reach and requires Restore to reject each.
// decide trusts wormhole order instead of re-checking it every cycle:
// an occupied input that feeds no held output fronts a head, a fed
// input fronts its worm's next flit, and only this cycle's injection is
// too new to move. Each state below breaks one of these, so decide
// would move the wrong flits or, with the owners cleared, none at all:
// that fabric delivers nothing and its LastProgress never advances.
func TestRestoreRejectsUndrainableStates(t *testing.T) {
	mutations := []struct {
		name   string
		want   string // in the error
		mutate func(t *testing.T, s *CheckpointState)
	}{
		{"owners cleared, so body flits front inputs that feed nothing", "feeds no output", func(t *testing.T, s *CheckpointState) {
			fedInput(t, *s)
			for _, rs := range s.Routers {
				for key := range rs.Owner {
					rs.Owner[key], rs.OwnerInput[key] = -1, 0
				}
			}
		}},
		{"fed input fronted by another message's flit", "but fronts flit", func(t *testing.T, s *CheckpointState) {
			r, key, input := fedInput(t, *s)
			front := &s.Routers[r].Inputs[input][0]
			for m, ms := range s.Messages {
				if m != s.Routers[r].Owner[key] && ms.Size > front.Seq {
					front.Msg = m
					return
				}
			}
			t.Fatal("no other message can take the front flit's place")
		}},
		{"input feeding two held outputs", "feeds two held outputs", func(t *testing.T, s *CheckpointState) {
			r, key, input := fedInput(t, *s)
			rs := s.Routers[r]
			for other, owner := range rs.Owner {
				if owner == -1 {
					rs.Owner[other], rs.OwnerInput[other] = rs.Owner[key], input
					return
				}
			}
			t.Fatal("router holds every output")
		}},
		{"buffered flit that arrived at Now", "not before cycle", func(t *testing.T, s *CheckpointState) {
			r, _, input := fedInput(t, *s)
			flits := s.Routers[r].Inputs[input]
			flits[len(flits)-1].ArrivedAt = s.Now
		}},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			s := midTrafficCheckpoint(t)
			tc.mutate(t, &s)
			err := newNet(t, 4, 2, 4).Restore(s)
			if err == nil {
				t.Fatal("Restore accepted a fabric state no run can reach")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore rejected the state for another reason: %v", err)
			}
		})
	}
}
