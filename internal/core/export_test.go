package core

import (
	"sync/atomic"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/sched"
)

// Chop exposes the chop step for white-box tests.
func Chop(s *sched.Schedule, w int) (minus, plus []graph.NodeID, base int) {
	return chop(s, w)
}

// LoosenJumps counts the merge loosening loops that settled (see settle),
// by outcome: Feasible jumped to the first feasible round, Far counts those
// jumps that spanned more than one round, Limit ran out the rounds left, and
// Repin counts either outcome on the repair path.
type LoosenJumps struct {
	Feasible, Far, Limit, Repin atomic.Int64
}

// CountLoosenJumps counts every settled loosening loop until tb ends.
func CountLoosenJumps(tb testing.TB) *LoosenJumps {
	j := &LoosenJumps{}
	loosenJumpHook = func(rounds int, feasible, repin bool) {
		switch {
		case repin:
			j.Repin.Add(1)
		case feasible:
			j.Feasible.Add(1)
			if rounds > 1 {
				j.Far.Add(1)
			}
		default:
			j.Limit.Add(1)
		}
	}
	tb.Cleanup(func() { loosenJumpHook = nil })
	return j
}
