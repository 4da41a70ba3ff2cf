package idle_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"aisched/internal/graph"
	"aisched/internal/idle"
	"aisched/internal/machine"
	"aisched/internal/opt"
	"aisched/internal/rank"
)

// latestIdleSlots is the oracle for the paper's §3 claim that repeated
// Move_Idle_Slot application yields a minimum-makespan schedule whose idle
// slots each occur as late as possible. For a single-unit restricted
// instance it returns the optimal makespan (the exact oracle with every
// instruction in the window) and, for each idle-slot ordinal, the latest
// start of that slot over every minimum-makespan schedule, found by
// enumerating schedules with deliberate idling. Exponential: small
// instances only.
func latestIdleSlots(g *graph.Graph, m *machine.Machine) (int, []int, error) {
	n := g.Len()
	best, _, _, err := opt.OptimalTrace(context.Background(), g, m.WithWindow(n), opt.Limits{})
	if err != nil || n == 0 {
		return best, nil, err
	}
	// Every optimal schedule of a unit-execution instance has the same
	// number of idle slots: the makespan less the total execution time.
	total := 0
	for v := 0; v < n; v++ {
		total += g.Node(graph.NodeID(v)).Exec
	}
	slots := best - total
	if slots <= 0 {
		return best, nil, nil
	}
	latest := make([]int, slots)
	for i := range latest {
		latest[i] = -1
	}

	finish := make([]int, n)
	// release is v's earliest start given the placed predecessors, or -1
	// while one is unplaced.
	release := func(mask uint32, v graph.NodeID) int {
		r := 0
		for _, e := range g.In(v) {
			if e.Distance != 0 {
				continue
			}
			if mask&(1<<uint(e.Src)) == 0 {
				return -1
			}
			r = max(r, finish[e.Src]+e.Latency)
		}
		return r
	}
	var dfs func(mask uint32, t int)
	dfs = func(mask uint32, t int) {
		if mask == (1<<uint(n))-1 {
			if t != best {
				return
			}
			busy := make([]bool, best)
			for v := 0; v < n; v++ {
				for c := finish[v] - g.Node(graph.NodeID(v)).Exec; c < finish[v]; c++ {
					busy[c] = true
				}
			}
			ord := 0
			for c := 0; c < best && ord < slots; c++ {
				if !busy[c] {
					latest[ord] = max(latest[ord], c)
					ord++
				}
			}
			return
		}
		if t >= best {
			return
		}
		next := best + 1
		anyReady := false
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				continue
			}
			r := release(mask, graph.NodeID(v))
			if r < 0 {
				continue
			}
			if r <= t {
				anyReady = true
				e := g.Node(graph.NodeID(v)).Exec
				finish[v] = t + e
				dfs(mask|1<<uint(v), t+e)
				finish[v] = 0
			} else if r < next {
				next = r
			}
		}
		// Idle this cycle: forced when nothing is ready, deliberate
		// otherwise (the slot positions are what is maximized).
		if !anyReady && next <= best {
			dfs(mask, next)
		} else if anyReady {
			dfs(mask, t+1)
		}
	}
	dfs(0, 0)
	return best, latest, nil
}

// T4 companion for §3: after Delay_Idle_Slots, the schedule is still
// optimal and its FIRST idle slot sits at the latest start achievable by
// any minimum-makespan schedule; every later slot is within the oracle's
// per-ordinal bound.
func TestPropertyDelayIdleSlotsMaximalOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		p := 0.2 + r.Float64()*0.3
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddUnit("n")
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < p {
					g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(2), 0)
				}
			}
		}
		m := machine.SingleUnit(1)
		s, err := rank.Makespan(g, m)
		if err != nil {
			return false
		}
		d := rank.UniformDeadlines(g.Len(), s.Makespan())
		out, _, err := idle.DelayIdleSlots(s, m, d, nil)
		if err != nil {
			return false
		}
		best, latest, err := latestIdleSlots(g, m)
		if err != nil {
			return false
		}
		if out.Makespan() != best {
			return false
		}
		slots := out.IdleSlotsOnUnit(0)
		if len(slots) != len(latest) {
			return false
		}
		for i, st := range slots {
			if st > latest[i] {
				return false // impossible: beyond every optimal schedule
			}
		}
		if len(slots) > 0 && slots[0] != latest[0] {
			t.Logf("seed %d: first idle at %d, oracle max %d (slots %v vs %v)",
				seed, slots[0], latest[0], slots, latest)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
