package loops

import (
	"fmt"
	"math/rand"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
)

// setCandidateWorkers pins the candidate worker pool width for the duration
// of a test and restores the GOMAXPROCS default afterwards.
func setCandidateWorkers(t *testing.T, n int) {
	t.Helper()
	old := candidateWorkers
	candidateWorkers = func() int { return n }
	t.Cleanup(func() { candidateWorkers = old })
}

// manyCandidateLoop builds a loop body with loop-carried edges into and out
// of several distinct nodes, so the §5.2.3 search has a wide candidate set
// (base + multiple sources + multiple sinks).
func manyCandidateLoop(r *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddUnit(fmt.Sprintf("n%d", i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.3 {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(3), 0)
			}
		}
	}
	for k := 0; k < 3+r.Intn(4); k++ {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		g.MustEdge(u, v, 2+r.Intn(3), 1+r.Intn(2))
	}
	return g
}

func sameEvents(a, b []obs.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDifferentialParallelCandidateSearchMatchesSerial pins the worker-pool
// evaluation to the serial loop it replaced: same chosen schedule and the
// same trace event stream (candidate events in candidate order), regardless
// of pool width.
func TestDifferentialParallelCandidateSearchMatchesSerial(t *testing.T) {
	m := machine.SingleUnit(4)
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := manyCandidateLoop(r, 3+r.Intn(8))

		setCandidateWorkers(t, 1)
		serialRec := obs.NewRecorder()
		serial, err := ScheduleLoopOpts(g, m, Opts{Tracer: serialRec})
		if err != nil {
			t.Fatalf("seed %d: serial: %v", seed, err)
		}

		for _, workers := range []int{2, 4, 16} {
			setCandidateWorkers(t, workers)
			rec := obs.NewRecorder()
			par, err := ScheduleLoopOpts(g, m, Opts{Tracer: rec})
			if err != nil {
				t.Fatalf("seed %d workers %d: parallel: %v", seed, workers, err)
			}
			if par.II != serial.II || par.Makespan != serial.Makespan {
				t.Fatalf("seed %d workers %d: (II,makespan)=(%d,%d), serial (%d,%d)",
					seed, workers, par.II, par.Makespan, serial.II, serial.Makespan)
			}
			if fmt.Sprint(par.Order) != fmt.Sprint(serial.Order) {
				t.Fatalf("seed %d workers %d: orders differ\n got %v\n want %v",
					seed, workers, par.Order, serial.Order)
			}
			for v := 0; v < par.S.G.Len(); v++ {
				if par.S.Start[v] != serial.S.Start[v] || par.S.Unit[v] != serial.S.Unit[v] {
					t.Fatalf("seed %d workers %d: schedule differs at node %d", seed, workers, v)
				}
			}
			if !sameEvents(rec.Events(), serialRec.Events()) {
				t.Fatalf("seed %d workers %d: trace events differ\n got %v\n want %v",
					seed, workers, rec.Events(), serialRec.Events())
			}
		}
	}
}

// TestRaceParallelCandidateSearch drives wide candidate sets through a
// deliberately oversubscribed pool so `go test -race` exercises the
// concurrent path (workers beyond GOMAXPROCS force goroutine interleaving).
func TestRaceParallelCandidateSearch(t *testing.T) {
	setCandidateWorkers(t, 8)
	for seed := int64(100); seed < 110; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := manyCandidateLoop(r, 6+r.Intn(6))
		for _, m := range []*machine.Machine{machine.SingleUnit(4), machine.Superscalar(2, 4)} {
			st, err := ScheduleLoopOpts(g, m, Opts{Tracer: obs.NewRecorder()})
			if err != nil {
				t.Fatalf("seed %d on %s: %v", seed, m.Name, err)
			}
			if st == nil || st.II < 1 || st.S.Validate() != nil {
				t.Fatalf("seed %d on %s: invalid steady state", seed, m.Name)
			}
		}
	}
}
