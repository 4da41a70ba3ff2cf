// Package loops implements the loop-scheduling algorithms of Sarkar &
// Simons (SPAA '96, §5): anticipatory instruction scheduling when the trace
// of basic blocks is enclosed in a loop.
//
// Steady-state model: the compiler emits one static schedule for the loop
// body; in steady state the body repeats with a fixed initiation interval
// II, so n iterations complete in makespan + (n−1)·II cycles. II is bounded
// below by every loop-carried dependence edge (u, v, <ℓ, d>):
//
//	σ(v) + d·II ≥ σ(u) + exec(u) + ℓ
//
// where σ are the start offsets within one iteration, and by resource
// conflicts of the offsets modulo II. This reproduces the paper's Figure 3
// (7 vs 6 cycles per iteration) and Figure 8 (5n−1 vs 4n) exactly.
package loops

import (
	"fmt"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/sched"
)

// bodyScheduleLI computes the intra-iteration schedule of a loop body for a
// given static order: the greedy schedule over the loop-independent
// subgraph li, which the caller supplies so candidate evaluations can share
// one instead of rebuilding it per order.
func bodyScheduleLI(g, li *graph.Graph, m *machine.Machine, order []graph.NodeID) (*sched.Schedule, error) {
	s, err := sched.ListSchedule(li, m, order)
	if err != nil {
		return nil, err
	}
	// Rebind to the original graph so callers can inspect carried edges.
	out := sched.New(g, m)
	copy(out.Start, s.Start)
	copy(out.Unit, s.Unit)
	return out, nil
}

// SteadyII returns the minimum initiation interval of the fixed repeating
// schedule s for loop graph g: the smallest II satisfying every loop-carried
// dependence and admitting a conflict-free modulo resource assignment.
func SteadyII(g *graph.Graph, m *machine.Machine, s *sched.Schedule) (int, error) {
	if !s.Complete() {
		return 0, fmt.Errorf("loops: incomplete body schedule")
	}
	ii := 1
	for v := 0; v < g.Len(); v++ {
		for _, e := range g.Out(graph.NodeID(v)) {
			if e.Distance == 0 {
				continue
			}
			need := s.Start[e.Src] + g.Node(e.Src).Exec + e.Latency - s.Start[e.Dst]
			// σ(v) + d·II ≥ σ(u)+e+ℓ  ⇒  II ≥ ceil(need / d)
			if need > 0 {
				c := (need + e.Distance - 1) / e.Distance
				if c > ii {
					ii = c
				}
			}
		}
	}
	T := s.Makespan()
	// One occupancy buffer serves every trial II (each uses a prefix).
	use := make([]int, m.TotalUnits()*T)
	for ; ii < T; ii++ {
		if moduloFeasible(g, m, s, ii, use[:m.TotalUnits()*ii]) {
			return ii, nil
		}
	}
	return ii, nil // II = makespan: iterations do not overlap; always feasible
}

// moduloFeasible reports whether the body schedule's unit occupancy is
// conflict-free when repeated every ii cycles. use is caller-provided zeroed
// scratch of length TotalUnits·ii; it is re-zeroed before returning.
func moduloFeasible(g *graph.Graph, m *machine.Machine, s *sched.Schedule, ii int, use []int) bool {
	ok := true
scan:
	for v := 0; v < g.Len(); v++ {
		id := graph.NodeID(v)
		for t := s.Start[v]; t < s.Finish(id); t++ {
			slot := s.Unit[v]*ii + t%ii
			use[slot]++
			if use[slot] > 1 {
				ok = false
				break scan
			}
		}
	}
	clear(use)
	return ok
}

// Steady summarizes the periodic behaviour of a static loop-body order.
type Steady struct {
	Order    []graph.NodeID
	S        *sched.Schedule
	Makespan int // intra-iteration completion time
	II       int // steady-state cycles per iteration
}

// Clone returns a deep copy of st. The schedule's graph and machine
// pointers are shared, not copied; the memo layer overwrites them on its
// clones to detach cached values from caller-owned graphs.
func (st *Steady) Clone() *Steady {
	return &Steady{
		Order:    append([]graph.NodeID(nil), st.Order...),
		S:        st.S.Clone(),
		Makespan: st.Makespan,
		II:       st.II,
	}
}

// ApproxBytes reports the steady state's approximate resident footprint for
// the memo layer's byte-bounded LRU (memo.Sizer).
func (st *Steady) ApproxBytes() int {
	n := 64 + 8*len(st.Order)
	if st.S != nil {
		n += st.S.ApproxBytes()
	}
	return n
}

// CompletionN returns the completion time of n iterations under the
// periodic model: makespan + (n−1)·II.
func (st *Steady) CompletionN(n int) int {
	if n < 1 {
		return 0
	}
	return st.Makespan + (n-1)*st.II
}

// Evaluate computes the periodic steady state of a loop-body order.
func Evaluate(g *graph.Graph, m *machine.Machine, order []graph.NodeID) (*Steady, error) {
	return evaluateLI(g, g.LoopIndependent(), m, order)
}

// evaluateLI is Evaluate with a caller-supplied loop-independent subgraph;
// the candidate search shares one li across all its evaluations.
func evaluateLI(g, li *graph.Graph, m *machine.Machine, order []graph.NodeID) (*Steady, error) {
	s, err := bodyScheduleLI(g, li, m, order)
	if err != nil {
		return nil, err
	}
	ii, err := SteadyII(g, m, s)
	if err != nil {
		return nil, err
	}
	return &Steady{Order: order, S: s, Makespan: s.Makespan(), II: ii}, nil
}
