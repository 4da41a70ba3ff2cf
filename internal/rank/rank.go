// Package rank implements the Rank Algorithm of Palem & Simons (TOPLAS '93)
// as used by Sarkar & Simons (SPAA '96, §2.1): given per-node deadlines, it
// computes rank(v) — an upper bound on the completion time of v in any
// schedule in which v and all of v's descendants complete by their
// deadlines — and then greedily list-schedules in nondecreasing rank order.
//
// For unit execution times, 0/1 latencies, and a single functional unit the
// resulting schedule is optimal (minimum makespan, and minimum tardiness
// under deadlines). For general machines (§4.2) the same computation is a
// heuristic: ranks are derived by inserting each descendant whole into a
// per-class schedule at its earliest fit after v completes and taking the
// latest completion time of v that lets every descendant meet its rank.
//
// The engine is built around Ctx, a reusable per-graph context that caches
// the topological order, descendant closure and packing scratch, and that
// supports incremental re-ranking after deadline changes (Update). The
// package-level Compute/Run helpers build a throwaway context; hot paths
// (Delay_Idle_Slots, Algorithm Lookahead, the loop candidate search) hold
// one Ctx per graph and reuse it across every re-rank. ReferenceCompute and
// ReferenceRun retain the original one-shot implementation as the oracle for
// differential tests.
package rank

import (
	"fmt"
	"sort"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
	"aisched/internal/sched"
)

// Big is the artificially large deadline D of §2.1: big enough never to
// constrain any real schedule, small enough to leave headroom for the
// arithmetic (ranks only ever decrease from here).
const Big = 1 << 28

// UniformDeadlines returns n copies of d.
func UniformDeadlines(n, d int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// Compute returns rank(v) for every node of g under deadlines d on machine m.
//
// rank(v) is the largest completion time c ≤ d(v) such that, if v completes
// at c, every descendant u of v can still complete by rank(u): each u must
// start no earlier than c + delta(v,u), where delta is the longest
// dependence path from v's completion to u's start (sum of intermediate
// execution times and latencies), and the descendants must fit one per
// functional unit of their class at any time. The descendants are placed by
// an EDF-style earliest-fit packing in nondecreasing rank order (exact for
// unit execution times; a faithful heuristic for the general machines of
// §4.2). The packing is laid out relative to c — descendant u goes at the
// earliest free slot at or after c + delta(v,u) — so where each descendant
// lands, measured from c, does not depend on c at all; c enters only the
// test that u, starting s(u) cycles after c, finishes by rank(u). One pass
// therefore gives every feasible c at once: rank(v) = min(d(v), min over u
// of rank(u) − s(u) − exec(u)). This equals the binary search over c that
// ReferenceCompute keeps as the oracle, with a packing per probe, and
// reproduces every rank value printed in the paper's §2 examples.
//
// Compute builds a throwaway Ctx; callers ranking the same graph repeatedly
// should hold their own.
func Compute(g *graph.Graph, m *machine.Machine, d []int) ([]int, error) {
	if len(d) != g.Len() {
		return nil, fmt.Errorf("rank: %d deadlines for %d nodes", len(d), g.Len())
	}
	c, err := NewCtx(g, m)
	if err != nil {
		return nil, err
	}
	return c.Compute(d)
}

// descendant is one entry in the rank feasibility test: it must run for exec
// cycles on a unit of its class, starting no earlier than c + lat, and
// complete by rank. pos (the topological position of the node) makes the
// packing order a total order.
type descendant struct {
	rank  int
	exec  int
	class int
	lat   int
	pos   int
}

// ListFromRanks builds the rank-ordered priority list: nondecreasing rank,
// ties broken by position in tie (which must be a permutation of all nodes;
// pass sched.SourceOrder(g) for program order).
func ListFromRanks(g *graph.Graph, ranks []int, tie []graph.NodeID) []graph.NodeID {
	pos := make([]int, g.Len())
	for i, id := range tie {
		pos[id] = i
	}
	list := append([]graph.NodeID(nil), tie...)
	sort.SliceStable(list, func(a, b int) bool {
		if ranks[list[a]] != ranks[list[b]] {
			return ranks[list[a]] < ranks[list[b]]
		}
		return pos[list[a]] < pos[list[b]]
	})
	return list
}

// Result is the outcome of one rank_alg run.
type Result struct {
	S     *sched.Schedule
	Ranks []int
	// Feasible reports whether every node finished by its deadline and no
	// rank fell below the node's execution time. In the paper's restricted
	// case (UET, 0/1 latencies, single unit) greedy-by-rank meets all
	// deadlines whenever any schedule does, so Feasible == "a feasible
	// schedule exists".
	Feasible bool
}

// Run executes the full rank_alg: compute ranks under deadlines d, schedule
// greedily in nondecreasing rank order (ties broken by tie order, defaulting
// to program order), and report deadline feasibility. Builds a throwaway
// Ctx; hot paths should hold their own.
func Run(g *graph.Graph, m *machine.Machine, d []int, tie []graph.NodeID) (*Result, error) {
	if len(d) != g.Len() {
		return nil, fmt.Errorf("rank: %d deadlines for %d nodes", len(d), g.Len())
	}
	c, err := NewCtx(g, m)
	if err != nil {
		return nil, err
	}
	return c.Run(d, tie)
}

// Makespan is a convenience wrapper: minimum-makespan schedule of g on m by
// rank_alg with the artificial deadline D = Big (optimal in the restricted
// case, heuristic otherwise).
func Makespan(g *graph.Graph, m *machine.Machine) (*sched.Schedule, error) {
	return MakespanT(g, m, nil)
}

// MakespanT is Makespan with optional pass tracing: a pass-start/pass-end
// pair named obs.PassRankMakespan, the end event carrying the makespan.
func MakespanT(g *graph.Graph, m *machine.Machine, tr obs.Tracer) (*sched.Schedule, error) {
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassStart, Pass: obs.PassRankMakespan,
			Block: -1, Node: graph.None, N: g.Len()})
	}
	res, err := Run(g, m, UniformDeadlines(g.Len(), Big), nil)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassEnd, Pass: obs.PassRankMakespan,
			Block: -1, Node: graph.None, N: res.S.Makespan()})
	}
	return res.S, nil
}

// Rebase subtracts delta from every deadline (the paper's "decrement every
// deadline, and consequently every rank, by D − T" step), returning a new
// slice.
func Rebase(d []int, delta int) []int {
	out := make([]int, len(d))
	for i, v := range d {
		out[i] = v - delta
	}
	return out
}
