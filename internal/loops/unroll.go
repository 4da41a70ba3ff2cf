package loops

import (
	"fmt"

	"aisched/internal/graph"
	"aisched/internal/machine"
)

// Unroll replicates a single-block loop body k times, producing the body of
// the k-unrolled loop: instance j of node v keeps v's attributes; an edge
// (u, v) with distance d becomes, from instance j of u,
//
//	an intra-body (distance 0) edge to instance j+d of v when j+d < k,
//	a carried edge with distance ⌈(j+d−k+1)/k⌉ … i.e. (j+d)/k … to
//	instance (j+d) mod k otherwise.
//
// The §5 completion-time model treats n iterations as the completely
// unrolled sequence; unrolling materializes part of that sequence at
// compile time so the single-block scheduler can overlap consecutive
// iterations directly (converting the paper's run-time window overlap into
// compile-time freedom). Returns the unrolled graph and the mapping
// instance index → original node.
func Unroll(g *graph.Graph, k int) (*graph.Graph, []graph.NodeID, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("loops: unroll factor %d < 1", k)
	}
	n := g.Len()
	out := graph.New(n * k)
	origin := make([]graph.NodeID, 0, n*k)
	for j := 0; j < k; j++ {
		for v := 0; v < n; v++ {
			nd := g.Node(graph.NodeID(v))
			label := nd.Label
			if k > 1 {
				label = fmt.Sprintf("%s@%d", nd.Label, j)
			}
			out.AddNode(label, nd.Exec, nd.Class, nd.Block)
			origin = append(origin, graph.NodeID(v))
		}
	}
	inst := func(v graph.NodeID, j int) graph.NodeID { return graph.NodeID(j*n + int(v)) }
	for _, e := range g.Edges() {
		for j := 0; j < k; j++ {
			tgt := j + e.Distance
			if tgt < k {
				if e.Distance == 0 || inst(e.Src, j) != inst(e.Dst, tgt) {
					out.MustEdge(inst(e.Src, j), inst(e.Dst, tgt), e.Latency, 0)
				}
			} else {
				out.MustEdge(inst(e.Src, j), inst(e.Dst, tgt%k), e.Latency, tgt/k)
			}
		}
	}
	return out, origin, nil
}

// UnrolledSteady is the result of UnrollAndSchedule: the steady state of the
// body it chose, normalized per ORIGINAL iteration by PerIteration.
type UnrolledSteady struct {
	// K is the unroll factor of the chosen body: the requested factor, or 1
	// when the un-unrolled loop is faster.
	K int
	// Steady is the chosen body's steady state (II is per K iterations).
	Steady *Steady
	// Origin maps body node → original node.
	Origin []graph.NodeID
}

// PerIteration returns the steady-state cycles per original iteration.
func (u *UnrolledSteady) PerIteration() float64 {
	return float64(u.Steady.II) / float64(u.K)
}

// UnrollAndSchedule applies Unroll then ScheduleSingleBlockLoop to the
// unrolled body. The un-unrolled general-case order repeated k times is a
// candidate too. It can still lose: the unrolled body's periodic model
// re-evaluates the repeated order, and its II can exceed k times the base
// II. When k·II of the un-unrolled solution beats the unrolled II, that
// solution is returned as is (K = 1, identity Origin), so unrolling never
// loses to not unrolling.
func UnrollAndSchedule(g *graph.Graph, m *machine.Machine, k int) (*UnrolledSteady, error) {
	ug, origin, err := Unroll(g, k)
	if err != nil {
		return nil, err
	}
	st, err := ScheduleSingleBlockLoop(ug, m)
	if err != nil {
		return nil, err
	}
	if k > 1 {
		base, err := ScheduleSingleBlockLoop(g, m)
		if err != nil {
			return nil, err
		}
		repeated := make([]graph.NodeID, 0, ug.Len())
		for j := 0; j < k; j++ {
			for _, v := range base.Order {
				repeated = append(repeated, graph.NodeID(j*g.Len()+int(v)))
			}
		}
		rep, err := Evaluate(ug, m, repeated)
		if err != nil {
			return nil, err
		}
		if rep.II < st.II || (rep.II == st.II && rep.Makespan < st.Makespan) {
			st = rep
		}
		if k*base.II < st.II {
			identity := make([]graph.NodeID, g.Len())
			for v := range identity {
				identity[v] = graph.NodeID(v)
			}
			return &UnrolledSteady{K: 1, Steady: base, Origin: identity}, nil
		}
	}
	return &UnrolledSteady{K: k, Steady: st, Origin: origin}, nil
}
