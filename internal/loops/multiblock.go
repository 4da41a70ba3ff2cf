package loops

import (
	"fmt"

	"aisched/internal/core"
	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
	"aisched/internal/sbudget"
)

// Opts tunes the loop schedulers.
type Opts struct {
	// Tracer, when non-nil, receives the pass events documented on
	// scheduleSingleBlockLoopOpts and scheduleLoopTraceOpts.
	Tracer obs.Tracer
	// Budget, when non-nil, makes every distinct candidate evaluation and
	// every rank pass a cooperative cancellation/budget checkpoint; the
	// scheduler returns the checkpoint's error (context cancellation or
	// sbudget.ErrExhausted) instead of a result. A candidate that reuses an
	// earlier candidate's evaluation (see scheduleSingleBlockLoopOpts) is no
	// checkpoint and charges no rank pass.
	Budget *sbudget.State
}

// ScheduleLoopTrace implements §5.1: anticipatory scheduling of a loop whose
// body is a trace of m > 1 basic blocks. Algorithm Lookahead runs over the
// trace augmented with a clone of the first block as an extra successor
// block, connected through the distance-1 loop-carried dependences — so the
// last block's tail ordering anticipates the next iteration's first block.
// The clone is discarded; the per-block orders for the real blocks are
// evaluated in the periodic steady-state model.
//
// Loop-carried edges with distance ≥ 2 or whose target lies outside the
// first block cannot be represented in the one-block-lookahead construction
// and are handled only by the steady-state evaluation (heuristic regime, as
// in the paper).
func ScheduleLoopTrace(g *graph.Graph, m *machine.Machine) (*Steady, error) {
	return scheduleLoopTraceOpts(g, m, Opts{})
}

// scheduleLoopTraceOpts is ScheduleLoopTrace with options, behind
// ScheduleLoopOpts. A Tracer sees the inner Algorithm Lookahead run over the
// augmented trace emit its usual merge/delay/chop events, and the evaluated
// body order emit one KindIICandidate event of kind "trace".
func scheduleLoopTraceOpts(g *graph.Graph, m *machine.Machine, o Opts) (*Steady, error) {
	tr := o.Tracer
	blocks := blockSet(g)
	if len(blocks) < 2 {
		return nil, fmt.Errorf("loops: ScheduleLoopTrace needs ≥ 2 blocks, got %d", len(blocks))
	}
	first := blocks[0]
	nextBlock := blocks[len(blocks)-1] + 1

	n := g.Len()
	aug := graph.New(n + n)
	for v := 0; v < n; v++ {
		nd := g.Node(graph.NodeID(v))
		aug.AddNode(nd.Label, nd.Exec, nd.Class, nd.Block)
	}
	// clone[v] is the next-iteration copy of first-block node v, or None —
	// a dense remap array (node IDs are compact) instead of a map.
	clone := make([]graph.NodeID, n)
	for v := range clone {
		clone[v] = graph.None
	}
	for v := 0; v < n; v++ {
		nd := g.Node(graph.NodeID(v))
		if nd.Block == first {
			clone[v] = aug.AddNode(nd.Label+"'", nd.Exec, nd.Class, nextBlock)
		}
	}
	for _, e := range g.Edges() {
		switch {
		case e.Distance == 0:
			aug.MustEdge(e.Src, e.Dst, e.Latency, 0)
			// The clone keeps the first block's internal structure.
			if cs, cd := clone[e.Src], clone[e.Dst]; cs != graph.None && cd != graph.None {
				aug.MustEdge(cs, cd, e.Latency, 0)
			}
		case e.Distance == 1:
			if cd := clone[e.Dst]; cd != graph.None {
				aug.MustEdge(e.Src, cd, e.Latency, 0)
			}
		}
	}

	res, err := core.LookaheadOpts(aug, m, core.Options{Tracer: tr, Budget: o.Budget})
	if err != nil {
		return nil, err
	}
	var order []graph.NodeID
	for _, b := range blocks {
		for _, id := range res.BlockOrders[b] {
			if int(id) < n {
				order = append(order, id)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("loops: augmented lookahead emitted %d of %d body instructions", len(order), n)
	}
	st, err := Evaluate(g, m, order)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindIICandidate, Pass: "trace",
			Node: graph.None, Block: -1, N: st.II, From: st.Makespan})
	}
	return st, nil
}

// ScheduleLoop dispatches on the body structure: the §5.2 single-block
// algorithm for one block, the §5.1 trace algorithm otherwise.
func ScheduleLoop(g *graph.Graph, m *machine.Machine) (*Steady, error) {
	return ScheduleLoopOpts(g, m, Opts{})
}

// ScheduleLoopOpts is ScheduleLoop with full options (tracing plus the
// cancellation/budget checkpoint state).
func ScheduleLoopOpts(g *graph.Graph, m *machine.Machine, o Opts) (*Steady, error) {
	if singleBlock(g) {
		return scheduleSingleBlockLoopOpts(g, m, o)
	}
	return scheduleLoopTraceOpts(g, m, o)
}

// singleBlock reports whether g is nonempty and every node is in node 0's
// block. It returns at the first node that is not.
func singleBlock(g *graph.Graph) bool {
	for v := 1; v < g.Len(); v++ {
		if g.Node(graph.NodeID(v)).Block != g.Node(0).Block {
			return false
		}
	}
	return g.Len() > 0
}

func blockSet(g *graph.Graph) []int {
	seen := map[int]bool{}
	var out []int
	for v := 0; v < g.Len(); v++ {
		b := g.Node(graph.NodeID(v)).Block
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
