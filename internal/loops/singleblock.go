package loops

import (
	"fmt"
	"sync"

	"aisched/internal/graph"
	"aisched/internal/idle"
	"aisched/internal/machine"
	"aisched/internal/obs"
	"aisched/internal/rank"
	"aisched/internal/sbudget"
)

// SingleSourceOrder implements §5.2.1: schedule a single-basic-block loop by
// converting it to an acyclic graph G' with a dummy sink z representing the
// next iteration's instance of source candidate y:
//
//  1. add dummy sink z;
//  2. add a zero-latency, zero-distance edge from every other node to z;
//  3. replace each loop-carried edge (x, v) with (x, z), distance zero,
//     same latency (the paper's construction for v = y; for the general
//     case of §5.2.3 every carried edge is redirected, which preserves the
//     producer-side constraint as a heuristic).
//
// G' is scheduled with the Rank Algorithm followed by Delay_Idle_Slots, and
// z is dropped from the returned order. Provably optimal when y is the
// unique source of G_li and the target of all loop-carried edges, in the
// restricted machine model.
func SingleSourceOrder(g *graph.Graph, m *machine.Machine, y graph.NodeID) ([]graph.NodeID, error) {
	return singleSourceOrderB(g, m, y, nil)
}

// singleSourceOrderB is SingleSourceOrder with an optional budget threaded
// into the underlying rank context.
func singleSourceOrderB(g *graph.Graph, m *machine.Machine, y graph.NodeID, bs *sbudget.State) ([]graph.NodeID, error) {
	n := g.Len()
	if y < 0 || int(y) >= n {
		return nil, fmt.Errorf("loops: source candidate %d out of range", y)
	}
	gp := graph.New(n + 1)
	for v := 0; v < n; v++ {
		nd := g.Node(graph.NodeID(v))
		gp.AddNode(nd.Label, nd.Exec, nd.Class, nd.Block)
	}
	ynode := g.Node(y)
	z := gp.AddNode("z'"+ynode.Label, ynode.Exec, ynode.Class, ynode.Block)
	for v := 0; v < n; v++ {
		for _, e := range g.Out(graph.NodeID(v)) {
			if e.Distance == 0 {
				gp.MustEdge(e.Src, e.Dst, e.Latency, 0)
			} else {
				gp.MustEdge(e.Src, z, e.Latency, 0)
			}
		}
	}
	for v := 0; v < n; v++ {
		gp.MustEdge(graph.NodeID(v), z, 0, 0)
	}
	return scheduleAndDrop(gp, m, z, bs)
}

// SingleSinkOrder implements §5.2.2 (the dual): dummy source z representing
// the previous iteration's instance of sink candidate y, a zero-latency edge
// from z to every other node, and each loop-carried edge (v, x) replaced by
// (z, x) with the same latency.
func SingleSinkOrder(g *graph.Graph, m *machine.Machine, y graph.NodeID) ([]graph.NodeID, error) {
	return singleSinkOrderB(g, m, y, nil)
}

// singleSinkOrderB is SingleSinkOrder with an optional budget threaded into
// the underlying rank context.
func singleSinkOrderB(g *graph.Graph, m *machine.Machine, y graph.NodeID, bs *sbudget.State) ([]graph.NodeID, error) {
	n := g.Len()
	if y < 0 || int(y) >= n {
		return nil, fmt.Errorf("loops: sink candidate %d out of range", y)
	}
	gp := graph.New(n + 1)
	// Dummy source first so it precedes everything in program order.
	ynode := g.Node(y)
	z := gp.AddNode("z'"+ynode.Label, ynode.Exec, ynode.Class, ynode.Block)
	remap := make([]graph.NodeID, n)
	for v := 0; v < n; v++ {
		nd := g.Node(graph.NodeID(v))
		remap[v] = gp.AddNode(nd.Label, nd.Exec, nd.Class, nd.Block)
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Out(graph.NodeID(v)) {
			if e.Distance == 0 {
				gp.MustEdge(remap[e.Src], remap[e.Dst], e.Latency, 0)
			} else {
				gp.MustEdge(z, remap[e.Dst], e.Latency, 0)
			}
		}
	}
	for v := 0; v < n; v++ {
		gp.MustEdge(z, remap[v], 0, 0)
	}
	order, err := scheduleAndDrop(gp, m, z, bs)
	if err != nil {
		return nil, err
	}
	// Map subgraph IDs (shifted by one) back to original IDs.
	out := make([]graph.NodeID, 0, n)
	for _, id := range order {
		out = append(out, id-1)
	}
	return out, nil
}

// ctxPool recycles rank contexts across candidate evaluations: every
// candidate schedules its own private graph, but the context's arena, list
// buffers, and Delay_Idle_Slots scratch all reach steady-state capacity after
// the first few candidates and are reused instead of reallocated. sync.Pool
// keeps concurrent loop requests (ScheduleBatch runs BatchLoop items on its
// worker pool) from contending over one context.
var ctxPool = sync.Pool{New: func() any { return rank.NewReusable() }}

// pooledCtx checks out a context and resets it onto gp.
func pooledCtx(gp *graph.Graph, m *machine.Machine, bs *sbudget.State) (*rank.Ctx, error) {
	c := ctxPool.Get().(*rank.Ctx)
	if err := c.Reset(graph.NewCSR(gp).View(), m, gp); err != nil {
		ctxPool.Put(c)
		return nil, err
	}
	c.SetBudget(bs)
	return c, nil
}

// scheduleAndDrop runs rank_alg + Delay_Idle_Slots on the acyclic graph and
// returns the schedule's permutation with the dummy node removed. One rank
// context serves both the makespan schedule and the whole delay pass.
func scheduleAndDrop(gp *graph.Graph, m *machine.Machine, dummy graph.NodeID, bs *sbudget.State) ([]graph.NodeID, error) {
	c, err := pooledCtx(gp, m, bs)
	if err != nil {
		return nil, err
	}
	defer ctxPool.Put(c)
	res, err := c.Run(rank.UniformDeadlines(gp.Len(), rank.Big), nil)
	if err != nil {
		return nil, err
	}
	s := res.S
	d := rank.UniformDeadlines(gp.Len(), s.Makespan())
	s, _, err = idle.DelayIdleSlotsCtx(c, s, d, nil, nil)
	if err != nil {
		return nil, err
	}
	var order []graph.NodeID
	for _, id := range s.Permutation() {
		if id != dummy {
			order = append(order, id)
		}
	}
	return order, nil
}

// candidatesLI enumerates the §5.2.3 general-case candidates: every target
// of a loop-carried edge as a single-source candidate, and every source of a
// loop-carried edge as a single-sink candidate. For graphs whose latencies
// are all ≤ 1 the paper's compile-time reduction applies: only G_li sources
// (resp. sinks) need be considered; li is g's loop-independent subgraph.
func candidatesLI(g, li *graph.Graph) (sources, sinks []graph.NodeID) {
	n := g.Len()
	// Dense membership sets — node IDs are compact, so []bool beats maps on
	// both lookups and allocation count.
	srcSet := make([]bool, n)
	sinkSet := make([]bool, n)
	maxLat := 0
	for v := 0; v < n; v++ {
		for _, e := range g.Out(graph.NodeID(v)) {
			if e.Latency > maxLat {
				maxLat = e.Latency
			}
			if e.Distance > 0 {
				srcSet[e.Dst] = true
				sinkSet[e.Src] = true
			}
		}
	}
	if maxLat <= 1 {
		liSources := make([]bool, n)
		for _, s := range li.Sources() {
			liSources[s] = true
		}
		liSinks := make([]bool, n)
		for _, s := range li.Sinks() {
			liSinks[s] = true
		}
		for v := 0; v < n; v++ {
			srcSet[v] = srcSet[v] && liSources[v]
			sinkSet[v] = sinkSet[v] && liSinks[v]
		}
	}
	for v := 0; v < n; v++ {
		if srcSet[v] {
			sources = append(sources, graph.NodeID(v))
		}
		if sinkSet[v] {
			sinks = append(sinks, graph.NodeID(v))
		}
	}
	return sources, sinks
}

// ScheduleSingleBlockLoop implements the general case of §5.2.3 for a loop
// containing a single basic block: build one candidate schedule per
// single-source/single-sink candidate plus the plain block-optimal schedule,
// evaluate each in the periodic steady-state model, and keep the best
// (smallest II, ties broken by smaller intra-iteration makespan).
func ScheduleSingleBlockLoop(g *graph.Graph, m *machine.Machine) (*Steady, error) {
	return scheduleSingleBlockLoopOpts(g, m, Opts{})
}

// baseOrder computes the baseline candidate: the block-optimal order from
// the Rank Algorithm + Delay_Idle_Slots on the loop-independent subgraph.
func baseOrder(li *graph.Graph, m *machine.Machine, bs *sbudget.State) ([]graph.NodeID, error) {
	c, err := pooledCtx(li, m, bs)
	if err != nil {
		return nil, err
	}
	defer ctxPool.Put(c)
	res, err := c.Run(rank.UniformDeadlines(li.Len(), rank.Big), nil)
	if err != nil {
		return nil, err
	}
	s := res.S
	d := rank.UniformDeadlines(li.Len(), s.Makespan())
	s, _, err = idle.DelayIdleSlotsCtx(c, s, d, nil, nil)
	if err != nil {
		return nil, err
	}
	return s.Permutation(), nil
}

// scheduleSingleBlockLoopOpts is ScheduleSingleBlockLoop with options, behind
// ScheduleLoopOpts. A Tracer sees every candidate evaluation as a
// KindIICandidate event (candidate kind "base", "source" or "sink"; the
// candidate instruction; the achieved II and intra-iteration makespan),
// bracketed by a pass-start/pass-end pair named obs.PassLoop whose end event
// carries the best II.
//
// Candidates are evaluated in order on the caller's goroutine, and each
// distinct transformed graph only once. singleSourceOrderB and
// singleSinkOrderB redirect every loop-carried edge to the dummy z, so the
// graph they schedule depends on the candidate y only through z's exec,
// class and block: a later candidate of the same kind with the same three
// reuses the first one's *Steady. Each distinct evaluation starts with a
// budget checkpoint and is charged its rank passes; a duplicate charges
// nothing.
func scheduleSingleBlockLoopOpts(g *graph.Graph, m *machine.Machine, o Opts) (*Steady, error) {
	tr := o.Tracer
	if g.Len() == 0 {
		return nil, fmt.Errorf("loops: empty loop body")
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassStart, Pass: obs.PassLoop,
			Block: -1, Node: graph.None, N: g.Len()})
	}
	// One loop-independent subgraph serves the candidate enumeration, the
	// base candidate and every steady-state evaluation.
	li := g.LoopIndependent()
	sources, sinks := candidatesLI(g, li)
	candidates := make([]candidate, 0, 1+len(sources)+len(sinks))
	candidates = append(candidates, candidate{kind: "base", node: graph.None})
	for _, y := range sources {
		candidates = append(candidates, candidate{kind: "source", node: y})
	}
	for _, y := range sinks {
		candidates = append(candidates, candidate{kind: "sink", node: y})
	}

	for i := range candidates {
		c := &candidates[i]
		if j := sameTransform(g, candidates[:i], c); j >= 0 {
			c.st = candidates[j].st
			if duplicateHook != nil {
				duplicateHook()
			}
			continue
		}
		if err := o.Budget.Check(); err != nil {
			return nil, err
		}
		var order []graph.NodeID
		var err error
		switch c.kind {
		case "base":
			order, err = baseOrder(li, m, o.Budget)
		case "source":
			order, err = singleSourceOrderB(g, m, c.node, o.Budget)
		default:
			order, err = singleSinkOrderB(g, m, c.node, o.Budget)
		}
		if err != nil {
			return nil, err
		}
		if c.st, err = evaluateLI(g, li, m, order); err != nil {
			return nil, err
		}
	}

	var best *Steady
	for _, c := range candidates {
		st := c.st
		if tr != nil {
			label := ""
			if c.node != graph.None {
				label = g.Node(c.node).Label
			}
			tr.Emit(obs.Event{Kind: obs.KindIICandidate, Pass: c.kind,
				Node: c.node, Label: label, Block: -1,
				N: st.II, From: st.Makespan})
		}
		if best == nil || st.II < best.II || (st.II == best.II && st.Makespan < best.Makespan) {
			best = st
		}
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassEnd, Pass: obs.PassLoop,
			Block: -1, Node: graph.None, N: best.II})
	}
	return best, nil
}

// candidate is one §5.2.3 candidate: its kind ("base", "source" or "sink"),
// its instruction y (graph.None for the base) and, once evaluated, its
// steady state.
type candidate struct {
	kind string
	node graph.NodeID
	st   *Steady
}

// sameTransform returns the index of the first candidate in prev whose
// transformed graph equals c's, or -1: the same kind and a y with the same
// exec, class and block, which are all of y the dummy z copies.
func sameTransform(g *graph.Graph, prev []candidate, c *candidate) int {
	if c.node == graph.None {
		return -1
	}
	y := g.Node(c.node)
	for j, p := range prev {
		if p.kind != c.kind {
			continue
		}
		if x := g.Node(p.node); x.Exec == y.Exec && x.Class == y.Class && x.Block == y.Block {
			return j
		}
	}
	return -1
}

// duplicateHook, when non-nil, is called for every candidate that reuses an
// earlier candidate's steady state. Tests set it through export_test.go to
// show the dedupe firing; production code never does.
var duplicateHook func()
