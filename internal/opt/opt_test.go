package opt

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/hw"
	"aisched/internal/loops"
	"aisched/internal/machine"
	"aisched/internal/paperex"
	"aisched/internal/workload"
)

// smallTrace draws a trace the exhaustive oracle can also afford.
func smallTrace(t *testing.T, r *rand.Rand, cfg workload.TraceConfig) *graph.Graph {
	t.Helper()
	for {
		g, err := workload.Trace(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() <= 11 {
			return g
		}
	}
}

// TestExactMatchesExhaustiveOracle is the solver's ground-truth gate: over
// random traces and machines, the branch-and-bound optimum (with all its
// prunes — lower bounds, memoized state signatures, symmetry dominance)
// must equal the exhaustive enumeration over every per-block topological
// order evaluated by the reference hw simulator.
func TestExactMatchesExhaustiveOracle(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	machines := []*machine.Machine{
		machine.SingleUnit(2), machine.SingleUnit(3), machine.SingleUnit(5),
		machine.RS6000(4), machine.Superscalar(2, 4),
	}
	cfgs := []workload.TraceConfig{
		{Blocks: 3, MinSize: 2, MaxSize: 4, IntraProb: 0.4, CrossProb: 0.2, Latency: workload.ZeroOne},
		{Blocks: 2, MinSize: 3, MaxSize: 5, IntraProb: 0.5, CrossProb: 0.3, Latency: workload.Mixed, MaxExec: 3},
		{Blocks: 3, MinSize: 2, MaxSize: 3, IntraProb: 0.3, CrossProb: 0.2, Latency: workload.Mixed, Classes: 3},
	}
	for i := 0; i < 120; i++ {
		cfg := cfgs[i%len(cfgs)]
		m := machines[i%len(machines)]
		if cfg.Classes > 1 {
			m = machine.RS6000(m.Window) // one unit per class for classes 0–2
		}
		g := smallTrace(t, r, cfg)
		want, _, err := referenceOptimalTrace(g, m)
		if err != nil {
			t.Fatalf("instance %d: exhaustive oracle: %v", i, err)
		}
		got, order, st, err := OptimalTrace(context.Background(), g, m, Limits{})
		if err != nil {
			t.Fatalf("instance %d: OptimalTrace: %v", i, err)
		}
		if got != want {
			t.Fatalf("instance %d: exact %d != exhaustive %d (machine %s, %d nodes, stats %+v)",
				i, got, want, m.Name, g.Len(), st)
		}
		res, err := hw.SimulateTrace(g, m, order)
		if err != nil {
			t.Fatalf("instance %d: simulate winner: %v", i, err)
		}
		if res.Completion != got {
			t.Fatalf("instance %d: winner simulates to %d, solver said %d", i, res.Completion, got)
		}
	}
}

// TestExactBackendSchedule checks the Backend contract: a Validate()-clean
// schedule whose makespan is the optimal completion, and a block-contiguous
// static order.
func TestExactBackendSchedule(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	b := NewBackend(Limits{})
	if b.Name() != "exact" {
		t.Fatalf("Name() = %q", b.Name())
	}
	for i := 0; i < 25; i++ {
		cfg := workload.TraceConfig{Blocks: 3, MinSize: 2, MaxSize: 4,
			IntraProb: 0.4, CrossProb: 0.2, Latency: workload.Mixed, MaxExec: 2}
		g := smallTrace(t, r, cfg)
		m := machine.SingleUnit(2 + i%3)
		br, err := b.ScheduleTrace(context.Background(), g, m)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if err := br.S.Validate(); err != nil {
			t.Fatalf("instance %d: schedule invalid: %v", i, err)
		}
		if len(br.Order) != g.Len() {
			t.Fatalf("instance %d: order covers %d of %d", i, len(br.Order), g.Len())
		}
		lastBlock := -1 << 30
		for _, v := range br.Order {
			if blk := g.Node(v).Block; blk < lastBlock {
				t.Fatalf("instance %d: order not block-contiguous", i)
			} else {
				lastBlock = blk
			}
		}
		want, _, _, err := OptimalTrace(context.Background(), g, m, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if br.S.Makespan() != want {
			t.Fatalf("instance %d: schedule makespan %d != optimum %d", i, br.S.Makespan(), want)
		}
	}
}

// TestExactLimits checks both guard rails: oversized instances are rejected
// up front, and an exhausted expansion budget surfaces as ErrBudget.
func TestExactLimits(t *testing.T) {
	g := graph.New(DefaultMaxNodes + 1)
	for i := 0; i <= DefaultMaxNodes; i++ {
		g.AddUnit("n")
	}
	if _, _, _, err := OptimalTrace(context.Background(), g, machine.SingleUnit(2), Limits{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}

	// lateProducer builds a block where the natural (ID-order) incumbent is
	// suboptimal — the producer of a latency-2 edge has a high ID, so the
	// seed order pays the full stall and the search must actually descend.
	lateProducer := func(fillers int) *graph.Graph {
		g := graph.New(fillers + 2)
		for i := 0; i < fillers; i++ {
			g.AddNode("f", 1, 0, 0)
		}
		a := g.AddNode("a", 1, 0, 0)
		c := g.AddNode("c", 1, 0, 0)
		g.MustEdge(a, c, 2, 0)
		return g
	}
	if _, _, _, err := OptimalTrace(context.Background(), lateProducer(8), machine.SingleUnit(1), Limits{MaxExpansions: 3}); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := OptimalTrace(ctx, lateProducer(8), machine.SingleUnit(1), Limits{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestExactSymmetryDominance: a block with interchangeable filler nodes and
// a suboptimal natural order (see TestExactLimits' lateProducer shape, with
// W=1 making the static order binding) — the search must descend, the
// symmetry prune must fire on the fillers, and the result must still match
// the exhaustive oracle.
func TestExactSymmetryDominance(t *testing.T) {
	g := graph.New(6)
	for i := 0; i < 4; i++ {
		g.AddNode("f", 1, 0, 0)
	}
	a := g.AddNode("a", 1, 0, 0)
	c := g.AddNode("c", 1, 0, 0)
	g.MustEdge(a, c, 2, 0)
	m := machine.SingleUnit(1) // W=1: strictly in-order, order fully binding
	want, _, err := referenceOptimalTrace(g, m)
	if err != nil {
		t.Fatal(err)
	}
	got, _, st, err := OptimalTrace(context.Background(), g, m, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("exact %d != exhaustive %d", got, want)
	}
	if got != g.Len() {
		t.Fatalf("hoisting the producer should hide the latency entirely: got %d", got)
	}
	if st.SymSkips == 0 {
		t.Fatalf("expected symmetry prunes on interchangeable fillers, stats %+v", st)
	}
}

// TestExactMemoTailReleaseRegression pins the memo-key soundness fix: the
// finish time of a frozen node must enter the state signature whenever any
// successor lies outside the frozen set — including successors in the
// (placed but re-simulated) tail. Before the fix, prefixes [0 1 2 3 4] and
// [1 0 2 3 4] collided here (nodes 0 and 1 share class and exec, and node
// 1's only successor 4 sits in the tail), pruning the true optimum: the
// search returned 12 while [1 0 2 3 4 5 6 7] completes at 11.
func TestExactMemoTailReleaseRegression(t *testing.T) {
	g := graph.New(8)
	n0 := g.AddNode("n0", 1, 0, 0)
	n1 := g.AddNode("n1", 1, 0, 0)
	n2 := g.AddNode("n2", 1, 1, 0)
	n3 := g.AddNode("n3", 1, 0, 0)
	n4 := g.AddNode("n4", 1, 2, 1)
	n5 := g.AddNode("n5", 1, 0, 1)
	n6 := g.AddNode("n6", 1, 0, 2)
	n7 := g.AddNode("n7", 1, 0, 2)
	_ = n0
	g.MustEdge(n1, n4, 1, 0)
	g.MustEdge(n2, n3, 1, 0)
	g.MustEdge(n4, n5, 1, 0)
	g.MustEdge(n4, n6, 1, 0)
	g.MustEdge(n6, n7, 4, 0)
	m := machine.RS6000(2)
	want, _, err := referenceOptimalTrace(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if want != 11 {
		t.Fatalf("exhaustive oracle says %d, regression instance expects 11", want)
	}
	got, order, _, err := OptimalTrace(context.Background(), g, m, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("memo collision regressed: exact %d != exhaustive %d (order %v)", got, want, order)
	}
}

// agreeInstances draws the random traces and machines of
// TestExactSimulatorAgreesWithHW: multi-class machines and non-unit exec
// times.
func agreeInstances(t *testing.T) ([]*graph.Graph, []*machine.Machine) {
	r := rand.New(rand.NewSource(23))
	var gs []*graph.Graph
	var ms []*machine.Machine
	for i := 0; i < 120; i++ {
		cfg := workload.TraceConfig{Blocks: 1 + r.Intn(3), MinSize: 2, MaxSize: 4,
			IntraProb: 0.4, CrossProb: 0.25, Latency: workload.Mixed,
			Classes: 1 + r.Intn(3), MaxExec: 1 + r.Intn(3)}
		gs = append(gs, smallTrace(t, r, cfg))
		ms = append(ms, machine.RS6000(2+r.Intn(4)))
	}
	return gs, ms
}

// TestExactSimulatorAgreesWithHW pins the solver's prefix replay — the
// stream it builds for internal/hw's kernel — to hw.SimulateTrace on full
// streams: the property every prune's soundness rests on.
func TestExactSimulatorAgreesWithHW(t *testing.T) {
	gs, ms := agreeInstances(t)
	for i, g := range gs {
		m := ms[i]
		s, err := newSolver(context.Background(), g, m, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		// newSolver seeds the incumbent by simulating the natural order
		// internally; replay the same order through hw.
		res, err := hw.SimulateTrace(g, m, s.bestOrder)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completion != s.best {
			t.Fatalf("instance %d: internal sim %d != hw %d (order %v)",
				i, s.best, res.Completion, s.bestOrder)
		}
	}
}

// blockOptimum is the minimum makespan of a single-block graph: the exact
// trace optimum with every instruction in the window.
func blockOptimum(t *testing.T, g *graph.Graph, m *machine.Machine) int {
	t.Helper()
	best, _, _, err := OptimalTrace(context.Background(), g, m.WithWindow(g.Len()), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return best
}

func TestExactBlockOptimumFigure1Is7(t *testing.T) {
	f := paperex.NewFig1()
	if got := blockOptimum(t, f.G, machine.SingleUnit(1)); got != 7 {
		t.Fatalf("optimal makespan = %d, want 7", got)
	}
}

func TestExactBlockOptimumChain(t *testing.T) {
	g := graph.New(3)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	c := g.AddUnit("c")
	g.MustEdge(a, b, 2, 0)
	g.MustEdge(b, c, 0, 0)
	if got := blockOptimum(t, g, machine.SingleUnit(1)); got != 5 {
		t.Fatalf("optimal = %d, want 5 (a _ _ b c)", got)
	}
}

func TestExactBlockOptimumEmpty(t *testing.T) {
	if got := blockOptimum(t, graph.New(0), machine.SingleUnit(1)); got != 0 {
		t.Fatalf("empty graph: %d", got)
	}
}

// TestExactTraceFigure2: the Figure 2 trace's optimum for W=2 is 11, from
// the search and from the exhaustive enumeration alike.
func TestExactTraceFigure2(t *testing.T) {
	f := paperex.NewFig2()
	m := machine.SingleUnit(2)
	want, order, err := referenceOptimalTrace(f.G, m)
	if err != nil {
		t.Fatal(err)
	}
	if want != 11 {
		t.Fatalf("exhaustive optimum = %d, want 11 (order %v)", want, order)
	}
	if got, _, _, err := OptimalTrace(context.Background(), f.G, m, Limits{}); err != nil || got != want {
		t.Fatalf("OptimalTrace = %d, %v; want %d", got, err, want)
	}
}

func TestExactLoopIIFigure8(t *testing.T) {
	f := paperex.NewFig8()
	best, err := OptimalLoopII(f.G, machine.SingleUnit(4))
	if err != nil {
		t.Fatal(err)
	}
	if best.II != 4 {
		t.Fatalf("loop oracle II = %d, want 4", best.II)
	}
}

func TestExactLoopIIFigure3(t *testing.T) {
	f := paperex.NewFig3()
	m := machine.SingleUnit(4)
	best, err := OptimalLoopII(f.G, m)
	if err != nil {
		t.Fatal(err)
	}
	if best.II != 6 {
		t.Fatalf("loop oracle II = %d, want 6", best.II)
	}
	// The general-case algorithm matches the oracle on the paper's example.
	st, err := loops.ScheduleSingleBlockLoop(f.G, m)
	if err != nil {
		t.Fatal(err)
	}
	if st.II != best.II {
		t.Fatalf("general case II %d != oracle II %d", st.II, best.II)
	}
}

func TestExactLoopIILimits(t *testing.T) {
	g := graph.New(maxLoopNodes + 1)
	for i := 0; i <= maxLoopNodes; i++ {
		g.AddUnit("n")
	}
	if _, err := OptimalLoopII(g, machine.SingleUnit(4)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	two := graph.New(2)
	two.AddNode("a", 1, 0, 0)
	two.AddNode("b", 1, 0, 1)
	if _, err := OptimalLoopII(two, machine.SingleUnit(4)); err == nil {
		t.Fatal("two-block loop accepted")
	}
}
