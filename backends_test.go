package aisched

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"aisched/internal/machine"
	"aisched/internal/workload"
)

// assertEmittableOrder checks that a backend's static order is compiler-
// emittable per Definition 2.1: a permutation of the graph, block-
// contiguous in ascending block order, with every intra-block distance-0
// dependence pointing forward. It stands in for CheckLegal on general-model
// machines, where CheckLegal does not apply: co-issue ties on multi-unit
// machines make the schedule's subpermutations differ from the emitted
// order (order [1 0 2 3 4 5 6] against subpermutations [1 0 2 4 3 5 6]),
// and general-model predictions drift from the window replay.
func assertEmittableOrder(t *testing.T, tag string, g *Graph, order []NodeID) {
	t.Helper()
	if len(order) != g.Len() {
		t.Fatalf("%s: order covers %d of %d nodes", tag, len(order), g.Len())
	}
	pos := make([]int, g.Len())
	seen := make([]bool, g.Len())
	lastBlock := -1 << 30
	for i, v := range order {
		if v < 0 || int(v) >= g.Len() || seen[v] {
			t.Fatalf("%s: order is not a permutation", tag)
		}
		seen[v] = true
		pos[v] = i
		if blk := g.Node(v).Block; blk < lastBlock {
			t.Fatalf("%s: order not block-contiguous at position %d", tag, i)
		} else {
			lastBlock = blk
		}
	}
	for _, e := range g.Edges() {
		if e.Distance == 0 && g.Node(e.Src).Block == g.Node(e.Dst).Block && pos[e.Src] > pos[e.Dst] {
			t.Fatalf("%s: intra-block dependence %d->%d emitted backward", tag, e.Src, e.Dst)
		}
	}
}

// TestHeuristicMatchesExactRestricted is the paper's optimality theorem as
// an executable gate: over ≥300 random restricted-model instances (single
// FU, unit exec, 0/1 latencies — the regime the Rank Algorithm is proved
// optimal in), the heuristic's schedule must validate and its makespan —
// predicted and simulated alike — must equal the exact branch-and-bound
// optimum on every seed, not just most.
func TestHeuristicMatchesExactRestricted(t *testing.T) {
	r := rand.New(rand.NewSource(1996))
	heur, exact := HeuristicBackend(), ExactBackend(ExactLimits{})
	ctx := context.Background()
	const seeds = 300
	for i := 0; i < seeds; i++ {
		cfg := workload.TraceConfig{
			Blocks: 1, MinSize: 2, MaxSize: 11,
			IntraProb: 0.15 + 0.5*float64(i%5)/4, Latency: workload.ZeroOne,
		}
		g, err := workload.Trace(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := SingleUnit(1 + i%5)
		h, err := heur.ScheduleTrace(ctx, g, m)
		if err != nil {
			t.Fatalf("seed %d: heuristic: %v", i, err)
		}
		if err := CheckLegal(h.S, m.Window); err != nil {
			t.Fatalf("seed %d: heuristic schedule illegal: %v", i, err)
		}
		e, err := exact.ScheduleTrace(ctx, g, m)
		if err != nil {
			t.Fatalf("seed %d: exact: %v", i, err)
		}
		if err := CheckLegal(e.S, m.Window); err != nil {
			t.Fatalf("seed %d: exact schedule illegal: %v", i, err)
		}
		opt := e.S.Makespan()
		if got := h.S.Makespan(); got != opt {
			t.Fatalf("seed %d: predicted heuristic makespan %d != optimum %d (W=%d, %d nodes)",
				i, got, opt, m.Window, g.Len())
		}
		sim, err := SimulateTrace(g, m, h.Order)
		if err != nil {
			t.Fatalf("seed %d: simulate heuristic order: %v", i, err)
		}
		if sim.Completion != opt {
			t.Fatalf("seed %d: simulated heuristic completion %d != optimum %d (W=%d, %d nodes)",
				i, sim.Completion, opt, m.Window, g.Len())
		}
	}
}

// TestHeuristicNearExactRestrictedTraces pins the trace-level restricted
// finding the exact oracle quantified: Algorithm Lookahead is NOT exact on
// every multi-block restricted trace — merge confines each block to its
// standalone makespan, while the true optimum occasionally displaces a
// block by a cycle to win globally (T4's "≥80% exact" reproduction note).
// The gate: never better than the proven optimum, never more than 1 cycle
// worse, and exact on the overwhelming majority of seeds.
func TestHeuristicNearExactRestrictedTraces(t *testing.T) {
	r := rand.New(rand.NewSource(1996))
	heur, exact := HeuristicBackend(), ExactBackend(ExactLimits{})
	ctx := context.Background()
	const seeds = 300
	exactHits := 0
	for i := 0; i < seeds; i++ {
		cfg := workload.TraceConfig{
			Blocks: 3, MinSize: 2, MaxSize: 4,
			IntraProb: 0.4, CrossProb: 0.2, Latency: workload.ZeroOne,
		}
		g, err := workload.Trace(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := SingleUnit(2 + i%4)
		h, err := heur.ScheduleTrace(ctx, g, m)
		if err != nil {
			t.Fatalf("seed %d: heuristic: %v", i, err)
		}
		if err := CheckLegal(h.S, m.Window); err != nil {
			t.Fatalf("seed %d: heuristic schedule illegal: %v", i, err)
		}
		e, err := exact.ScheduleTrace(ctx, g, m)
		if err != nil {
			t.Fatalf("seed %d: exact: %v", i, err)
		}
		sim, err := SimulateTrace(g, m, h.Order)
		if err != nil {
			t.Fatalf("seed %d: simulate heuristic order: %v", i, err)
		}
		gap := sim.Completion - e.S.Makespan()
		switch {
		case gap < 0:
			t.Fatalf("seed %d: heuristic %d beats 'optimal' %d — exact backend is wrong",
				i, sim.Completion, e.S.Makespan())
		case gap == 0:
			exactHits++
		case gap > 1:
			t.Fatalf("seed %d: restricted trace gap %d > 1 cycle (heuristic %d, optimum %d)",
				i, gap, sim.Completion, e.S.Makespan())
		}
	}
	if exactHits*10 < seeds*9 {
		t.Fatalf("heuristic exact on only %d/%d restricted traces (want ≥ 90%%)", exactHits, seeds)
	}
	t.Logf("restricted traces: heuristic exact on %d/%d, max gap 1", exactHits, seeds)
}

// TestExactBackendGeneralModelBounds: on §4.2 machines (non-unit latencies,
// multi-FU) the heuristic carries no optimality proof, but it must stay
// legal and never beat the proven optimum; the exact backend must never
// exceed the heuristic.
func TestExactBackendGeneralModelBounds(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	heur, exact := HeuristicBackend(), ExactBackend(ExactLimits{})
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		cfg := workload.TraceConfig{
			Blocks: 3, MinSize: 2, MaxSize: 4,
			IntraProb: 0.4, CrossProb: 0.2,
			Latency: workload.Mixed, MaxExec: 1 + i%3, Classes: 1 + i%3,
		}
		g, err := workload.Trace(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() > 12 {
			continue
		}
		var m *Machine
		if cfg.Classes > 1 {
			m = RS6000(2 + i%4)
		} else {
			m = SingleUnit(2 + i%4)
		}
		h, err := heur.ScheduleTrace(ctx, g, m)
		if err != nil {
			t.Fatalf("seed %d: heuristic: %v", i, err)
		}
		assertEmittableOrder(t, "heuristic", g, h.Order)
		e, err := exact.ScheduleTrace(ctx, g, m)
		if err != nil {
			t.Fatalf("seed %d: exact: %v", i, err)
		}
		sim, err := SimulateTrace(g, m, h.Order)
		if err != nil {
			t.Fatalf("seed %d: simulate heuristic order: %v", i, err)
		}
		if sim.Completion < e.S.Makespan() {
			t.Fatalf("seed %d: heuristic %d beats 'optimal' %d — exact backend is wrong",
				i, sim.Completion, e.S.Makespan())
		}
	}
}

func TestBackendByName(t *testing.T) {
	for name, want := range map[string]string{"": "heuristic", "heuristic": "heuristic", "exact": "exact"} {
		b, err := BackendByName(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if b.Name() != want {
			t.Fatalf("%q resolved to %q", name, b.Name())
		}
	}
	if _, err := BackendByName("ilp"); err == nil {
		t.Fatal("unknown backend name must error")
	}
}

// TestExactBackendRejectsOversized: the facade surfaces the node cap as
// ErrExactTooLarge so callers can fall back to the heuristic.
func TestExactBackendRejectsOversized(t *testing.T) {
	g := NewGraph(20)
	for i := 0; i < 20; i++ {
		g.AddUnit("n")
	}
	_, err := ExactBackend(ExactLimits{}).ScheduleTrace(context.Background(), g, SingleUnit(4))
	if !errors.Is(err, ErrExactTooLarge) {
		t.Fatalf("want ErrExactTooLarge, got %v", err)
	}
	var m2 *machine.Machine = SingleUnit(4)
	if _, err := HeuristicBackend().ScheduleTrace(context.Background(), g, m2); err != nil {
		t.Fatalf("heuristic must handle what exact rejects: %v", err)
	}
}
