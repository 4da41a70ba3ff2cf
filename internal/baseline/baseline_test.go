package baseline_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"aisched/internal/baseline"
	"aisched/internal/graph"
	"aisched/internal/hw"
	"aisched/internal/machine"
	"aisched/internal/opt"
	"aisched/internal/paperex"
	"aisched/internal/sched"
)

func TestAllNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range baseline.All() {
		if s.Name() == "" || seen[s.Name()] {
			t.Fatalf("duplicate or empty scheduler name %q", s.Name())
		}
		seen[s.Name()] = true
	}
	if len(seen) != 5 {
		t.Fatalf("expected 5 baselines, got %d", len(seen))
	}
}

func TestSourceOrderIsIdentity(t *testing.T) {
	f := paperex.NewFig1()
	order, err := baseline.SourceOrder{}.Order(f.G, machine.SingleUnit(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if int(id) != i {
			t.Fatalf("source order not identity: %v", order)
		}
	}
}

func TestEveryBaselineProducesValidPermutation(t *testing.T) {
	f := paperex.NewFig2()
	m := machine.SingleUnit(2)
	for _, s := range baseline.All() {
		order, err := baseline.ScheduleTrace(s, f.G, m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(order) != f.G.Len() {
			t.Fatalf("%s: emitted %d of %d", s.Name(), len(order), f.G.Len())
		}
		seen := make([]bool, f.G.Len())
		for _, id := range order {
			if seen[id] {
				t.Fatalf("%s: duplicate node %d", s.Name(), id)
			}
			seen[id] = true
		}
		// Local schedulers must keep blocks contiguous.
		lastBlock := -1
		for _, id := range order {
			b := f.G.Node(id).Block
			if b < lastBlock {
				t.Fatalf("%s: block order violated: %v", s.Name(), order)
			}
			lastBlock = b
		}
		// The emitted order must execute without deadlock.
		if _, err := hw.SimulateTrace(f.G, m, order); err != nil {
			t.Fatalf("%s: emitted order does not execute: %v", s.Name(), err)
		}
	}
}

func TestCriticalPathBeatsSourceOrderOnLatencyChain(t *testing.T) {
	// Source order `a b c long-chain` stalls; critical-path hoists the
	// chain. Construct: independent filler first in program order, chain
	// last — CP must reorder and win.
	g := graph.New(5)
	f1 := g.AddNode("f1", 1, 0, 0)
	f2 := g.AddNode("f2", 1, 0, 0)
	c1 := g.AddNode("c1", 1, 0, 0)
	c2 := g.AddNode("c2", 1, 0, 0)
	c3 := g.AddNode("c3", 1, 0, 0)
	g.MustEdge(c1, c2, 1, 0)
	g.MustEdge(c2, c3, 1, 0)
	_ = f1
	_ = f2
	m := machine.SingleUnit(1)
	so, _ := baseline.SourceOrder{}.Order(g, m)
	cp, _ := baseline.CriticalPath{}.Order(g, m)
	sSo, err := sched.ListSchedule(g, m, so)
	if err != nil {
		t.Fatal(err)
	}
	sCp, err := sched.ListSchedule(g, m, cp)
	if err != nil {
		t.Fatal(err)
	}
	if sCp.Makespan() >= sSo.Makespan() {
		t.Fatalf("critical path (%d) did not beat source order (%d)", sCp.Makespan(), sSo.Makespan())
	}
	if sCp.Makespan() != 5 {
		t.Fatalf("critical path makespan = %d, want 5 (c1 c2 c3 interleaved with fillers)", sCp.Makespan())
	}
}

func TestRankLocalOptimalOnFigure1(t *testing.T) {
	f := paperex.NewFig1()
	m := machine.SingleUnit(1)
	order, err := baseline.RankLocal{}.Order(f.G, m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListSchedule(f.G, m, order)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 7 {
		t.Fatalf("rank-local makespan = %d, want 7", s.Makespan())
	}
}

func TestCoffmanGrahamOptimalZeroLatencyTwoUnits(t *testing.T) {
	// CG is optimal for 2 identical processors, zero latencies, UET.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(6)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddUnit("n")
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.35 {
					g.MustEdge(graph.NodeID(i), graph.NodeID(j), 0, 0)
				}
			}
		}
		m := machine.Superscalar(2, 1)
		order, err := baseline.CoffmanGraham{}.Order(g, m)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ListSchedule(g, m, order)
		if err != nil {
			t.Fatal(err)
		}
		// Lower bound: max(critical path, ceil(n/2)).
		cp, _ := g.CriticalPathLengths()
		lb := (n + 1) / 2
		for _, v := range cp {
			if v > lb {
				lb = v
			}
		}
		if s.Makespan() != lb {
			// CG optimality guarantees makespan = optimum; optimum ≥ lb and
			// for these instances the bound is tight in most cases — verify
			// against brute force on a single unit-equivalent? Keep the
			// check conservative: within 1 of the lower bound.
			if s.Makespan() > lb+1 {
				t.Fatalf("coffman-graham makespan %d far from lower bound %d", s.Makespan(), lb)
			}
		}
	}
}

func TestPropertyRankLocalNeverWorseThanOtherLocals(t *testing.T) {
	// Rank-local is optimal per block in the restricted model, so its
	// per-block makespans (and hence the no-overlap sum) are minimal.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddUnit("n")
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.3 {
					g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(2), 0)
				}
			}
		}
		m := machine.SingleUnit(1)
		mk := func(s baseline.Scheduler) int {
			order, err := s.Order(g, m)
			if err != nil {
				return -1
			}
			sc, err := sched.ListSchedule(g, m, order)
			if err != nil {
				return -1
			}
			return sc.Makespan()
		}
		rl := mk(baseline.RankLocal{})
		if rl < 0 {
			return false
		}
		for _, s := range baseline.All() {
			v := mk(s)
			if v < 0 || v < rl {
				return false
			}
		}
		// And rank-local matches the exact block optimum.
		best, _, _, err := opt.OptimalTrace(context.Background(), g, m.WithWindow(g.Len()), opt.Limits{})
		if err != nil {
			return false
		}
		return rl == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
