package hw

import (
	"testing"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
)

// mulLoop builds the Figure 3-shaped partial-products body: load, store,
// compare, multiply, branch, with a distance-1 multiply recurrence and the
// branch controlling the next iteration.
func mulLoop(t *testing.T) (*graph.Graph, []graph.NodeID) {
	t.Helper()
	g := graph.New(5)
	ld := g.AddNode("ld", 1, int(machine.ClassFixed), 0)
	st := g.AddNode("st", 1, int(machine.ClassFixed), 0)
	cmp := g.AddNode("cmp", 1, int(machine.ClassFixed), 0)
	mul := g.AddNode("mul", 1, int(machine.ClassFloat), 0)
	bt := g.AddNode("bt", 1, int(machine.ClassBranch), 0)
	g.MustEdge(ld, cmp, 1, 0)
	g.MustEdge(ld, mul, 1, 0)
	g.MustEdge(cmp, bt, 1, 0)
	g.MustEdge(mul, st, 4, 1)  // store of y[i-1] next iteration
	g.MustEdge(mul, mul, 4, 1) // multiply recurrence
	g.MustEdge(bt, ld, 0, 1)   // control dependence into next iteration
	return g, []graph.NodeID{ld, st, cmp, mul, bt}
}

// TestTracingPreservesResults: installing a tracer must not change any
// simulation outcome — completion, per-position issue cycles, or rollbacks.
func TestTracingPreservesResults(t *testing.T) {
	g, order := mulLoop(t)
	for _, opt := range []Options{
		{Speculate: true},
		{Speculate: false},
		{Speculate: true, MispredictEvery: 2, Penalty: 3},
	} {
		for _, m := range []*machine.Machine{machine.SingleUnit(4), machine.RS6000(8)} {
			plain, err := SimulateLoop(g, m, order, 12, opt)
			if err != nil {
				t.Fatal(err)
			}
			topt := opt
			topt.Tracer = obs.NewRecorder()
			traced, err := SimulateLoop(g, m, order, 12, topt)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Completion != plain.Completion || traced.Rollbacks != plain.Rollbacks {
				t.Fatalf("%s %+v: traced completion/rollbacks %d/%d != plain %d/%d",
					m.Name, opt, traced.Completion, traced.Rollbacks, plain.Completion, plain.Rollbacks)
			}
			for i := range plain.Issued {
				if plain.Issued[i] != traced.Issued[i] {
					t.Fatalf("%s %+v: issue cycle of position %d differs: %d vs %d",
						m.Name, opt, i, plain.Issued[i], traced.Issued[i])
				}
			}
		}
	}
}

// TestStallBreakdownSums: every issue-phase cycle with no issue is
// attributed to exactly one reason, so the breakdown sums to the total and
// the total equals issue-phase cycles minus issuing cycles.
func TestStallBreakdownSums(t *testing.T) {
	g, order := mulLoop(t)
	m := machine.SingleUnit(4)
	rec := obs.NewRecorder()
	if _, err := SimulateLoop(g, m, order, 10,
		Options{Speculate: true, Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	s := rec.Stats()
	sum := 0
	for _, n := range s.StallByReason {
		sum += n
	}
	if sum != s.StallCycles {
		t.Fatalf("breakdown sums to %d, StallCycles = %d (%v)", sum, s.StallCycles, s.StallByReason)
	}
	// Cross-check against the event stream: stall cycles and issue cycles
	// partition the issue phase [0, last issue cycle].
	issueCycles := map[int]bool{}
	stallCycles := map[int]bool{}
	last := 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.KindIssue:
			issueCycles[e.Cycle] = true
			if e.Cycle > last {
				last = e.Cycle
			}
		case obs.KindStall:
			if stallCycles[e.Cycle] {
				t.Fatalf("cycle %d attributed twice", e.Cycle)
			}
			stallCycles[e.Cycle] = true
			if e.Cycle > last {
				last = e.Cycle
			}
		}
	}
	for c := 0; c <= last; c++ {
		if issueCycles[c] == stallCycles[c] {
			t.Fatalf("cycle %d: issue=%v stall=%v — the issue phase must be partitioned",
				c, issueCycles[c], stallCycles[c])
		}
	}
}

// TestMispredictRollbackAccounting is the Options-misprediction coverage:
// Result.Rollbacks, the rollback re-issues, and the Penalty stall cycles
// must all be reflected in the stall-reason accounting.
func TestMispredictRollbackAccounting(t *testing.T) {
	g, order := mulLoop(t)
	// Multi-unit machine: the next iteration's load issues on the free
	// fixed-point unit while the branch still waits on the compare, so a
	// mispredicted branch has instructions to squash.
	m := machine.RS6000(8)
	const every, penalty, iters = 2, 3, 12
	rec := obs.NewRecorder()
	res, err := SimulateLoop(g, m, order, iters,
		Options{Speculate: true, MispredictEvery: every, Penalty: penalty, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rollbacks == 0 {
		t.Fatal("expected injected mispredictions")
	}
	s := rec.Stats()
	if s.Rollbacks != res.Rollbacks {
		t.Errorf("stats rollbacks %d != result rollbacks %d", s.Rollbacks, res.Rollbacks)
	}
	if s.Reissues == 0 {
		t.Error("squashed instructions must re-issue after rollback")
	}
	if s.Reissues != s.Squashed {
		t.Errorf("re-issues %d != squashed %d: every rolled-back instruction re-issues exactly once",
			s.Reissues, s.Squashed)
	}
	if s.Instructions != len(order)*iters {
		t.Errorf("distinct instructions %d, want %d", s.Instructions, len(order)*iters)
	}
	refill := s.StallByReason[obs.RollbackRefill.String()]
	if refill == 0 {
		t.Error("expected rollback-refill stall cycles")
	}
	// Each misprediction freezes issue until finish(branch) + Penalty; the
	// refill window spans at least Penalty cycles per rollback minus the
	// branch's own finish cycle, and never exceeds (penalty+1)·rollbacks.
	if refill > (penalty+1)*res.Rollbacks {
		t.Errorf("refill stalls %d exceed (penalty+1)*rollbacks = %d",
			refill, (penalty+1)*res.Rollbacks)
	}
	sum := 0
	for _, n := range s.StallByReason {
		sum += n
	}
	if sum != s.StallCycles {
		t.Errorf("breakdown sums to %d, StallCycles = %d", sum, s.StallCycles)
	}
	// A misprediction-free run of the same configuration completes sooner.
	clean, err := SimulateLoop(g, m, order, iters, Options{Speculate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion <= clean.Completion {
		t.Errorf("mispredicted completion %d should exceed clean %d", res.Completion, clean.Completion)
	}
}

// TestCrossBlockFillAttribution: on a two-block trace whose second block can
// start inside the first block's trailing idle slots, the tracer must
// attribute cross-block fills; with W=1 (no lookahead) there are none.
func TestCrossBlockFillAttribution(t *testing.T) {
	// Block 0: a → (latency 3) → b; block 1: independent c, d. With W=4 the
	// window issues c and d into the idle slots between a and b.
	g := graph.New(4)
	a := g.AddNode("a", 1, 0, 0)
	b := g.AddNode("b", 1, 0, 0)
	c := g.AddNode("c", 1, 0, 1)
	d := g.AddNode("d", 1, 0, 1)
	g.MustEdge(a, b, 3, 0)
	order := []graph.NodeID{a, b, c, d}

	rec := obs.NewRecorder()
	if _, err := SimulateLoop(g, machine.SingleUnit(4), order, 1, Options{Speculate: true, Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	s := rec.Stats()
	if s.CrossBlockFills == 0 {
		t.Errorf("W=4: want cross-block fills, got stats %+v", s)
	}

	rec = obs.NewRecorder()
	if _, err := SimulateLoop(g, machine.SingleUnit(1), order, 1, Options{Speculate: true, Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	if s := rec.Stats(); s.CrossBlockFills != 0 || s.SameBlockFills != 0 {
		t.Errorf("W=1 cannot fill idle slots out of order, got %+v", s)
	}
}

// TestWindowOccupancyBounded: occupancy never exceeds W and the histogram
// accounts for every issue-phase cycle.
func TestWindowOccupancyBounded(t *testing.T) {
	g, order := mulLoop(t)
	const w = 4
	rec := obs.NewRecorder()
	if _, err := SimulateLoop(g, machine.SingleUnit(w), order, 8,
		Options{Speculate: true, Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	s := rec.Stats()
	if len(s.WindowOccupancy) > w+1 {
		t.Fatalf("occupancy histogram has %d buckets for W=%d: %v",
			len(s.WindowOccupancy), w, s.WindowOccupancy)
	}
}
