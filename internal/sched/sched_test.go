package sched

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"aisched/internal/graph"
	"aisched/internal/hw"
	"aisched/internal/machine"
)

// chain builds a -1-> b -0-> c (latencies 1 and 0).
func chain() *graph.Graph {
	g := graph.New(3)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	c := g.AddUnit("c")
	g.MustEdge(a, b, 1, 0)
	g.MustEdge(b, c, 0, 0)
	return g
}

func TestListScheduleChainWithLatency(t *testing.T) {
	g := chain()
	m := machine.SingleUnit(1)
	s, err := ListSchedule(g, m, SourceOrder(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// a at 0, latency 1 → b at 2, c at 3. Makespan 4.
	want := []int{0, 2, 3}
	for v, w := range want {
		if s.Start[v] != w {
			t.Fatalf("Start[%d] = %d, want %d", v, s.Start[v], w)
		}
	}
	if s.Makespan() != 4 {
		t.Fatalf("Makespan = %d, want 4", s.Makespan())
	}
	if idles := s.IdleSlots(); len(idles) != 1 || idles[0] != 1 {
		t.Fatalf("IdleSlots = %v, want [1]", idles)
	}
}

func TestListScheduleFillsLatencyGapWithIndependentWork(t *testing.T) {
	g := chain()
	d := g.AddUnit("d") // independent node fills the latency-1 gap
	m := machine.SingleUnit(1)
	s, err := ListSchedule(g, m, SourceOrder(g))
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[d] != 1 {
		t.Fatalf("independent node should fill gap at 1, got %d", s.Start[d])
	}
	if s.Makespan() != 4 {
		t.Fatalf("Makespan = %d, want 4", s.Makespan())
	}
	if len(s.IdleSlots()) != 0 {
		t.Fatalf("IdleSlots = %v, want none", s.IdleSlots())
	}
}

func TestListSchedulePriorityOrderRespected(t *testing.T) {
	g := graph.New(2)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	m := machine.SingleUnit(1)
	s, err := ListSchedule(g, m, []graph.NodeID{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[b] != 0 || s.Start[a] != 1 {
		t.Fatalf("priority not respected: start(a)=%d start(b)=%d", s.Start[a], s.Start[b])
	}
}

func TestListScheduleRejectsBadPriorityList(t *testing.T) {
	g := chain()
	m := machine.SingleUnit(1)
	if _, err := ListSchedule(g, m, []graph.NodeID{0, 1}); err == nil {
		t.Fatal("short list accepted")
	}
	if _, err := ListSchedule(g, m, []graph.NodeID{0, 1, 1}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := ListSchedule(g, m, []graph.NodeID{0, 1, 9}); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestListScheduleMultiCycleExecution(t *testing.T) {
	g := graph.New(2)
	mul := g.AddNode("mul", 3, 0, 0)
	add := g.AddUnit("add")
	g.MustEdge(mul, add, 0, 0)
	m := machine.SingleUnit(1)
	s, err := ListSchedule(g, m, SourceOrder(g))
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[add] != 3 {
		t.Fatalf("add starts at %d, want 3 (after 3-cycle mul)", s.Start[add])
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestListScheduleMultiUnitClasses(t *testing.T) {
	// fixed-point op and float op can run in parallel on RS6000-like machine.
	g := graph.New(3)
	fx := g.AddNode("fx", 1, int(machine.ClassFixed), 0)
	fl := g.AddNode("fl", 1, int(machine.ClassFloat), 0)
	br := g.AddNode("br", 1, int(machine.ClassBranch), 0)
	m := machine.RS6000(1)
	s, err := ListSchedule(g, m, SourceOrder(g))
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[fx] != 0 || s.Start[fl] != 0 || s.Start[br] != 0 {
		t.Fatalf("independent ops on distinct units should co-issue: %v", s.Start)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Unit[fx] == s.Unit[fl] || s.Unit[fl] == s.Unit[br] {
		t.Fatal("distinct classes must land on distinct units")
	}
}

func TestListScheduleClassContention(t *testing.T) {
	// Two fixed ops contend for the single fixed unit.
	g := graph.New(2)
	g.AddNode("f1", 1, int(machine.ClassFixed), 0)
	g.AddNode("f2", 1, int(machine.ClassFixed), 0)
	m := machine.RS6000(1)
	s, err := ListSchedule(g, m, SourceOrder(g))
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[0] == s.Start[1] {
		t.Fatal("two fixed ops co-issued on one fixed unit")
	}
}

func TestListScheduleNoUnitsForClass(t *testing.T) {
	cases := []struct {
		class int
		m     *machine.Machine
	}{
		{7, machine.RS6000(1)}, // class 7 does not exist on RS6000
		{-1, machine.RS6000(1)},
		{-1, machine.SingleUnit(1)}, // the one unit runs every class, but no negative one
	}
	for _, tc := range cases {
		g := graph.New(1)
		g.AddNode("x", 1, tc.class, 0)
		if _, err := ListSchedule(g, tc.m, SourceOrder(g)); err == nil {
			t.Fatalf("node with unexecutable class %d accepted on %s", tc.class, tc.m.Name)
		}
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	g := chain()
	m := machine.SingleUnit(1)
	s := New(g, m)
	if err := s.Validate(); err == nil {
		t.Fatal("incomplete schedule validated")
	}
	// Complete but violating the latency-1 edge a→b.
	s.Start = []int{0, 1, 2}
	s.Unit = []int{0, 0, 0}
	if err := s.Validate(); err == nil {
		t.Fatal("latency violation not caught")
	}
	// Resource overlap.
	s.Start = []int{0, 2, 2}
	if err := s.Validate(); err == nil {
		t.Fatal("resource overlap not caught")
	}
	// Legal.
	s.Start = []int{0, 2, 3}
	if err := s.Validate(); err != nil {
		t.Fatalf("legal schedule rejected: %v", err)
	}
	// Negative start.
	s.Start = []int{-1, 2, 3}
	if err := s.Validate(); err == nil {
		t.Fatal("negative start not caught")
	}
}

func TestPermutationAndSubpermutation(t *testing.T) {
	g := graph.New(4)
	a := g.AddNode("a", 1, 0, 0)
	b := g.AddNode("b", 1, 0, 0)
	c := g.AddNode("c", 1, 0, 1)
	d := g.AddNode("d", 1, 0, 1)
	m := machine.SingleUnit(2)
	s := New(g, m)
	// Interleaved, block 0 out of ID order: b c a d.
	s.Start = []int{2, 0, 1, 3}
	s.Unit = []int{0, 0, 0, 0}
	p := s.Permutation()
	want := []graph.NodeID{b, c, a, d}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("Permutation = %v, want %v", p, want)
		}
	}
	l := s.ConcatSubpermutations()
	wantL := []graph.NodeID{b, a, c, d}
	for i := range wantL {
		if l[i] != wantL[i] {
			t.Fatalf("ConcatSubpermutations = %v, want %v", l, wantL)
		}
	}
}

func TestBlocksEnumeration(t *testing.T) {
	g := graph.New(3)
	g.AddNode("a", 1, 0, 2)
	g.AddNode("b", 1, 0, 0)
	g.AddNode("c", 1, 0, 2)
	bs := Blocks(g)
	if len(bs) != 2 || bs[0] != 0 || bs[1] != 2 {
		t.Fatalf("Blocks = %v, want [0 2]", bs)
	}
}

func TestWindowConstraint(t *testing.T) {
	// a feeds b and c with latency 1, so both stall at cycle 1. Filling that
	// slot with block 1's z needs b, c and z in the window together: the
	// inversion (z, c) spans 3 positions of the static order a b c z.
	g := graph.New(4)
	a := g.AddNode("a", 1, 0, 0)
	b := g.AddNode("b", 1, 0, 0)
	c := g.AddNode("c", 1, 0, 0)
	z := g.AddNode("z", 1, 0, 1)
	g.MustEdge(a, b, 1, 0)
	g.MustEdge(a, c, 1, 0)
	s := New(g, machine.SingleUnit(3))
	s.Unit = []int{0, 0, 0, 0}
	s.Start[a], s.Start[z], s.Start[b], s.Start[c] = 0, 1, 2, 3
	if err := CheckLegal(s, 3); err != nil {
		t.Fatalf("span-3 inversion rejected for W=3: %v", err)
	}
	if err := CheckLegal(s, 2); err == nil {
		t.Fatal("span-3 inversion accepted for W=2")
	}

	// Without the stall, z may not pass ready block-0 instructions at any
	// window size: neither a z b nor z a b is produced by the hardware.
	g = graph.New(3)
	g.AddNode("a", 1, 0, 0)
	g.AddNode("b", 1, 0, 0)
	g.AddNode("z", 1, 0, 1)
	s = New(g, machine.SingleUnit(2))
	s.Unit = []int{0, 0, 0}
	for _, start := range [][]int{{0, 2, 1}, {1, 2, 0}} {
		s.Start = start
		for _, w := range []int{2, 3} {
			if err := CheckLegal(s, w); err == nil {
				t.Fatalf("starts %v accepted for W=%d", start, w)
			}
		}
	}
}

func TestOrderingConstraint(t *testing.T) {
	// Paper §2.3: a schedule that delays a ready earlier-block instruction in
	// favour of a later-block one violates the Ordering Constraint.
	g := graph.New(2)
	a := g.AddNode("a", 1, 0, 0)
	z := g.AddNode("z", 1, 0, 1)
	m := machine.SingleUnit(2)
	s := New(g, m)
	s.Unit = []int{0, 0}
	// z first while a is ready: the window holding [a, z] issues a first.
	s.Start[a], s.Start[z] = 1, 0
	if err := CheckLegal(s, 2); err == nil {
		t.Fatal("ordering violation accepted")
	}
	// a first is fine.
	s.Start[a], s.Start[z] = 0, 1
	if err := CheckLegal(s, 2); err != nil {
		t.Fatalf("legal schedule rejected by CheckLegal: %v", err)
	}
}

func TestOrderingConstraintAllowsForcedInversion(t *testing.T) {
	// When the earlier-block instruction is NOT ready (latency), the hardware
	// may issue the later-block one: greedy from L reproduces the inversion.
	g := graph.New(3)
	a := g.AddNode("a", 1, 0, 0)
	b := g.AddNode("b", 1, 0, 0)
	z := g.AddNode("z", 1, 0, 1)
	g.MustEdge(a, b, 1, 0) // b not ready at cycle 1
	m := machine.SingleUnit(2)
	s, err := ListSchedule(g, m, []graph.NodeID{a, b, z})
	if err != nil {
		t.Fatal(err)
	}
	// greedy: a@0, b blocked at 1, z@1, b@2 — inversion (z, b).
	if s.Start[z] != 1 || s.Start[b] != 2 {
		t.Fatalf("unexpected greedy: %v", s.Start)
	}
	if err := CheckLegal(s, 2); err != nil {
		t.Fatalf("legal inversion rejected: %v", err)
	}
}

func TestIdleSlotsOnUnitAndString(t *testing.T) {
	g := chain()
	m := machine.SingleUnit(1)
	s, _ := ListSchedule(g, m, SourceOrder(g))
	if idles := s.IdleSlotsOnUnit(0); len(idles) != 1 || idles[0] != 1 {
		t.Fatalf("IdleSlotsOnUnit = %v, want [1]", idles)
	}
	str := s.String()
	if !strings.Contains(str, "a") || !strings.Contains(str, ".") {
		t.Fatalf("String missing content: %q", str)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := chain()
	m := machine.SingleUnit(1)
	s, _ := ListSchedule(g, m, SourceOrder(g))
	c := s.Clone()
	c.Start[0] = 99
	if s.Start[0] == 99 {
		t.Fatal("Clone shares Start storage")
	}
}

func randomBlockDAG(r *rand.Rand, nodes, blocks int, p float64, maxLat int) *graph.Graph {
	g := graph.New(nodes)
	for i := 0; i < nodes; i++ {
		g.AddNode("n", 1, 0, i*blocks/nodes)
	}
	for i := 0; i < nodes; i++ {
		for j := i + 1; j < nodes; j++ {
			if r.Float64() < p {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(maxLat+1), 0)
			}
		}
	}
	return g
}

func TestPropertyGreedyScheduleIsValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomBlockDAG(r, 2+r.Intn(30), 1+r.Intn(4), 0.25, 3)
		m := machine.SingleUnit(4)
		// random priority permutation
		pr := SourceOrder(g)
		r.Shuffle(len(pr), func(i, j int) { pr[i], pr[j] = pr[j], pr[i] })
		s, err := ListSchedule(g, m, pr)
		if err != nil {
			return false
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGreedyIsIdempotentOnOwnPermutation(t *testing.T) {
	// Re-running greedy on the permutation of a greedy schedule reproduces it
	// (single unit).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomBlockDAG(r, 2+r.Intn(25), 1, 0.3, 2)
		m := machine.SingleUnit(4)
		pr := SourceOrder(g)
		r.Shuffle(len(pr), func(i, j int) { pr[i], pr[j] = pr[j], pr[i] })
		s, err := ListSchedule(g, m, pr)
		if err != nil {
			return false
		}
		again, err := ListSchedule(g, m, s.Permutation())
		if err != nil {
			return false
		}
		for v := range s.Start {
			if again.Start[v] != s.Start[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMultiUnitGreedyValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := graph.New(20)
		n := 2 + r.Intn(20)
		for i := 0; i < n; i++ {
			g.AddNode("n", 1+r.Intn(3), r.Intn(3), 0)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.2 {
					g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(4), 0)
				}
			}
		}
		m := machine.RS6000(4)
		s, err := ListSchedule(g, m, SourceOrder(g))
		if err != nil {
			return false
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateTraceMatchesGreedyForLargeWindow(t *testing.T) {
	// With W ≥ number of instructions, the window replay degenerates to the
	// plain greedy list schedule: every instruction issues at its start.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddNode("n", 1, 0, i%3)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.3 {
					g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(2), 0)
				}
			}
		}
		m := machine.SingleUnit(n + 1)
		// SimulateTrace takes an arbitrary stream, not only a
		// block-contiguous one.
		order := SourceOrder(g)
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		res, err := hw.SimulateTrace(g, m, order)
		if err != nil {
			return false
		}
		s, err := ListSchedule(g, m, order)
		if err != nil {
			return false
		}
		for i, v := range order {
			if res.Issued[i] != s.Start[v] {
				return false
			}
		}
		return res.Completion == s.Makespan()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
