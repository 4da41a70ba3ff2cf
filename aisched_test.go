package aisched

import (
	"strings"
	"testing"
)

func TestPublicScheduleBlock(t *testing.T) {
	g := NewGraph(3)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	c := g.AddUnit("c")
	g.MustEdge(a, b, 1, 0)
	g.MustEdge(b, c, 0, 0)
	m := SingleUnit(4)
	s, err := ScheduleBlock(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 4 {
		t.Fatalf("makespan = %d, want 4", s.Makespan())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicTracePipeline(t *testing.T) {
	// Two blocks; block 1 depends on block 0 output with latency.
	g := NewGraph(4)
	a := g.AddNode("a", 1, 0, 0)
	b := g.AddNode("b", 1, 0, 0)
	z := g.AddNode("z", 1, 0, 1)
	q := g.AddNode("q", 1, 0, 1)
	g.MustEdge(a, b, 1, 0)
	g.MustEdge(a, z, 1, 0)
	g.MustEdge(z, q, 1, 0)
	m := SingleUnit(2)
	res, err := ScheduleTrace(g, m)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimulateTrace(g, m, res.StaticOrder())
	if err != nil {
		t.Fatal(err)
	}
	if sim.Completion != res.Makespan() {
		t.Fatalf("simulated %d != predicted %d", sim.Completion, res.Makespan())
	}
	if err := CheckLegal(res.S, 2); err != nil {
		t.Fatal(err)
	}
}

func TestPublicCompileAndScheduleLoop(t *testing.T) {
	src := `
int x[10];
int y[10];
int i;
for (i = 1; x[i] != 0; i = i + 1) {
	y[i] = y[i-1] * x[i];
}
`
	c, err := CompileC(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Loops) != 1 {
		t.Fatalf("loops = %d", len(c.Loops))
	}
	body := c.Body(c.Loops[0])
	g := BuildLoopGraph(body)
	m := SingleUnit(8)
	st, err := ScheduleLoop(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if st.II < 1 || st.Makespan < len(body) {
		t.Fatalf("steady state II=%d makespan=%d", st.II, st.Makespan)
	}
	dyn, err := LoopSteadyState(g, m, st.Order, SimOptions{Speculate: true})
	if err != nil {
		t.Fatal(err)
	}
	if dyn <= 0 {
		t.Fatalf("dynamic steady state %f", dyn)
	}
}

func TestPublicParseAsmAndSimulateLoop(t *testing.T) {
	blocks, err := ParseAsm(`
CL.18:
	loadu  r6, 4(r7)
	storeu r0, 4(r5)
	cmpi   cr1, r6, 0
	mul    r0, r6, r0
	bt     cr1, CL.1
`)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildLoopGraph(blocks[0].Instrs)
	m := SingleUnit(4)
	order := make([]NodeID, g.Len())
	for i := range order {
		order[i] = NodeID(i)
	}
	res, err := SimulateLoop(g, m, order, 10, SimOptions{Speculate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion < 10 {
		t.Fatalf("completion = %d", res.Completion)
	}
}

func TestPublicPipelineThenAnticipate(t *testing.T) {
	blocks, err := ParseAsm(`
L:
	loadu  r6, 4(r7)
	storeu r0, 4(r5)
	cmpi   cr1, r6, 0
	mul    r0, r6, r0
	bt     cr1, L
`)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildLoopGraph(blocks[0].Instrs)
	m := SingleUnit(4)
	st, k, err := PipelineThenAnticipate(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if k.II < 5 {
		t.Fatalf("kernel II = %d, want ≥ 5 (multiply recurrence)", k.II)
	}
	if st.II < 5 {
		t.Fatalf("post-pass II = %d", st.II)
	}
}

func TestPublicEvaluateLoopOrder(t *testing.T) {
	g := NewGraph(2)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	g.MustEdge(a, b, 0, 0)
	g.MustEdge(b, a, 2, 1)
	st, err := EvaluateLoopOrder(g, SingleUnit(2), []NodeID{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// carried b→a <2,1>: II ≥ σ(b)+1+2−σ(a) = 4.
	if st.II != 4 {
		t.Fatalf("II = %d, want 4", st.II)
	}
	if st.CompletionN(3) != st.Makespan+2*st.II {
		t.Fatal("CompletionN arithmetic wrong")
	}
}

func TestPublicDocExampleCompiles(t *testing.T) {
	// Mirror of the package-comment quick start.
	g := NewGraph(3)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	c := g.AddUnit("c")
	g.MustEdge(a, b, 1, 0)
	g.MustEdge(b, c, 0, 0)
	m := SingleUnit(4)
	s, err := ScheduleBlock(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.String(), "a") {
		t.Fatal("schedule rendering empty")
	}
}

// TestBackwardCrossBlockEdgeRejected: an edge from a later block into an
// earlier one puts a consumer ahead of its producer in every emittable
// stream, so the window deadlocks on whatever order comes out. Every trace
// entry point must reject the graph instead of emitting such an order.
func TestBackwardCrossBlockEdgeRejected(t *testing.T) {
	g := NewGraph(5)
	a := g.AddNode("a", 1, 0, 0)
	g.AddNode("b", 1, 0, 0)
	g.AddNode("c", 1, 0, 0)
	d := g.AddNode("d", 1, 0, 1)
	g.AddNode("e", 1, 0, 0)
	g.MustEdge(d, a, 0, 0)
	m := SingleUnit(2)
	if res, err := ScheduleTrace(g, m); err == nil {
		t.Errorf("ScheduleTrace accepted the backward edge: order %v", res.StaticOrder())
	}
	if _, err := NewScheduler(SchedulerOptions{}).ScheduleTrace(g, m); err == nil {
		t.Error("Scheduler.ScheduleTrace accepted the backward edge")
	}
	if _, err := ScheduleLoop(g, m); err == nil {
		t.Error("ScheduleLoop accepted the backward edge")
	}
}
