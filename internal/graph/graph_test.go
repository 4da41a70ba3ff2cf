package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New(4)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	c := g.AddUnit("c")
	d := g.AddUnit("d")
	g.MustEdge(a, b, 1, 0)
	g.MustEdge(a, c, 0, 0)
	g.MustEdge(b, d, 1, 0)
	g.MustEdge(c, d, 0, 0)
	return g
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New(0)
	for i := 0; i < 5; i++ {
		if id := g.AddUnit("n"); int(id) != i {
			t.Fatalf("AddUnit returned %d, want %d", id, i)
		}
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
}

func TestAddNodeClampsExecTime(t *testing.T) {
	g := New(1)
	id := g.AddNode("x", 0, 0, 0)
	if e := g.Node(id).Exec; e != 1 {
		t.Fatalf("Exec = %d, want clamped 1", e)
	}
	id2 := g.AddNode("y", -3, 0, 0)
	if e := g.Node(id2).Exec; e != 1 {
		t.Fatalf("Exec = %d, want clamped 1", e)
	}
}

func TestAddEdgeRejectsBadEdges(t *testing.T) {
	g := New(2)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	cases := []struct {
		name              string
		src, dst          NodeID
		latency, distance int
	}{
		{"unknown src", 99, b, 0, 0},
		{"unknown dst", a, 99, 0, 0},
		{"negative src", -1, b, 0, 0},
		{"negative latency", a, b, -1, 0},
		{"negative distance", a, b, 0, -1},
		{"self loop-independent", a, a, 1, 0},
	}
	for _, c := range cases {
		if err := g.AddEdge(c.src, c.dst, c.latency, c.distance); err == nil {
			t.Errorf("%s: AddEdge succeeded, want error", c.name)
		}
	}
}

func TestAddEdgeAllowsLoopCarriedSelfEdge(t *testing.T) {
	g := New(1)
	a := g.AddUnit("a")
	if err := g.AddEdge(a, a, 4, 1); err != nil {
		t.Fatalf("loop-carried self edge rejected: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestAddEdgeParallelKeepsMaxLatency(t *testing.T) {
	g := New(2)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	g.MustEdge(a, b, 1, 0)
	g.MustEdge(a, b, 3, 0) // should upgrade latency
	g.MustEdge(a, b, 2, 0) // should be ignored
	if n := g.NumEdges(); n != 1 {
		t.Fatalf("NumEdges = %d, want 1 (deduplicated)", n)
	}
	if l := g.Out(a)[0].Latency; l != 3 {
		t.Fatalf("out latency = %d, want 3", l)
	}
	if l := g.In(b)[0].Latency; l != 3 {
		t.Fatalf("in latency = %d, want 3 (in/out must stay consistent)", l)
	}
}

func TestParallelEdgesWithDifferentDistanceCoexist(t *testing.T) {
	g := New(2)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	g.MustEdge(a, b, 1, 0)
	g.MustEdge(a, b, 4, 1)
	if n := g.NumEdges(); n != 2 {
		t.Fatalf("NumEdges = %d, want 2", n)
	}
}

func TestTopoOrderDiamond(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.Src] >= pos[e.Dst] {
			t.Fatalf("topo order violates edge %v", e)
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := New(3)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	c := g.AddUnit("c")
	g.MustEdge(a, b, 0, 0)
	g.MustEdge(b, c, 0, 0)
	g.MustEdge(c, a, 0, 0)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("TopoOrder accepted a cyclic graph")
	}
	if g.IsAcyclic() {
		t.Fatal("IsAcyclic true for cyclic graph")
	}
}

func TestTopoOrderIgnoresLoopCarriedCycle(t *testing.T) {
	g := New(2)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	g.MustEdge(a, b, 1, 0)
	g.MustEdge(b, a, 4, 1) // loop-carried back edge must not count as a cycle
	if !g.IsAcyclic() {
		t.Fatal("loop-carried back edge treated as cycle")
	}
}

func TestDescendantsAndAncestors(t *testing.T) {
	g := diamond(t)
	desc, err := g.Descendants()
	if err != nil {
		t.Fatal(err)
	}
	if got := desc[0].Count(); got != 3 {
		t.Fatalf("desc(a) count = %d, want 3", got)
	}
	if !desc[0].Has(3) || !desc[1].Has(3) || !desc[2].Has(3) {
		t.Fatal("d should descend from a, b, c")
	}
	if !desc[3].Empty() {
		t.Fatal("sink must have no descendants")
	}
	anc, err := g.Ancestors()
	if err != nil {
		t.Fatal(err)
	}
	if got := anc[3].Count(); got != 3 {
		t.Fatalf("anc(d) count = %d, want 3", got)
	}
	if !anc[0].Empty() {
		t.Fatal("source must have no ancestors")
	}
}

func TestSourcesSinks(t *testing.T) {
	g := diamond(t)
	if s := g.Sources(); len(s) != 1 || s[0] != 0 {
		t.Fatalf("Sources = %v, want [0]", s)
	}
	if s := g.Sinks(); len(s) != 1 || s[0] != 3 {
		t.Fatalf("Sinks = %v, want [3]", s)
	}
}

func TestSourcesSinksIgnoreLoopCarried(t *testing.T) {
	g := New(2)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	g.MustEdge(a, b, 0, 0)
	g.MustEdge(b, a, 1, 1)
	if s := g.Sources(); len(s) != 1 || s[0] != a {
		t.Fatalf("Sources = %v, want [a]", s)
	}
	if s := g.Sinks(); len(s) != 1 || s[0] != b {
		t.Fatalf("Sinks = %v, want [b]", s)
	}
}

func TestCriticalPathLengths(t *testing.T) {
	g := diamond(t)
	cp, err := g.CriticalPathLengths()
	if err != nil {
		t.Fatal(err)
	}
	// d: 1. b: 1 + lat 1 + 1 = 3. c: 1 + 0 + 1 = 2. a: 1 + max(1+3, 0+2) = 5.
	want := []int{5, 3, 2, 1}
	for i, w := range want {
		if cp[i] != w {
			t.Fatalf("cp[%d] = %d, want %d (all %v)", i, cp[i], w, cp)
		}
	}
}

func TestEarliestStarts(t *testing.T) {
	g := diamond(t)
	est, err := g.EarliestStarts()
	if err != nil {
		t.Fatal(err)
	}
	// a at 0; b ≥ 1+1 = 2; c ≥ 1; d ≥ max(b.finish+1, c.finish+0) = max(3+1, 2) = 4.
	want := []int{0, 2, 1, 4}
	for i, w := range want {
		if est[i] != w {
			t.Fatalf("est[%d] = %d, want %d (all %v)", i, est[i], w, est)
		}
	}
}

func TestLoopIndependentStripsCarriedEdges(t *testing.T) {
	g := New(2)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	g.MustEdge(a, b, 1, 0)
	g.MustEdge(b, a, 4, 1)
	g.MustEdge(a, a, 1, 1)
	li := g.LoopIndependent()
	if li.NumEdges() != 1 {
		t.Fatalf("G_li edges = %d, want 1", li.NumEdges())
	}
	if li.HasLoopCarried() {
		t.Fatal("G_li still has loop-carried edges")
	}
	if !g.HasLoopCarried() {
		t.Fatal("original graph should report loop-carried edges")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := diamond(t)
	h := g.Clone()
	h.MustEdge(NodeID(0), NodeID(3), 5, 0)
	h.SetExec(NodeID(0), 7)
	if g.NumEdges() == h.NumEdges() {
		t.Fatal("clone shares edge storage with original")
	}
	if g.Node(0).Exec == 7 {
		t.Fatal("clone shares node storage with original")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := diamond(t)
	sub, ids := g.Induced(map[NodeID]bool{0: true, 1: true, 3: true})
	if sub.Len() != 3 {
		t.Fatalf("induced Len = %d, want 3", sub.Len())
	}
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 3 {
		t.Fatalf("id mapping = %v, want [0 1 3]", ids)
	}
	// Edges a→b and b→d survive; a→c, c→d are dropped with c.
	if sub.NumEdges() != 2 {
		t.Fatalf("induced edges = %d, want 2", sub.NumEdges())
	}
}

func TestDOTContainsAllNodesAndEdges(t *testing.T) {
	g := diamond(t)
	dot := g.DOT("d")
	for _, want := range []string{"n0", "n3", "<1,0>", "digraph"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

// randomDAG builds a random DAG with edges only from lower to higher IDs.
func randomDAG(r *rand.Rand, n int, p float64, maxLat int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddUnit("n")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.MustEdge(NodeID(i), NodeID(j), r.Intn(maxLat+1), 0)
			}
		}
	}
	return g
}

func TestPropertyTopoOrderRespectsAllEdges(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(30), 0.3, 2)
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		pos := make([]int, g.Len())
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range g.Edges() {
			if pos[e.Src] >= pos[e.Dst] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDescendantsMatchesDFS(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(20), 0.25, 1)
		desc, err := g.Descendants()
		if err != nil {
			return false
		}
		// Independent check: DFS from each node.
		for s := 0; s < g.Len(); s++ {
			seen := make(map[NodeID]bool)
			var stack []NodeID
			stack = append(stack, NodeID(s))
			for len(stack) > 0 {
				id := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, e := range g.Out(id) {
					if !seen[e.Dst] {
						seen[e.Dst] = true
						stack = append(stack, e.Dst)
					}
				}
			}
			if len(seen) != desc[s].Count() {
				return false
			}
			for id := range seen {
				if !desc[s].Has(int(id)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEarliestStartLEQCriticalPathBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(25), 0.3, 3)
		est, err1 := g.EarliestStarts()
		cp, err2 := g.CriticalPathLengths()
		if err1 != nil || err2 != nil {
			return false
		}
		// est(v) + cp(v) is the length of some source-to-sink path through v,
		// so it is at most the overall critical path length.
		total := 0
		for i := range cp {
			if est[i]+cp[i] > total {
				total = est[i] + cp[i]
			}
		}
		for _, s := range g.Sources() {
			if cp[s] > total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckBlockOrder(t *testing.T) {
	g := New(3)
	a := g.AddNode("a", 1, 0, 0)
	b := g.AddNode("b", 1, 0, 1)
	c := g.AddNode("c", 1, 0, 1)
	g.MustEdge(a, b, 1, 0)
	g.MustEdge(b, c, 0, 0)
	g.MustEdge(c, a, 0, 1) // loop-carried: runs backward legitimately
	if err := g.CheckBlockOrder(); err != nil {
		t.Fatalf("forward trace rejected: %v", err)
	}
	if n := testing.AllocsPerRun(10, func() { _ = g.CheckBlockOrder() }); n != 0 {
		t.Fatalf("CheckBlockOrder allocates %v times", n)
	}
	g.MustEdge(c, a, 2, 0)
	if err := g.CheckBlockOrder(); err == nil || !strings.Contains(err.Error(), "2->0 crosses blocks backward") {
		t.Fatalf("backward edge: got %v", err)
	}
}
