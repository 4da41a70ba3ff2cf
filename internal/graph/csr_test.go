package graph

import (
	"math/rand"
	"testing"

	"aisched/internal/testutil"
)

// randomGraph builds a random DAG-ish graph (edges src < dst stay acyclic,
// plus some loop-carried edges that CSR must drop).
func randomGraph(r *rand.Rand, n int) *Graph {
	g := New(n)
	for v := 0; v < n; v++ {
		g.AddNode("n", 1+r.Intn(3), r.Intn(2), r.Intn(4))
	}
	for v := 0; v < n; v++ {
		for u := v + 1; u < n; u++ {
			if r.Float64() < 0.25 {
				g.MustEdge(NodeID(v), NodeID(u), r.Intn(4), 0)
			}
		}
		if v > 0 && r.Float64() < 0.15 {
			g.MustEdge(NodeID(v), NodeID(r.Intn(v)), r.Intn(3), 1+r.Intn(2))
		}
	}
	return g
}

// viewEqualsGraph checks that an AdjView matches the distance-0 structure of
// g restricted to ids (identity for the whole graph), including edge order.
func viewEqualsGraph(t *testing.T, v AdjView, g *Graph, ids []NodeID) {
	t.Helper()
	inSet := make(map[NodeID]NodeID, len(ids))
	for si, oi := range ids {
		inSet[oi] = NodeID(si)
	}
	if v.N != len(ids) {
		t.Fatalf("view has %d nodes, want %d", v.N, len(ids))
	}
	for si, oi := range ids {
		nd := g.Node(oi)
		if int(v.Exec[si]) != nd.Exec || int(v.Class[si]) != nd.Class ||
			int(v.Block[si]) != nd.Block || v.Labels[si] != nd.Label {
			t.Fatalf("node %d attributes differ", si)
		}
		var want []Edge
		for _, e := range g.Out(oi) {
			if e.Distance == 0 {
				if _, ok := inSet[e.Dst]; ok {
					want = append(want, e)
				}
			}
		}
		got := int(v.Off[si+1] - v.Off[si])
		if got != len(want) {
			t.Fatalf("node %d has %d view edges, want %d", si, got, len(want))
		}
		for k, e := range want {
			ei := int(v.Off[si]) + k
			if v.Dst[ei] != inSet[e.Dst] || int(v.Lat[ei]) != e.Latency {
				t.Fatalf("node %d edge %d = (%d,%d), want (%d,%d)",
					si, k, v.Dst[ei], v.Lat[ei], inSet[e.Dst], e.Latency)
			}
		}
	}
}

func TestCSRMatchesGraph(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(r, 1+r.Intn(40))
		c := NewCSR(g)
		ids := make([]NodeID, g.Len())
		for i := range ids {
			ids[i] = NodeID(i)
		}
		viewEqualsGraph(t, c.View(), g, ids)
	}
}

// TestSubMatchesInduced is the representation-level differential test: a Sub
// view over a random subset must agree exactly with Graph.Induced — same
// node order, attributes, edge filtering, and per-node edge order.
func TestSubMatchesInduced(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var sub Sub
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(r, 1+r.Intn(40))
		c := NewCSR(g)
		keep := map[NodeID]bool{}
		var ids []NodeID
		for v := 0; v < g.Len(); v++ {
			if r.Float64() < 0.6 {
				keep[NodeID(v)] = true
				ids = append(ids, NodeID(v))
			}
		}
		h, hIDs := g.Induced(keep)
		sub.Init(c.View(), ids)
		if len(hIDs) != sub.Len() {
			t.Fatalf("trial %d: Induced has %d nodes, Sub has %d", trial, len(hIDs), sub.Len())
		}
		for i := range hIDs {
			if hIDs[i] != sub.IDs()[i] {
				t.Fatalf("trial %d: id order differs at %d", trial, i)
			}
		}
		viewEqualsGraph(t, sub.View(), g, ids)
		// Cross-check against the rebuilt *Graph's own adjacency.
		v := sub.View()
		for si := 0; si < h.Len(); si++ {
			out := h.Out(NodeID(si))
			if int(v.Off[si+1]-v.Off[si]) != len(out) {
				t.Fatalf("trial %d: node %d edge count differs from Induced", trial, si)
			}
			for k, e := range out {
				ei := int(v.Off[si]) + k
				if v.Dst[ei] != e.Dst || int(v.Lat[ei]) != e.Latency {
					t.Fatalf("trial %d: node %d edge %d differs from Induced", trial, si, k)
				}
			}
		}
		// ToSub is the inverse of IDs, and None off-view.
		for si, oi := range sub.IDs() {
			if sub.ToSub(oi) != NodeID(si) {
				t.Fatalf("trial %d: ToSub(%d) != %d", trial, oi, si)
			}
		}
		for v := 0; v < g.Len(); v++ {
			if !keep[NodeID(v)] && sub.ToSub(NodeID(v)) != None {
				t.Fatalf("trial %d: ToSub of excluded node %d != None", trial, v)
			}
		}
		ids = ids[:0]
	}
}

// TestSubReuseAcrossInits pins the zero-allocation property: once grown, a
// Sub re-Init over same-size subsets allocates nothing.
func TestSubReuseAcrossInits(t *testing.T) {
	testutil.SkipIfAllocSensitive(t)
	r := rand.New(rand.NewSource(3))
	g := randomGraph(r, 60)
	c := NewCSR(g)
	ids := make([]NodeID, 0, g.Len())
	for v := 0; v < g.Len(); v += 2 {
		ids = append(ids, NodeID(v))
	}
	var sub Sub
	sub.Init(c.View(), ids) // warm up capacity
	allocs := testing.AllocsPerRun(100, func() { sub.Init(c.View(), ids) })
	if allocs != 0 {
		t.Fatalf("Sub.Init allocates %.1f objects/op after warm-up, want 0", allocs)
	}
}
