package graph

import (
	"math/rand"
	"testing"
)

// sameAdjacency fails unless a and b have the same node table and the same
// Out and In lists, element by element and in order.
func sameAdjacency(t *testing.T, name string, a, b *Graph) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d nodes, want %d", name, a.Len(), b.Len())
	}
	for v := 0; v < a.Len(); v++ {
		id := NodeID(v)
		if a.Node(id) != b.Node(id) {
			t.Fatalf("%s: node %d = %+v, want %+v", name, v, a.Node(id), b.Node(id))
		}
		for _, l := range [][2][]Edge{{a.Out(id), b.Out(id)}, {a.In(id), b.In(id)}} {
			if len(l[0]) != len(l[1]) {
				t.Fatalf("%s: node %d: %v, want %v", name, v, l[0], l[1])
			}
			for k := range l[1] {
				if l[0][k] != l[1][k] {
					t.Fatalf("%s: node %d: %v, want %v", name, v, l[0], l[1])
				}
			}
		}
	}
}

// randomEdges draws a random edge list over n nodes: forward distance-0
// edges, parallel duplicates with new latencies (AddEdge merges them), and
// loop-carried edges in either direction.
func randomEdges(r *rand.Rand, n int) []Edge {
	var es []Edge
	for k := 0; k < 3*n; k++ {
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		d := 0
		if u > v {
			u, v = v, u
		}
		if u == v || r.Intn(5) == 0 {
			d = 1 + r.Intn(2)
		}
		es = append(es, Edge{Src: u, Dst: v, Latency: r.Intn(4), Distance: d})
	}
	return es
}

// buildWith adds n nodes and es to a fresh graph, first reserving the
// given capacities when outCap is non-nil.
func buildWith(n int, es []Edge, outCap, inCap []int) *Graph {
	g := New(n)
	for v := 0; v < n; v++ {
		g.AddNode("n", 1+v%3, v%2, v/4)
	}
	if outCap != nil {
		g.ReserveEdges(outCap, inCap)
	}
	for _, e := range es {
		g.MustEdge(e.Src, e.Dst, e.Latency, e.Distance)
	}
	return g
}

func TestReserveEdgesOverflowLeavesNeighbourIntact(t *testing.T) {
	// One slot per list; node 0 then receives two out-edges and node 2 two
	// in-edges, each past its reservation.
	es := []Edge{{0, 1, 1, 0}, {1, 2, 2, 0}, {0, 2, 3, 0}, {1, 3, 4, 0}}
	g := buildWith(4, es, []int{1, 1, 1, 1}, []int{1, 1, 1, 1})
	sameAdjacency(t, "overflow", g, buildWith(4, es, nil, nil))
	if out := g.Out(1); len(out) != 2 || out[0].Dst != 2 || out[1].Dst != 3 {
		t.Fatalf("node 1's Out = %v after node 0 overflowed", out)
	}
	if in := g.In(3); len(in) != 1 || in[0].Src != 1 {
		t.Fatalf("node 3's In = %v after node 2 overflowed", in)
	}
}

func TestReserveEdgesDerivedGraphsMatchUnreserved(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(12)
		es := randomEdges(r, n)
		// Reservations from exact to short to generous, so some lists
		// overflow and some keep slack.
		outCap, inCap := make([]int, n), make([]int, n)
		for _, e := range es {
			outCap[e.Src]++
			inCap[e.Dst]++
		}
		for v := range outCap {
			outCap[v] += r.Intn(3) - 1
			inCap[v] += r.Intn(3) - 1
		}
		got, want := buildWith(n, es, outCap, inCap), buildWith(n, es, nil, nil)
		sameAdjacency(t, "build", got, want)
		sameAdjacency(t, "Clone", got.Clone(), want.Clone())
		sameAdjacency(t, "LoopIndependent", got.LoopIndependent(), want.LoopIndependent())
		keep := map[NodeID]bool{}
		for v := 0; v < n; v++ {
			keep[NodeID(v)] = r.Intn(3) > 0
		}
		gi, gids := got.Induced(keep)
		wi, wids := want.Induced(keep)
		sameAdjacency(t, "Induced", gi, wi)
		if len(gids) != len(wids) {
			t.Fatalf("Induced ids %v, want %v", gids, wids)
		}
		// A clone of a reserved graph owns its lists: growing it leaves the
		// original as it was.
		c := got.Clone()
		for v := 0; v+1 < n; v++ {
			c.MustEdge(NodeID(v), NodeID(v+1), 9, 3)
		}
		sameAdjacency(t, "after growing a clone", got, want)
	}
}

// BenchmarkNewCSR flattens a fixed 64-node random graph.
func BenchmarkNewCSR(b *testing.B) {
	g := randomGraph(rand.New(rand.NewSource(1<<24)), 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewCSR(g)
	}
}

// BenchmarkSubInit rebinds one reused Sub to every other node of a fixed
// 64-node CSR.
func BenchmarkSubInit(b *testing.B) {
	c := NewCSR(randomGraph(rand.New(rand.NewSource(1<<24)), 64))
	var ids []NodeID
	for v := 0; v < c.Len(); v += 2 {
		ids = append(ids, NodeID(v))
	}
	var s Sub
	s.Init(c.View(), ids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Init(c.View(), ids)
	}
}
