package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"aisched/internal/testutil"
)

// randSpec is a reproducible random graph description the tests can rebuild
// with cosmetic variations (labels, edge insertion order, capacity) that
// must not change the content hash.
type randSpec struct {
	n     int
	exec  []int
	class []int
	block []int
	edges []Edge
}

func newRandSpec(r *rand.Rand) randSpec {
	n := 2 + r.Intn(14)
	sp := randSpec{n: n}
	for v := 0; v < n; v++ {
		sp.exec = append(sp.exec, 1+r.Intn(3))
		sp.class = append(sp.class, r.Intn(2))
		sp.block = append(sp.block, r.Intn(3))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.3 {
				sp.edges = append(sp.edges, Edge{Src: NodeID(i), Dst: NodeID(j), Latency: r.Intn(4), Distance: 0})
			}
		}
	}
	// A couple of loop-carried edges so Distance participates. Keep
	// (src, dst, distance) triples unique so every perturbation below
	// genuinely changes the graph (AddEdge collapses parallel edges).
	seen := map[[3]int]bool{}
	for k := 0; k < 2 && n > 2; k++ {
		e := Edge{Src: NodeID(r.Intn(n)), Dst: NodeID(r.Intn(n)), Latency: r.Intn(4), Distance: 1 + r.Intn(2)}
		key := [3]int{int(e.Src), int(e.Dst), e.Distance}
		if seen[key] {
			continue
		}
		seen[key] = true
		sp.edges = append(sp.edges, e)
	}
	return sp
}

// build materializes the spec. label controls the cosmetic node labels;
// edgePerm, when non-nil, is the order in which edges are inserted; cap is
// the construction capacity hint.
func (sp randSpec) build(label string, edgePerm []int, capacity int) *Graph {
	g := New(capacity)
	for v := 0; v < sp.n; v++ {
		g.AddNode(fmt.Sprintf("%s%d", label, v), sp.exec[v], sp.class[v], sp.block[v])
	}
	order := edgePerm
	if order == nil {
		order = make([]int, len(sp.edges))
		for i := range order {
			order[i] = i
		}
	}
	for _, i := range order {
		e := sp.edges[i]
		g.MustEdge(e.Src, e.Dst, e.Latency, e.Distance)
	}
	return g
}

var hashUnits = []int{1, 1}

const hashWindow = 4

// exactEncoding is the plain, unhashed identity of an instance: everything
// ContentHash promises to distinguish, and nothing it promises to ignore
// (labels, edge insertion order, capacity). Two instances are the same
// scheduling problem exactly when their encodings are equal.
func exactEncoding(g *Graph, units []int, window int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d w%d u%v;", g.Len(), window, units)
	for v := 0; v < g.Len(); v++ {
		nd := g.Node(NodeID(v))
		es := append([]Edge(nil), g.Out(NodeID(v))...)
		sort.Slice(es, func(i, j int) bool {
			if es[i].Dst != es[j].Dst {
				return es[i].Dst < es[j].Dst
			}
			return es[i].Distance < es[j].Distance
		})
		fmt.Fprintf(&b, "[%d %d %d", nd.Exec, nd.Class, nd.Block)
		for _, e := range es {
			fmt.Fprintf(&b, " %d/%d/%d", e.Dst, e.Latency, e.Distance)
		}
		b.WriteString("]")
	}
	return b.String()
}

// rebuild copies g under new labels and a larger capacity, inserting the
// edges in reverse: the same instance built a different way.
func rebuild(g *Graph) *Graph {
	h := New(2*g.Len() + 3)
	for v := 0; v < g.Len(); v++ {
		nd := g.Node(NodeID(v))
		h.AddNode(fmt.Sprintf("rebuilt-%d", v), nd.Exec, nd.Class, nd.Block)
	}
	for v := g.Len() - 1; v >= 0; v-- {
		es := g.Out(NodeID(v))
		for i := len(es) - 1; i >= 0; i-- {
			h.MustEdge(es[i].Src, es[i].Dst, es[i].Latency, es[i].Distance)
		}
	}
	return h
}

// exactTable checks that ContentHash and exactEncoding induce the same
// equivalence relation over every instance it has been shown: equal hashes
// exactly when equal encodings.
type exactTable struct {
	byEnc  map[string]Hash128
	byHash map[Hash128]string
	dups   int
}

func newExactTable() *exactTable {
	return &exactTable{byEnc: map[string]Hash128{}, byHash: map[Hash128]string{}}
}

func (x *exactTable) add(t *testing.T, g *Graph, units []int, window int) {
	t.Helper()
	enc := exactEncoding(g, units, window)
	h := g.ContentHash(units, window)
	if prev, ok := x.byEnc[enc]; ok {
		if prev != h {
			t.Fatalf("equal instances hash differently: %s", enc)
		}
		x.dups++
		return
	}
	if prev, ok := x.byHash[h]; ok {
		t.Fatalf("different instances share a hash:\n  %s\n  %s", prev, enc)
	}
	x.byEnc[enc] = h
	x.byHash[h] = enc
}

// TestContentHashExact: over a family of tiny graphs (2–4 nodes, 0/1
// latencies, a few unit and window choices), where true duplicates arrive
// often and through different constructions, and over the larger random
// specs, ContentHash is equal exactly when the exact encodings are.
func TestContentHashExact(t *testing.T) {
	x := newExactTable()
	r := rand.New(rand.NewSource(27))
	for i := 0; i < 6000; i++ {
		n := 2 + r.Intn(3)
		type edge struct{ s, d, lat, dist int }
		var es []edge
		for s := 0; s < n; s++ {
			for d := s + 1; d < n; d++ {
				if r.Intn(2) == 0 {
					es = append(es, edge{s, d, r.Intn(2), 0})
				}
			}
		}
		if r.Intn(4) == 0 {
			es = append(es, edge{r.Intn(n), r.Intn(n), r.Intn(2), 1})
		}
		r.Shuffle(len(es), func(a, b int) { es[a], es[b] = es[b], es[a] })
		g := New(n + r.Intn(4))
		for v := 0; v < n; v++ {
			g.AddNode(fmt.Sprintf("v%d", r.Intn(100)), 1, r.Intn(4)/3, v*r.Intn(2)/2)
		}
		for _, e := range es {
			g.MustEdge(NodeID(e.s), NodeID(e.d), e.lat, e.dist)
		}
		x.add(t, g, [][]int{{1}, {2}, {1, 1}}[r.Intn(3)], 2+r.Intn(2))
	}
	if x.dups < 1000 {
		t.Fatalf("only %d duplicate instances among the tiny graphs; the family no longer tests collisions", x.dups)
	}
	for seed := int64(0); seed < 300; seed++ {
		sp := newRandSpec(rand.New(rand.NewSource(seed)))
		g := sp.build("n", nil, sp.n)
		x.add(t, g, hashUnits, hashWindow)
		x.add(t, rebuild(g), hashUnits, hashWindow)
	}
}

// TestContentHashRelabelledGraphsCollide is the soundness half of the memo
// key: the same instance rebuilt with different labels, a shuffled edge
// insertion order, and a different capacity hint — an isomorphic,
// relabelled construction of the same program — must produce the same
// content hash.
func TestContentHashRelabelledGraphsCollide(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		sp := newRandSpec(r)
		a := sp.build("a", nil, sp.n)
		perm := r.Perm(len(sp.edges))
		b := sp.build("completely-different-label", perm, 4*sp.n+7)
		ha := a.ContentHash(hashUnits, hashWindow)
		if ha != b.ContentHash(hashUnits, hashWindow) {
			t.Fatalf("seed %d: relabelled/reordered rebuild changed the content hash", seed)
		}
		// Determinism across repeated calls on the same graph.
		if ha != a.ContentHash(hashUnits, hashWindow) {
			t.Fatalf("seed %d: content hash not deterministic", seed)
		}
	}
}

// TestContentHashPerturbationsChangeIt is the completeness half: any single
// perturbation of the instance — one latency, one edge added or removed, one
// node attribute, the window, the unit counts — must change the content
// hash.
func TestContentHashPerturbationsChangeIt(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		sp := newRandSpec(r)
		base := sp.build("n", nil, sp.n).ContentHash(hashUnits, hashWindow)
		differ := func(what string, g *Graph, units []int, w int) {
			if g.ContentHash(units, w) == base {
				t.Fatalf("seed %d: %s did not change the content hash", seed, what)
			}
		}

		if len(sp.edges) > 0 {
			i := r.Intn(len(sp.edges))
			bump := sp
			bump.edges = append([]Edge(nil), sp.edges...)
			bump.edges[i].Latency++
			differ("latency+1", bump.build("n", nil, sp.n), hashUnits, hashWindow)

			drop := sp
			drop.edges = append(append([]Edge(nil), sp.edges[:i]...), sp.edges[i+1:]...)
			differ("edge removal", drop.build("n", nil, sp.n), hashUnits, hashWindow)
		}

		// Added edge between an unconnected forward pair, if one exists.
		add := sp
		add.edges = append([]Edge(nil), sp.edges...)
	search:
		for i := 0; i < sp.n; i++ {
			for j := i + 1; j < sp.n; j++ {
				found := false
				for _, e := range sp.edges {
					if e.Src == NodeID(i) && e.Dst == NodeID(j) && e.Distance == 0 {
						found = true
						break
					}
				}
				if !found {
					add.edges = append(add.edges, Edge{Src: NodeID(i), Dst: NodeID(j), Latency: 1})
					differ("edge addition", add.build("n", nil, sp.n), hashUnits, hashWindow)
					break search
				}
			}
		}

		v := r.Intn(sp.n)
		exec := sp
		exec.exec = append([]int(nil), sp.exec...)
		exec.exec[v]++
		differ("exec+1", exec.build("n", nil, sp.n), hashUnits, hashWindow)

		class := sp
		class.class = append([]int(nil), sp.class...)
		class.class[v] = 1 - class.class[v]
		differ("class flip", class.build("n", nil, sp.n), hashUnits, hashWindow)

		block := sp
		block.block = append([]int(nil), sp.block...)
		block.block[v]++
		differ("block+1", block.build("n", nil, sp.n), hashUnits, hashWindow)

		same := sp.build("n", nil, sp.n)
		differ("window+1", same, hashUnits, hashWindow+1)
		differ("extra unit", same, []int{2, 1}, hashWindow)
		differ("extra class", same, []int{1, 1, 1}, hashWindow)
	}
}

// TestContentHashPermutationIsSound pins the deliberate non-collision: a
// graph rebuilt under a nontrivial node-ID permutation is a *different*
// scheduling instance (program order is the schedulers' tie-break), so its
// content hash must differ. If this test ever fails, the memo layer would
// start sharing cached schedules between instances whose uncached results
// can legitimately differ, breaking the bit-identical guarantee.
func TestContentHashPermutationIsSound(t *testing.T) {
	g := New(3)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	c := g.AddUnit("c")
	g.MustEdge(a, b, 1, 0)
	g.MustEdge(a, c, 0, 0)

	// Same shape, but the two independent successors swap IDs: a different
	// program order over structurally symmetric nodes.
	h := New(3)
	ha := h.AddUnit("a")
	hc := h.AddUnit("c")
	hb := h.AddUnit("b")
	h.MustEdge(ha, hb, 1, 0)
	h.MustEdge(ha, hc, 0, 0)

	if g.ContentHash(hashUnits, hashWindow) == h.ContentHash(hashUnits, hashWindow) {
		t.Fatal("ID-permuted instances must not collide: program order is semantic")
	}
}

// TestContentHashCyclicGraphs: a loop-independent cycle (rejected by the
// schedulers, but representable) still hashes deterministically and
// distinctly.
func TestContentHashCyclicGraphs(t *testing.T) {
	g := New(2)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	g.MustEdge(a, b, 0, 0)
	g.MustEdge(b, a, 0, 0)
	f1 := g.ContentHash(hashUnits, hashWindow)
	if f1 != g.ContentHash(hashUnits, hashWindow) {
		t.Fatal("cyclic content hash not deterministic")
	}
	h := New(2)
	ha := h.AddUnit("a")
	hb := h.AddUnit("b")
	h.MustEdge(ha, hb, 0, 0)
	if f1 == h.ContentHash(hashUnits, hashWindow) {
		t.Fatal("cyclic and acyclic instances collide")
	}
}

// TestContentHashAllocatesNothing: the memo key is computed on every
// Scheduler request, hit or miss, so it must not allocate once warm.
func TestContentHashAllocatesNothing(t *testing.T) {
	testutil.SkipIfAllocSensitive(t)
	g := randomGraph(rand.New(rand.NewSource(3)), 64)
	if n := testing.AllocsPerRun(100, func() { _ = g.ContentHash(hashUnits, hashWindow) }); n != 0 {
		t.Fatalf("ContentHash allocates %.1f times per call, want 0", n)
	}
}

// decodeHashInstance decodes fuzz bytes into a tiny instance:
//
//	data[0]      → node count n ∈ [1,4]
//	data[1]      → window ∈ [1,3] (bits 0–1), one or two classes (bit 2),
//	               1 or 2 units per class (bits 3 and 4)
//	data[2:2+n]  → per node: exec 1 or 2 (bit 0), class (bit 1, kept below
//	               the class count), block 0 or 1 (bit 2)
//	rest         → one edge per byte: src (bits 0–1) and dst (bits 2–3)
//	               modulo n, latency (bit 4), distance (bit 5); edges
//	               AddEdge rejects are skipped
//
// The domains are small so that two inputs often decode to the same
// instance. Returns nil when data is too short.
func decodeHashInstance(data []byte) (*Graph, []int, int) {
	if len(data) < 2 {
		return nil, nil, 0
	}
	n := 1 + int(data[0])%4
	if len(data) < 2+n {
		return nil, nil, 0
	}
	window := 1 + int(data[1]&3)%3
	units := []int{1 + int(data[1]>>3&1)}
	if data[1]&4 != 0 {
		units = append(units, 1+int(data[1]>>4&1))
	}
	g := New(n)
	for v := 0; v < n; v++ {
		b := data[2+v]
		class := int(b>>1&1) % len(units)
		g.AddNode("f", 1+int(b&1), class, int(b>>2&1))
	}
	for _, b := range data[2+n:] {
		src, dst := NodeID(int(b&3)%n), NodeID(int(b>>2&3)%n)
		_ = g.AddEdge(src, dst, int(b>>4&1), int(b>>5&1))
	}
	return g, units, window
}

// FuzzContentHash: two byte-decoded instances hash equal exactly when their
// exact encodings are equal, and each hashes like its own rebuild.
func FuzzContentHash(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 0x04}, []byte{1, 1, 0, 0, 0x04})
	f.Add([]byte{2, 1, 0, 0, 0, 0x04, 0x09}, []byte{2, 1, 0, 0, 0, 0x09, 0x04})
	f.Add([]byte{2, 1, 0, 0, 0, 0x04, 0x08}, []byte{2, 1, 0, 0, 0, 0x08, 0x04})
	f.Add([]byte{3, 0x1f, 1, 2, 3, 4, 0x14, 0x29, 0x3e}, []byte{3, 0x1f, 1, 2, 3, 4, 0x14, 0x29})
	f.Add([]byte{1, 1, 0, 0, 0x04, 0x01}, []byte{1, 1, 0, 0, 0x04, 0x21})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ga, ua, wa := decodeHashInstance(a)
		gb, ub, wb := decodeHashInstance(b)
		if ga == nil || gb == nil {
			return
		}
		ha, hb := ga.ContentHash(ua, wa), gb.ContentHash(ub, wb)
		ea, eb := exactEncoding(ga, ua, wa), exactEncoding(gb, ub, wb)
		if (ha == hb) != (ea == eb) {
			t.Fatalf("hash equal %v, instances equal %v:\n  %s\n  %s", ha == hb, ea == eb, ea, eb)
		}
		if ha != rebuild(ga).ContentHash(ua, wa) {
			t.Fatalf("rebuild changed the content hash of %s", ea)
		}
	})
}
