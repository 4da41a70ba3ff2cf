// Package graph implements the dependence graphs used by all schedulers in
// this repository. Nodes are instructions; directed edges carry a
// <latency, distance> label as in Sarkar & Simons (SPAA '96, §5): an edge
// (x, y) with latency ℓ means y cannot start until ℓ cycles after x
// completes, and distance d > 0 marks a loop-carried dependence from
// iteration k to iteration k+d. Distance 0 edges are loop-independent.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node within a Graph. IDs are dense indices 0..N-1.
type NodeID int

// None is the sentinel for "no node".
const None NodeID = -1

// Edge is a dependence from Src to Dst labeled with <Latency, Distance>.
type Edge struct {
	Src      NodeID
	Dst      NodeID
	Latency  int // cycles that must elapse between finish(Src) and start(Dst)
	Distance int // iteration distance; 0 = loop-independent
}

// Node carries scheduling-relevant attributes of one instruction.
type Node struct {
	ID    NodeID
	Label string // human-readable name (e.g. mnemonic), used in traces and DOT
	Exec  int    // execution time in cycles (≥ 1)
	Class int    // functional-unit class the node must run on
	Block int    // index of the basic block this node belongs to (trace position)
}

// Graph is a dependence graph. The zero value is an empty graph ready to use.
type Graph struct {
	nodes []Node
	out   [][]Edge // outgoing edges per node (includes loop-carried)
	in    [][]Edge // incoming edges per node (includes loop-carried)
}

// New returns an empty graph with capacity for n nodes.
func New(n int) *Graph {
	return &Graph{
		nodes: make([]Node, 0, n),
		out:   make([][]Edge, 0, n),
		in:    make([][]Edge, 0, n),
	}
}

// AddNode appends a node with the given attributes and returns its ID.
// Exec times < 1 are clamped to 1.
func (g *Graph) AddNode(label string, exec, class, block int) NodeID {
	if exec < 1 {
		exec = 1
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Label: label, Exec: exec, Class: class, Block: block})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddUnit appends a unit-execution-time node on class 0 in block 0.
func (g *Graph) AddUnit(label string) NodeID { return g.AddNode(label, 1, 0, 0) }

// AddEdge inserts a dependence edge. Self edges are only meaningful when
// distance > 0 (loop-carried self dependence); a loop-independent self edge
// is rejected. Duplicate edges are kept only if they differ in label; when a
// parallel edge with the same distance exists, the larger latency wins.
func (g *Graph) AddEdge(src, dst NodeID, latency, distance int) error {
	if !g.valid(src) || !g.valid(dst) {
		return fmt.Errorf("graph: edge (%d,%d) references unknown node", src, dst)
	}
	if latency < 0 {
		return fmt.Errorf("graph: edge (%d,%d) has negative latency %d", src, dst, latency)
	}
	if distance < 0 {
		return fmt.Errorf("graph: edge (%d,%d) has negative distance %d", src, dst, distance)
	}
	if src == dst && distance == 0 {
		return fmt.Errorf("graph: loop-independent self edge on node %d", src)
	}
	for i, e := range g.out[src] {
		if e.Dst == dst && e.Distance == distance {
			if latency > e.Latency {
				g.out[src][i].Latency = latency
				g.updateIn(src, dst, distance, latency)
			}
			return nil
		}
	}
	e := Edge{Src: src, Dst: dst, Latency: latency, Distance: distance}
	g.out[src] = append(g.out[src], e)
	g.in[dst] = append(g.in[dst], e)
	return nil
}

// ReserveEdges gives node v's outgoing list room for outCap[v] more edges
// and its incoming list room for inCap[v], carved from one backing array
// per direction, so a builder that knows its degrees adds every edge
// without growing a list. Each list's capacity ends where the next node's
// room begins, so an append past a reservation reallocates that list
// instead of writing into its neighbour's. Both slices have length Len();
// a node with nothing to reserve keeps its list as it is.
func (g *Graph) ReserveEdges(outCap, inCap []int) {
	reserveLists(g.out, outCap)
	reserveLists(g.in, inCap)
}

func reserveLists(lists [][]Edge, extra []int) {
	total := 0
	for v, k := range extra {
		if k > 0 {
			total += len(lists[v]) + k
		}
	}
	backing := make([]Edge, total)
	off := 0
	for v, k := range extra {
		if k > 0 {
			end := off + len(lists[v]) + k
			lists[v] = append(backing[off:off:end], lists[v]...)
			off = end
		}
	}
}

// MustEdge is AddEdge that panics on error; for statically-known-good graphs
// in tests and figure constructions.
func (g *Graph) MustEdge(src, dst NodeID, latency, distance int) {
	if err := g.AddEdge(src, dst, latency, distance); err != nil {
		panic(err)
	}
}

func (g *Graph) updateIn(src, dst NodeID, distance, latency int) {
	for i, e := range g.in[dst] {
		if e.Src == src && e.Distance == distance {
			g.in[dst][i].Latency = latency
			return
		}
	}
}

func (g *Graph) valid(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// Len reports the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// SetBlock reassigns the block index of a node.
func (g *Graph) SetBlock(id NodeID, block int) { g.nodes[id].Block = block }

// SetExec reassigns the execution time of a node (clamped to ≥ 1).
func (g *Graph) SetExec(id NodeID, exec int) {
	if exec < 1 {
		exec = 1
	}
	g.nodes[id].Exec = exec
}

// Out returns the outgoing edges of id (shared slice; callers must not mutate).
func (g *Graph) Out(id NodeID) []Edge { return g.out[id] }

// In returns the incoming edges of id (shared slice; callers must not mutate).
func (g *Graph) In(id NodeID) []Edge { return g.in[id] }

// NumEdges reports the total number of edges (including loop-carried).
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

// Edges returns all edges in deterministic (src, dst, distance) order.
func (g *Graph) Edges() []Edge {
	all := make([]Edge, 0, g.NumEdges())
	for _, es := range g.out {
		all = append(all, es...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Src != all[j].Src {
			return all[i].Src < all[j].Src
		}
		if all[i].Dst != all[j].Dst {
			return all[i].Dst < all[j].Dst
		}
		return all[i].Distance < all[j].Distance
	})
	return all
}

// LoopIndependent returns the subgraph G_li containing all nodes but only the
// distance-0 edges (the paper's G_li, §5.2). Node attributes are preserved;
// node IDs are identical to the original graph's.
func (g *Graph) LoopIndependent() *Graph {
	h := New(g.Len())
	for _, n := range g.nodes {
		h.AddNode(n.Label, n.Exec, n.Class, n.Block)
	}
	// Reserve exact adjacency capacity so each nonempty list costs one
	// allocation instead of a doubling sequence.
	for v, es := range g.out {
		cnt := 0
		for _, e := range es {
			if e.Distance == 0 {
				cnt++
			}
		}
		if cnt > 0 {
			h.out[v] = make([]Edge, 0, cnt)
		}
	}
	for v, es := range g.in {
		cnt := 0
		for _, e := range es {
			if e.Distance == 0 {
				cnt++
			}
		}
		if cnt > 0 {
			h.in[v] = make([]Edge, 0, cnt)
		}
	}
	for _, es := range g.out {
		for _, e := range es {
			if e.Distance == 0 {
				h.MustEdge(e.Src, e.Dst, e.Latency, 0)
			}
		}
	}
	return h
}

// HasLoopCarried reports whether any edge has distance > 0.
func (g *Graph) HasLoopCarried() bool {
	for _, es := range g.out {
		for _, e := range es {
			if e.Distance > 0 {
				return true
			}
		}
	}
	return false
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	h := New(g.Len())
	h.nodes = append(h.nodes[:0], g.nodes...)
	h.out = make([][]Edge, len(g.out))
	h.in = make([][]Edge, len(g.in))
	for i := range g.out {
		h.out[i] = append([]Edge(nil), g.out[i]...)
		h.in[i] = append([]Edge(nil), g.in[i]...)
	}
	return h
}

// Induced returns the subgraph induced by keep (distance-0 edges only, since
// an induced subgraph is used for acyclic scheduling), along with the mapping
// from new IDs to original IDs. Nodes appear in ascending original-ID order.
func (g *Graph) Induced(keep map[NodeID]bool) (*Graph, []NodeID) {
	ids := make([]NodeID, 0, len(keep))
	for id := range keep {
		if keep[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	remap := make(map[NodeID]NodeID, len(ids))
	h := New(len(ids))
	for _, id := range ids {
		n := g.nodes[id]
		remap[id] = h.AddNode(n.Label, n.Exec, n.Class, n.Block)
	}
	for _, id := range ids {
		for _, e := range g.out[id] {
			if e.Distance != 0 {
				continue
			}
			if nd, ok := remap[e.Dst]; ok {
				h.MustEdge(remap[id], nd, e.Latency, 0)
			}
		}
	}
	return h, ids
}

// TopoOrder returns a topological order over the distance-0 edges, or an
// error if the loop-independent subgraph has a cycle. Ties are broken by
// node ID so the order is deterministic.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	n := g.Len()
	indeg := make([]int, n)
	for id := 0; id < n; id++ {
		for _, e := range g.out[id] {
			if e.Distance == 0 {
				indeg[e.Dst]++
			}
		}
	}
	// Min-heap behaviour keeps the order deterministic: the pending frontier
	// is held in ascending order past head, so the head is always the
	// smallest ready node (same order a per-iteration sort would produce,
	// without its per-iteration closure allocations).
	frontier := make([]NodeID, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			frontier = append(frontier, NodeID(id))
		}
	}
	order := make([]NodeID, 0, n)
	head := 0
	for head < len(frontier) {
		id := frontier[head]
		head++
		order = append(order, id)
		for _, e := range g.out[id] {
			if e.Distance != 0 {
				continue
			}
			indeg[e.Dst]--
			if indeg[e.Dst] == 0 {
				dst := e.Dst
				i := head + sort.Search(len(frontier)-head, func(k int) bool { return frontier[head+k] > dst })
				frontier = append(frontier, 0)
				copy(frontier[i+1:], frontier[i:])
				frontier[i] = dst
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph: loop-independent subgraph has a cycle (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// IsAcyclic reports whether the loop-independent subgraph is a DAG.
func (g *Graph) IsAcyclic() bool {
	_, err := g.TopoOrder()
	return err == nil
}

// CheckBlockOrder reports the first loop-independent edge that runs from a
// later block into an earlier one. A trace emits its blocks in ascending
// order (Definition 2.1), so such an edge puts a consumer ahead of its
// producer in every emittable stream and deadlocks the window. It allocates
// nothing unless it fails.
func (g *Graph) CheckBlockOrder() error {
	for src, out := range g.out {
		for _, e := range out {
			if e.Distance != 0 {
				continue
			}
			if from, to := g.nodes[src].Block, g.nodes[e.Dst].Block; from > to {
				return fmt.Errorf("graph: edge %d->%d crosses blocks backward (%d > %d)", e.Src, e.Dst, from, to)
			}
		}
	}
	return nil
}

// Descendants returns, for every node, the bitset of nodes reachable through
// distance-0 edges (excluding the node itself). O(V·E/64) via bitset union in
// reverse topological order.
func (g *Graph) Descendants() ([]Bitset, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return g.DescendantsFrom(order), nil
}

// DescendantsFrom is Descendants for callers that already hold the graph's
// topological order (e.g. a rank context), skipping the redundant sort.
func (g *Graph) DescendantsFrom(order []NodeID) []Bitset {
	desc := newBitsetRows(g.Len())
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		for _, e := range g.out[id] {
			if e.Distance != 0 {
				continue
			}
			desc[id].Set(int(e.Dst))
			desc[id].UnionWith(desc[e.Dst])
		}
	}
	return desc
}

// newBitsetRows returns n zeroed n-bit bitsets carved out of one backing
// array, so building a transitive closure costs two allocations instead of
// n+1.
func newBitsetRows(n int) []Bitset {
	words := (n + 63) / 64
	backing := make([]uint64, n*words)
	rows := make([]Bitset, n)
	for i := range rows {
		rows[i] = Bitset(backing[i*words : (i+1)*words : (i+1)*words])
	}
	return rows
}

// Ancestors returns the transpose of Descendants.
func (g *Graph) Ancestors() ([]Bitset, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	anc := newBitsetRows(g.Len())
	for _, id := range order {
		for _, e := range g.out[id] {
			if e.Distance != 0 {
				continue
			}
			anc[e.Dst].Set(int(id))
			anc[e.Dst].UnionWith(anc[id])
		}
	}
	return anc, nil
}

// Sources returns the nodes with no incoming distance-0 edges, in ID order.
func (g *Graph) Sources() []NodeID {
	var out []NodeID
	for id := 0; id < g.Len(); id++ {
		src := true
		for _, e := range g.in[id] {
			if e.Distance == 0 {
				src = false
				break
			}
		}
		if src {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Sinks returns the nodes with no outgoing distance-0 edges, in ID order.
func (g *Graph) Sinks() []NodeID {
	var out []NodeID
	for id := 0; id < g.Len(); id++ {
		sink := true
		for _, e := range g.out[id] {
			if e.Distance == 0 {
				sink = false
				break
			}
		}
		if sink {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// CriticalPathLengths returns, for each node, the longest finish-to-end path
// measured in cycles (exec times plus latencies) over distance-0 edges: the
// classic list-scheduling priority. The value for a sink is its exec time.
func (g *Graph) CriticalPathLengths() ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	cp := make([]int, g.Len())
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0
		for _, e := range g.out[id] {
			if e.Distance != 0 {
				continue
			}
			if v := e.Latency + cp[e.Dst]; v > best {
				best = v
			}
		}
		cp[id] = best + g.nodes[id].Exec
	}
	return cp, nil
}

// EarliestStarts returns, for each node, the earliest feasible start time
// ignoring resource constraints (ASAP over distance-0 edges).
func (g *Graph) EarliestStarts() ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	est := make([]int, g.Len())
	for _, id := range order {
		for _, e := range g.out[id] {
			if e.Distance != 0 {
				continue
			}
			if v := est[id] + g.nodes[id].Exec + e.Latency; v > est[e.Dst] {
				est[e.Dst] = v
			}
		}
	}
	return est, nil
}

// DOT renders the graph in Graphviz format (loop-carried edges dashed).
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for _, n := range g.nodes {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", n.ID, fmt.Sprintf("%s (e=%d)", n.Label, n.Exec))
	}
	for _, e := range g.Edges() {
		style := ""
		if e.Distance > 0 {
			style = ", style=dashed"
		}
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"<%d,%d>\"%s];\n", e.Src, e.Dst, e.Latency, e.Distance, style)
	}
	b.WriteString("}\n")
	return b.String()
}

// String returns a compact textual form for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph(%d nodes, %d edges)", g.Len(), g.NumEdges())
	return b.String()
}
