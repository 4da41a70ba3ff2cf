package graph

// CSR is an immutable compressed-sparse-row view of a graph's
// loop-independent (distance-0) out-adjacency plus the per-node attributes
// the scheduling engine reads: flat offset/destination/latency arrays instead
// of the slice-of-Edge-slices representation. It is built once per schedule
// request; the merge loop of Algorithm Lookahead then derives induced
// subgraph views (Sub) from it with dense remap arrays instead of rebuilding
// *Graph values through AddNode/AddEdge.
type CSR struct {
	n      int
	off    []int32  // len n+1; out-edges of v are [off[v], off[v+1])
	dst    []NodeID // edge destinations, preserving per-node insertion order
	lat    []int32  // edge latencies
	exec   []int32
	class  []int32
	block  []int32
	labels []string
	maxLat int
}

// NewCSR flattens g's distance-0 out-adjacency and node attributes. Edge
// order within a node matches g.Out's insertion order, so everything derived
// from a CSR (or a Sub of it) is bit-identical to the slice-backed path.
func NewCSR(g *Graph) *CSR {
	n := g.Len()
	c := &CSR{
		n:      n,
		off:    make([]int32, n+1),
		exec:   make([]int32, n),
		class:  make([]int32, n),
		block:  make([]int32, n),
		labels: make([]string, n),
	}
	edges := 0
	for v := 0; v < n; v++ {
		nd := g.Node(NodeID(v))
		c.exec[v] = int32(nd.Exec)
		c.class[v] = int32(nd.Class)
		c.block[v] = int32(nd.Block)
		c.labels[v] = nd.Label
		for _, e := range g.Out(NodeID(v)) {
			if e.Distance == 0 {
				edges++
			}
		}
	}
	c.dst = make([]NodeID, edges)
	c.lat = make([]int32, edges)
	k := 0
	for v := 0; v < n; v++ {
		c.off[v] = int32(k)
		for _, e := range g.Out(NodeID(v)) {
			if e.Distance != 0 {
				continue
			}
			c.dst[k] = e.Dst
			c.lat[k] = int32(e.Latency)
			if int(e.Latency) > c.maxLat {
				c.maxLat = e.Latency
			}
			k++
		}
	}
	c.off[n] = int32(k)
	return c
}

// Len reports the node count.
func (c *CSR) Len() int { return c.n }

// Block returns the block index of node v.
func (c *CSR) Block(v NodeID) int { return int(c.block[v]) }

// View returns the flat adjacency view of the whole graph.
func (c *CSR) View() AdjView {
	return AdjView{
		N: c.n, Off: c.off, Dst: c.dst, Lat: c.lat,
		Exec: c.exec, Class: c.class, Block: c.block, Labels: c.labels,
		MaxLat: c.maxLat,
	}
}

// AdjView is the flat node/edge slice bundle the scheduling engine consumes —
// the common shape of a whole-graph CSR and an induced Sub view. All slices
// are borrowed: a view is valid only as long as its source (and for Sub
// views, only until the next Init).
type AdjView struct {
	N      int
	Off    []int32 // len N+1
	Dst    []NodeID
	Lat    []int32
	Exec   []int32
	Class  []int32
	Block  []int32
	Labels []string
	MaxLat int // max distance-0 edge latency in the view
}

// Sub is a reusable induced-subgraph view over a parent AdjView — a
// whole-graph CSR or any other flat view: Init rebinds it to a new node
// subset, reusing all backing arrays. It replaces the
// keep-map/Induced/toSub-map triple of the pre-CSR merge loop — the dense
// toSub remap array plays the role of the map, and the filtered flat
// adjacency plays the role of the rebuilt *Graph.
type Sub struct {
	ids    []NodeID // view ID → parent ID, ascending
	toSub  []int32  // parent ID → view ID, or -1
	off    []int32
	dst    []NodeID
	lat    []int32
	exec   []int32
	class  []int32
	block  []int32
	lbl    []string
	maxLat int
}

// Init rebinds the view to the induced subgraph of c on ids, which must be
// ascending parent node IDs without duplicates. Views and slices obtained
// from the Sub before this call become invalid.
func (s *Sub) Init(c AdjView, ids []NodeID) {
	n := len(ids)
	s.ids = append(s.ids[:0], ids...)
	if cap(s.toSub) < c.N {
		s.toSub = make([]int32, c.N)
	}
	s.toSub = s.toSub[:c.N]
	for i := range s.toSub {
		s.toSub[i] = -1
	}
	for si, oi := range ids {
		s.toSub[oi] = int32(si)
	}
	if cap(s.off) < n+1 {
		s.off = make([]int32, n+1)
		s.exec = make([]int32, n)
		s.class = make([]int32, n)
		s.block = make([]int32, n)
		s.lbl = make([]string, n)
	}
	s.off = s.off[:n+1]
	s.exec, s.class, s.block, s.lbl = s.exec[:n], s.class[:n], s.block[:n], s.lbl[:n]
	edges := 0
	for si, oi := range ids {
		s.exec[si] = c.Exec[oi]
		s.class[si] = c.Class[oi]
		s.block[si] = c.Block[oi]
		s.lbl[si] = c.Labels[oi]
		for e := c.Off[oi]; e < c.Off[oi+1]; e++ {
			if s.toSub[c.Dst[e]] >= 0 {
				edges++
			}
		}
	}
	if cap(s.dst) < edges {
		s.dst = make([]NodeID, edges)
		s.lat = make([]int32, edges)
	}
	s.dst, s.lat = s.dst[:edges], s.lat[:edges]
	s.maxLat = 0
	k := 0
	for si, oi := range ids {
		s.off[si] = int32(k)
		for e := c.Off[oi]; e < c.Off[oi+1]; e++ {
			d := s.toSub[c.Dst[e]]
			if d < 0 {
				continue
			}
			s.dst[k] = NodeID(d)
			s.lat[k] = c.Lat[e]
			if int(c.Lat[e]) > s.maxLat {
				s.maxLat = int(c.Lat[e])
			}
			k++
		}
	}
	s.off[n] = int32(k)
}

// Len reports the view's node count.
func (s *Sub) Len() int { return len(s.ids) }

// IDs returns the view→parent ID mapping (ascending). The slice is owned by
// the Sub and valid until the next Init.
func (s *Sub) IDs() []NodeID { return s.ids }

// ToSub returns the view ID of parent node oi, or None when oi is not in the
// view.
func (s *Sub) ToSub(oi NodeID) NodeID {
	if si := s.toSub[oi]; si >= 0 {
		return NodeID(si)
	}
	return None
}

// View returns the flat adjacency view of the induced subgraph.
func (s *Sub) View() AdjView {
	return AdjView{
		N: len(s.ids), Off: s.off, Dst: s.dst, Lat: s.lat,
		Exec: s.exec, Class: s.class, Block: s.block, Labels: s.lbl,
		MaxLat: s.maxLat,
	}
}
