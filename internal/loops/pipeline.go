package loops

import (
	"fmt"
	"sort"

	"aisched/internal/graph"
	"aisched/internal/machine"
)

// Kernel is the result of software pipelining: a modulo schedule of the loop
// body. Offsets are absolute start cycles in the flat (non-modulo) schedule;
// Stage(v) = Offsets[v] / II.
type Kernel struct {
	II      int
	Offsets []int
}

// Stage returns the pipeline stage of node v.
func (k *Kernel) Stage(v graph.NodeID) int { return k.Offsets[v] / k.II }

// Pipeline computes a modulo schedule for a single-block loop body using
// iterative modulo scheduling: the candidate initiation interval starts at
// MII = max(resource MII, recurrence MII) and increases until a schedule
// fits. This is the software-pipelining substrate the paper's §2.4 example
// presupposes ("the optimizations performed include software pipelining");
// anticipatory single-block scheduling then runs as a post-pass on the
// modulo-shifted body (the two techniques are complementary).
func Pipeline(g *graph.Graph, m *machine.Machine) (*Kernel, error) {
	n := g.Len()
	if n == 0 {
		return nil, fmt.Errorf("loops: empty loop body")
	}
	for v := 0; v < n; v++ {
		if c := g.Node(graph.NodeID(v)).Class; m.UnitsFor(machine.UnitClass(c)) == 0 {
			return nil, fmt.Errorf("loops: node %d has class %d with no units", v, c)
		}
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	mii := resourceMII(g, m)
	if r := recurrenceMII(g); r > mii {
		mii = r
	}
	maxII := 2
	for _, e := range g.Edges() {
		maxII += e.Latency
	}
	for v := 0; v < n; v++ {
		maxII += g.Node(graph.NodeID(v)).Exec
	}
	for ii := mii; ii <= maxII; ii++ {
		if k := tryModulo(g, m, order, ii); k != nil {
			return k, nil
		}
	}
	return nil, fmt.Errorf("loops: modulo scheduling failed up to II=%d", maxII)
}

// resourceMII = max over unit classes of ceil(total exec demand / units).
func resourceMII(g *graph.Graph, m *machine.Machine) int {
	demand := map[machine.UnitClass]int{}
	for v := 0; v < g.Len(); v++ {
		c := machine.UnitClass(g.Node(graph.NodeID(v)).Class)
		if m.SingleUnitOnly() {
			c = 0
		}
		demand[c] += g.Node(graph.NodeID(v)).Exec
	}
	mii := 1
	for c, d := range demand {
		u := m.UnitsFor(c)
		if v := (d + u - 1) / u; v > mii {
			mii = v
		}
	}
	return mii
}

// recurrenceMII finds the smallest II for which the dependence constraints
// σ(v) ≥ σ(u) + exec(u) + ℓ − d·II admit a solution (no positive cycle),
// by binary search with Bellman-Ford feasibility.
func recurrenceMII(g *graph.Graph) int {
	lo, hi := 1, 2
	for _, e := range g.Edges() {
		hi += e.Latency + 1
	}
	for !recurrenceFeasible(g, hi) && hi < 1<<20 {
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if recurrenceFeasible(g, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func recurrenceFeasible(g *graph.Graph, ii int) bool {
	n := g.Len()
	dist := make([]int, n)
	// Longest-path relaxation; a positive cycle means infeasible.
	for round := 0; round <= n; round++ {
		changed := false
		for _, e := range g.Edges() {
			w := g.Node(e.Src).Exec + e.Latency - e.Distance*ii
			if dist[e.Src]+w > dist[e.Dst] {
				dist[e.Dst] = dist[e.Src] + w
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// tryModulo performs one modulo list-scheduling pass at the given II.
func tryModulo(g *graph.Graph, m *machine.Machine, order []graph.NodeID, ii int) *Kernel {
	n := g.Len()
	offsets := make([]int, n)
	placed := make([]bool, n)
	// use[class][residue] counts units busy at that modulo residue.
	use := map[machine.UnitClass][]int{}
	poolFor := func(c machine.UnitClass) ([]int, int) {
		if m.SingleUnitOnly() {
			c = 0
		}
		units := m.UnitsFor(c)
		p := use[c]
		if p == nil {
			p = make([]int, ii)
			use[c] = p
		}
		return p, units
	}
	for _, v := range order {
		earliest := 0
		for _, e := range g.In(v) {
			if !placed[e.Src] {
				continue // distance>0 edge from a later node: checked below
			}
			if r := offsets[e.Src] + g.Node(e.Src).Exec + e.Latency - e.Distance*ii; r > earliest {
				earliest = r
			}
		}
		pool, units := poolFor(machine.UnitClass(g.Node(v).Class))
		exec := g.Node(v).Exec
		t := earliest
		limit := earliest + ii // every residue tried once
	search:
		for ; t < limit; t++ {
			for dt := 0; dt < exec; dt++ {
				if pool[(t+dt)%ii] >= units {
					continue search
				}
			}
			break
		}
		if t == limit {
			return nil
		}
		offsets[v] = t
		placed[v] = true
		for dt := 0; dt < exec; dt++ {
			pool[(t+dt)%ii]++
		}
	}
	// Verify edges from later-ordered sources (loop-carried back edges).
	for _, e := range g.Edges() {
		if offsets[e.Dst] < offsets[e.Src]+g.Node(e.Src).Exec+e.Latency-e.Distance*ii {
			return nil
		}
	}
	return &Kernel{II: ii, Offsets: offsets}
}

// ModuloShift rewrites the loop body graph as the software-pipelined kernel
// would see it: nodes keep their identity, but each dependence distance
// becomes d' = d + stage(u) − stage(v), so instructions from different
// pipeline stages coexist in one kernel iteration (like the store in the
// paper's Figure 3, which belongs to the previous source iteration). Edges
// whose shifted distance would be negative are infeasible for the kernel
// and rejected.
func ModuloShift(g *graph.Graph, k *Kernel) (*graph.Graph, error) {
	out := graph.New(g.Len())
	for v := 0; v < g.Len(); v++ {
		nd := g.Node(graph.NodeID(v))
		out.AddNode(nd.Label, nd.Exec, nd.Class, nd.Block)
	}
	for _, e := range g.Edges() {
		d := e.Distance + k.Stage(e.Src) - k.Stage(e.Dst)
		if d < 0 {
			return nil, fmt.Errorf("loops: edge %d→%d gets negative distance %d after modulo shift", e.Src, e.Dst, d)
		}
		if e.Src == e.Dst && d == 0 {
			continue // self dependence collapsed within a stage
		}
		out.MustEdge(e.Src, e.Dst, e.Latency, d)
	}
	return out, nil
}

// PipelineThenAnticipate runs software pipelining followed by the
// anticipatory single-block post-pass (§2.4's complementary combination) and
// returns the steady state of the combined result.
func PipelineThenAnticipate(g *graph.Graph, m *machine.Machine) (*Steady, *Kernel, error) {
	k, err := Pipeline(g, m)
	if err != nil {
		return nil, nil, err
	}
	shifted, err := ModuloShift(g, k)
	if err != nil {
		return nil, nil, err
	}
	st, err := ScheduleSingleBlockLoop(shifted, m)
	if err != nil {
		return nil, nil, err
	}
	return st, k, nil
}

// OrderByOffsets returns the body order implied by a kernel (sorted by
// offset, ties by node ID) — the static order software pipelining alone
// would emit.
func (k *Kernel) OrderByOffsets() []graph.NodeID {
	ids := make([]graph.NodeID, len(k.Offsets))
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	sort.SliceStable(ids, func(a, b int) bool { return k.Offsets[ids[a]] < k.Offsets[ids[b]] })
	return ids
}
