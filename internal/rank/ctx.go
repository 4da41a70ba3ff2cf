package rank

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"aisched/internal/arena"
	"aisched/internal/faultinject"
	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/sbudget"
	"aisched/internal/sched"
)

// Ctx is a reusable rank-computation context for one graph view and machine.
// It caches every per-graph invariant the Rank Algorithm needs — topological
// order and positions, descendant bitsets, per-node descendant lists
// pre-sorted by topological position, effective unit classes — and owns the
// scratch buffers (longest-path deltas, descendant packing entries,
// slice-based occupancy windows, list-building arrays, a reusable greedy
// list scheduler) that the one-shot API used to reallocate on every call.
//
// All per-graph analysis arrays are carved from a context-owned arena, so
// Reset rebinds the context to a new graph view without allocating once the
// arena has grown to working-set size. Anticipatory scheduling calls the
// Rank Algorithm hundreds of times per basic block on the same graph with
// slightly different deadlines (Delay_Idle_Slots demotes one deadline per
// re-rank; merge loosens the new nodes' deadlines by one per round), and the
// lookahead merge loop additionally re-analyses a fresh induced subgraph per
// block — with a Reset-able Ctx both layers pay zero steady-state
// allocations for the analysis.
//
// Refresh makes re-ranks incremental. The context remembers the deadlines
// its ranks were last computed for, and a re-rank touches only what moved:
// a node whose deadline and whole descendant closure are unchanged keeps its
// rank, and a node whose deadline and whole closure moved by one common δ
// shifts its rank by δ (the packing order and every placement are
// translation-invariant, so rank = min(d, B) moves exactly by δ). Every
// other node is recomputed. RunRanks in turn reuses its last schedule when
// the priority list has not changed.
//
// A Ctx is not safe for concurrent use; create one per goroutine.
type Ctx struct {
	g    *graph.Graph // graph behind the view, or nil for induced views
	m    *machine.Machine
	view graph.AdjView

	ar arena.Arena // backs all per-Reset analysis and scratch below

	order   []graph.NodeID   // topological order over distance-0 edges
	topoPos []int            // topoPos[v] = index of v in order
	desc    []graph.Bitset   // distance-0 transitive successors per node
	members [][]graph.NodeID // desc[v] as a list sorted by topological position

	class    []int // effective unit class per node (0 on single-unit machines)
	unitsFor []int // usable units per effective class (0 mapped to 1)

	// lats[v][i] is delta(v, members[v][i]), the deadline-independent
	// longest path from v's completion to that member's start; filled in
	// by the binding's first rankNode(v), which sets latDone.
	lats    [][]int32
	latDone graph.Bitset

	// Refresh state: ranks holds the ranks under trD, the deadlines they
	// were computed for, once ranked is set; moved is the per-node shift
	// scratch.
	ranks  []int
	trD    []int
	moved  []int
	ranked bool

	// RunRanks state: lastS is the schedule of priority list lastList, or
	// nil when there is none for this binding and release vector.
	lastS    *sched.Schedule
	lastList []graph.NodeID

	// Scratch, reused across calls.
	delta  []int          // longest path finish(v)⇝start(u) per descendant
	keys   []uint64       // packed sort keys of the node being ranked
	ds     []descendant   // packing entries for the node being ranked
	occ    [][]int        // per-class occupancy window for rankOf
	occHW  []int          // per-class end of the occupancy rankOf touched
	pos    []int          // tie-position scratch for list building
	list   []graph.NodeID // priority-list scratch
	source []graph.NodeID // cached default tie order (program order)

	// budget, when non-nil, is charged one pass (and consulted as a
	// cancellation checkpoint) by every RunRanks. Anticipatory scheduling
	// funnels all of its greedy reschedules — merge rounds, idle-slot
	// demotions, loop candidates — through RunRanks, so setting the budget
	// here makes the whole pipeline cooperatively cancellable and metered.
	budget *sbudget.State

	ls sched.ListScheduler

	// aux lets the passes layered on the Rank Algorithm (internal/idle)
	// stash their own per-context scratch so it is recycled together with
	// the context.
	aux any
}

// SetBudget installs the request's cancellation/budget checkpoint state; nil
// (the default) disables checkpointing.
func (c *Ctx) SetBudget(b *sbudget.State) { c.budget = b }

// SetRelease installs per-node release times on the context's list scheduler
// (see sched.ListScheduler.SetRelease): every RunRanks of this binding — the
// merge rounds and the whole Delay_Idle_Slots pass alike — floors each node's
// start at its release. Cleared by Reset; the slice is retained, not copied.
// It drops the schedule RunRanks remembers, since the same list may now
// schedule differently.
func (c *Ctx) SetRelease(rel []int) {
	c.ls.SetRelease(rel)
	c.lastS = nil
}

// Aux returns the scratch value stashed by SetAux, or nil.
func (c *Ctx) Aux() any { return c.aux }

// SetAux stashes a caller-owned scratch value on the context.
func (c *Ctx) SetAux(a any) { c.aux = a }

// NewReusable returns an empty context; call Reset to bind it to a graph
// view before use. NewCtx is the one-shot equivalent.
func NewReusable() *Ctx { return &Ctx{} }

// NewCtx analyses g once (topological order, descendant closure, per-node
// descendant lists, unit-class mapping) and returns a context whose Compute,
// Refresh and RunRanks reuse that analysis. Fails if the loop-independent
// subgraph is cyclic.
func NewCtx(g *graph.Graph, m *machine.Machine) (*Ctx, error) {
	c := NewReusable()
	if err := c.Reset(graph.NewCSR(g).View(), m, g); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset rebinds the context to a new adjacency view, recomputing the graph
// analysis into the context's arena. g may be nil when the view is an
// induced subgraph with no standalone *Graph. The budget and aux stash
// survive only within one binding: budget is cleared, aux is kept (it is
// sized scratch, not graph state). Refresh's remembered ranks and RunRanks'
// remembered schedule are cleared. Fails — leaving the context unusable
// until the next successful Reset — if the view has a cycle or a node with a
// negative class (which no unit can run).
func (c *Ctx) Reset(view graph.AdjView, m *machine.Machine, g *graph.Graph) error {
	c.g, c.m, c.view = g, m, view
	c.budget = nil
	c.source = nil
	c.ranked = false
	c.lastS = nil
	c.ar.Reset()
	n := view.N

	ints := &c.ar.Ints
	c.topoPos = ints.Alloc(n)
	c.delta = ints.Alloc(n)
	c.pos = ints.Alloc(n)
	c.class = ints.Alloc(n)
	c.ranks = ints.Alloc(n)
	c.trD = ints.Alloc(n)
	c.moved = ints.Alloc(n)
	ids := &c.ar.IDs
	c.order = ids.Alloc(n)
	c.list = ids.Alloc(n)
	c.lastList = ids.Alloc(n)
	c.latDone = c.ar.Bitset(n)
	c.desc = c.ar.BitsetRows(c.desc, n)

	// Topological sort over the flat adjacency (same sorted-insert frontier
	// as graph.TopoOrder, so the resulting order — and everything downstream
	// — is identical to the slice-backed path). delta doubles as the
	// in-degree scratch; rankNode re-initialises it per use.
	indeg := c.delta
	for _, d := range view.Dst[:view.Off[n]] {
		indeg[d]++
	}
	frontier := c.list[:0]
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			frontier = append(frontier, graph.NodeID(id))
		}
	}
	order := c.order[:0]
	head := 0
	for head < len(frontier) {
		id := frontier[head]
		head++
		order = append(order, id)
		for e := view.Off[id]; e < view.Off[id+1]; e++ {
			dst := view.Dst[e]
			indeg[dst]--
			if indeg[dst] == 0 {
				i := head + sort.Search(len(frontier)-head, func(k int) bool { return frontier[head+k] > dst })
				frontier = append(frontier, 0)
				copy(frontier[i+1:], frontier[i:])
				frontier[i] = dst
			}
		}
	}
	if len(order) != n {
		return fmt.Errorf("graph: loop-independent subgraph has a cycle (%d of %d nodes ordered)", len(order), n)
	}
	c.order = order
	for i, id := range order {
		c.topoPos[id] = i
	}

	// Descendant closure in reverse topological order (graph.DescendantsFrom
	// over the flat arrays).
	for i := n - 1; i >= 0; i-- {
		id := order[i]
		for e := view.Off[id]; e < view.Off[id+1]; e++ {
			dst := view.Dst[e]
			c.desc[id].Set(int(dst))
			c.desc[id].UnionWith(c.desc[dst])
		}
	}

	total := 0
	for v := 0; v < n; v++ {
		total += c.desc[v].Count()
	}
	backing := ids.Alloc(total)
	latBacking := c.ar.Int32s.Alloc(total)
	if cap(c.members) < n {
		c.members = make([][]graph.NodeID, n)
		c.lats = make([][]int32, n)
	}
	c.members = c.members[:n]
	c.lats = c.lats[:n]
	k := 0
	for v := 0; v < n; v++ {
		start := k
		c.desc[v].ForEach(func(u int) { backing[k] = graph.NodeID(u); k++ })
		mem := backing[start:k:k]
		// Topological positions are a permutation, so this sort has no ties
		// and any sorting algorithm yields the same deterministic order.
		slices.SortFunc(mem, func(a, b graph.NodeID) int { return c.topoPos[a] - c.topoPos[b] })
		c.members[v] = mem
		c.lats[v] = latBacking[start:k:k]
	}

	maxClass := 0
	single := m.SingleUnitOnly()
	for v := 0; v < n; v++ {
		cls := int(view.Class[v])
		if cls < 0 {
			return fmt.Errorf("rank: node %d (%s) has negative class %d", v, view.Labels[v], cls)
		}
		if single {
			cls = 0
		}
		c.class[v] = cls
		if cls > maxClass {
			maxClass = cls
		}
	}
	if cap(c.unitsFor) < maxClass+1 {
		c.unitsFor = make([]int, maxClass+1)
	}
	c.unitsFor = c.unitsFor[:maxClass+1]
	for cls := range c.unitsFor {
		u := m.UnitsFor(machine.UnitClass(cls))
		if u == 0 {
			u = 1 // unschedulable classes are caught by the list scheduler
		}
		c.unitsFor[cls] = u
	}
	// occ rows persist across Resets (rankOf sizes them lazily); only
	// the header grows, and it never shrinks so grown rows stay reusable.
	for len(c.occ) <= maxClass {
		c.occ = append(c.occ, nil)
		c.occHW = append(c.occHW, 0)
	}

	c.ls.Reset(view, m, g)
	return nil
}

// Graph returns the graph this context was built for, or nil when it was
// Reset onto an induced view with no standalone graph.
func (c *Ctx) Graph() *graph.Graph { return c.g }

// Machine returns the machine this context was built for.
func (c *Ctx) Machine() *machine.Machine { return c.m }

// Len reports the node count of the bound view.
func (c *Ctx) Len() int { return c.view.N }

// Exec returns the execution time of node v in the bound view.
func (c *Ctx) Exec(v graph.NodeID) int { return int(c.view.Exec[v]) }

// Label returns the label of node v in the bound view.
func (c *Ctx) Label(v graph.NodeID) string { return c.view.Labels[v] }

// Block returns the block index of node v in the bound view.
func (c *Ctx) Block(v graph.NodeID) int { return int(c.view.Block[v]) }

// View returns the adjacency view the context is bound to.
func (c *Ctx) View() graph.AdjView { return c.view }

// Compute returns rank(v) for every node under deadlines d (see the
// package-level Compute for the definition). The returned slice is freshly
// allocated and owned by the caller; feed it to RunRanks for scheduling.
// ComputeInto is the allocation-free variant, and Refresh the incremental
// one.
func (c *Ctx) Compute(d []int) ([]int, error) {
	ranks := make([]int, c.view.N)
	if err := c.ComputeInto(ranks, d); err != nil {
		return nil, err
	}
	return ranks, nil
}

// ComputeInto computes rank(v) for every node under deadlines d into the
// caller-provided ranks slice (len must equal the node count).
func (c *Ctx) ComputeInto(ranks, d []int) error {
	n := c.view.N
	if len(d) != n {
		return fmt.Errorf("rank: %d deadlines for %d nodes", len(d), n)
	}
	if len(ranks) != n {
		return fmt.Errorf("rank: ranks buffer has %d entries for %d nodes", len(ranks), n)
	}
	copy(ranks, d)
	for i := n - 1; i >= 0; i-- {
		v := c.order[i]
		if len(c.members[v]) != 0 {
			c.rankNode(v, d, ranks)
		}
	}
	return nil
}

// notUniform marks a node in Refresh whose closure did not move by one
// common amount.
const notUniform = math.MinInt

// Refresh returns rank(v) for every node under deadlines d, re-ranking
// incrementally from the deadlines of the binding's previous Refresh; the
// first call on a binding runs the full pass. The returned slice is owned
// by the context and valid until the next Refresh or Reset.
//
// rank(v) depends only on d(v) and the ranks of v's descendants, so the
// walk goes over the topological order in reverse and keeps moved[v], the
// change to the ranks of v and all of its descendants: 0 when none changed,
// δ when all moved by δ, and notUniform otherwise. A node whose deadline
// moved by δ and whose every direct successor has moved = δ keeps its
// packing order and placements, so its rank shifts by exactly δ (δ = 0:
// it is skipped). Every other node is recomputed.
func (c *Ctx) Refresh(d []int) ([]int, error) {
	n := c.view.N
	if len(d) != n {
		return nil, fmt.Errorf("rank: %d deadlines for %d nodes", len(d), n)
	}
	ranks, trD := c.ranks, c.trD
	if !c.ranked {
		if err := c.ComputeInto(ranks, d); err != nil {
			return nil, err
		}
		copy(trD, d)
		c.ranked = true
		return ranks, nil
	}
	view := &c.view
	moved := c.moved
	for i := n - 1; i >= 0; i-- {
		v := c.order[i]
		dd := d[v] - trD[v]
		lo, hi := view.Off[v], view.Off[v+1]
		if lo == hi {
			ranks[v] = d[v]
			moved[v] = dd
			continue
		}
		succ := moved[view.Dst[lo]]
		for _, u := range view.Dst[lo+1 : hi] {
			if moved[u] != succ {
				succ = notUniform
				break
			}
		}
		if succ == dd {
			ranks[v] += dd
			moved[v] = dd
			continue
		}
		old := ranks[v]
		c.rankNode(v, d, ranks)
		if succ == notUniform || ranks[v]-old != succ {
			moved[v] = notUniform
		} else {
			moved[v] = succ
		}
	}
	copy(trD, d)
	return ranks, nil
}

// rankNode recomputes ranks[v] from d[v] and the current ranks of v's
// descendants: the per-ancestor step of the Compute sweep.
func (c *Ctx) rankNode(v graph.NodeID, d, ranks []int) {
	if len(c.members[v]) == 0 {
		ranks[v] = d[v]
		return
	}
	ranks[v] = c.rankOf(c.sortedDescendants(v, ranks), d[v])
}

// memberLats returns lats[v], computing it on the binding's first call for
// v: delta(u) = max over distance-0 in-edges (p → u) with p ∈ {v} ∪
// descendants(v) of (0 if p==v else delta(p)+exec(p)) + latency, evaluated
// over the members in topological order. The view only holds distance-0
// edges, so no distance filtering is needed.
func (c *Ctx) memberLats(v graph.NodeID) []int32 {
	lats := c.lats[v]
	if c.latDone.Has(int(v)) {
		return lats
	}
	mem := c.members[v]
	view := &c.view
	delta := c.delta
	for _, u := range mem {
		delta[u] = -1
	}
	dv := c.desc[v]
	for e := view.Off[v]; e < view.Off[v+1]; e++ {
		dst := view.Dst[e]
		if lat := int(view.Lat[e]); dv.Has(int(dst)) && lat > delta[dst] {
			delta[dst] = lat
		}
	}
	for _, u := range mem {
		du := delta[u]
		exec := int(view.Exec[u])
		for e := view.Off[u]; e < view.Off[u+1]; e++ {
			dst := view.Dst[e]
			if !dv.Has(int(dst)) {
				continue
			}
			if cand := du + exec + int(view.Lat[e]); cand > delta[dst] {
				delta[dst] = cand
			}
		}
	}
	for i, u := range mem {
		lats[i] = int32(delta[u])
	}
	c.latDone.Set(int(v))
	return lats
}

// Packed sort key layout: (rank − min rank) << keyRankShift | (max lat −
// lat) << keyLatShift | member index. Members are in topological order, so
// ascending keys are exactly compareDescendants' order.
const (
	keyRankShift = 40
	keyLatShift  = 20
	keyIdxMask   = 1<<keyLatShift - 1
)

// sortedDescendants returns v's packing entries sorted by
// compareDescendants, valid until the next call. It sorts packed uint64 keys
// when every field fits and falls back to the comparator otherwise.
func (c *Ctx) sortedDescendants(v graph.NodeID, ranks []int) []descendant {
	mem, lats := c.members[v], c.memberLats(v)
	minR, maxR := ranks[mem[0]], ranks[mem[0]]
	minL, maxL := lats[0], lats[0]
	for i, u := range mem {
		minR, maxR = min(minR, ranks[u]), max(maxR, ranks[u])
		minL, maxL = min(minL, lats[i]), max(maxL, lats[i])
	}
	ds := c.ds[:0]
	if len(mem) <= keyIdxMask && maxR-minR < 1<<(64-keyRankShift) && int(maxL-minL) <= keyIdxMask {
		keys := c.keys[:0]
		for i, u := range mem {
			keys = append(keys, uint64(ranks[u]-minR)<<keyRankShift|uint64(maxL-lats[i])<<keyLatShift|uint64(i))
		}
		slices.Sort(keys)
		c.keys = keys[:0]
		for _, k := range keys {
			i := int(k & keyIdxMask)
			ds = append(ds, c.entry(mem[i], lats[i], ranks))
		}
	} else {
		for i, u := range mem {
			ds = append(ds, c.entry(u, lats[i], ranks))
		}
		// EDF exactness wants nondecreasing rank order; break ties by
		// release (latency) then topological position so the order is a
		// deterministic total order shared with the reference.
		slices.SortFunc(ds, compareDescendants)
	}
	c.ds = ds[:0] // keep the (possibly grown) backing array
	return ds
}

// entry is the packing entry of descendant u at path length lat.
func (c *Ctx) entry(u graph.NodeID, lat int32, ranks []int) descendant {
	return descendant{rank: ranks[u], exec: int(c.view.Exec[u]), class: c.class[u], lat: int(lat), pos: c.topoPos[u]}
}

// compareDescendants orders packing entries by nondecreasing rank, ties by
// larger release latency, then by topological position. The final key makes
// the order total, so the optimized and reference implementations sort
// identically regardless of sorting algorithm.
func compareDescendants(a, b descendant) int {
	if a.rank != b.rank {
		return a.rank - b.rank
	}
	if a.lat != b.lat {
		return b.lat - a.lat
	}
	return a.pos - b.pos
}

// rankOf returns the rank of a node with deadline dv whose descendants,
// sorted by compareDescendants, are ds. It places every descendant relative
// to the node's completion time at — each at the earliest free position
// ≥ at + lat on its class pool — and takes the latest at for which each one
// still finishes by its rank: B = min over u of rank(u) − (start(u) − at) −
// exec(u). Occupancy is tracked in per-class slice windows indexed by
// t − at + 1 (the +1 absorbs a defensive −1 release), reused across calls:
// each call clears only the prefix it touched (occHW), so one large node
// does not make every later small rankOf clear its whole window. Because
// the indexing is relative to at, the placement does not depend on at; at
// enters only the per-descendant deadline test. So the packing is feasible
// for exactly the completion times at ≤ B, and one pass yields min(dv, B),
// which is what the reference binary search over at finds with a packing
// per probe (referencePackFeasible). That search is confined
// to [lo, hi], hi = min(dv, min over u of rank(u) − exec(u) − lat(u)),
// lo = hi − 2(total + maxLat + 2), and neither end binds: B stays below the
// per-descendant part of hi because start(u) − at ≥ lat(u), and above lo
// because earliest-fit never ends a placement past at + maxLat + total.
// Exact for unit execution times (EDF exchange argument); earliest-fit
// heuristic for longer instructions.
func (c *Ctx) rankOf(ds []descendant, dv int) int {
	total, maxLat, maxExec := 0, 0, 0
	for _, u := range ds {
		total += u.exec
		maxLat = max(maxLat, u.lat)
		maxExec = max(maxExec, u.exec)
	}
	// Earliest-fit never places past lat + sum(exec), so this window bounds
	// every occupancy index the packing can touch.
	window := total + maxLat + maxExec + 4
	for _, u := range ds {
		if len(c.occ[u.class]) < window {
			c.occ[u.class] = make([]int, window)
		}
	}
	rank := dv
	for _, u := range ds {
		units := c.unitsFor[u.class]
		occ := c.occ[u.class]
		start := u.lat + 1 // index of absolute time at + u.lat
	place:
		for {
			end := start + u.exec
			for end > len(occ) {
				occ = append(occ, 0)
			}
			for t := start; t < end; t++ {
				if occ[t] >= units {
					start = t + 1
					continue place
				}
			}
			break
		}
		rank = min(rank, u.rank-(start-1)-u.exec)
		end := start + u.exec
		for t := start; t < end; t++ {
			occ[t]++
		}
		c.occ[u.class] = occ
		c.occHW[u.class] = max(c.occHW[u.class], end)
	}
	for cls, hw := range c.occHW {
		clear(c.occ[cls][:hw])
		c.occHW[cls] = 0
	}
	return rank
}

// RunRanks greedily schedules in nondecreasing rank order (the second half
// of rank_alg) using precomputed ranks, and reports deadline feasibility
// against d. This is how Move_Idle_Slot shares one rank computation between
// its refill test and the actual reschedule. The Result's Ranks field
// aliases the input slice.
//
// When the priority list equals the one the previous call scheduled on
// this binding, the previous schedule is returned again instead of
// rescheduling; Reset and SetRelease forget it. A caller must therefore not
// modify a returned schedule while the context can still return it again,
// that is, before the next Reset or SetRelease. The fault-injection hook and
// the budget's rank-pass charge run first on every call, reused or not.
func (c *Ctx) RunRanks(ranks, d []int, tie []graph.NodeID) (*Result, error) {
	if h := faultinject.RankPass; h != nil {
		h()
	}
	if c.budget != nil {
		if err := c.budget.RankPass(); err != nil {
			return nil, err
		}
	}
	if tie == nil {
		if c.source == nil {
			src := c.ar.IDs.Alloc(c.view.N)
			for i := range src {
				src[i] = graph.NodeID(i)
			}
			c.source = src
		}
		tie = c.source
	}
	list := c.buildList(ranks, tie)
	s := c.lastS
	if s == nil || !slices.Equal(list, c.lastList) {
		var err error
		if s, err = c.ls.Run(list); err != nil {
			return nil, err
		}
		// The scheduled list becomes lastList; buildList fills the other
		// buffer next time.
		c.lastS = s
		c.list, c.lastList = c.lastList, c.list
	}
	feasible := true
	for v := 0; v < c.view.N; v++ {
		if ranks[v] < int(c.view.Exec[v]) {
			feasible = false
			break
		}
		if s.Finish(graph.NodeID(v)) > d[v] {
			feasible = false
			break
		}
	}
	return &Result{S: s, Ranks: ranks, Feasible: feasible}, nil
}

// Run executes the full rank_alg through the context: Compute then RunRanks.
func (c *Ctx) Run(d []int, tie []graph.NodeID) (*Result, error) {
	ranks, err := c.Compute(d)
	if err != nil {
		return nil, err
	}
	return c.RunRanks(ranks, d, tie)
}

// buildList is ListFromRanks on the context's scratch: nondecreasing rank,
// ties by position in tie. The returned slice is valid until the next call.
func (c *Ctx) buildList(ranks []int, tie []graph.NodeID) []graph.NodeID {
	pos := c.pos
	for i, id := range tie {
		pos[id] = i
	}
	list := c.list[:len(tie)]
	copy(list, tie)
	slices.SortStableFunc(list, func(a, b graph.NodeID) int {
		if ranks[a] != ranks[b] {
			return ranks[a] - ranks[b]
		}
		return pos[a] - pos[b]
	})
	return list
}
