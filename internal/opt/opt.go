// Package opt is the exact scheduling backend: a branch-and-bound search
// over static instruction orders that is provably optimal for the full
// window model — multiple functional-unit classes, non-unit execution
// times, arbitrary non-negative latencies — where the paper's Rank/Lookahead
// pipeline is only a heuristic (§4.2 carries no optimality proof).
//
// The search space is the set of compiler-emittable static orders: block-
// contiguous streams whose per-block segment is a topological order of that
// block (Definition 2.1 — instructions never move across block boundaries).
// The hardware's dynamic execution is a deterministic function of the
// static order (the greedy window machine of internal/hw), so the exact
// trace optimum is the minimum simulated completion over that finite set.
// Branch-and-bound explores order prefixes with three prunes:
//
//   - prefix-simulation lower bound: simulating the prefix alone
//     lower-bounds every completion of its extensions, because appending
//     instructions to the stream can only delay earlier ones (they steal
//     units while an earlier instruction is data-stalled and hold the
//     window head back, never enable anything sooner);
//   - critical-path / class-work lower bounds over the unplaced remainder,
//     released at earliest starts propagated from the prefix simulation;
//   - dominance: memoized state signatures (identical-future prefixes are
//     explored once) and unit-symmetric choice elimination (structurally
//     interchangeable same-block nodes are expanded in canonical ID order
//     only).
//
// It is also the repository's one exact oracle for the paper's optimality
// claims. The block optimum is OptimalTrace on a single-block graph with
// m.WithWindow(g.Len()): with every instruction in the window the machine
// list-schedules the stream, so the minimum over the block's topological
// orders is the minimum over active schedules — the optimum for unit
// execution times on one unit. OptimalLoopII is the brute-force oracle for
// a single-block loop's initiation interval.
//
// Everything here is exponential in the worst case and guarded by
// node-count and expansion budgets; callers treat ErrTooLarge/ErrBudget as
// "oracle unavailable".
package opt

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"aisched/internal/graph"
	"aisched/internal/hw"
	"aisched/internal/machine"
	"aisched/internal/sched"
)

// DefaultMaxNodes is the node budget when Limits.MaxNodes is zero.
const DefaultMaxNodes = 16

// maskNodes is the hard ceiling: placed sets are uint32 bitmasks.
const maskNodes = 22

// never is the lower bound's "no release yet" sentinel.
const never = 1 << 30

// ErrTooLarge reports an instance over the node budget.
var ErrTooLarge = errors.New("opt: instance exceeds node budget")

// ErrBudget reports an exhausted search budget (expansions or ctx).
var ErrBudget = errors.New("opt: search budget exhausted")

// Limits caps the exact search. Zero values select defaults.
type Limits struct {
	// MaxNodes rejects larger instances up front (default DefaultMaxNodes,
	// hard-capped at 22 by the bitmask representation).
	MaxNodes int
	// MaxExpansions bounds branch-and-bound node expansions (default 1<<22).
	MaxExpansions int64
}

func (l Limits) maxNodes() int {
	n := l.MaxNodes
	if n <= 0 {
		n = DefaultMaxNodes
	}
	if n > maskNodes {
		n = maskNodes
	}
	return n
}

func (l Limits) maxExpansions() int64 {
	if l.MaxExpansions <= 0 {
		return 1 << 22
	}
	return l.MaxExpansions
}

// Stats reports search effort and prune effectiveness.
type Stats struct {
	Expansions int64 // branch-and-bound nodes simulated
	LBPrunes   int64 // subtrees cut by lower bounds
	MemoHits   int64 // subtrees cut by state-signature memoization
	SymSkips   int64 // sibling choices cut by unit-symmetry dominance
}

type pred struct {
	node graph.NodeID
	lat  int
}

type solver struct {
	ctx context.Context
	m   *machine.Machine
	w   int
	n   int

	exec    []int
	class   []int
	preds   [][]pred // distance-0 in-edges
	succs   [][]pred // distance-0 out-edges
	cp      []int    // critical path to a sink, including own exec
	topo    []graph.NodeID
	predBit []uint32 // distance-0 predecessor mask per node
	succBit []uint32 // distance-0 successor mask per node
	symLess []uint32 // unit-symmetric nodes with smaller ID, per node

	blockSeq [][]graph.NodeID // nodes per block, ascending block number
	single   bool             // m.SingleUnitOnly(): one unit serves every class

	order  []graph.NodeID
	posOf  []int // node → stream position, for placed nodes
	placed uint32

	// prefix replay: the window machine over order's placed prefix, and
	// each placed node's finish time from the last replay
	k       hw.Kernel
	finishN []int
	est     []int

	best       int
	bestOrder  []graph.NodeID
	memo       map[uint64]struct{}
	lim        Limits
	stats      Stats
	maxExpand  int64
	classWork  []int // scratch: remaining exec per class
	classMinEs []int // scratch: min est per class
}

// OptimalTrace returns the minimum achievable dynamic completion of the
// acyclic trace graph g on machine m over all compiler-emittable static
// orders, together with an order achieving it. Only distance-0 edges
// constrain a trace (like hw.SimulateTrace). The companion order satisfies
// completion == hw.SimulateTrace(g, m, order).Completion.
func OptimalTrace(ctx context.Context, g *graph.Graph, m *machine.Machine, lim Limits) (int, []graph.NodeID, Stats, error) {
	s, err := solve(ctx, g, m, lim)
	if s == nil {
		return 0, nil, Stats{}, err
	}
	if err != nil {
		return 0, nil, s.stats, err
	}
	return s.best, s.bestOrder, s.stats, nil
}

// solve runs the search. A solver that failed to build is nil; one whose
// search failed is returned with the error, for its stats.
func solve(ctx context.Context, g *graph.Graph, m *machine.Machine, lim Limits) (*solver, error) {
	s, err := newSolver(ctx, g, m, lim)
	if err != nil {
		return nil, err
	}
	if s.n == 0 {
		s.bestOrder = nil
		return s, nil
	}
	if err := ctx.Err(); err != nil {
		return s, err
	}
	s.k.Truncate(0) // drop the incumbent's stream: the search starts empty
	return s, s.dfs(0)
}

func newSolver(ctx context.Context, g *graph.Graph, m *machine.Machine, lim Limits) (*solver, error) {
	n := g.Len()
	if n > lim.maxNodes() {
		return nil, fmt.Errorf("%w: %d nodes > %d", ErrTooLarge, n, lim.maxNodes())
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := g.CheckBlockOrder(); err != nil {
		return nil, err
	}
	s := &solver{
		ctx: ctx, m: m, w: m.Window, n: n, lim: lim,
		maxExpand: lim.maxExpansions(),
		single:    m.SingleUnitOnly(),
		memo:      make(map[uint64]struct{}),
	}
	if s.w < 1 {
		return nil, fmt.Errorf("opt: window %d < 1", s.w)
	}
	s.exec = make([]int, n)
	s.class = make([]int, n)
	s.preds = make([][]pred, n)
	s.succs = make([][]pred, n)
	s.predBit = make([]uint32, n)
	s.succBit = make([]uint32, n)
	blockOf := make([]int, n)
	for v := 0; v < n; v++ {
		nd := g.Node(graph.NodeID(v))
		s.exec[v] = nd.Exec
		s.class[v] = nd.Class
		blockOf[v] = nd.Block
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Out(graph.NodeID(v)) {
			if e.Distance != 0 {
				continue // loop-carried: unconstrained in a single trace pass
			}
			s.succs[e.Src] = append(s.succs[e.Src], pred{e.Dst, e.Latency})
			s.preds[e.Dst] = append(s.preds[e.Dst], pred{e.Src, e.Latency})
			s.predBit[e.Dst] |= 1 << uint(e.Src)
			s.succBit[e.Src] |= 1 << uint(e.Dst)
		}
	}
	maxClass := 0
	for _, c := range s.class {
		maxClass = max(maxClass, c)
	}
	s.classWork = make([]int, maxClass+1)
	s.classMinEs = make([]int, maxClass+1)

	// Kahn topological order over distance-0 edges (also the cycle check).
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(s.preds[v])
	}
	queue := make([]graph.NodeID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, graph.NodeID(v))
		}
	}
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for _, e := range s.succs[u] {
			if indeg[e.node]--; indeg[e.node] == 0 {
				queue = append(queue, e.node)
			}
		}
	}
	if len(queue) != n {
		return nil, fmt.Errorf("opt: distance-0 subgraph is cyclic")
	}
	s.topo = queue

	// Critical path to a sink (including own exec), over distance-0 edges.
	s.cp = make([]int, n)
	for i := n - 1; i >= 0; i-- {
		v := s.topo[i]
		best := 0
		for _, e := range s.succs[v] {
			if t := e.lat + s.cp[e.node]; t > best {
				best = t
			}
		}
		s.cp[v] = s.exec[v] + best
	}

	// Blocks in ascending number; within a block nodes in ascending ID.
	blocks := map[int][]graph.NodeID{}
	var nums []int
	for v := 0; v < n; v++ {
		if _, ok := blocks[blockOf[v]]; !ok {
			nums = append(nums, blockOf[v])
		}
		blocks[blockOf[v]] = append(blocks[blockOf[v]], graph.NodeID(v))
	}
	sort.Ints(nums)
	for _, b := range nums {
		s.blockSeq = append(s.blockSeq, blocks[b])
	}

	// Unit-symmetry: u ~ v when swapping them everywhere leaves every
	// constraint unchanged — same block/class/exec, no edge between them,
	// identical distance-0 in- and out-edge multisets. Among mutually
	// symmetric unplaced candidates only the smallest ID is expanded.
	s.symLess = make([]uint32, n)
	edgeKey := func(ps []pred) string {
		ks := append([]pred(nil), ps...)
		sort.Slice(ks, func(i, j int) bool {
			if ks[i].node != ks[j].node {
				return ks[i].node < ks[j].node
			}
			return ks[i].lat < ks[j].lat
		})
		return fmt.Sprint(ks)
	}
	for v := 0; v < n; v++ {
		for u := 0; u < v; u++ {
			if blockOf[u] != blockOf[v] || s.class[u] != s.class[v] || s.exec[u] != s.exec[v] {
				continue
			}
			if s.predBit[v]&(1<<uint(u)) != 0 || s.predBit[u]&(1<<uint(v)) != 0 {
				continue
			}
			if edgeKey(s.preds[u]) != edgeKey(s.preds[v]) || edgeKey(s.succs[u]) != edgeKey(s.succs[v]) {
				continue
			}
			s.symLess[v] |= 1 << uint(u)
		}
	}

	s.order = make([]graph.NodeID, n)
	s.posOf = make([]int, n)
	s.finishN = make([]int, n)
	s.est = make([]int, n)
	s.bestOrder = make([]graph.NodeID, n)

	// Seed the incumbent with the natural order: blocks ascending, each
	// block's segment the global topo order restricted to it.
	topoPos := make([]int, n)
	for i, v := range s.topo {
		topoPos[v] = i
	}
	p := 0
	for _, blk := range s.blockSeq {
		seg := append([]graph.NodeID(nil), blk...)
		sort.Slice(seg, func(i, j int) bool { return topoPos[seg[i]] < topoPos[seg[j]] })
		for _, v := range seg {
			s.place(p, v)
			p++
		}
	}
	comp, err := s.replay(n)
	if err != nil {
		return nil, err
	}
	s.best = comp
	copy(s.bestOrder, s.order[:n])
	return s, nil
}

// place puts v at stream position p, cutting the stream to its first p
// positions. v's producers are all placed, so the stream stays
// prefix-closed.
func (s *solver) place(p int, v graph.NodeID) {
	s.order[p], s.posOf[v] = v, p
	s.k.Truncate(p)
	s.k.Add(s.exec[v], s.class[v], 0)
	for _, e := range s.preds[v] {
		s.k.Dep(s.posOf[e.node], e.lat)
	}
}

// replay runs the placed prefix, the first p positions of s.order, as a
// complete stream on the window machine (internal/hw's kernel), refreshes
// finishN of every placed node and returns the prefix completion.
func (s *solver) replay(p int) (int, error) {
	comp, err := s.k.Run(s.m)
	if err != nil {
		return 0, err
	}
	for i, v := range s.order[:p] {
		s.finishN[v] = s.k.Issued(i) + s.exec[v]
	}
	return comp, nil
}

// lowerBound combines the prefix completion with critical-path and
// class-work bounds over the unplaced remainder. Prefix finish times are
// lower bounds on the true finish times under any extension (appending
// instructions never speeds earlier ones up), so releases propagated from
// them stay admissible.
func (s *solver) lowerBound(prefixComp int) int {
	lb := prefixComp
	for c := range s.classWork {
		s.classWork[c] = 0
		s.classMinEs[c] = never
	}
	for _, v := range s.topo {
		if s.placed&(1<<uint(v)) != 0 {
			continue
		}
		e := 0
		for _, pe := range s.preds[v] {
			var r int
			if s.placed&(1<<uint(pe.node)) != 0 {
				r = s.finishN[pe.node] + pe.lat
			} else {
				r = s.est[pe.node] + s.exec[pe.node] + pe.lat
			}
			if r > e {
				e = r
			}
		}
		s.est[v] = e
		if t := e + s.cp[v]; t > lb {
			lb = t
		}
		c := s.class[v]
		if s.single {
			c = 0
		}
		s.classWork[c] += s.exec[v]
		if e < s.classMinEs[c] {
			s.classMinEs[c] = e
		}
	}
	for c := range s.classWork {
		if s.classWork[c] == 0 {
			continue
		}
		cnt := 1
		if !s.single {
			cnt = s.m.UnitsFor(machine.UnitClass(c))
		}
		if t := s.classMinEs[c] + (s.classWork[c]+cnt-1)/cnt; t > lb {
			lb = t
		}
	}
	return lb
}

// stateKey hashes everything the future of a prefix can depend on. Two
// prefixes with equal keys have identical optimal extensions:
//
//   - the placed set and the ordered tail (last W−1 positions): suffix
//     instructions can only interact with those — a position ≥ p+W−1 back
//     enters the window only after everything before it issued;
//   - frozen positions' (issue, class, exec) by position: issue times of
//     positions ≤ p−W are final (they depend only on the stream through
//     position+W−1), and drive head advance and unit occupancy;
//   - frozen nodes' finish times by node, for nodes with successors
//     outside the frozen set: the dependence releases the future observes.
//     Tail successors count — a tail position's issue time is re-derived by
//     the next simulation from its producers' finishes, so a frozen
//     producer feeding only the tail still differentiates futures (two
//     equal-class/exec nodes swapped within the frozen region finish at
//     different cycles and release a tail consumer at different times).
//
// FNV-1a over the tuple; a 64-bit collision would be needed to prune
// wrongly, which the differential oracles would surface.
func (s *solver) stateKey(p int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mix(uint64(s.placed))
	frozen := p - (s.w - 1)
	if frozen < 0 {
		frozen = 0
	}
	for i := frozen; i < p; i++ {
		mix(uint64(s.order[i]) | 1<<40)
	}
	var frozenMask uint32
	for i := 0; i < frozen; i++ {
		v := s.order[i]
		frozenMask |= 1 << uint(v)
		mix(uint64(s.k.Issued(i)) | uint64(s.class[v])<<24 | uint64(s.exec[v])<<32 | 2<<40)
	}
	for i := 0; i < frozen; i++ {
		v := s.order[i]
		if s.succBit[v]&^frozenMask != 0 {
			mix(uint64(v)<<24 | uint64(s.finishN[v]) | 3<<40)
		}
	}
	return h
}

func (s *solver) dfs(p int) error {
	s.stats.Expansions++
	if s.stats.Expansions > s.maxExpand {
		return fmt.Errorf("%w: %d expansions", ErrBudget, s.stats.Expansions)
	}
	if s.stats.Expansions&63 == 0 {
		if err := s.ctx.Err(); err != nil {
			return err
		}
	}
	comp, err := s.replay(p)
	if err != nil {
		return err
	}
	if p == s.n {
		if comp < s.best {
			s.best = comp
			copy(s.bestOrder, s.order)
		}
		return nil
	}
	if s.lowerBound(comp) >= s.best {
		s.stats.LBPrunes++
		return nil
	}
	key := s.stateKey(p)
	if _, ok := s.memo[key]; ok {
		s.stats.MemoHits++
		return nil
	}
	s.memo[key] = struct{}{}

	// Current block: the first in sequence with an unplaced node
	// (block-contiguous emission).
	var blk []graph.NodeID
	for _, b := range s.blockSeq {
		rem := false
		for _, v := range b {
			if s.placed&(1<<uint(v)) == 0 {
				rem = true
				break
			}
		}
		if rem {
			blk = b
			break
		}
	}
	for _, v := range blk {
		bit := uint32(1) << uint(v)
		if s.placed&bit != 0 || s.predBit[v]&^s.placed != 0 {
			continue
		}
		if s.symLess[v]&^s.placed != 0 {
			s.stats.SymSkips++
			continue // an interchangeable smaller-ID sibling covers this
		}
		s.place(p, v)
		s.placed |= bit
		err := s.dfs(p + 1)
		s.placed &^= bit
		if err != nil {
			return err
		}
	}
	return nil
}

// Backend adapts the exact search to the engine-level sched.Backend
// interface. The returned schedule is the window machine's execution of the
// optimal static order: issue cycles and units as internal/hw's kernel
// replays them.
type Backend struct {
	Lim Limits
}

// NewBackend returns an exact backend with the given limits.
func NewBackend(lim Limits) *Backend { return &Backend{Lim: lim} }

// Name implements sched.Backend.
func (*Backend) Name() string { return "exact" }

// ScheduleTrace implements sched.Backend.
func (b *Backend) ScheduleTrace(ctx context.Context, g *graph.Graph, m *machine.Machine) (*sched.BackendResult, error) {
	s, err := solve(ctx, g, m, b.Lim)
	if err != nil {
		return nil, err
	}
	for p, v := range s.bestOrder {
		s.place(p, v)
	}
	if _, err := s.k.Run(m); err != nil {
		return nil, err
	}
	out := sched.New(g, m)
	for i, v := range s.bestOrder {
		out.Start[v], out.Unit[v] = s.k.Issued(i), s.k.Unit(i)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("opt: execution schedule invalid: %w", err)
	}
	return &sched.BackendResult{Order: s.bestOrder, S: out}, nil
}
