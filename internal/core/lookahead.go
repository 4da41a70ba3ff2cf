// Package core implements Algorithm Lookahead — anticipatory instruction
// scheduling for a trace of basic blocks (Sarkar & Simons, SPAA '96, §4,
// Figures 5–7).
//
// The algorithm walks the trace block by block, maintaining a carried suffix
// `old` of not-yet-committed instructions. For each block it
//
//  1. merges old with the block's instructions: a minimum-makespan schedule
//     of old ∪ new is computed with the Rank Algorithm, then re-computed
//     under deadlines that confine old to its standalone makespan (so new
//     instructions only fill idle slots among old, never displace it),
//     loosening the new instructions' deadlines until feasible;
//  2. delays every idle slot as late as possible (Delay_Idle_Slots, §3);
//  3. chops the schedule at the last idle slot that still has at least W−1
//     instructions after it: the prefix is committed to the output (no
//     future block can improve it), the suffix becomes the next `old`.
//
// The emitted result is a static per-block instruction order; instructions
// never move across block boundaries (safety/serviceability), yet the
// predicted schedule accounts for the hardware lookahead window of size W
// filling trailing idle slots with next-block instructions. The algorithm is
// provably optimal in the paper's restricted case (unit execution times, 0/1
// latencies, single functional unit) and is the recommended heuristic
// otherwise (§4.2).
//
// One walk (traceWalk) implements this loop and its carried suffix for
// every driver: the sequential LookaheadOpts path, the speculative parallel
// driver (parallel.go) and the incremental Stream (stream.go), which runs
// one walk step per pushed block with lookahead k bounding how long a block
// may stay in the suffix — offline scheduling is the k = Unbounded case.
//
// The merge loop is built on flat graph views: the trace graph is flattened
// into a CSR once per call, each block's old ∪ new subgraph is an induced
// view (graph.Sub) with a dense remap array instead of a rebuilt *Graph — or
// the bound view itself when old ∪ new covers it, as on every stream push —
// and one reusable rank context is Reset per view, so the per-block loop
// allocates only the schedules it keeps.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
	"aisched/internal/sbudget"
	"aisched/internal/sched"
)

// walkPool pools traceWalks. A walk owns every buffer of Algorithm
// Lookahead — the walk-ID arrays (stitched absolute schedule, carried
// deadlines/finishes, release floors, block grouping), the per-block merge
// state (induced view, Step, deadline/mask scratch) and the result
// scratch — so batch pipelines that schedule many traces concurrently reuse
// them per worker instead of reallocating per call. The final Result copies
// out of everything pooled, so nothing pooled escapes.
var walkPool = sync.Pool{New: func() any { return new(traceWalk) }}

// growSlice returns buf resized to n, reusing its backing when possible.
// Contents are unspecified; callers initialise what they read.
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// growKeep is growSlice preserving the first len(buf) elements.
func growKeep[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return append(buf[:len(buf):len(buf)], make([]T, n-len(buf))...)
	}
	return buf[:n]
}

// Options tunes Algorithm Lookahead.
type Options struct {
	// SkipDelay disables the Delay_Idle_Slots pass (ablation experiment T2).
	SkipDelay bool
	// Tracer, when non-nil, receives structured pass events: one
	// pass-start/pass-end pair for the whole algorithm, and per block a
	// KindMergeLoosen event for each deadline-loosening round of merge, a
	// KindMerge event for the merged schedule, the Delay_Idle_Slots events
	// (see idle.DelayIdleSlotsCtx), and a KindChop event with the committed
	// prefix, the carried-suffix size, and the chop time base. A step-cache
	// hit emits only its KindChop event, labelled "replay". A Tracer turns
	// neither the step cache nor the parallel path off (see parallel.go).
	Tracer obs.Tracer
	// Budget, when non-nil, makes the per-block loop and every rank pass a
	// cooperative cancellation/budget checkpoint: the algorithm returns the
	// checkpoint's error (context cancellation or sbudget.ErrExhausted)
	// instead of a result.
	Budget *sbudget.State
	// StepCache, when non-nil, memoizes whole merge + delay + chop iterations
	// keyed by a hash of each step's full input and replays hits as
	// relocatable fragments (see stepcache.go). Any node layout is
	// cacheable. Results are bit-identical with and without it.
	StepCache *StepCache
	// Parallel selects the speculative parallel trace path (parallel.go).
	// 0 (the default) is auto: long block-grouped traces are partitioned
	// into speculatively scheduled segments when GOMAXPROCS ≥ 2 and no
	// Budget is set. Negative disables the parallel path entirely; positive
	// forces that many segments even on one CPU (tests use this to exercise
	// every partition width). Results are bit-identical to the sequential
	// walk in every mode — speculation is verified by state fingerprint at
	// each join and recomputed sequentially on any mismatch.
	Parallel int
}

// Result is the output of Algorithm Lookahead.
type Result struct {
	// Order is the predicted execution order for the whole trace: the
	// concatenated committed prefixes, which may interleave adjacent blocks
	// where the hardware window overlaps them at run time.
	Order []graph.NodeID
	// BlockOrders[b] is the static order of block b's instructions (the
	// subpermutation P_b of Definition 2.1). The compiler emits exactly
	// these orders — instructions never move across block boundaries.
	BlockOrders map[int][]graph.NodeID
	// S is the algorithm's predicted execution schedule, stitched from the
	// committed prefixes at their absolute times. Its permutation is Order;
	// its per-block subpermutations are BlockOrders.
	S *sched.Schedule
}

// Makespan returns the predicted completion time of the trace.
func (r *Result) Makespan() int { return r.S.Makespan() }

// Clone returns a deep copy of r. The schedule's graph and machine pointers
// are shared, not copied; the memo layer overwrites them on its clones to
// detach cached values from caller-owned graphs.
func (r *Result) Clone() *Result {
	c := &Result{
		Order:       append([]graph.NodeID(nil), r.Order...),
		BlockOrders: make(map[int][]graph.NodeID, len(r.BlockOrders)),
		S:           r.S.Clone(),
	}
	for b, o := range r.BlockOrders {
		c.BlockOrders[b] = append([]graph.NodeID(nil), o...)
	}
	return c
}

// ApproxBytes reports the result's approximate resident footprint for the
// memo layer's byte-bounded LRU (memo.Sizer).
func (r *Result) ApproxBytes() int {
	n := 96 + 8*len(r.Order) + 48*len(r.BlockOrders)
	for _, o := range r.BlockOrders {
		n += 8 * len(o)
	}
	if r.S != nil {
		n += r.S.ApproxBytes()
	}
	return n
}

// StaticOrder returns the emitted code: the per-block static orders
// concatenated in block order. This is the instruction stream the hardware
// fetches (use it with the hw simulator); Order is how the window is
// predicted to execute it.
func (r *Result) StaticOrder() []graph.NodeID {
	var blocks []int
	for b := range r.BlockOrders {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)
	var out []graph.NodeID
	for _, b := range blocks {
		out = append(out, r.BlockOrders[b]...)
	}
	return out
}

// Lookahead runs Algorithm Lookahead with default options.
func Lookahead(g *graph.Graph, m *machine.Machine) (*Result, error) {
	return LookaheadOpts(g, m, Options{})
}

// maxBump bounds the deadline-loosening loop in merge. The paper bounds it
// by the largest latency (footnote 8); the node count covers degenerate
// heuristic cases. The merge loop computes the same bound from its view's
// node count and max latency; this graph form serves the reference path.
func maxBump(g *graph.Graph) int {
	maxLat := 1
	for v := 0; v < g.Len(); v++ {
		for _, e := range g.Out(graph.NodeID(v)) {
			if e.Latency > maxLat {
				maxLat = e.Latency
			}
		}
	}
	return 4 * (g.Len() + maxLat + 2)
}

// emptyBlockOrders is the shared immutable BlockOrders value of empty
// results, so the zero-node path allocates no map.
var emptyBlockOrders = map[int][]graph.NodeID{}

// LookaheadOpts runs Algorithm Lookahead (paper Figure 5).
func LookaheadOpts(g *graph.Graph, m *machine.Machine, opt Options) (*Result, error) {
	if g.Len() == 0 {
		return &Result{Order: nil, BlockOrders: emptyBlockOrders, S: sched.New(g, m)}, nil
	}
	if !g.IsAcyclic() {
		return nil, fmt.Errorf("core: trace graph has a loop-independent cycle")
	}
	if err := g.CheckBlockOrder(); err != nil {
		return nil, err
	}
	tr := opt.Tracer
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassStart, Pass: obs.PassLookahead,
			Block: -1, Node: graph.None, N: g.Len()})
	}
	csr := graph.NewCSR(g)

	// Long block-grouped traces without a Budget take the speculative
	// parallel path; everything else runs the sequential walk. The plan gate
	// is ordered cheapest-first, so a small trace pays one integer compare
	// here.
	var out *Result
	var err error
	if plan := parallelPlan(csr, &opt); plan != nil {
		out, err = lookaheadParallel(g, m, opt, csr, plan)
	} else {
		out, err = lookaheadSequential(g, m, &opt, csr)
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassEnd, Pass: obs.PassLookahead,
			Block: -1, Node: graph.None, N: out.Makespan()})
	}
	return out, nil
}

// lookaheadSequential is the sequential walk: every block in ascending
// block order, one traceWalk.block each.
func lookaheadSequential(g *graph.Graph, m *machine.Machine, opt *Options, csr *graph.CSR) (*Result, error) {
	n := g.Len()
	w := walkPool.Get().(*traceWalk)
	defer walkPool.Put(w)
	w.init(csr.View(), m, opt, nil)

	// Group nodes by block with a stable sort of the identity permutation:
	// within each block IDs stay ascending, and blocks are visited in
	// ascending order, robust to sparse or interleaved block numbering.
	byBlock := w.byBlock
	slices.SortStableFunc(byBlock, func(a, b graph.NodeID) int {
		return csr.Block(a) - csr.Block(b)
	})
	for lo := 0; lo < n; {
		hi := lo
		b := csr.Block(byBlock[lo])
		for hi < n && csr.Block(byBlock[hi]) == b {
			hi++
		}
		if err := w.block(byBlock[lo:hi], b); err != nil {
			return nil, err
		}
		lo = hi
	}
	return w.result(g)
}

// Unbounded is the lookahead of a walk that only the chop rule finalizes:
// every batch walk, and a Stream that defers entirely to the chop rule.
const Unbounded = math.MaxInt

// traceWalk is the per-block walk of Algorithm Lookahead: merge + delay +
// chop for one block at a time, carrying the suffix state between blocks.
// It is the only implementation of the carried suffix. The sequential path
// drives it over LookaheadOpts's block grouping; the parallel driver and
// every speculative worker drive it over ranges of the same block groups
// from different entry states (parallel.go); a Stream drives it one pushed
// block at a time over its live window (stream.go).
//
// Walk IDs are the node IDs of the bound view: trace node IDs for a batch
// walk, live-window indices for a stream, which renumbers them per push
// (rebind).
type traceWalk struct {
	view   graph.AdjView // the bound adjacency: the trace CSR or a stream's live window
	m      *machine.Machine
	sc     *StepCache
	skip   bool
	tr     obs.Tracer
	budget *sbudget.State
	groups *blockGroups // the parallel path's group table (nil elsewhere)
	// k is the lookahead: once block b is walked, every carried node of a
	// block at or before b−k is force-finalized (see Stream). Batch walks
	// use Unbounded, leaving finality to the chop rule alone.
	k int

	// Stitched absolute schedule: frames advance by each chop's base.
	absStart []int
	absUnit  []int
	dOld     []int // carried-suffix deadlines, by walk ID
	fOld     []int // carried-suffix finish times, by walk ID
	// relAbs[v] is the absolute earliest start owed to v by latencies of
	// already-committed predecessors. Chop commits a prefix and drops its
	// nodes — and their out-edges — from every later view, so each committed
	// node's latencies are recorded here and handed to the later merges as
	// frame-relative release times. In the restricted model (0/1 latencies)
	// the chop's idle slot provides exactly the needed slack and every
	// release is stale by construction; longer latencies (§4.2 machines)
	// and forced cuts genuinely need the floor or a later merge may hoist a
	// dependent above it and predict an illegal start.
	relAbs []int

	emitted []graph.NodeID
	carried []graph.NodeID // the carried suffix, in schedule order

	oldMakespan int
	timeBase    int

	logFloors bool
	floorLog  []floorWrite

	// Per-block scratch.
	step    Step
	stepIn  StepIn
	sub     graph.Sub
	byBlock []graph.NodeID
	iota    []graph.NodeID // 0, 1, 2, …; see identity
	ids     []graph.NodeID // view ID → walk ID of an induced view
	isOld   []bool
	dv      []int // per-view carried deadlines handed to Step
	fv      []int // per-view carried finishes handed to Step
	rv      []int // per-view carried releases handed to Step

	blockOff []int
}

// floorWrite is one logged release-floor update (absolute value in the
// writer's own frame); the splice replays the log into the driver's state
// shifted by the join delta.
type floorWrite struct {
	dst graph.NodeID
	r   int
}

// init binds the walk to view and resets it to the empty entry state (no
// suffix, zero floors, time base zero, unbounded lookahead). w.byBlock is
// left holding the identity permutation.
func (w *traceWalk) init(view graph.AdjView, m *machine.Machine, opt *Options, gr *blockGroups) {
	n := view.N
	w.view, w.m = view, m
	w.sc, w.skip, w.groups = opt.StepCache, opt.SkipDelay, gr
	w.tr, w.budget = opt.Tracer, opt.Budget
	w.k = Unbounded
	w.byBlock = growSlice(w.byBlock, n)
	for i := range w.byBlock {
		w.byBlock[i] = graph.NodeID(i)
	}
	w.absStart = growSlice(w.absStart, n)
	w.absUnit = growSlice(w.absUnit, n)
	for i := range w.absStart {
		w.absStart[i] = sched.Unassigned
		w.absUnit[i] = sched.Unassigned
	}
	w.dOld = growSlice(w.dOld, n)
	w.fOld = growSlice(w.fOld, n)
	w.relAbs = growSlice(w.relAbs, n)
	clear(w.relAbs)
	w.emitted = w.emitted[:0]
	w.carried = w.carried[:0]
	w.oldMakespan = 0
	w.timeBase = 0
	w.logFloors = false
	w.floorLog = w.floorLog[:0]
}

// block advances the walk by one block: newIDs are block b's nodes in
// ascending ID order. The block is merged with the carried suffix — as the
// bound view itself when old ∪ new covers it (every stream push), else as an
// induced view of it — the Step outcome's prefix is committed at absolute
// times, the lookahead's forced cut commits what k no longer covers, and the
// rest is carried into the next chop frame.
func (w *traceWalk) block(newIDs []graph.NodeID, b int) error {
	if err := w.budget.Check(); err != nil {
		return err
	}
	old := w.carried
	n := len(old) + len(newIDs)
	view, dOld, fOld := w.view, w.dOld, w.fOld
	ids := w.identity(n)
	w.isOld = growSlice(w.isOld, n)
	isOld := w.isOld
	clear(isOld)
	if n == view.N {
		// Whole view: view IDs are walk IDs, so no induced copy, sort or
		// carried-state gather.
		for _, id := range old {
			isOld[id] = true
		}
	} else {
		// cur = old ∪ new (ascending IDs; old and new are disjoint).
		w.ids = growSlice(w.ids, n)
		ids = w.ids
		copy(ids, old)
		copy(ids[len(old):], newIDs)
		slices.Sort(ids)
		w.sub.Init(view, ids)
		view = w.sub.View()
		for _, id := range old {
			isOld[w.sub.ToSub(id)] = true
		}
		w.dv = growSlice(w.dv, n)
		w.fv = growSlice(w.fv, n)
		dOld, fOld = w.dv, w.fv
		for si, id := range ids {
			if isOld[si] {
				dOld[si] = w.dOld[id]
				fOld[si] = w.fOld[id]
			}
		}
	}
	w.rv = growSlice(w.rv, n)
	for si, id := range ids {
		w.rv[si] = w.relAbs[id] - w.timeBase
	}
	w.stepIn = StepIn{
		View: view, M: w.m, IsOld: isOld,
		DOld: dOld, FOld: fOld, ROld: w.rv,
		OldCount: len(old), OldMakespan: w.oldMakespan,
		Block: b, SkipDelay: w.skip,
		Tracer: w.tr, Budget: w.budget,
	}
	out, err := w.step.RunMemo(&w.stepIn, w.sc)
	if err != nil {
		return err
	}
	s := out.S
	// Force-finalize what the lookahead no longer covers: every block that
	// arrived k or more blocks ago must leave the suffix, so the cut extends
	// to the last finish time of any such straggler (committing newer nodes
	// scheduled before it — a quality concession, never a correctness one:
	// the committed set stays a prefix of the schedule's time order, like
	// any chop). A forced cut has no idle slot granting slack, so even
	// 0/1-latency streams can owe a positive release floor after it.
	cut := -1
	if w.k != Unbounded {
		for _, si := range out.Plus {
			if int(view.Block[si]) <= b-w.k {
				cut = max(cut, s.Finish(si))
			}
		}
	}
	base := max(out.Base, cut)
	for _, si := range out.Minus {
		w.commit(ids[si], s.Start[si], s.Unit[si])
	}
	w.carried = w.carried[:0]
	for _, si := range out.Plus {
		oi := ids[si]
		if s.Finish(si) <= cut {
			w.commit(oi, s.Start[si], s.Unit[si])
			continue
		}
		w.carried = append(w.carried, oi)
		w.dOld[oi] = out.D[si] - base
		w.fOld[oi] = s.Finish(si) - base
		// Tentative placement; overwritten if a later merge reorders it.
		w.absStart[oi] = s.Start[si] + w.timeBase
		w.absUnit[oi] = s.Unit[si]
	}
	w.oldMakespan = s.Makespan() - base
	w.timeBase += base
	return nil
}

// identity returns the IDs 0, 1, …, n−1. The buffer behind it is only ever
// extended, never rewritten, so the slice stays valid across calls.
func (w *traceWalk) identity(n int) []graph.NodeID {
	if len(w.iota) < n {
		w.iota = make([]graph.NodeID, n)
		for i := range w.iota {
			w.iota[i] = graph.NodeID(i)
		}
	}
	return w.iota[:n]
}

// commit finalizes walk node v at frame-relative start on unit. Its
// out-edges vanish from every later view, so their latency lower bounds are
// recorded as absolute releases on their destinations in the bound view —
// carried nodes and, on a batch walk, nodes of blocks not walked yet alike
// (a stream's later blocks read theirs from its finish ledger).
func (w *traceWalk) commit(v graph.NodeID, start, unit int) {
	w.emitted = append(w.emitted, v)
	w.absStart[v] = start + w.timeBase
	w.absUnit[v] = unit
	f := w.absStart[v] + int(w.view.Exec[v])
	for ei := w.view.Off[v]; ei < w.view.Off[v+1]; ei++ {
		dst := w.view.Dst[ei]
		if r := f + int(w.view.Lat[ei]); r > w.relAbs[dst] {
			w.relAbs[dst] = r
			if w.logFloors {
				w.floorLog = append(w.floorLog, floorWrite{dst: dst, r: r})
			}
		}
	}
}

// flush emits the carried suffix at its tentative placement — the batch
// walk's trailing emission — and starts the next frame after it.
func (w *traceWalk) flush() {
	w.emitted = append(w.emitted, w.carried...)
	w.carried = w.carried[:0]
	w.timeBase += w.oldMakespan
	w.oldMakespan = 0
}

// rebind moves a stream walk onto its next live window of n nodes. remap
// maps each previous walk ID to its new one, or −1 for a node that left the
// window; it is ascending with remap[v] ≤ v, so the carried state moves in
// place. The IDs past the kept nodes start with no release floor.
func (w *traceWalk) rebind(n int, remap []int32) {
	for v, nv := range remap {
		if nv >= 0 {
			w.absStart[nv], w.absUnit[nv] = w.absStart[v], w.absUnit[v]
			w.dOld[nv], w.fOld[nv] = w.dOld[v], w.fOld[v]
			w.relAbs[nv] = w.relAbs[v]
		}
	}
	for i, v := range w.carried {
		w.carried[i] = graph.NodeID(remap[v])
	}
	w.absStart = growKeep(w.absStart, n)
	w.absUnit = growKeep(w.absUnit, n)
	w.dOld = growKeep(w.dOld, n)
	w.fOld = growKeep(w.fOld, n)
	w.relAbs = growKeep(w.relAbs, n)
	clear(w.relAbs[len(w.carried):])
	// A block commits at most its whole view: size the commit list once.
	if cap(w.emitted) < n {
		w.emitted = make([]graph.NodeID, 0, n)
	}
}

// result ends a complete walk: the last carried suffix is emitted as
// scheduled, and the placements are packaged into the Result.
func (w *traceWalk) result(g *graph.Graph) (*Result, error) {
	w.flush()
	n := g.Len()
	if len(w.emitted) != n {
		return nil, fmt.Errorf("core: emitted %d of %d instructions", len(w.emitted), n)
	}
	final := sched.New(g, w.m)
	copy(final.Start, w.absStart)
	copy(final.Unit, w.absUnit)
	out := &Result{Order: append([]graph.NodeID(nil), w.emitted...), S: final}
	// BlockOrders: one presized map plus a single backing array carved into
	// per-block subslices (counting pass, then append into fixed-cap
	// windows), instead of per-block append-grown values.
	block := w.view.Block
	maxBlock := 0
	for _, bb := range block {
		maxBlock = max(maxBlock, int(bb))
	}
	w.blockOff = growSlice(w.blockOff, maxBlock+1)
	cnt := w.blockOff
	clear(cnt)
	nblocks := 0
	for _, id := range w.emitted {
		bb := block[id]
		cnt[bb]++
		if cnt[bb] == 1 {
			nblocks++
		}
	}
	backing := make([]graph.NodeID, n)
	out.BlockOrders = make(map[int][]graph.NodeID, nblocks)
	off := 0
	for bb := 0; bb <= maxBlock; bb++ {
		if cnt[bb] == 0 {
			continue
		}
		out.BlockOrders[bb] = backing[off : off : off+cnt[bb]]
		off += cnt[bb]
	}
	for _, id := range w.emitted {
		bb := int(block[id])
		out.BlockOrders[bb] = append(out.BlockOrders[bb], id)
	}
	return out, nil
}

// chop is the one-shot form of chopScratch.chop, returning caller-owned
// slices; the merge loop goes through its pooled scratch instead.
func chop(s *sched.Schedule, w int) (minus, plus []graph.NodeID, base int) {
	var cs chopScratch
	minus, plus, base = cs.chop(s, w)
	return append([]graph.NodeID(nil), minus...), append([]graph.NodeID(nil), plus...), base
}

// chopScratch holds Chop's reusable buffers: the permutation, the per-cycle
// busy-unit counts, and the prefix/suffix output slices (valid until the
// next call).
type chopScratch struct {
	perm      []graph.NodeID
	busyCount []int
	minus     []graph.NodeID
	plus      []graph.NodeID
}

// chop implements procedure Chop (paper Figure 6): split s at the last idle
// slot t_j "prior to the last W nodes", i.e. the last slot with at least W
// instructions after it. A slot with fewer than W followers is still
// reachable by a next-block instruction at run time (the inversion would
// span followers+1 ≤ W positions), so committing it would forfeit
// optimality; a slot with ≥ W followers can never be filled across the
// block boundary. Returns the prefix and suffix as subgraph IDs in
// schedule-permutation order, and the time base (t_j + 1) by which suffix
// deadlines must be rebased. When s has no idle slot, fewer than W
// instructions, or no qualifying slot, the prefix is empty and everything
// is carried forward (base 0). The returned slices alias the scratch.
func (cs *chopScratch) chop(s *sched.Schedule, w int) (minus, plus []graph.NodeID, base int) {
	// The permutation, built in place: assigned nodes ordered by (start,
	// unit). (start, unit) pairs are distinct, so the comparator is a total
	// order and any sorting algorithm yields the same permutation.
	perm := cs.perm[:0]
	for v := 0; v < s.Len(); v++ {
		if s.Start[v] != sched.Unassigned {
			perm = append(perm, graph.NodeID(v))
		}
	}
	cs.perm = perm
	slices.SortFunc(perm, func(a, b graph.NodeID) int {
		if s.Start[a] != s.Start[b] {
			return s.Start[a] - s.Start[b]
		}
		return s.Unit[a] - s.Unit[b]
	})
	if len(perm) < w {
		return nil, perm, 0
	}
	// A cycle t < makespan holds an idle slot iff fewer than all units are
	// busy at t; how many units are idle there does not matter to Chop, so
	// per-cycle busy counts replace the materialised idle-slot list.
	T := s.Makespan()
	total := s.M.TotalUnits()
	cs.busyCount = growSlice(cs.busyCount, T)
	busyCount := cs.busyCount
	clear(busyCount)
	for _, id := range perm {
		for t, f := s.Start[id], s.Finish(id); t < f && t < T; t++ {
			busyCount[t]++
		}
	}
	// perm is sorted by start time, so the follower count of a slot is a
	// binary search away; no per-slot rescan of the permutation. The
	// follower count is nonincreasing in t, so the first qualifying slot of
	// a descending scan is the last qualifying slot overall.
	j := -1
	for t := T - 1; t >= 0; t-- {
		if busyCount[t] >= total {
			continue
		}
		lo := sort.Search(len(perm), func(i int) bool { return s.Start[perm[i]] > t })
		if len(perm)-lo >= w {
			j = t
			break
		}
	}
	if j < 0 {
		return nil, perm, 0
	}
	cs.minus = cs.minus[:0]
	cs.plus = cs.plus[:0]
	for _, id := range perm {
		if s.Finish(id) <= j {
			cs.minus = append(cs.minus, id)
		} else {
			cs.plus = append(cs.plus, id)
		}
	}
	if len(cs.minus) == 0 {
		return nil, perm, 0
	}
	return cs.minus, cs.plus, j + 1
}
