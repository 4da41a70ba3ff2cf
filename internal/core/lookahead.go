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
// The merge loop is built on flat graph views: the trace graph is flattened
// into a CSR once per call, each block's old ∪ new subgraph is an induced
// view (graph.Sub) with a dense remap array instead of a rebuilt *Graph, and
// one reusable rank context is Reset per view — so the per-block loop
// allocates only the schedules it keeps.
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
	"aisched/internal/sbudget"
	"aisched/internal/sched"
)

// laScratch pools Algorithm Lookahead's per-call buffers — whole-trace
// arrays (tie positions, stitched absolute schedule, dense carried deadlines,
// block grouping), the per-block merge state (induced view, rank context,
// deadline/rank/tie/mask scratch) and the chop scratch — so batch pipelines
// that schedule many traces concurrently reuse them per worker instead of
// reallocating per call. The final Result copies out of everything pooled,
// so nothing pooled escapes.
type laScratch struct {
	tiePos   []int
	absStart []int
	absUnit  []int
	dOld     []int // carried-suffix deadlines, dense by original node ID
	fOld     []int // carried-suffix finish times, dense by original node ID
	relAbs   []int // absolute release times, dense by original node ID
	byBlock  []graph.NodeID

	step   Step
	stepIn StepIn
	sub    graph.Sub

	ids       []graph.NodeID
	oldIDs    []graph.NodeID
	plusOrder []graph.NodeID
	emitted   []graph.NodeID
	tie       []graph.NodeID
	isOld     []bool
	dv        []int // per-view carried deadlines handed to Step
	fv        []int // per-view carried finishes handed to Step
	rv        []int // per-view carried releases handed to Step

	blockOff []int
}

var laPool = sync.Pool{New: func() any { return new(laScratch) }}

func (st *laScratch) grow(n int) {
	if cap(st.tiePos) < n {
		st.tiePos = make([]int, n)
		st.absStart = make([]int, n)
		st.absUnit = make([]int, n)
		st.dOld = make([]int, n)
		st.fOld = make([]int, n)
		st.relAbs = make([]int, n)
		st.byBlock = make([]graph.NodeID, n)
	}
}

// growSlice returns buf resized to n, reusing its backing when possible.
// Contents are unspecified; callers initialise what they read.
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// growBits returns a zeroed n-bit bitset, reusing b's backing when possible.
func growBits(b graph.Bitset, n int) graph.Bitset {
	w := (n + 63) / 64
	if cap(b) < w {
		return make(graph.Bitset, w)
	}
	b = b[:w]
	clear(b)
	return b
}

// Options tunes Algorithm Lookahead.
type Options struct {
	// Tie is the rank tie-break order in original node IDs (nil = program
	// order). Used to reproduce the paper's worked examples exactly.
	Tie []graph.NodeID
	// SkipDelay disables the Delay_Idle_Slots pass (ablation experiment T2).
	SkipDelay bool
	// Tracer, when non-nil, receives structured pass events: one
	// pass-start/pass-end pair for the whole algorithm, and per block a
	// KindMergeLoosen event for each deadline-loosening round of merge, a
	// KindMerge event for the merged schedule, the Delay_Idle_Slots events
	// (see idle.DelayIdleSlotsT), and a KindChop event with the committed
	// prefix, the carried-suffix size, and the chop time base.
	Tracer obs.Tracer
	// Budget, when non-nil, makes the per-block loop and every rank pass a
	// cooperative cancellation/budget checkpoint: the algorithm returns the
	// checkpoint's error (context cancellation or sbudget.ErrExhausted)
	// instead of a result.
	Budget *sbudget.State
	// StepCache, when non-nil, memoizes whole merge + delay + chop iterations
	// keyed by structural fingerprints and replays hits as relocatable
	// fragments (see stepcache.go). It engages only on canonical-layout
	// iterations — no custom Tie, every carried ID below every new ID (always
	// true for block-grouped traces) — and is bypassed transparently
	// otherwise. Results are bit-identical with and without it.
	StepCache *StepCache
	// Parallel selects the speculative parallel trace path (parallel.go).
	// 0 (the default) is auto: long block-grouped traces are partitioned
	// into speculatively scheduled segments when GOMAXPROCS ≥ 2 and no
	// Tie/Tracer/Budget is set. Negative disables the parallel path
	// entirely; positive forces that many segments even on one CPU (tests
	// use this to exercise every partition width). Results are bit-identical
	// to the sequential walk in every mode — speculation is verified by
	// state fingerprint at each join and recomputed sequentially on any
	// mismatch.
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
	tr := opt.Tracer
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassStart, Pass: obs.PassLookahead,
			Block: -1, Node: graph.None, N: g.Len()})
	}
	n := g.Len()
	csr := graph.NewCSR(g)

	// Long block-grouped traces with no per-call hooks take the speculative
	// parallel path; everything else runs the sequential walk below. The
	// plan gate is ordered cheapest-first, so a small trace pays one integer
	// compare here.
	if plan := parallelPlan(csr, &opt); plan != nil {
		return lookaheadParallel(g, m, opt, csr, plan)
	}

	scratch := laPool.Get().(*laScratch)
	defer laPool.Put(scratch)
	var w traceWalk
	w.init(csr, m, &opt, nil, scratch)

	// Group nodes by block with a stable sort of the identity permutation:
	// within each block IDs stay ascending, and blocks are visited in
	// ascending order, robust to sparse or interleaved block numbering.
	byBlock := scratch.byBlock[:n]
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
	out, err := w.result(g)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassEnd, Pass: obs.PassLookahead,
			Block: -1, Node: graph.None, N: out.Makespan()})
	}
	return out, nil
}

// traceWalk is the per-block walk of Algorithm Lookahead: merge + delay +
// chop for one block at a time, carrying the suffix state between blocks.
// The sequential path drives it over LookaheadOpts's block grouping; the
// parallel driver and every speculative worker drive it over ranges of the
// same block groups from different entry states (parallel.go).
type traceWalk struct {
	scratch *laScratch
	csr     *graph.CSR
	gview   graph.AdjView
	m       *machine.Machine
	sc      *StepCache
	skip    bool
	tiePos  []int // tie positions by original ID; nil = identity (program order)
	tr      obs.Tracer
	budget  *sbudget.State
	groups  *blockGroups // the parallel path's group table (nil on the sequential path)

	// Stitched absolute schedule: frames advance by each chop's base.
	absStart []int
	absUnit  []int
	dOld     []int // carried-suffix deadlines, dense by original ID
	fOld     []int // carried-suffix finish times, dense by original ID
	// relAbs[v] is the absolute earliest start owed to v by latencies of
	// already-committed predecessors. Chop commits a prefix and drops its
	// nodes — and their out-edges — from every later view, so each committed
	// node's latencies are recorded here and handed to the later merges as
	// frame-relative release times. In the restricted model (0/1 latencies)
	// the chop's idle slot provides exactly the needed slack and every
	// release is stale by construction; longer latencies (§4.2 machines)
	// genuinely need the floor or a later merge may hoist a dependent above
	// it and predict an illegal start.
	relAbs []int

	emitted   []graph.NodeID
	oldIDs    []graph.NodeID // original IDs carried forward
	plusOrder []graph.NodeID // S+ of the most recent iteration, original IDs
	// maxOld is the largest carried ID. The step cache requires the carried
	// suffix to occupy the view's ID prefix — every carried ID below every
	// new one — so the canonical-layout gate is O(1) per block.
	maxOld graph.NodeID

	oldMakespan int
	timeBase    int

	logFloors bool
	floorLog  []floorWrite
}

// floorWrite is one logged release-floor update (absolute value in the
// writer's own frame); the splice replays the log into the driver's state
// shifted by the join delta.
type floorWrite struct {
	dst graph.NodeID
	r   int
}

// init binds the walk to a pooled scratch and resets it to the empty entry
// state (no suffix, zero floors, time base zero). scratch.byBlock is left
// holding the identity permutation.
func (w *traceWalk) init(csr *graph.CSR, m *machine.Machine, opt *Options, gr *blockGroups, scratch *laScratch) {
	n := csr.Len()
	scratch.grow(n)
	w.scratch, w.csr, w.m = scratch, csr, m
	w.sc, w.skip, w.groups = opt.StepCache, opt.SkipDelay, gr
	w.tr, w.budget = opt.Tracer, opt.Budget
	w.tiePos = nil
	if opt.Tie != nil {
		w.tiePos = scratch.tiePos[:n]
		for i, id := range opt.Tie {
			w.tiePos[id] = i
		}
	}
	w.gview = csr.View()
	byBlock := scratch.byBlock[:n]
	for i := range byBlock {
		byBlock[i] = graph.NodeID(i)
	}
	w.absStart = scratch.absStart[:n]
	w.absUnit = scratch.absUnit[:n]
	for i := range w.absStart {
		w.absStart[i] = sched.Unassigned
		w.absUnit[i] = sched.Unassigned
	}
	w.dOld = scratch.dOld[:n]
	w.fOld = scratch.fOld[:n]
	w.relAbs = scratch.relAbs[:n]
	clear(w.relAbs)
	w.emitted = scratch.emitted[:0]
	w.oldIDs = scratch.oldIDs[:0]
	w.plusOrder = scratch.plusOrder[:0]
	w.maxOld = graph.NodeID(-1)
	w.oldMakespan = 0
	w.timeBase = 0
	w.logFloors = false
	w.floorLog = w.floorLog[:0]
	// A pooled Step may carry a stale suffix fingerprint from its previous
	// owner; RunMemo re-establishes it at the first empty-suffix merge.
	scratch.step.suffOK = false
}

// block advances the walk by one block: newIDs are block b's nodes in
// ascending ID order. The block is merged with the carried suffix as an
// induced view of the trace CSR, the Step outcome's prefix is committed at
// absolute times, and its suffix is carried into the next chop frame.
func (w *traceWalk) block(newIDs []graph.NodeID, b int) error {
	if err := w.budget.Check(); err != nil {
		return err
	}
	scratch := w.scratch
	// cur = old ∪ new (ascending IDs; old and new are disjoint).
	ids := append(scratch.ids[:0], w.oldIDs...)
	ids = append(ids, newIDs...)
	scratch.ids = ids
	slices.Sort(ids)
	scratch.sub.Init(w.csr, ids)
	sn := scratch.sub.Len()

	scratch.isOld = growSlice(scratch.isOld, sn)
	isOld := scratch.isOld
	clear(isOld)
	for _, id := range w.oldIDs {
		isOld[scratch.sub.ToSub(id)] = true
	}
	if w.tiePos != nil {
		scratch.tie = subTieInto(scratch.tie, ids, w.tiePos)
	} else {
		scratch.tie = growSlice(scratch.tie, sn)
		for i := range scratch.tie {
			scratch.tie[i] = graph.NodeID(i)
		}
	}
	scratch.dv = growSlice(scratch.dv, sn)
	scratch.fv = growSlice(scratch.fv, sn)
	scratch.rv = growSlice(scratch.rv, sn)
	for si := 0; si < sn; si++ {
		if isOld[si] {
			scratch.dv[si] = w.dOld[ids[si]]
			scratch.fv[si] = w.fOld[ids[si]]
		}
		scratch.rv[si] = w.relAbs[ids[si]] - w.timeBase
	}
	scratch.stepIn = StepIn{
		View: scratch.sub.View(), M: w.m, Tie: scratch.tie, IsOld: isOld,
		DOld: scratch.dv, FOld: scratch.fv, ROld: scratch.rv,
		OldCount: len(w.oldIDs), OldMakespan: w.oldMakespan,
		Block: b, SkipDelay: w.skip,
		Tracer: w.tr, Budget: w.budget,
	}
	canon := w.tiePos == nil && (len(w.oldIDs) == 0 || w.maxOld < newIDs[0])
	out, err := scratch.step.RunMemo(&scratch.stepIn, w.sc, canon)
	if err != nil {
		return err
	}
	s, d := out.S, out.D
	for _, si := range out.Minus {
		oi := ids[si]
		w.emitted = append(w.emitted, oi)
		w.absStart[oi] = s.Start[si] + w.timeBase
		w.absUnit[oi] = s.Unit[si]
		// The committed node's out-edges vanish from every later view;
		// record their latency lower bounds as absolute releases on the
		// destinations — carried nodes and nodes of blocks that have not
		// even arrived yet alike.
		f := w.absStart[oi] + int(w.gview.Exec[oi])
		for ei := w.gview.Off[oi]; ei < w.gview.Off[oi+1]; ei++ {
			if r := f + int(w.gview.Lat[ei]); r > w.relAbs[w.gview.Dst[ei]] {
				w.relAbs[w.gview.Dst[ei]] = r
				if w.logFloors {
					w.floorLog = append(w.floorLog, floorWrite{dst: w.gview.Dst[ei], r: r})
				}
			}
		}
	}
	w.oldIDs = w.oldIDs[:0]
	w.plusOrder = w.plusOrder[:0]
	w.maxOld = graph.NodeID(-1)
	for _, si := range out.Plus {
		oi := ids[si]
		w.oldIDs = append(w.oldIDs, oi)
		w.maxOld = max(w.maxOld, oi)
		w.dOld[oi] = d[si] - out.Base
		w.fOld[oi] = s.Finish(si) - out.Base
		w.plusOrder = append(w.plusOrder, oi)
		// Tentative placement; overwritten if a later merge reorders it.
		w.absStart[oi] = s.Start[si] + w.timeBase
		w.absUnit[oi] = s.Unit[si]
	}
	w.oldMakespan = s.Makespan() - out.Base
	w.timeBase += out.Base
	return nil
}

// finish returns the walk's grown buffers to the scratch for pooling.
func (w *traceWalk) finish() {
	w.scratch.emitted = w.emitted[:0]
	w.scratch.oldIDs = w.oldIDs[:0]
	w.scratch.plusOrder = w.plusOrder[:0]
}

// result ends a complete walk: the last carried suffix is emitted as
// scheduled, and the placements are packaged into the Result.
func (w *traceWalk) result(g *graph.Graph) (*Result, error) {
	w.emitted = append(w.emitted, w.plusOrder...)
	w.finish()
	return assembleResult(g, w.m, w.csr, w.scratch, w.emitted, w.absStart, w.absUnit)
}

// assembleResult packages a completed walk's absolute placements and
// emission order into a Result.
func assembleResult(g *graph.Graph, m *machine.Machine, csr *graph.CSR,
	scratch *laScratch, emitted []graph.NodeID, absStart, absUnit []int) (*Result, error) {
	n := g.Len()
	if len(emitted) != n {
		return nil, fmt.Errorf("core: emitted %d of %d instructions", len(emitted), n)
	}
	final := sched.New(g, m)
	copy(final.Start, absStart)
	copy(final.Unit, absUnit)
	out := &Result{Order: append([]graph.NodeID(nil), emitted...), S: final}
	// BlockOrders: one presized map plus a single backing array carved into
	// per-block subslices (counting pass, then append into fixed-cap
	// windows), instead of per-block append-grown values.
	maxBlock := 0
	for v := 0; v < n; v++ {
		if bb := csr.Block(graph.NodeID(v)); bb > maxBlock {
			maxBlock = bb
		}
	}
	scratch.blockOff = growSlice(scratch.blockOff, maxBlock+1)
	cnt := scratch.blockOff
	clear(cnt)
	nblocks := 0
	for _, id := range emitted {
		bb := csr.Block(id)
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
	for _, id := range emitted {
		bb := csr.Block(id)
		out.BlockOrders[bb] = append(out.BlockOrders[bb], id)
	}
	return out, nil
}

// subTie converts the original-ID tie positions into a tie order over the
// subgraph's IDs.
func subTie(ids []graph.NodeID, tiePos []int) []graph.NodeID {
	return subTieInto(nil, ids, tiePos)
}

// subTieInto is subTie into a reusable buffer.
func subTieInto(order []graph.NodeID, ids []graph.NodeID, tiePos []int) []graph.NodeID {
	order = growSlice(order, len(ids))
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	slices.SortStableFunc(order, func(a, b graph.NodeID) int {
		return tiePos[ids[a]] - tiePos[ids[b]]
	})
	return order
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
