package core

// Speculative parallel trace scheduling: fingerprint-verified segment
// speculation plus a pipelined per-block precompute stage.
//
// Algorithm Lookahead is inherently sequential — block i's merge consumes
// the carried suffix emitted by block i−1 — so single-trace latency scales
// linearly with trace length on one core no matter how fast the per-block
// step gets. This file breaks that chain for long traces without giving up
// bit-identical output:
//
//  1. A parallel precompute stage builds the per-block artifacts that
//     depend only on the block, never on the carried suffix — the block
//     group table (contiguous node ranges), a relocatable 128-bit content
//     hash per block (exec/class/intra-edges in block-local IDs, the same
//     structural identity the step cache keys on), and baseline per-block
//     ranks (an intra-block longest-path relaxation) whose depth/size ratio
//     scores how "barrier-like" a block is — across GOMAXPROCS workers
//     before the merge walk starts.
//
//  2. The trace is partitioned into segments at candidate cut points
//     chosen at barrier-scored blocks. Each speculative worker schedules
//     its segment under an ASSUMED carried-suffix state and zero release
//     floors: lane A starts from the empty suffix a couple of blocks early
//     (warm-up blocks whose output is discarded — at a natural barrier the
//     carried state converges to a history-independent, frame-relative
//     pattern by the time the worker reaches its cut); lane B, when the
//     step cache holds a join hint for a structurally identical cut
//     neighborhood (repetitive traces), seeds the suffix state — including
//     the step cache's stored suffix fingerprint — directly from the hint
//     and skips the warm-up.
//
//  3. At each join the driver verifies the speculation in O(suffix +
//     cross-cut floors), which is O(1) per block: the actual carried-suffix
//     structural fingerprint (node identities, frame-relative deadlines and
//     finish times, clamped release floors, carried makespan) must equal
//     the worker's assumed entry fingerprint, and the release floors owed
//     to the segment's nodes must agree after rebasing (sched.ReleasesEqual
//     — floors at or below the frame base are inert on both sides because
//     Step.Run clamps them to zero and the step key hashes only positive
//     floors). On a match the speculated fragments are accepted wholesale:
//     by the same purity argument that gates Step.RunMemo, identical view
//     content + identical frame-relative carried state + identical clamped
//     floors make every subsequent StepIn — and therefore every StepOut —
//     bit-identical, so the worker's committed placements are the sequential
//     walk's placements shifted by one uniform time delta. On a mismatch the
//     driver recomputes the segment sequentially from its true state (the
//     worker's step-cache insertions still make that recompute cheap).
//
// The parallel path engages only where it is provably transparent: no
// custom Tie (the walk assumes the identity tie-break), no Tracer (workers
// emit no events and event order would be meaningless), no Budget
// (speculative passes must not charge a request's rank-pass budget, and a
// cancellable request keeps the fully-checkpointed sequential path), and
// node IDs grouped by block in ascending order (segments are contiguous ID
// ranges — the same canonical-layout property the step cache requires).
// Everything else falls through to the sequential walk unchanged.

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"aisched/internal/faultinject"
	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/metrics"
	"aisched/internal/sched"
)

// Speculation telemetry: always-on process-wide counters, exported through
// internal/metrics like every other engine counter. SpecCounters snapshots
// them for the CLI's per-run printout.
var (
	mSpecRuns = metrics.Default.NewCounter("aisched_spec_runs_total",
		"ScheduleTrace calls that took the speculative parallel path")
	mSpecSegments = metrics.Default.NewCounter("aisched_spec_segments_total",
		"trace segments scheduled speculatively by parallel workers")
	mSpecHits = metrics.Default.NewCounter("aisched_spec_hits_total",
		"speculated segments whose assumed entry state verified at the join (accepted wholesale)")
	mSpecMisses = metrics.Default.NewCounter("aisched_spec_misses_total",
		"speculated segments rejected at the join (entry state mismatch; recomputed sequentially)")
	mSpecFallbackBlocks = metrics.Default.NewCounter("aisched_spec_fallback_blocks_total",
		"blocks recomputed sequentially after a rejected speculation")
	mSpecLaneB = metrics.Default.NewCounter("aisched_spec_laneb_total",
		"speculative segments seeded from a stored join hint (repetitive-trace lane)")
)

// SpecStats is a snapshot of the speculative trace scheduler's process-wide
// counters (see SpecCounters).
type SpecStats struct {
	// Runs counts ScheduleTrace calls that took the parallel path.
	Runs uint64
	// Segments counts speculatively scheduled segments; Hits of them
	// verified at the join and were accepted wholesale, Misses were
	// rejected and recomputed (FallbackBlocks blocks in total).
	Segments, Hits, Misses, FallbackBlocks uint64
	// LaneB counts segments seeded from a stored join hint instead of the
	// cold warm-up lane.
	LaneB uint64
}

// SpecCounters snapshots the speculation counters. They are process-wide
// (metrics.Default), so callers wanting per-run numbers diff two snapshots.
func SpecCounters() SpecStats {
	return SpecStats{
		Runs:           mSpecRuns.Value(),
		Segments:       mSpecSegments.Value(),
		Hits:           mSpecHits.Value(),
		Misses:         mSpecMisses.Value(),
		FallbackBlocks: mSpecFallbackBlocks.Value(),
		LaneB:          mSpecLaneB.Value(),
	}
}

// Hash seeds for the speculation hash domains, disjoint from the step-cache
// seeds in stepcache.go by construction.
const (
	// specFPSeed seeds the carried-suffix state fingerprint compared at
	// every join.
	specFPSeed = 0x51e9cafe03
	// blockHashSeed seeds the per-block content hash of the precompute
	// stage.
	blockHashSeed = 0x51e9cafe04
	// hintKeySeed seeds the cut-neighborhood key of the join-hint table.
	hintKeySeed = 0x51e9cafe05
)

// Parallel-path tuning. The auto thresholds are deliberately conservative:
// below ~a hundred blocks the sequential walk finishes in tens of
// microseconds and goroutine fan-out is pure overhead (and the facade's
// benchmark workloads stay deterministically on the sequential path).
const (
	// parAutoMinGroups is the minimum block count for the auto (Parallel=0)
	// path.
	parAutoMinGroups = 96
	// parAutoGroupsPerSeg is the target segment length for auto partitioning.
	parAutoGroupsPerSeg = 32
	// parForcedMinGroups is the minimum block count when a worker count is
	// forced (Parallel>0) — tests use small traces to cover every width.
	parForcedMinGroups = 4
	// specWarmupGroups is lane A's warm-up: how many blocks before its cut a
	// worker starts merging from the empty suffix so the carried state can
	// converge before the segment proper begins.
	specWarmupGroups = 2
	// hintBackGroups / hintFwdGroups bound how far a join hint's suffix
	// nodes (backward) and entry floors (forward) may reach from the cut;
	// joins whose state reaches further are simply not stored.
	hintBackGroups = 4
	hintFwdGroups  = 4
	// hintMaxEntries bounds the join-hint table.
	hintMaxEntries = 1024
	// hintMaxSuffix / hintMaxFloors bound one hint's payload.
	hintMaxSuffix = 512
	hintMaxFloors = 128
	// hintMaxVal guards the int32 packing of hint payloads.
	hintMaxVal = 1 << 30
)

// blockGroups is the precompute stage's output: the trace's blocks as
// contiguous node ranges plus the per-block artifacts that depend only on
// the block.
type blockGroups struct {
	off       []int   // group g's nodes are IDs [off[g], off[g+1])
	blk       []int   // group g's block index
	nodeGroup []int32 // group index per node, dense by node ID

	hash  []graph.Hash128 // relocatable per-block content hash
	score []int64         // barrier score (higher = better cut-before point)
}

func (gr *blockGroups) ngroups() int { return len(gr.blk) }

// buildGroups scans the non-empty CSR's block assignment and returns the
// contiguous group table, or nil when node IDs are not grouped by block in
// ascending order (the parallel path's canonical-layout requirement) or
// there are fewer than minGroups groups. The groups are counted first
// without allocating, so a rejected trace costs one scan and nothing else.
func buildGroups(csr *graph.CSR, minGroups int) *blockGroups {
	n := csr.Len()
	ng, prev := 1, csr.Block(0)
	for v := 1; v < n; v++ {
		b := csr.Block(graph.NodeID(v))
		if b < prev {
			return nil
		}
		if b > prev {
			ng++
			prev = b
		}
	}
	if ng < minGroups {
		return nil
	}
	gr := &blockGroups{
		off:       make([]int, 1, ng+1),
		blk:       make([]int, 1, ng),
		nodeGroup: make([]int32, n),
	}
	prev = csr.Block(0)
	gr.blk[0] = prev
	for v := 1; v < n; v++ {
		if b := csr.Block(graph.NodeID(v)); b > prev {
			gr.off = append(gr.off, v)
			gr.blk = append(gr.blk, b)
			prev = b
		}
		gr.nodeGroup[v] = int32(len(gr.blk) - 1)
	}
	gr.off = append(gr.off, n)
	return gr
}

// precompute fills the per-block artifacts — content hash, baseline ranks'
// critical path, barrier score — fanning the blocks over GOMAXPROCS
// goroutines. Everything computed here depends only on the block itself, so
// the stage needs no coordination beyond an atomic work counter.
func (gr *blockGroups) precompute(view graph.AdjView) {
	ng := gr.ngroups()
	gr.hash = make([]graph.Hash128, ng)
	gr.score = make([]int64, ng)
	nw := runtime.GOMAXPROCS(0)
	if nw > ng {
		nw = ng
	}
	if nw < 1 {
		nw = 1
	}
	var next atomic.Int64
	done := make(chan struct{}, nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			var h graph.Hasher
			var rankBuf []int
			for {
				g := int(next.Add(1)) - 1
				if g >= ng {
					return
				}
				gr.hash[g], gr.score[g], rankBuf = precomputeGroup(view, gr.off[g], gr.off[g+1], &h, rankBuf)
			}
		}()
	}
	for w := 0; w < nw; w++ {
		<-done
	}
}

// precomputeGroup computes one block's content hash, baseline ranks, and
// barrier score. The hash covers node attributes and edges in block-local
// IDs (edges into following blocks as local source + forward offset), so
// structurally identical blocks at different trace positions hash equal —
// the same relocatability discipline as the step cache. The baseline rank
// of a node is its longest latency path from a block source (a forward
// relaxation over ascending IDs — exact for the generators' low-to-high
// edges, a fine heuristic otherwise, since scores only steer cut placement
// and never affect correctness); the barrier score prefers blocks whose
// critical path dominates their work (serial latency chains force a
// history-independent carried tail) and penalizes edges escaping the block
// (they become release floors that speculation must guess).
func precomputeGroup(view graph.AdjView, lo, hi int, h *graph.Hasher, rankBuf []int) (graph.Hash128, int64, []int) {
	size := hi - lo
	h.Reset(blockHashSeed)
	h.Int(size)
	for v := lo; v < hi; v++ {
		h.Int(int(view.Exec[v]))
		h.Int(int(view.Class[v]))
	}
	rankBuf = growSlice(rankBuf, size)
	ranks := rankBuf
	clear(ranks)
	cycles := 0
	depth := 0
	crossOut := 0
	for v := lo; v < hi; v++ {
		exec := int(view.Exec[v])
		cycles += exec
		if f := ranks[v-lo] + exec; f > depth {
			depth = f
		}
		for ei := view.Off[v]; ei < view.Off[v+1]; ei++ {
			dst := int(view.Dst[ei])
			lat := int(view.Lat[ei])
			switch {
			case dst >= lo && dst < hi:
				h.Int(v - lo)
				h.Int(dst - lo)
				h.Int(lat)
				if r := ranks[v-lo] + exec + lat; r > ranks[dst-lo] {
					ranks[dst-lo] = r
				}
			case dst >= hi:
				h.Int(v - lo)
				h.Int(-(dst - hi) - 1) // forward offset, kept disjoint from local IDs
				h.Int(lat)
				crossOut++
			default: // backward cross edge: structure only, not relocatable
				h.Int(v - lo)
				h.Int(-hintMaxVal)
				h.Int(lat)
				crossOut++
			}
		}
	}
	if cycles < 1 {
		cycles = 1
	}
	score := int64(depth)*1024/int64(cycles) - 512*int64(crossOut)
	return h.Sum(), score, rankBuf
}

// parPlan is one parallel run's partition: the group table and the cut
// points (group indices; segment k is groups [cuts[k], cuts[k+1])).
type parPlan struct {
	groups *blockGroups
	cuts   []int
}

// parallelPlan decides whether the parallel path applies and, if so, builds
// the partition. Returns nil to keep the sequential walk. The gates are
// ordered cheapest-first so the common small-trace call pays one integer
// compare and nothing else.
func parallelPlan(csr *graph.CSR, opt *Options) *parPlan {
	minGroups := parAutoMinGroups
	if opt.Parallel > 0 {
		minGroups = parForcedMinGroups
	}
	if opt.Parallel < 0 || csr.Len() < minGroups {
		return nil
	}
	if opt.Tie != nil || opt.Tracer != nil || opt.Budget != nil {
		return nil
	}
	procs := runtime.GOMAXPROCS(0)
	if opt.Parallel == 0 && procs < 2 {
		return nil
	}
	gr := buildGroups(csr, minGroups)
	if gr == nil {
		return nil
	}
	ng := gr.ngroups()
	nseg := procs
	if opt.Parallel > 0 {
		nseg = opt.Parallel
		if max := ng / 2; nseg > max {
			nseg = max
		}
	} else if max := ng / parAutoGroupsPerSeg; nseg > max {
		nseg = max
	}
	if nseg < 2 {
		return nil
	}
	gr.precompute(csr.View())
	cuts := chooseCuts(gr, nseg)
	if len(cuts) < 3 {
		return nil
	}
	return &parPlan{groups: gr, cuts: cuts}
}

// chooseCuts places nseg−1 cut points: each starts at the equal-partition
// boundary and snaps within a small window to the group with the best
// barrier score, so segments begin right after the most barrier-like block
// nearby. Returned as [0, c_1, …, ng]; degenerate windows drop their cut.
func chooseCuts(gr *blockGroups, nseg int) []int {
	ng := gr.ngroups()
	snap := ng / (4 * nseg)
	if snap > 8 {
		snap = 8
	}
	cuts := make([]int, 0, nseg+1)
	cuts = append(cuts, 0)
	for i := 1; i < nseg; i++ {
		ideal := i * ng / nseg
		lo, hi := ideal-snap, ideal+snap
		if min := cuts[len(cuts)-1] + 2; lo < min {
			lo = min
		}
		if hi > ng-2 {
			hi = ng - 2
		}
		if lo > hi {
			continue
		}
		best := lo
		for c := lo + 1; c <= hi; c++ {
			// The barrier block is the one immediately before the cut.
			if gr.score[c-1] > gr.score[best-1] {
				best = c
			}
		}
		cuts = append(cuts, best)
	}
	cuts = append(cuts, ng)
	return cuts
}

// floorWrite is one logged release-floor update (absolute value in the
// writer's own frame); the splice replays the log into the driver's state
// shifted by the join delta.
type floorWrite struct {
	dst graph.NodeID
	r   int
}

// traceWalk is the reusable merge-walk engine extracted from the sequential
// LookaheadOpts loop: per-block merge + delay + chop over block groups,
// carrying the suffix state between blocks. The driver and every
// speculative worker run the same walk over different group ranges and
// entry states; LookaheadOpts's own loop stays the allocation-pinned
// sequential twin (the differential tests hold the two bit-identical).
type traceWalk struct {
	scratch *laScratch
	csr     *graph.CSR
	gview   graph.AdjView
	m       *machine.Machine
	sc      *StepCache
	skip    bool
	groups  *blockGroups

	absStart []int
	absUnit  []int
	dOld     []int
	fOld     []int
	relAbs   []int

	emitted   []graph.NodeID
	oldIDs    []graph.NodeID
	plusOrder []graph.NodeID
	maxOld    graph.NodeID

	oldMakespan int
	timeBase    int

	logFloors bool
	floorLog  []floorWrite
}

// init binds the walk to a pooled scratch and resets it to the empty entry
// state (no suffix, zero floors, time base zero).
func (w *traceWalk) init(csr *graph.CSR, m *machine.Machine, opt *Options, gr *blockGroups, scratch *laScratch) {
	n := csr.Len()
	scratch.grow(n)
	w.scratch, w.csr, w.m = scratch, csr, m
	w.sc, w.skip, w.groups = opt.StepCache, opt.SkipDelay, gr
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

// finish returns the walk's grown buffers to the scratch for pooling.
func (w *traceWalk) finish() {
	w.scratch.emitted = w.emitted[:0]
	w.scratch.oldIDs = w.oldIDs[:0]
	w.scratch.plusOrder = w.plusOrder[:0]
}

// runGroups advances the walk over block groups [gLo, gHi) — the exact
// per-block body of LookaheadOpts with the identity tie-break and no
// budget, both guaranteed by the parallel gates.
func (w *traceWalk) runGroups(gLo, gHi int) error {
	scratch := w.scratch
	gr := w.groups
	for gi := gLo; gi < gHi; gi++ {
		newIDs := scratch.byBlock[gr.off[gi]:gr.off[gi+1]]
		ids := append(scratch.ids[:0], w.oldIDs...)
		ids = append(ids, newIDs...)
		scratch.ids = ids
		slices.Sort(ids)
		scratch.sub.Init(w.csr, ids)
		sn := scratch.sub.Len()
		view := scratch.sub.View()

		scratch.isOld = growSlice(scratch.isOld, sn)
		isOld := scratch.isOld
		clear(isOld)
		for _, id := range w.oldIDs {
			isOld[scratch.sub.ToSub(id)] = true
		}
		scratch.tie = growSlice(scratch.tie, sn)
		tie := scratch.tie
		for i := range tie {
			tie[i] = graph.NodeID(i)
		}
		scratch.dv = growSlice(scratch.dv, sn)
		scratch.fv = growSlice(scratch.fv, sn)
		scratch.rv = growSlice(scratch.rv, sn)
		rv := scratch.rv
		for si := 0; si < sn; si++ {
			if isOld[si] {
				scratch.dv[si] = w.dOld[ids[si]]
				scratch.fv[si] = w.fOld[ids[si]]
			}
			rv[si] = w.relAbs[ids[si]] - w.timeBase
		}
		scratch.stepIn = StepIn{
			View: view, M: w.m, Tie: tie, IsOld: isOld,
			DOld: scratch.dv, FOld: scratch.fv, ROld: rv,
			OldCount: len(w.oldIDs), OldMakespan: w.oldMakespan,
			Block: gr.blk[gi], SkipDelay: w.skip,
		}
		canon := len(w.oldIDs) == 0 || w.maxOld < newIDs[0]
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
			if oi > w.maxOld {
				w.maxOld = oi
			}
			w.dOld[oi] = d[si] - out.Base
			w.fOld[oi] = s.Finish(si) - out.Base
			w.plusOrder = append(w.plusOrder, oi)
			w.absStart[oi] = s.Start[si] + w.timeBase
			w.absUnit[oi] = s.Unit[si]
		}
		w.oldMakespan = s.Makespan() - out.Base
		w.timeBase += out.Base
	}
	return nil
}

// stateFP fingerprints the walk's carried-suffix state in its canonical
// frame-relative form: suffix length, carried makespan, and per suffix node
// (in carry order) its identity, deadline, finish time, and clamped release
// floor. Two walks whose stateFP and segment release floors agree produce
// bit-identical continuations — the join verification's whole basis.
func (w *traceWalk) stateFP() graph.Hash128 {
	var h graph.Hasher
	h.Reset(specFPSeed)
	h.Int(len(w.plusOrder))
	h.Int(w.oldMakespan)
	for _, id := range w.plusOrder {
		h.Int(int(id))
		h.Int(w.dOld[id])
		h.Int(w.fOld[id])
		h.Int(sched.ClampRelease(w.relAbs[id], w.timeBase))
	}
	return h.Sum()
}

// specWorker is one speculative segment: a private walk over groups
// [gLo, gHi) under an assumed entry state, plus the snapshot of that
// assumption the driver verifies at the join.
type specWorker struct {
	walk    traceWalk
	scratch *laScratch
	gLo, gHi int

	entryFP  graph.Hash128
	cutBase  int
	entryRel []int // assumed absolute floors over the segment's node range

	laneB bool
	err   error
	done  chan struct{}
}

// run executes the speculation: lane B (hint-seeded) when the step cache
// knows this cut's neighborhood, lane A (empty suffix + warm-up) otherwise.
// Any panic becomes a per-segment error and a sequential recompute — one
// poisoned speculation never takes down the request.
func (wk *specWorker) run(csr *graph.CSR, m *machine.Machine, opt *Options, gr *blockGroups) {
	defer close(wk.done)
	defer func() {
		if p := recover(); p != nil {
			wk.err = fmt.Errorf("core: speculative segment panicked: %v", p)
		}
	}()
	wk.scratch = laPool.Get().(*laScratch)
	wk.walk.init(csr, m, opt, gr, wk.scratch)
	if !wk.seedFromHint() {
		gW := wk.gLo - specWarmupGroups
		if gW < 0 {
			gW = 0
		}
		if err := wk.walk.runGroups(gW, wk.gLo); err != nil {
			wk.err = err
			return
		}
	}
	// Snapshot the assumption the driver will verify: the suffix state
	// fingerprint, the frame base, and the floors assumed over the
	// segment's own nodes (warm-up commits write them; everything else is
	// zero). Then discard the warm-up output and schedule the segment.
	wk.entryFP = wk.walk.stateFP()
	wk.cutBase = wk.walk.timeBase
	lo, hi := gr.off[wk.gLo], gr.off[wk.gHi]
	wk.entryRel = append(wk.entryRel[:0], wk.walk.relAbs[lo:hi]...)
	wk.walk.emitted = wk.walk.emitted[:0]
	wk.walk.logFloors = true
	wk.err = wk.walk.runGroups(wk.gLo, wk.gHi)
}

// release returns the worker's scratch to the pool. Only called by the
// driver after the worker is done and its state fully consumed.
func (wk *specWorker) release() {
	wk.walk.finish()
	laPool.Put(wk.scratch)
	wk.scratch = nil
}

// lookaheadParallel is the speculative parallel driver: it schedules
// segment 0 itself while workers speculate segments 1..k, then joins them
// in order — verify, splice on match, recompute on mismatch — and
// assembles the same Result the sequential walk would have produced.
func lookaheadParallel(g *graph.Graph, m *machine.Machine, opt Options, csr *graph.CSR, plan *parPlan) (*Result, error) {
	mSpecRuns.Inc()
	gr := plan.groups
	nseg := len(plan.cuts) - 1

	workers := make([]*specWorker, nseg) // [0] stays nil: the driver owns segment 0
	for k := 1; k < nseg; k++ {
		wk := &specWorker{gLo: plan.cuts[k], gHi: plan.cuts[k+1], done: make(chan struct{})}
		workers[k] = wk
		go wk.run(csr, m, &opt, gr)
	}
	// Whatever happens below, every worker must finish and give its scratch
	// back before we return (they reference pooled state). The done receive
	// orders the driver's reads after all of the worker's writes.
	defer func() {
		for _, wk := range workers {
			if wk == nil {
				continue
			}
			<-wk.done
			if wk.scratch != nil {
				wk.release()
			}
		}
	}()

	scratch := laPool.Get().(*laScratch)
	defer laPool.Put(scratch)
	var drv traceWalk
	drv.init(csr, m, &opt, gr, scratch)
	if err := drv.runGroups(plan.cuts[0], plan.cuts[1]); err != nil {
		return nil, err
	}

	for k := 1; k < nseg; k++ {
		wk := workers[k]
		<-wk.done
		mSpecSegments.Inc()
		if wk.laneB {
			mSpecLaneB.Inc()
		}
		// The driver's state at this cut is ground truth: remember it as a
		// join hint so a structurally identical cut (same trace again, or a
		// repeated region) can seed lane B next time.
		if opt.StepCache != nil {
			opt.StepCache.putHint(&drv, gr, wk.gLo, wk.gHi)
		}
		accept := wk.err == nil
		if accept {
			if h := faultinject.SpecVerify; h != nil && h() {
				accept = false
			}
		}
		if accept {
			lo, hi := gr.off[wk.gLo], gr.off[wk.gHi]
			accept = drv.stateFP() == wk.entryFP &&
				sched.ReleasesEqual(drv.relAbs[lo:hi], drv.timeBase, wk.entryRel, wk.cutBase)
		}
		if accept {
			mSpecHits.Inc()
			drv.splice(wk)
		} else {
			mSpecMisses.Inc()
			mSpecFallbackBlocks.Add(uint64(wk.gHi - wk.gLo))
			if err := drv.runGroups(wk.gLo, wk.gHi); err != nil {
				return nil, err
			}
		}
		wk.release()
		workers[k] = nil
	}

	drv.emitted = append(drv.emitted, drv.plusOrder...)
	drv.finish()
	return assembleResult(g, m, csr, scratch, drv.emitted, drv.absStart, drv.absUnit)
}

// splice accepts a verified speculation wholesale: the worker's committed
// placements land shifted by the uniform join delta, its floor-write log
// max-merges into the driver's floors, and the driver adopts the worker's
// exit state (suffix, frame base, and the step cache's carried suffix
// fingerprint) as its own.
func (drv *traceWalk) splice(wk *specWorker) {
	w := &wk.walk
	delta := drv.timeBase - wk.cutBase
	for _, v := range w.emitted {
		drv.absStart[v] = w.absStart[v] + delta
		drv.absUnit[v] = w.absUnit[v]
	}
	drv.emitted = append(drv.emitted, w.emitted...)
	drv.oldIDs = append(drv.oldIDs[:0], w.oldIDs...)
	drv.plusOrder = append(drv.plusOrder[:0], w.plusOrder...)
	drv.maxOld = w.maxOld
	drv.oldMakespan = w.oldMakespan
	for _, id := range w.plusOrder {
		drv.dOld[id] = w.dOld[id]
		drv.fOld[id] = w.fOld[id]
		drv.absStart[id] = w.absStart[id] + delta
		drv.absUnit[id] = w.absUnit[id]
	}
	for _, fw := range w.floorLog {
		if r := fw.r + delta; r > drv.relAbs[fw.dst] {
			drv.relAbs[fw.dst] = r
		}
	}
	drv.timeBase = w.timeBase + delta
	drv.scratch.step.suffFP = w.scratch.step.suffFP
	drv.scratch.step.suffOK = w.scratch.step.suffOK
}

// ---- join hints (lane B) ----

// specHint is a block-relative snapshot of the carried state observed at a
// segment cut: the suffix (in carry order) as (blocks-back, index-in-block)
// plus frame-relative deadline/finish/floor, the carried makespan, the step
// cache's suffix fingerprint at the cut, and the positive entry floors owed
// to the next blocks. Everything is relative to the cut, so the hint
// relocates to any cut whose neighborhood hashes identically.
type specHint struct {
	suffix      []hintNode
	floors      []hintFloor
	oldMakespan int32
	suffFP      graph.Hash128
	suffOK      bool
}

type hintNode struct{ back, idx, d, f, rel int32 }

type hintFloor struct{ fwd, idx, rel int32 }

// hintKey hashes a cut's structural neighborhood — the machine shape plus
// the content hashes of the blocks around the cut — into the join-hint
// table key.
func hintKey(gr *blockGroups, c int, m *machine.Machine) graph.Hash128 {
	var h graph.Hasher
	h.Reset(hintKeySeed)
	h.Int(m.Window)
	h.Int(len(m.Units))
	for _, u := range m.Units {
		h.Int(u)
	}
	back := hintBackGroups
	if c < back {
		back = c
	}
	h.Int(back)
	for g := c - back; g < c; g++ {
		h.Hash128(gr.hash[g])
	}
	fwd := hintFwdGroups
	if c+fwd > gr.ngroups() {
		fwd = gr.ngroups() - c
	}
	h.Int(fwd)
	for g := c; g < c+fwd; g++ {
		h.Hash128(gr.hash[g])
	}
	return h.Sum()
}

// putHint stores the driver's actual state at cut c as a join hint, when it
// is representable: suffix within hintBackGroups of the cut, positive entry
// floors within hintFwdGroups (none beyond, out to the segment end at gHi),
// and every value int32-packable. Unrepresentable joins are simply skipped.
func (sc *StepCache) putHint(drv *traceWalk, gr *blockGroups, c, gHi int) {
	if len(drv.plusOrder) > hintMaxSuffix || c < 1 {
		return
	}
	h := &specHint{
		suffix:      make([]hintNode, 0, len(drv.plusOrder)),
		oldMakespan: int32(drv.oldMakespan),
		suffFP:      drv.scratch.step.suffFP,
		suffOK:      drv.scratch.step.suffOK,
	}
	if drv.oldMakespan >= hintMaxVal {
		return
	}
	for _, id := range drv.plusOrder {
		gidx := int(gr.nodeGroup[id])
		back := c - 1 - gidx
		if back < 0 || back >= hintBackGroups {
			return
		}
		d, f := drv.dOld[id], drv.fOld[id]
		rel := sched.ClampRelease(drv.relAbs[id], drv.timeBase)
		if d >= hintMaxVal || d <= -hintMaxVal || f >= hintMaxVal || f <= -hintMaxVal || rel >= hintMaxVal {
			return
		}
		h.suffix = append(h.suffix, hintNode{
			back: int32(back), idx: int32(int(id) - gr.off[gidx]),
			d: int32(d), f: int32(f), rel: int32(rel),
		})
	}
	fwdEnd := c + hintFwdGroups
	if fwdEnd > gHi {
		fwdEnd = gHi
	}
	for v := gr.off[c]; v < gr.off[gHi]; v++ {
		rel := sched.ClampRelease(drv.relAbs[v], drv.timeBase)
		if rel == 0 {
			continue
		}
		gidx := int(gr.nodeGroup[v])
		if gidx >= fwdEnd || len(h.floors) >= hintMaxFloors || rel >= hintMaxVal {
			return // floors the relocated hint could not reproduce
		}
		h.floors = append(h.floors, hintFloor{
			fwd: int32(gidx - c), idx: int32(v - gr.off[gidx]), rel: int32(rel),
		})
	}
	key := hintKey(gr, c, drv.m)
	sc.hintMu.Lock()
	if sc.hints == nil {
		sc.hints = make(map[graph.Hash128]*specHint, 64)
	}
	if len(sc.hints) >= hintMaxEntries {
		for k := range sc.hints { // drop an arbitrary entry; hints are advisory
			delete(sc.hints, k)
			break
		}
	}
	sc.hints[key] = h
	sc.hintMu.Unlock()
}

// getHint looks up the join hint for a cut-neighborhood key.
func (sc *StepCache) getHint(key graph.Hash128) *specHint {
	sc.hintMu.Lock()
	h := sc.hints[key]
	sc.hintMu.Unlock()
	return h
}

// seedFromHint is lane B: when the step cache holds a hint for this cut's
// neighborhood, relocate its suffix state onto the actual warm-up blocks —
// including the stored step-cache suffix fingerprint, so the first merge
// after the cut can hit the step cache immediately — and skip the warm-up
// walk entirely. Returns false (leaving the walk in its empty entry state)
// when there is no hint or it does not relocate cleanly.
func (wk *specWorker) seedFromHint() bool {
	w := &wk.walk
	if w.sc == nil || wk.gLo < 1 {
		return false
	}
	gr := w.groups
	h := w.sc.getHint(hintKey(gr, wk.gLo, w.m))
	if h == nil {
		return false
	}
	c := wk.gLo
	for _, hn := range h.suffix { // validate before mutating any state
		gidx := c - 1 - int(hn.back)
		if gidx < 0 || gr.off[gidx]+int(hn.idx) >= gr.off[gidx+1] {
			return false
		}
	}
	for _, hf := range h.floors {
		gidx := c + int(hf.fwd)
		if gidx >= gr.ngroups() || gr.off[gidx]+int(hf.idx) >= gr.off[gidx+1] {
			return false
		}
	}
	for _, hn := range h.suffix {
		gidx := c - 1 - int(hn.back)
		id := graph.NodeID(gr.off[gidx] + int(hn.idx))
		w.oldIDs = append(w.oldIDs, id)
		w.plusOrder = append(w.plusOrder, id)
		if id > w.maxOld {
			w.maxOld = id
		}
		w.dOld[id] = int(hn.d)
		w.fOld[id] = int(hn.f)
		w.relAbs[id] = int(hn.rel) // frame base is 0: clamped rel is absolute
	}
	for _, hf := range h.floors {
		gidx := c + int(hf.fwd)
		w.relAbs[gr.off[gidx]+int(hf.idx)] = int(hf.rel)
	}
	w.oldMakespan = int(h.oldMakespan)
	w.scratch.step.suffFP = h.suffFP
	w.scratch.step.suffOK = h.suffOK
	wk.laneB = true
	return true
}
