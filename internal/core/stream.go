package core

// Stream is the incremental driver of Algorithm Lookahead: a trace is
// scheduled block by block as it arrives, instead of materialized up front.
//
// The batch walk is already one-pass — each merge sees only the carried
// suffix of the previous chopped schedule plus the next block — so a push is
// one step of that same walk (traceWalk.block) over a live window: the
// engine keeps just the live nodes (carried suffix + the block being pushed)
// in compacted arrays, rebuilds their flat adjacency view per push, and
// rebinds the walk to it. Committed instructions are emitted immediately; a
// block's BlockResult is delivered as soon as every one of its instructions
// has been committed. Time-to-first-schedule drops from O(trace) to
// O(block), and memory is bounded by the suffix plus the lookahead window.
//
// Lookahead k bounds how long finality may be deferred: when block i is
// pushed, every block that arrived at least k pushes ago is force-finalized
// (its remaining suffix nodes are committed in schedule order, even without
// a qualifying chop slot). k = 0 is fully online — each block is final the
// moment it is scheduled, so merges never anticipate across blocks; k =
// Unbounded defers entirely to the chop rule, which makes the streamed
// output bit-identical to the batch result. Intermediate k trades emit lag
// and memory for schedule quality — the semi-online lookahead sweep of
// EXPERIMENTS.md S1.

import (
	"fmt"

	"aisched/internal/baseline"
	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
	"aisched/internal/sbudget"
	"aisched/internal/sched"
)

// StreamNode is one instruction of a pushed block.
type StreamNode struct {
	Label string
	Exec  int
	Class int
}

// StreamDep is one dependence edge into the block being pushed: Dst must be
// a node of the current block, Src any already-pushed node (including the
// current block). IDs are stream IDs — nodes are numbered sequentially in
// push order, so the i-th node ever pushed has ID i. Edges whose source has
// already been committed never enter a merge view (the batch merge's induced
// old ∪ new view excludes committed nodes identically); their latency
// instead becomes a release floor on the destination, anchored at the
// source's committed finish time.
type StreamDep struct {
	Src, Dst graph.NodeID
	Latency  int
}

// StreamBlock is one basic block of the arriving trace.
type StreamBlock struct {
	Nodes []StreamNode
	Deps  []StreamDep
}

// BlockResult is one finalized block: its static instruction order (the
// subpermutation the compiler emits) plus the predicted absolute placement
// of each instruction in the stitched trace schedule.
type BlockResult struct {
	// Block is the block's stream index (0-based push order).
	Block int
	// Order is the block's final static instruction order, in stream IDs.
	Order []graph.NodeID
	// Start and Unit are the predicted absolute start cycles and units,
	// parallel to Order.
	Start []int
	Unit  []int
	// Lag is the number of pushes between the block's arrival and its
	// emission: 0 means it was finalized by its own push.
	Lag int
	// Degraded is empty for a full anticipatory result; when a push budget
	// was exhausted it carries the reason and the block's order is the
	// baseline critical-path list schedule (degrade, don't error, keep
	// streaming).
	Degraded string
}

// StreamOptions tunes a Stream.
type StreamOptions struct {
	// Lookahead is the semi-online lookahead k (see Stream): 0 (the zero
	// value) is fully online, Unbounded is batch-identical. Negative values
	// are treated as 0.
	Lookahead int
	// Tracer, when non-nil, receives a KindStreamPush event per accepted
	// push (N 0 after a budget-degraded one), a KindStreamEmit event per
	// finalized block, and the per-merge events of Step (merge, loosen, pin,
	// chop, idle-slot moves; a step-cache hit emits only its replayed chop).
	Tracer obs.Tracer
	// StepCache, when non-nil, memoizes whole merge + delay + chop push
	// iterations keyed by a hash of each push's step input (see
	// stepcache.go). Results are bit-identical with and without it.
	StepCache *StepCache
}

// blockAcc accumulates one in-flight block's emission.
type blockAcc struct {
	res       BlockResult
	arrivedAt int // push index at which the block arrived
	remaining int // nodes not yet committed
}

// Stream is the incremental trace scheduler. Not safe for concurrent use;
// the aisched facade serializes access.
type Stream struct {
	walk traceWalk // bound to the live window; walk IDs are live indices

	nextID graph.NodeID // next stream ID to assign
	pushed int          // number of blocks pushed so far

	// Live node store, indexed by walk ID; live order is ascending stream ID
	// (carried suffix first, then the pushed block), which makes the view
	// node order agree with the batch walk's sorted old ∪ new IDs.
	gid    []graph.NodeID
	exec   []int32
	class  []int32
	blockN []int32
	labels []string

	// Live adjacency (CSR over live indices).
	eOff []int32
	eDst []graph.NodeID
	eLat []int32

	// fin[id] is the absolute finish time of committed stream ID id — the
	// ledger that turns a dependence on a long-gone instruction into a
	// release floor at ingest. One int per instruction ever pushed: the only
	// whole-stream state the engine keeps (everything else is bounded by the
	// live window).
	fin []int

	// Double buffers: ingest compacts into the n* arrays, then swaps.
	nGid    []graph.NodeID
	nExec   []int32
	nClass  []int32
	nBlockN []int32
	nLabels []string
	nEOff   []int32
	nEDst   []graph.NodeID
	nELat   []int32

	remap  []int32 // previous live index → new live index, or −1
	toLive []int32 // stream ID − gidBase → live index, or −1

	blocks []*blockAcc // in-flight blocks, front first

	err error // sticky failure; set by cancellation or internal errors
}

// NewStream returns an empty streaming scheduler for machine m.
func NewStream(m *machine.Machine, opt StreamOptions) *Stream {
	e := new(Stream)
	e.walk.init(graph.AdjView{}, m, &Options{Tracer: opt.Tracer, StepCache: opt.StepCache}, nil)
	e.walk.k = max(opt.Lookahead, 0)
	return e
}

// SuffixLen reports the number of carried (not yet final) instructions.
func (e *Stream) SuffixLen() int { return len(e.walk.carried) }

// Makespan reports the predicted completion time of everything pushed so
// far, including the carried suffix's tentative placement.
func (e *Stream) Makespan() int { return e.walk.timeBase + e.walk.oldMakespan }

// Err returns the sticky error that poisoned the stream, if any.
func (e *Stream) Err() error { return e.err }

// Push feeds the next block. It returns the blocks finalized by this push
// (often none; possibly several), in block order. bud, when non-nil, bounds
// the push: on budget exhaustion the entire live window — carried suffix
// and the new block — is finalized with the baseline critical-path
// schedule, tagged Degraded, and the stream keeps accepting pushes. On
// cancellation or malformed input the stream is poisoned: the error is
// returned now and by every later call.
func (e *Stream) Push(b StreamBlock, bud *sbudget.State) ([]*BlockResult, error) {
	if e.err != nil {
		return nil, e.err
	}
	if len(b.Nodes) == 0 {
		return nil, e.poison(fmt.Errorf("stream: empty block %d", e.pushed))
	}
	pushIdx := e.pushed
	if err := e.ingest(b); err != nil {
		return nil, e.poison(err)
	}
	w := &e.walk
	nOld := len(w.carried)
	e.blocks = append(e.blocks, &blockAcc{
		res:       BlockResult{Block: pushIdx},
		arrivedAt: pushIdx,
		remaining: len(b.Nodes),
	})
	e.pushed++

	w.budget = bud
	if err := w.block(w.identity(w.view.N)[nOld:], pushIdx); err != nil {
		reason := sbudget.Reason(err)
		if reason == "" {
			return nil, e.poison(err)
		}
		if err := e.degrade(reason); err != nil {
			return nil, err
		}
	}
	e.record()
	if w.tr != nil {
		w.tr.Emit(obs.Event{Kind: obs.KindStreamPush, Block: pushIdx,
			Node: graph.None, From: nOld, To: len(b.Nodes), N: w.oldMakespan})
	}
	return e.pop(pushIdx), nil
}

// Flush finalizes the carried suffix at its tentative placement — exactly
// the batch walk's trailing emission — and returns every remaining block.
// The stream stays usable: later pushes start a fresh suffix after the
// flushed schedule.
func (e *Stream) Flush() ([]*BlockResult, error) {
	if e.err != nil {
		return nil, e.err
	}
	e.walk.flush()
	e.record()
	return e.pop(e.pushed), nil
}

// poison records a fatal error; every later call returns it.
func (e *Stream) poison(err error) error {
	e.err = err
	return err
}

// record moves what the walk committed since the last call into the
// in-flight blocks and the finish ledger.
func (e *Stream) record() {
	w := &e.walk
	for _, v := range w.emitted {
		a := e.blocks[int(e.blockN[v])-e.blocks[0].res.Block]
		a.res.Order = append(a.res.Order, e.gid[v])
		a.res.Start = append(a.res.Start, w.absStart[v])
		a.res.Unit = append(a.res.Unit, w.absUnit[v])
		a.remaining--
		e.fin[e.gid[v]] = w.absStart[v] + int(e.exec[v])
	}
	w.emitted = w.emitted[:0]
}

// pop emits every fully committed block at the front of the in-flight list.
func (e *Stream) pop(pushIdx int) []*BlockResult {
	var out []*BlockResult
	for len(e.blocks) > 0 && e.blocks[0].remaining == 0 {
		a := e.blocks[0]
		e.blocks = e.blocks[1:]
		a.res.Lag = pushIdx - a.arrivedAt
		if tr := e.walk.tr; tr != nil {
			tr.Emit(obs.Event{Kind: obs.KindStreamEmit, Block: a.res.Block,
				Node: graph.None, N: a.res.Lag})
		}
		out = append(out, &a.res)
	}
	return out
}

// degrade commits the whole live window with the baseline critical-path
// list schedule (per-block, no anticipation), tags every affected block, and
// leaves the suffix empty and the stream accepting.
func (e *Stream) degrade(reason string) error {
	w := &e.walk
	n := len(e.gid)
	tg := graph.New(n)
	for i := 0; i < n; i++ {
		tg.AddNode(e.labels[i], int(e.exec[i]), int(e.class[i]), int(e.blockN[i]))
	}
	for v := 0; v < n; v++ {
		for ei := e.eOff[v]; ei < e.eOff[v+1]; ei++ {
			tg.MustEdge(graph.NodeID(v), e.eDst[ei], int(e.eLat[ei]), 0)
		}
	}
	order, err := baseline.ScheduleTrace(baseline.CriticalPath{}, tg, w.m)
	if err != nil {
		return e.poison(err)
	}
	// The carried releases still apply: latencies owed to already-emitted
	// instructions must hold in the degraded placement too.
	w.rv = growSlice(w.rv, n)
	for v := range w.rv {
		w.rv[v] = max(w.relAbs[v]-w.timeBase, 0)
	}
	s, err := sched.ListScheduleRelease(tg, w.m, order, w.rv)
	if err != nil {
		return e.poison(err)
	}
	for _, a := range e.blocks {
		a.res.Degraded = reason
	}
	for _, v := range order {
		w.commit(v, s.Start[v], s.Unit[v])
	}
	w.carried = w.carried[:0]
	w.oldMakespan = 0
	w.timeBase += s.Makespan()
	return nil
}

// ingest compacts the live store down to the carried suffix, appends block
// b, rebinds the walk to the new window, records release floors owed to
// committed sources, and rebuilds the flat adjacency over live indices.
func (e *Stream) ingest(b StreamBlock) error {
	w := &e.walk
	nPrev := len(e.gid)
	nKept := len(w.carried)
	n := nKept + len(b.Nodes)

	// Compact kept nodes into the double buffers, preserving ascending
	// stream-ID order (a keep-mask filter of an ascending array; remap
	// doubles as the mask).
	e.remap = growSlice(e.remap, nPrev)
	remap := e.remap
	for i := range remap {
		remap[i] = -1
	}
	for _, v := range w.carried {
		remap[v] = 0
	}
	e.nGid = growSlice(e.nGid, n)
	e.nExec = growSlice(e.nExec, n)
	e.nClass = growSlice(e.nClass, n)
	e.nBlockN = growSlice(e.nBlockN, n)
	e.nLabels = growSlice(e.nLabels, n)
	k := 0
	for i := 0; i < nPrev; i++ {
		if remap[i] < 0 {
			continue
		}
		remap[i] = int32(k)
		e.nGid[k] = e.gid[i]
		e.nExec[k] = e.exec[i]
		e.nClass[k] = e.class[i]
		e.nBlockN[k] = e.blockN[i]
		e.nLabels[k] = e.labels[i]
		k++
	}
	firstNew := e.nextID
	for i, nd := range b.Nodes {
		if nd.Class < 0 {
			return fmt.Errorf("stream: node %d of block %d has negative class %d", i, e.pushed, nd.Class)
		}
		e.nGid[k+i] = firstNew + graph.NodeID(i)
		e.nExec[k+i] = int32(max(nd.Exec, 1))
		e.nClass[k+i] = int32(nd.Class)
		e.nBlockN[k+i] = int32(e.pushed)
		e.nLabels[k+i] = nd.Label
	}
	e.nextID += graph.NodeID(len(b.Nodes))
	for len(e.fin) < int(e.nextID) {
		e.fin = append(e.fin, 0)
	}

	// Swap the node stores; the previous arrays become next push's scratch.
	e.gid, e.nGid = e.nGid[:n], e.gid
	e.exec, e.nExec = e.nExec[:n], e.exec
	e.class, e.nClass = e.nClass[:n], e.class
	e.blockN, e.nBlockN = e.nBlockN[:n], e.blockN
	e.labels, e.nLabels = e.nLabels[:n], e.labels
	w.rebind(n, remap)

	// Stream-ID → live-index window for dependence ingestion. Live IDs all
	// lie in [gidBase, nextID): the window spans at most the suffix's
	// blocks (≤ k+1) plus the new one, which is the memory bound.
	gidBase := e.gid[0]
	e.toLive = growSlice(e.toLive, int(e.nextID-gidBase))
	toLive := e.toLive
	for i := range toLive {
		toLive[i] = -1
	}
	for i := 0; i < n; i++ {
		toLive[e.gid[i]-gidBase] = int32(i)
	}

	// Rebuild the live CSR: carried edges among kept nodes (remapped), plus
	// the new block's dependences. Count node v's edges into eOff[v+1],
	// prefix-sum, fill with eOff[v] as v's cursor (leaving it at v's end, the
	// next node's start), then shift the offsets back by one node.
	e.nEOff = growSlice(e.nEOff, n+1)
	eOff := e.nEOff
	clear(eOff)
	for v := 0; v < nPrev; v++ {
		sv := remap[v]
		if sv < 0 {
			continue
		}
		for ei := e.eOff[v]; ei < e.eOff[v+1]; ei++ {
			if remap[e.eDst[ei]] >= 0 {
				eOff[sv+1]++
			}
		}
	}
	for _, dp := range b.Deps {
		if dp.Dst < firstNew || dp.Dst >= e.nextID {
			return fmt.Errorf("stream: dep %d→%d targets outside block %d [%d,%d)",
				dp.Src, dp.Dst, e.pushed, firstNew, e.nextID)
		}
		if dp.Src < 0 || dp.Src >= e.nextID {
			return fmt.Errorf("stream: dep source %d not yet pushed (next ID %d)", dp.Src, e.nextID)
		}
		if dp.Latency < 0 {
			return fmt.Errorf("stream: dep %d→%d has negative latency", dp.Src, dp.Dst)
		}
		sv := int32(-1)
		if dp.Src >= gidBase {
			sv = toLive[dp.Src-gidBase]
		}
		if sv < 0 {
			// Source already committed: the edge never reaches a merge view
			// (the batch walk's induced old ∪ new view excludes it just the
			// same), so its latency becomes an absolute release floor on the
			// destination, read from the finish ledger.
			dl := toLive[dp.Dst-gidBase]
			w.relAbs[dl] = max(w.relAbs[dl], e.fin[dp.Src]+dp.Latency)
			continue
		}
		eOff[sv+1]++
	}
	for i := 0; i < n; i++ {
		eOff[i+1] += eOff[i]
	}
	e.nEDst = growSlice(e.nEDst, int(eOff[n]))
	e.nELat = growSlice(e.nELat, int(eOff[n]))
	eDst, eLat := e.nEDst, e.nELat
	for v := 0; v < nPrev; v++ {
		sv := remap[v]
		if sv < 0 {
			continue
		}
		for ei := e.eOff[v]; ei < e.eOff[v+1]; ei++ {
			dv := remap[e.eDst[ei]]
			if dv < 0 {
				continue
			}
			c := eOff[sv]
			eDst[c] = graph.NodeID(dv)
			eLat[c] = e.eLat[ei]
			eOff[sv]++
		}
	}
	for _, dp := range b.Deps {
		if dp.Src < gidBase {
			continue
		}
		sv := toLive[dp.Src-gidBase]
		if sv < 0 {
			continue // committed source: turned into a release floor above
		}
		c := eOff[sv]
		eDst[c] = graph.NodeID(toLive[dp.Dst-gidBase])
		eLat[c] = int32(dp.Latency)
		eOff[sv]++
	}
	copy(eOff[1:], eOff[:n])
	eOff[0] = 0
	e.eOff, e.nEOff = eOff, e.eOff
	e.eDst, e.nEDst = eDst, e.eDst
	e.eLat, e.nELat = eLat, e.eLat

	w.view = graph.AdjView{
		N: n, Off: e.eOff, Dst: e.eDst, Lat: e.eLat,
		Exec: e.exec, Class: e.class, Block: e.blockN, Labels: e.labels,
	}
	for _, l := range e.eLat {
		w.view.MaxLat = max(w.view.MaxLat, int(l))
	}
	return nil
}
