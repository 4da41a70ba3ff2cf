package core

// Structural step cache: content-addressed memoization of one Step.Run
// iteration (merge + Delay_Idle_Slots + chop). Real traces are dominated by
// repeated block structure — unrolled loops, repeated idioms — and the whole
// anticipatory scheduler is per-block work, so the second arrival of a block
// whose merge inputs are structurally identical to an earlier one should
// replay the earlier outcome instead of re-running merge/rank/chop.
//
// # Key
//
// A Step.Run outcome is a deterministic function of its StepIn: the view's
// content (node attributes and edges), the machine (unit counts and
// window), the carried suffix state (IsOld/DOld/FOld/OldCount/OldMakespan),
// the release floors and SkipDelay; rank ties always break in view-ID
// order. Tracer and Budget affect only events and cancellation, never the
// schedule, so neither is keyed.
// The key is a 128-bit graph.Hasher sum over:
//
//   - the constants: view size, OldCount, OldMakespan, SkipDelay, window,
//     unit counts;
//   - every view node in view-ID order: exec, class, and block relative to
//     StepIn.Block, then a flag word — 1 for a carried node, followed by its
//     DOld and FOld (both chop-frame-relative), 0 for a new one;
//   - the view's edge count, then every edge as (src, dst, latency) in view
//     IDs — view IDs are positions, so relocated copies of the same
//     structure hash identically;
//   - the positive release floors as (view ID, floor) pairs.
//
// Block numbers enter only relative to the current block: Step.Run reads
// them only through the realizability replay's static-order sort
// (block-major, start-minor), so the same block
// structure at a different trace or stream position shares a key, and the
// key stays exact for any node layout — including traces whose node IDs
// interleave blocks.
//
// Every variable-length list is framed. The view size frames the node list,
// and each node's flag fixes how many words it absorbs. The edge count ends
// the edge list, and Hasher.Sum folds in the total word count, which ends
// the floor list. Without the edge count, a block with edges 0→1 and 1→2
// (latency 1) and no floors absorbs the same words as the same block with
// no edges and floor 1 on every node, and the second would replay the
// first's schedule.
//
// A traced hit emits the KindChop event its Run would have emitted,
// labelled "replay", in place of that Run's merge and delay events, so chop
// counts do not depend on the cache.
//
// # Fragment and relocation
//
// A cached value is a relocatable fragment: per-view-node start/unit/
// deadline (frame-relative, int32), the Minus/Plus permutations in view IDs,
// and the chop base. A hit replays in O(fragment) into Step-owned scratch —
// the same lifetime contract as StepOut's other fields — and the driver's
// existing commit path performs the relocation: view ID → original/stream
// ID through its ids array, frame cycle → absolute cycle through its time
// base. Steady-state hits allocate nothing.
//
// # Why a non-cryptographic 128-bit key is sound here
//
// Step keys are built from the scheduler's own iteration state and live in
// a process-private cache, so only accidental collisions matter, and at 128
// well-mixed bits those are birthday-bounded below any practical workload.
// graph.Hash128's soundness note states the trade-off for both caches (the
// result memo keys on graph.ContentHash). The differential tests and
// FuzzStepCache pin the end-to-end guarantee: cache-on and cache-off
// schedules are bit-identical.

import (
	"aisched/internal/graph"
	"aisched/internal/memo"
	"aisched/internal/obs"
)

// stepKeySeed seeds the step-key hasher, disjoint from the parallel
// driver's state-fingerprint seed (parallel.go).
const stepKeySeed = 0x51e9cafe01

// StepCacheConfig sizes a StepCache. The zero value picks the memo layer's
// default budget of 4096 fragments.
type StepCacheConfig struct {
	// Capacity is the total fragment budget (0 = default). The memo layer's
	// fixed memo.MaxBytes backstop bounds resident fragment bytes too.
	Capacity int
}

// StepCache memoizes Step.Run outcomes as relocatable fragments. Safe for
// concurrent use: one cache is shared by every worker of a batch Scheduler
// (fragments are immutable once stored; each worker's Step replays into its
// own scratch).
type StepCache struct {
	c *memo.Cache
}

// NewStepCache builds a step cache.
func NewStepCache(cfg StepCacheConfig) *StepCache {
	return &StepCache{c: memo.New(memo.Config{Capacity: cfg.Capacity, Metrics: memo.StepMetrics})}
}

// Counters returns the cache's activity counters.
func (sc *StepCache) Counters() memo.Counters { return sc.c.Counters() }

// Release drops every resident fragment, returning their bytes to the
// process-wide gauge. Owners with bounded lifetimes (a closed stream) call
// this so the resident-bytes metric tracks live caches.
func (sc *StepCache) Release() { sc.c.Release() }

// stepFrag is one cached Step outcome. All cycles are chop-frame-relative
// and all node references are view IDs, which is what makes the fragment
// relocatable: the driver's ordinary commit path maps view IDs through its
// own ids array and adds its own time base. int32 everywhere: every stored
// quantity is bounded by the view's frame (starts, deadlines, units, view
// IDs), and fragments are resident state worth packing.
type stepFrag struct {
	n        int32
	start    []int32
	unit     []int32
	d        []int32
	minus    []int32 // committed prefix, schedule order
	plus     []int32 // carried suffix, schedule order
	base     int32
	repaired bool
}

// ApproxBytes implements memo.Sizer for the LRU's byte backstop.
func (f *stepFrag) ApproxBytes() int {
	return 96 + 4*(len(f.start)+len(f.unit)+len(f.d)+len(f.minus)+len(f.plus))
}

// RunMemo is Step.Run behind the step cache. With sc nil it is Run. On a
// miss the full Run executes and its outcome is stored; on a hit the
// fragment replays into Step-owned scratch — StepOut.S then aliases the
// Step like D, Minus and Plus, valid until the next Run or RunMemo — and a
// traced hit emits its replayed KindChop event.
func (st *Step) RunMemo(in *StepIn, sc *StepCache) (StepOut, error) {
	if sc == nil {
		return st.Run(in)
	}
	key := st.stepKey(in)
	if v, ok := sc.c.Get(key); ok {
		out := st.replay(in, v.(*stepFrag))
		if tr := in.Tracer; tr != nil {
			tr.Emit(obs.Event{Kind: obs.KindChop, Block: in.Block, Node: graph.None,
				Label: "replay", From: len(out.Minus), To: len(out.Plus), N: out.Base})
		}
		return out, nil
	}
	out, err := st.Run(in)
	if err != nil {
		return out, err
	}
	sc.c.Put(key, fragOf(in, &out))
	return out, nil
}

// stepKey hashes the step's full input (see the package comment) into a
// memo key.
func (st *Step) stepKey(in *StepIn) memo.Key {
	h := &st.keyH
	h.Reset(stepKeySeed)
	view := in.View
	n := view.N
	h.Int(n)
	h.Int(in.OldCount)
	h.Int(in.OldMakespan)
	if in.SkipDelay {
		h.Word(1)
	} else {
		h.Word(0)
	}
	h.Int(in.M.Window)
	h.Int(len(in.M.Units))
	for _, u := range in.M.Units {
		h.Int(u)
	}
	for si := 0; si < n; si++ {
		h.Int(int(view.Exec[si]))
		h.Int(int(view.Class[si]))
		h.Int(int(view.Block[si]) - in.Block)
		if in.IsOld[si] {
			h.Word(1)
			h.Int(in.DOld[si])
			h.Int(in.FOld[si])
		} else {
			h.Word(0)
		}
	}
	// The edge count frames the edge list, so no edge list can absorb the
	// same words as a shorter one followed by release floors.
	h.Int(int(view.Off[n]))
	for si := 0; si < n; si++ {
		for ei := view.Off[si]; ei < view.Off[si+1]; ei++ {
			h.Int(si)
			h.Int(int(view.Dst[ei]))
			h.Int(int(view.Lat[ei]))
		}
	}
	if in.ROld != nil {
		for si := 0; si < n; si++ {
			if in.ROld[si] > 0 {
				h.Int(si)
				h.Int(in.ROld[si])
			}
		}
	}
	return memo.Key{H: h.Sum(), Kind: memo.KindStep}
}

// fragOf freezes a completed step into an immutable fragment.
func fragOf(in *StepIn, out *StepOut) *stepFrag {
	n := in.View.N
	f := &stepFrag{
		n:        int32(n),
		start:    make([]int32, n),
		unit:     make([]int32, n),
		d:        make([]int32, n),
		minus:    make([]int32, len(out.Minus)),
		plus:     make([]int32, len(out.Plus)),
		base:     int32(out.Base),
		repaired: out.Repaired,
	}
	for i := 0; i < n; i++ {
		f.start[i] = int32(out.S.Start[i])
		f.unit[i] = int32(out.S.Unit[i])
		f.d[i] = int32(out.D[i])
	}
	for i, v := range out.Minus {
		f.minus[i] = int32(v)
	}
	for i, v := range out.Plus {
		f.plus[i] = int32(v)
	}
	return f
}

// replay materializes a fragment into the Step's replay scratch. The view's
// exec array is aliased into the schedule so Finish and Makespan read the
// live view; starts, units and deadlines are widened out of the fragment.
func (st *Step) replay(in *StepIn, f *stepFrag) StepOut {
	n := in.View.N
	st.memoS.ResetView(in.M, n, in.View.Exec)
	for i := 0; i < n; i++ {
		st.memoS.Start[i] = int(f.start[i])
		st.memoS.Unit[i] = int(f.unit[i])
	}
	st.memoD = growSlice(st.memoD, n)
	for i := 0; i < n; i++ {
		st.memoD[i] = int(f.d[i])
	}
	st.memoMinus = growSlice(st.memoMinus, len(f.minus))
	for i, v := range f.minus {
		st.memoMinus[i] = graph.NodeID(v)
	}
	st.memoPlus = growSlice(st.memoPlus, len(f.plus))
	for i, v := range f.plus {
		st.memoPlus[i] = graph.NodeID(v)
	}
	return StepOut{
		S: &st.memoS, D: st.memoD,
		Minus: st.memoMinus, Plus: st.memoPlus,
		Base: int(f.base), Repaired: f.repaired,
	}
}
