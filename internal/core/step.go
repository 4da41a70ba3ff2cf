package core

import (
	"math"
	"slices"

	"aisched/internal/graph"
	"aisched/internal/hw"
	"aisched/internal/idle"
	"aisched/internal/machine"
	"aisched/internal/obs"
	"aisched/internal/rank"
	"aisched/internal/sbudget"
	"aisched/internal/sched"
)

// Step is the reusable per-block engine of Algorithm Lookahead: one
// merge (paper Figure 7) + Delay_Idle_Slots (§3) + Chop (Figure 6) iteration
// over an old ∪ new adjacency view. Its one caller is traceWalk.block, which
// every driver runs — the sequential walk, the speculative parallel driver
// and its segment workers, and Stream's pushes — so a streamed trace is
// processed by exactly the code that processes a batch trace, and
// bit-identical results fall out by construction.
//
// A Step owns its rank context (arena included) and all merge scratch;
// Run resets the context per view, so steady-state iterations allocate only
// the schedules they return. A Step is not safe for concurrent use.
type Step struct {
	rc *rank.Ctx

	d   []int
	rel []int

	chop chopScratch

	// The restricted model's replay: the window machine and the static
	// order it runs.
	win    hw.Kernel
	static []graph.NodeID

	// Step-cache state (stepcache.go): the key hasher and the replay
	// scratch a cache hit materializes into.
	keyH      graph.Hasher
	memoS     sched.Schedule
	memoD     []int
	memoMinus []graph.NodeID
	memoPlus  []graph.NodeID
}

// StepIn is one merge iteration's input. IsOld, DOld and FOld are indexed by
// view node ID; DOld (the carried deadline) and FOld (the carried finish
// time, both rebased to the current chop frame) are read only where IsOld is
// set. Rank ties break in view-ID order, which is program order.
type StepIn struct {
	View graph.AdjView
	M    *machine.Machine
	// IsOld marks the carried-suffix nodes of the view.
	IsOld []bool
	// DOld[si] is the carried deadline of old node si (frame-relative).
	DOld []int
	// FOld[si] is old node si's finish time in the carried schedule
	// (frame-relative) — the pin target of the realizability repair.
	FOld []int
	// ROld[si] is view node si's release time (frame-relative, ≤ 0 meaning
	// none): the earliest start still owed to latencies of edges whose
	// sources were committed by earlier chops and so are absent from the
	// view. Unlike DOld/FOld it is read for every view node — a committed
	// node's latency can reach into blocks that arrive long after it was
	// emitted. Every greedy reschedule of the iteration floors starts at it.
	// May be nil when no view node has a release.
	ROld []int
	// OldCount and OldMakespan describe the carried suffix as a whole.
	OldCount    int
	OldMakespan int
	// Block is the current block index: trace events report it, and the
	// step key hashes view blocks relative to it.
	Block     int
	SkipDelay bool
	Tracer    obs.Tracer
	Budget    *sbudget.State
}

// StepOut is one merge iteration's output. D, Minus and Plus alias the
// Step's scratch and are valid until the next Run; S is freshly allocated by
// Run, but a RunMemo cache hit returns the Step's reusable replay schedule —
// treat S under the same until-next-Run lifetime as the other fields.
type StepOut struct {
	// S is the merged, delayed schedule of the whole view.
	S *sched.Schedule
	// D holds the final deadlines (the carry source for Plus nodes).
	D []int
	// Minus is the committed prefix and Plus the carried suffix, both in
	// schedule-permutation order; Base is the chop time base.
	Minus, Plus []graph.NodeID
	Base        int
	// Repaired reports that the window replay rejected the first merge and
	// S replaced it: the deadline-pinned re-merge when the replay confirms
	// that, else the first merge's replayed execution (see Run).
	Repaired bool
}

// Run executes one merge + delay + chop iteration.
func (st *Step) Run(in *StepIn) (StepOut, error) {
	t, err := st.assign(in)
	if err != nil {
		return StepOut{}, err
	}
	rc, d := st.rc, st.d
	sn := in.View.N
	tr := in.Tracer

	// ---- merge (paper Figure 7) ----
	s, err := st.mergeRounds(in, d, false)
	if err != nil {
		return StepOut{}, err
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindMerge, Block: in.Block, Node: graph.None,
			From: in.OldCount, To: sn - in.OldCount, N: s.Makespan()})
	}

	// ---- Delay_Idle_Slots ----
	if !in.SkipDelay {
		s, d, err = idle.DelayIdleSlotsCtx(rc, s, d, nil, tr)
		if err != nil {
			return StepOut{}, err
		}
	}

	// ---- realizability repair ----
	// The deadline-confined merge guarantees old nodes *finish* in time but
	// not that they keep their carried positions: greedy may slide an old
	// node later and hoist a new instruction into the vacated early slot,
	// predicting an execution the W-window hardware cannot reach from the
	// emitted static order. In the restricted model (single unit, unit
	// execution times, 0/1 latencies — where the paper's optimality claim
	// and the ±1-vs-baseline fuzz property live) replay the prediction's
	// static order on the window machine and, when it does not issue every
	// node at its predicted start, redo the merge with every old deadline
	// pinned to its carried finish time: old keeps its carried arrangement,
	// new fills genuine idle slots only. When the replay rejects that too,
	// adopt the replayed starts of the first merge's order — the one-unit
	// replay is deterministic, so they are what the window does with it —
	// and raise each deadline to its replayed finish. Outside the restricted
	// model greedy hardware deviates from any prediction (latency stalls
	// reorder the window), so the heuristic regime keeps the paper's §4.2
	// behavior unchanged.
	ok := true
	if st.restrictedModel(in) {
		if ok, err = st.realizable(s, in); err != nil {
			return StepOut{}, err
		}
	}
	repaired := !ok
	if repaired {
		if tr != nil {
			tr.Emit(obs.Event{Kind: obs.KindMergePin, Block: in.Block,
				Node: graph.None, N: s.Makespan()})
		}
		dSave := append([]int(nil), d...)
		sSave := s
		for si := 0; si < sn; si++ {
			if in.IsOld[si] {
				d[si] = in.FOld[si]
			} else {
				d[si] = t
			}
		}
		s2, err := st.mergeRounds(in, d, true)
		if err != nil {
			return StepOut{}, err
		}
		if !in.SkipDelay {
			s2, d, err = idle.DelayIdleSlotsCtx(rc, s2, d, nil, tr)
			if err != nil {
				return StepOut{}, err
			}
		}
		if ok, err = st.realizable(s2, in); err != nil {
			return StepOut{}, err
		}
		if ok {
			s = s2
		} else {
			if err := st.simulate(sSave, in); err != nil {
				return StepOut{}, err
			}
			s = sSave.Clone()
			copy(d, dSave)
			for i, v := range st.static {
				s.Start[v] = st.win.Issued(i)
				d[v] = max(d[v], s.Finish(v))
			}
		}
	}

	// ---- chop ----
	minus, plus, base := st.chop.chop(s, in.M.Window)
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindChop, Block: in.Block, Node: graph.None,
			From: len(minus), To: len(plus), N: base})
	}
	return StepOut{S: s, D: d, Minus: minus, Plus: plus, Base: base, Repaired: repaired}, nil
}

// assign binds the Step's rank context to in's view, runs the merge's
// lower-bound pass (paper Figure 7) and fills st.d with the merge's
// deadline assignment. It returns T, the lower bound's makespan.
func (st *Step) assign(in *StepIn) (int, error) {
	if st.rc == nil {
		st.rc = rank.NewReusable()
	}
	rc := st.rc
	view := in.View
	sn := view.N

	// One rank context per view: the merge re-ranks, every loosening round
	// and the whole Delay_Idle_Slots pass share its cached topo order,
	// descendant closure and scratch — and the context itself (arena
	// included) is recycled across blocks, calls and pushes. Every re-rank
	// is a Refresh from the deadlines the context last ranked for.
	if err := rc.Reset(view, in.M, nil); err != nil {
		return 0, err
	}
	rc.SetBudget(in.Budget)
	if in.ROld != nil {
		// Release times floor every greedy reschedule of this iteration —
		// merge passes, loosening rounds, Delay_Idle_Slots, the repair — so
		// the prediction honors latencies owed to already-committed sources.
		st.rel = growSlice(st.rel, sn)
		rel := st.rel
		for si := 0; si < sn; si++ {
			if in.ROld[si] > 0 {
				rel[si] = in.ROld[si]
			} else {
				rel[si] = 0
			}
		}
		rc.SetRelease(rel)
	}

	// Lower bound pass: every deadline = D.
	st.d = growSlice(st.d, sn)
	d := st.d
	for i := range d {
		d[i] = rank.Big
	}
	_, res0, err := st.rerank(d)
	if err != nil {
		return 0, err
	}
	t := res0.S.Makespan()
	// Deadline assignment: old confined to its standalone makespan (or its
	// previously committed tighter deadline), new bounded by T.
	for si := 0; si < sn; si++ {
		if in.IsOld[si] {
			d[si] = in.DOld[si]
			if in.OldMakespan < d[si] {
				d[si] = in.OldMakespan
			}
		} else {
			d[si] = t
		}
	}
	return t, nil
}

// mergeRounds runs the merge's re-rank under the assigned deadlines d, then
// the deadline-loosening loop and the §4.2 heuristic fallback, returning the
// best schedule found. repin is set on the repair path, which reports itself
// through the single KindMergePin event instead of per-round loosen events.
//
// The loop loosens the new deadlines one cycle per round, but it stops
// re-ranking once the rounds left are settled (see settle): it adds the
// bumps the unit-step loop would still make and ends in the state that loop
// ends in, with the same schedule, deadlines and loosen events. A skipped
// round runs no rank pass, so it charges none to the budget.
func (st *Step) mergeRounds(in *StepIn, d []int, repin bool) (*sched.Schedule, error) {
	view := in.View
	sn := view.N
	ranks, res, err := st.rerank(d)
	if err != nil {
		return nil, err
	}
	s, feasible := res.S, res.Feasible
	mb := 1
	if view.MaxLat > mb {
		mb = view.MaxLat
	}
	mb = 4 * (sn + mb + 2) // maxBump over the view
	gap := view.MaxLat
	for _, e := range view.Exec {
		gap += int(e)
	}
	for bump := 0; !feasible && bump <= mb; bump++ {
		rounds, ok, settled := settle(in, ranks, d, s, gap, mb+1-bump)
		if !settled {
			rounds = 1
		}
		if tr := in.Tracer; tr != nil && !repin {
			for r := 1; r <= rounds; r++ {
				tr.Emit(obs.Event{Kind: obs.KindMergeLoosen, Block: in.Block,
					Node: graph.None, N: bump + r})
			}
		}
		for si := 0; si < sn; si++ {
			if !in.IsOld[si] {
				d[si] += rounds
			}
		}
		if settled {
			if loosenJumpHook != nil {
				loosenJumpHook(rounds, ok, repin)
			}
			feasible = ok
			break
		}
		// Only the new nodes' deadlines moved, all by one: the new nodes'
		// ranks shift, and only the old nodes above them are recomputed.
		// An unchanged priority list reuses the previous schedule.
		if ranks, res, err = st.rerank(d); err != nil {
			return nil, err
		}
		s, feasible = res.S, res.Feasible
	}
	// Heuristic-regime fallback (§4.2): with multiple units, multi-cycle
	// instructions or long latencies, greedy-by-rank may miss even the old
	// nodes' deadlines no matter how far the new deadlines are loosened. The
	// paper guarantees a feasible schedule exists (old followed by new);
	// rather than abort, sync every deadline to the achieved finish time so
	// the pipeline proceeds with the best schedule found.
	for tries := 0; !feasible && tries < 30; tries++ {
		changed := false
		for si := 0; si < sn; si++ {
			if f := s.Finish(graph.NodeID(si)); f > d[si] {
				d[si] = f
				changed = true
			}
		}
		if !changed {
			break
		}
		if _, res, err = st.rerank(d); err != nil {
			return nil, err
		}
		s, feasible = res.S, res.Feasible
	}
	if !feasible {
		for si := 0; si < sn; si++ {
			if f := s.Finish(graph.NodeID(si)); f > d[si] {
				d[si] = f
			}
		}
	}
	return s, nil
}

// rerank re-ranks the view under d and greedily schedules the result.
func (st *Step) rerank(d []int) ([]int, *rank.Result, error) {
	ranks, err := st.rc.Refresh(d)
	if err != nil {
		return nil, nil, err
	}
	res, err := st.rc.RunRanks(ranks, d, nil)
	return ranks, res, err
}

// loosenJumpHook, when non-nil, is called for every settled loosening loop
// with the rounds it added at once, whether it ended feasible, and whether it
// ran on the repair path. Tests install it to count the outcomes.
var loosenJumpHook func(rounds int, feasible, repin bool)

// settle decides, from an infeasible round's ranks, deadlines d and
// schedule s, whether the loosening rounds still to come are settled, and
// if so how many of the left rounds the unit-step loop would run and
// whether it would end feasible.
//
// The rounds are settled once minRank(new) > maxRank(old) + gap, where gap
// is the view's total execution time plus its largest latency. From then on
// each round adds one to every new rank and leaves every old rank, and so
// the priority list and s, as they are:
//   - A new node has no path to an old one (edges run forward in block
//     order), so its closure is all new and its rank moves with the new
//     deadlines, exactly by one.
//   - In an old node v's packing (rank.Ctx's rankOf) every new entry sorts
//     after every old one. By induction over v's old descendants, the old
//     entries keep their placements; the new entries, shifted together,
//     keep their order and placements, and so each new term grows by one.
//   - No new entry u's term binds v's rank. Follow the full cycles that
//     pushed u's placement back to an entry c placed at its own latency: u
//     ends at most that latency plus the chain's execution times past v's
//     completion. If c is old, c's own term bounds its latency. If c is
//     new, the longest path to c leaves v and its old descendants over one
//     edge (at most MaxLat), and each new edge after it raises the rank by
//     at least its latency plus the next execution time. Either way u's
//     term exceeds v's rank by more than gap minus that latency and the
//     distinct nodes' execution times counted, which is not negative.
//
// So every later round schedules s. Old finishes and deadlines stay fixed
// while each new node's rank and deadline gain one per round: with an old
// node late (finish past its deadline, or rank below its execution time)
// every left round fails; otherwise the first feasible round is the largest
// of finish − d and exec − rank over the new nodes. A view without old
// nodes, or without new ones, is settled at once.
func settle(in *StepIn, ranks, d []int, s *sched.Schedule, gap, left int) (rounds int, feasible, settled bool) {
	view := in.View
	minNew, maxOld := math.MaxInt, math.MinInt
	for si, r := range ranks[:view.N] {
		if in.IsOld[si] {
			maxOld = max(maxOld, r)
		} else {
			minNew = min(minNew, r)
		}
	}
	if maxOld != math.MinInt && minNew != math.MaxInt && minNew-maxOld <= gap {
		return 0, false, false
	}
	oldLate, k := false, 0
	for si := 0; si < view.N; si++ {
		late := max(s.Finish(graph.NodeID(si))-d[si], int(view.Exec[si])-ranks[si])
		if in.IsOld[si] {
			oldLate = oldLate || late > 0
		} else {
			k = max(k, late)
		}
	}
	if oldLate || k > left {
		return left, false, true
	}
	return k, true, true
}

// restrictedModel reports whether the view is an instance of the paper's
// restricted model: one functional unit, unit execution times, and 0/1
// latencies. This is the regime with provable guarantees, and the one where
// the window replay is deterministic from the prediction's static order.
func (st *Step) restrictedModel(in *StepIn) bool {
	if in.M.TotalUnits() != 1 || in.View.MaxLat > 1 {
		return false
	}
	for _, e := range in.View.Exec {
		if e != 1 {
			return false
		}
	}
	return true
}

// simulate runs s's static order — the view's blocks in order, each block's
// nodes by predicted start (Definition 2.3's priority list) — on the window
// machine of internal/hw, with the view's edges and the iteration's release
// floors. The issue cycles stay in st.win, by position of st.static. Every
// producer precedes its consumers in that order — within a block by start
// time, across blocks because no edge runs backward (graph.CheckBlockOrder)
// — so the machine cannot deadlock; a kernel error is returned as is.
func (st *Step) simulate(s *sched.Schedule, in *StepIn) error {
	view := in.View
	st.static = growSlice(st.static, view.N)
	for i := range st.static {
		st.static[i] = graph.NodeID(i)
	}
	// Starts are distinct on a single unit, so this is a total order.
	slices.SortFunc(st.static, func(a, b graph.NodeID) int {
		if view.Block[a] != view.Block[b] {
			return int(view.Block[a]) - int(view.Block[b])
		}
		return s.Start[a] - s.Start[b]
	})
	var rel []int
	if in.ROld != nil {
		rel = st.rel
	}
	st.win.LoadView(view, st.static, rel)
	_, err := st.win.Run(in.M)
	return err
}

// realizable reports whether the window machine, running s's static order,
// issues every node at its predicted start. Chop runs after the check, so
// a committed prefix is never part of a prediction the replay rejected.
func (st *Step) realizable(s *sched.Schedule, in *StepIn) (bool, error) {
	if err := st.simulate(s, in); err != nil {
		return false, err
	}
	for i, v := range st.static {
		if st.win.Issued(i) != s.Start[v] {
			return false, nil
		}
	}
	return true, nil
}
