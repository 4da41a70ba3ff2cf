// Package idle implements Procedure Move_Idle_Slot and Delay_Idle_Slots
// from Sarkar & Simons (SPAA '96, §3, Figures 4 and 6): delaying each idle
// slot of a schedule as late as possible — without increasing the makespan —
// by iteratively tightening the deadline of the tail node that finishes just
// before the slot and re-running the Rank Algorithm.
//
// Moving idle slots late is the enabling step for anticipatory scheduling:
// a trailing idle slot can be filled at run time by the hardware lookahead
// window with an instruction from the next basic block, whereas an early
// idle slot is wasted.
//
// For unit execution times, 0/1 latencies and a single functional unit,
// repeated application provably yields a minimum-makespan schedule whose
// idle slots each occur as late as possible; for general machines it is the
// heuristic of §4.2.
//
// The pass is the engine's hottest loop — every slot demotion re-runs the
// Rank Algorithm — so it is built on a shared rank.Ctx. The graph analysis
// is done once per pass. Every re-rank goes through rank.Ctx.Refresh, which
// starts from the deadlines the context last ranked for: a demotion
// re-ranks only the demoted node's ancestors, and the first demotion of a
// slot starts from the previous slot's ranks (or the merge's) instead of a
// full pass. The refill test and the reschedule share one rank
// computation, and a reschedule whose priority list did not change reuses
// the previous schedule. Per-unit timelines index tail nodes and idle slots
// instead of rescanning the schedule. The pass's own scratch — tentative
// deadlines and three rotating unit timelines — is stashed on the context
// (rank.Ctx.Aux) so repeated passes over one context allocate nothing
// beyond the schedules themselves. ReferenceMoveIdleSlot and
// ReferenceDelayIdleSlots retain the naive implementation for differential
// tests.
package idle

import (
	"fmt"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
	"aisched/internal/rank"
	"aisched/internal/sched"
)

// MoveResult reports the outcome of one Move_Idle_Slot call.
type MoveResult struct {
	S *sched.Schedule
	D []int // deadlines: committed modifications on success, the originals on failure
	// Moved is true when the processed idle slot now starts later or was
	// eliminated entirely (possible on multi-unit machines).
	Moved bool
	// NewStart is the new start time of the processed slot, or -1 when the
	// slot was eliminated.
	NewStart int
}

// moveOutcome is the allocation-free engine-internal MoveResult: the public
// wrappers box it, Delay_Idle_Slots consumes it by value. d aliases the
// context scratch on success and the caller's input on failure.
type moveOutcome struct {
	s        *sched.Schedule
	d        []int
	moved    bool
	newStart int
}

// maxInner bounds the demote-and-reschedule loop; each iteration demotes one
// more pre-slot node, so the loop is bounded by the node count anyway — the
// constant guards against pathological general-machine behaviour.
const maxInner = 4

// unitTimeline indexes one unit of a schedule: the node finishing at each
// time and the idle-slot start times, built in one pass so Move_Idle_Slot's
// per-iteration tail lookups and slot scans are O(1)/precomputed instead of
// rescanning all nodes. Timelines are value scratch reinitialised with init;
// the busy window is a bitset so slot collection is word-parallel.
type unitTimeline struct {
	finish []graph.NodeID // finish[t] = node on the unit finishing at t, or None
	slots  []int          // idle-slot start times, ascending
	busy   graph.Bitset
}

// init rebuilds the timeline of one unit of s in O(n + makespan), reusing
// the receiver's backing arrays.
func (tl *unitTimeline) init(s *sched.Schedule, unit int) {
	T := s.Makespan()
	if cap(tl.finish) < T+1 {
		tl.finish = make([]graph.NodeID, T+1)
	}
	tl.finish = tl.finish[:T+1]
	for i := range tl.finish {
		tl.finish[i] = graph.None
	}
	words := (T + 63) / 64
	if cap(tl.busy) < words {
		tl.busy = make(graph.Bitset, words)
	}
	tl.busy = tl.busy[:words]
	clear(tl.busy)
	for v := 0; v < s.Len(); v++ {
		if s.Start[v] == sched.Unassigned || s.Unit[v] != unit {
			continue
		}
		f := s.Finish(graph.NodeID(v))
		if f >= 0 && f < len(tl.finish) {
			tl.finish[f] = graph.NodeID(v)
		}
		tl.busy.SetRange(s.Start[v], min(f, T))
	}
	tl.slots = tl.slots[:0]
	for t := tl.busy.NextClear(0); t < T; t = tl.busy.NextClear(t + 1) {
		tl.slots = append(tl.slots, t)
	}
}

// tail returns the node finishing exactly at time t on the unit, or None.
func (tl *unitTimeline) tail(t int) graph.NodeID {
	if t < 0 || t >= len(tl.finish) {
		return graph.None
	}
	return tl.finish[t]
}

// slotOrdinal returns the index of the idle slot starting at t among slots,
// or -1.
func slotOrdinal(slots []int, t int) int {
	for i, st := range slots {
		if st == t {
			return i
		}
	}
	return -1
}

// delayScratch is the pass scratch stashed on a rank context (Aux): the
// tentative deadline buffer and three unit timelines — the caller-visible
// one plus two candidates the engine alternates between, so the timeline of
// the input schedule (needed intact by the failure path) is never
// clobbered.
type delayScratch struct {
	dd  []int
	tls [3]unitTimeline
}

// scratchFor returns the context's delay scratch, creating and stashing it
// on first use.
func scratchFor(c *rank.Ctx) *delayScratch {
	if st, ok := c.Aux().(*delayScratch); ok {
		return st
	}
	st := &delayScratch{}
	c.SetAux(st)
	return st
}

// grow returns buf resized to n, reusing its backing when possible.
func grow(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// MoveIdleSlot is Procedure Move_Idle_Slot (paper Figure 4) for the idle
// slot starting at time t on the given unit of schedule s, under deadlines
// d. tie is the rank-tie-break order (nil = program order).
//
// The procedure (a) caps the deadline of every node finishing at or before t
// to t, so rescheduling can never move the slot earlier, then (b) repeatedly
// demotes the deadline of the node finishing exactly at the slot (forcing it
// one cycle earlier) and re-runs rank_alg, until the slot moves later, is
// eliminated, or the instance becomes infeasible. On failure the input
// schedule and deadlines are returned unchanged (Moved == false).
//
// It builds a throwaway rank context; passes moving many slots of one
// schedule should go through DelayIdleSlotsCtx.
func MoveIdleSlot(s *sched.Schedule, m *machine.Machine, d []int, unit, t int, tie []graph.NodeID) (*MoveResult, error) {
	c, err := rank.NewCtx(s.G, m)
	if err != nil {
		return nil, err
	}
	out, _, err := moveIdleSlot(c, s, d, unit, t, tie, nil, nil)
	if err != nil {
		return nil, err
	}
	return &MoveResult{S: out.s, D: out.d, Moved: out.moved, NewStart: out.newStart}, nil
}

// moveIdleSlot is the engine behind MoveIdleSlot: with a non-nil tr, every
// tail-deadline demotion emits a KindDeadlineTighten event (the slot's start
// time in Cycle, the deadline change in From→To). It reuses the shared rank
// context, re-ranks incrementally with rank.Ctx.Refresh (a demotion
// re-ranks only the demoted tail's ancestors), shares the rank computation
// between the refill test and the reschedule, and accepts/returns the unit
// timeline of the input/result schedule so Delay_Idle_Slots never rebuilds
// one it already has. All timelines live in the context's delay scratch; a
// returned timeline is valid until the scratch cycles back to it (two more
// successful moves), which is longer than any caller holds one.
func moveIdleSlot(c *rank.Ctx, s *sched.Schedule, d []int, unit, t int, tie []graph.NodeID, tr obs.Tracer, tl *unitTimeline) (moveOutcome, *unitTimeline, error) {
	n := s.Len()
	if len(d) != n {
		return moveOutcome{}, nil, fmt.Errorf("idle: %d deadlines for %d nodes", len(d), n)
	}
	st := scratchFor(c)
	fail := moveOutcome{s: s, d: d, moved: false, newStart: t}

	if tl == nil {
		tl = &st.tls[0]
		tl.init(s, unit)
	}
	// The two timelines the engine may build results into: the slots of the
	// scratch not holding the input timeline.
	var cands [2]*unitTimeline
	k := 0
	for i := range st.tls {
		if &st.tls[i] != tl && k < 2 {
			cands[k] = &st.tls[i]
			k++
		}
	}
	flip := 0

	ordinal := slotOrdinal(tl.slots, t)
	if ordinal < 0 {
		return moveOutcome{}, nil, fmt.Errorf("idle: no idle slot at time %d on unit %d", t, unit)
	}

	// Tentative deadline state; surfaced to the caller only on success.
	st.dd = grow(st.dd, n)
	dd := st.dd
	copy(dd, d)
	// Step (a): nodes scheduled prior to the slot must stay prior to it.
	for v := 0; v < n; v++ {
		if s.Finish(graph.NodeID(v)) <= t && dd[v] > t {
			dd[v] = t
		}
	}

	cur, curTL := s, tl
	oldMakespan := s.Makespan()
	for iter := 0; iter < n*maxInner; iter++ {
		// The tail node a_i: finishes exactly at the slot start on this unit.
		tail := curTL.tail(t)
		if tail == graph.None {
			return fail, tl, nil // slot preceded by idle time: nothing to demote
		}
		newDeadline := t - 1
		if newDeadline < c.Exec(tail) {
			return fail, tl, nil // the tail cannot finish any earlier
		}
		// In a feasible schedule finish(tail) = t ≤ dd[tail], so this always
		// tightens.
		if tr != nil {
			tr.Emit(obs.Event{Kind: obs.KindDeadlineTighten, Node: tail,
				Label: c.Label(tail), Block: c.Block(tail),
				Unit: unit, Cycle: t, From: dd[tail], To: newDeadline})
		}
		dd[tail] = newDeadline

		// The context re-ranks from the deadlines it last ranked for: the
		// previous demotion, the previous slot, or the merge.
		ranks, err := c.Refresh(dd)
		if err != nil {
			return moveOutcome{}, nil, err
		}
		// Failure test of Figure 4: some pre-slot node must still be allowed
		// to complete at t, otherwise the vacated slot cannot be refilled.
		refill := false
		for v := 0; v < n; v++ {
			if cur.Finish(graph.NodeID(v)) <= t && ranks[v] >= t {
				refill = true
				break
			}
		}
		if !refill {
			return fail, tl, nil
		}

		// The reschedule shares the ranks the refill test just used.
		res, err := c.RunRanks(ranks, dd, tie)
		if err != nil {
			return moveOutcome{}, nil, err
		}
		if !res.Feasible || res.S.Makespan() > oldMakespan {
			return fail, tl, nil
		}
		resTL := cands[flip]
		flip = 1 - flip
		resTL.init(res.S, unit)
		slots := resTL.slots
		if ordinal >= len(slots) {
			// Slot eliminated (heuristic regime): success.
			return moveOutcome{s: res.S, d: dd, moved: true, newStart: -1}, resTL, nil
		}
		nt := slots[ordinal]
		switch {
		case nt > t:
			return moveOutcome{s: res.S, d: dd, moved: true, newStart: nt}, resTL, nil
		case nt < t:
			// Should be impossible given the pre-slot caps; bail out safely.
			return fail, tl, nil
		default:
			cur, curTL = res.S, resTL // slot unchanged: demote the (possibly new) tail and retry
		}
	}
	return fail, tl, nil
}

// DelayIdleSlots is procedure Delay_Idle_Slots (paper Figure 6): process the
// idle slots of every unit from earliest to latest, repeatedly calling
// MoveIdleSlot on each until it can no longer be delayed. Returns the final
// schedule and committed deadlines.
func DelayIdleSlots(s *sched.Schedule, m *machine.Machine, d []int, tie []graph.NodeID) (*sched.Schedule, []int, error) {
	c, err := rank.NewCtx(s.G, m)
	if err != nil {
		return nil, nil, err
	}
	return DelayIdleSlotsCtx(c, s, d, tie, nil)
}

// DelayIdleSlotsCtx is DelayIdleSlots on a caller-supplied rank context
// (which must have been built for s's graph — or, for schedules produced
// from an induced graph view, for a view of the same size): Algorithm
// Lookahead holds one context per merged subgraph and shares it between the
// merge re-ranks and this pass. The returned deadline slice is freshly
// allocated and owned by the caller.
//
// With a non-nil tr the pass is bracketed by pass-start/pass-end events
// named obs.PassDelayIdleSlots, every successful Move_Idle_Slot emits a
// KindSlotMove event (unit, old start in From, new start in To, −1 = slot
// eliminated), and every tail-deadline demotion a KindDeadlineTighten event.
func DelayIdleSlotsCtx(c *rank.Ctx, s *sched.Schedule, d []int, tie []graph.NodeID, tr obs.Tracer) (*sched.Schedule, []int, error) {
	if c.Len() != s.Len() || (c.Graph() != nil && s.G != nil && c.Graph() != s.G) {
		return nil, nil, fmt.Errorf("idle: rank context built for a different graph")
	}
	m := c.Machine()
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassStart, Pass: obs.PassDelayIdleSlots,
			Block: -1, Node: graph.None, N: len(s.IdleSlots())})
	}
	st := scratchFor(c)
	cur := s
	dd := append([]int(nil), d...)
	for unit := 0; unit < m.TotalUnits(); unit++ {
		tl := &st.tls[0]
		tl.init(cur, unit)
		ordinal := 0
		for guard := 0; guard < cur.Len()*(cur.Makespan()+2); guard++ {
			slots := tl.slots
			if ordinal >= len(slots) {
				break
			}
			from := slots[ordinal]
			out, resTL, err := moveIdleSlot(c, cur, dd, unit, from, tie, tr, tl)
			if err != nil {
				return nil, nil, err
			}
			if out.moved {
				if tr != nil {
					tr.Emit(obs.Event{Kind: obs.KindSlotMove, Unit: unit,
						Block: -1, Node: graph.None,
						From: from, To: out.newStart})
				}
				cur = out.s
				copy(dd, out.d)
				tl = resTL
				continue // same ordinal: try to push it further
			}
			ordinal++
		}
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassEnd, Pass: obs.PassDelayIdleSlots,
			Block: -1, Node: graph.None, N: cur.Makespan()})
	}
	return cur, dd, nil
}
