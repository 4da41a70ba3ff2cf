package aisched

// Robustness layer: context cancellation, per-request scheduling budgets,
// and graceful degradation.
//
// Every public scheduling entry point has a Ctx variant threading a
// context.Context through the schedulers' cooperative checkpoints (every
// rank pass, every lookahead block, every loop candidate), so an in-flight
// request cancels within one checkpoint interval and returns the context's
// error — never a partial or corrupt schedule. The non-Ctx signatures are
// thin context.Background() wrappers, so existing callers are unaffected.
//
// A Scheduler additionally carries SchedulerOptions.Budget: a wall-clock
// deadline and/or rank-pass cap charged per scheduling request. A request
// that exhausts its budget does not fail — it falls back to the cheap greedy
// list schedule from internal/baseline (critical-path list scheduling, the
// strongest O(n log n) baseline) and tags the result's Schedule.Degraded
// with the reason. Degraded and cancelled results are never cached: the memo
// layer never stores errors, and degradation happens outside the cache
// compute. An anticipatory schedule that arrives too late is worthless; a
// slightly weaker schedule that arrives on time is not.

import (
	"context"
	"errors"
	"time"

	"aisched/internal/baseline"
	"aisched/internal/core"
	"aisched/internal/graph"
	"aisched/internal/loops"
	"aisched/internal/obs"
	"aisched/internal/sbudget"
	"aisched/internal/sched"
)

// Budget bounds the work one scheduling request may spend before the
// pipeline degrades to the baseline list schedule. The zero value means
// unlimited.
type Budget struct {
	// WallClock is the per-request wall-clock allowance (0 = unlimited).
	WallClock time.Duration
	// MaxRankPasses caps the number of rank passes (greedy reschedules) a
	// request may run (0 = unlimited). It counts the passes that run:
	// every merge round that re-ranks, idle-slot demotion and loop
	// candidate costs at least one pass, so this bounds the scheduler's
	// dominant cost deterministically. Loosening rounds the merge settles
	// without re-ranking (their outcome is already fixed) cost none.
	MaxRankPasses int
}

// ScheduleBlockCtx is ScheduleBlock with cooperative cancellation: when ctx
// is cancelled the call returns ctx.Err() within one rank pass.
func ScheduleBlockCtx(ctx context.Context, g *Graph, m *Machine) (*Schedule, error) {
	defer observeRequest(mReqBlockNS, time.Now())
	return scheduleBlockFused(g, m, sbudget.New(ctx, 0, 0), nil)
}

// ScheduleTraceCtx is ScheduleTrace with cooperative cancellation.
func ScheduleTraceCtx(ctx context.Context, g *Graph, m *Machine) (*TraceResult, error) {
	defer observeRequest(mReqTraceNS, time.Now())
	return core.LookaheadOpts(g, m, core.Options{Budget: sbudget.New(ctx, 0, 0)})
}

// ScheduleLoopCtx is ScheduleLoop with cooperative cancellation.
func ScheduleLoopCtx(ctx context.Context, g *Graph, m *Machine) (*LoopSteady, error) {
	defer observeRequest(mReqLoopNS, time.Now())
	return loops.ScheduleLoopOpts(g, m, loops.Opts{Budget: sbudget.New(ctx, 0, 0)})
}

// newBudget builds the per-request checkpoint state from the request context
// and the Scheduler's configured budget; nil (zero overhead) when there is
// nothing to enforce.
func (sc *Scheduler) newBudget(ctx context.Context) *sbudget.State {
	return sbudget.New(ctx, sc.budget.WallClock, sc.budget.MaxRankPasses)
}

// emitRobust reports one cancellation or degradation to the Scheduler's
// tracer (reason carried in the event label).
func (sc *Scheduler) emitRobust(kind obs.Kind, reason string) {
	if sc.tracer != nil {
		sc.tracer.Emit(obs.Event{Kind: kind, Label: reason, Block: -1, Node: graph.None})
	}
}

// degradeReason classifies err: a non-empty reason means the request's
// budget was exhausted and the caller should fall back to the baseline
// schedule; context errors are recorded as cancellations and everything else
// is a real failure.
func (sc *Scheduler) degradeReason(err error) string {
	if reason := sbudget.Reason(err); reason != "" {
		return reason
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		mCancelled.Inc()
		sc.emitRobust(obs.KindCancel, err.Error())
	}
	return ""
}

// fallbackBlock is the graceful-degradation path of ScheduleBlockCtx: the
// critical-path greedy list schedule, tagged with the exhaustion reason.
func (sc *Scheduler) fallbackBlock(g *Graph, m *Machine, reason string) (*Schedule, error) {
	order, err := baseline.CriticalPath{}.Order(g, m)
	if err != nil {
		return nil, err
	}
	s, err := sched.ListSchedule(g, m, order)
	if err != nil {
		return nil, err
	}
	s.Degraded = reason
	mDegraded.Inc()
	sc.emitRobust(obs.KindDegrade, reason)
	return s, nil
}

// fallbackTrace degrades a trace request: per-block critical-path list
// scheduling (no anticipation), packaged as a TraceResult so callers see the
// same shape as the full algorithm.
func (sc *Scheduler) fallbackTrace(g *Graph, m *Machine, reason string) (*TraceResult, error) {
	order, err := baseline.ScheduleTrace(baseline.CriticalPath{}, g, m)
	if err != nil {
		return nil, err
	}
	s, err := sched.ListSchedule(g, m, order)
	if err != nil {
		return nil, err
	}
	s.Degraded = reason
	res := &core.Result{Order: s.Permutation(), BlockOrders: map[int][]graph.NodeID{}, S: s}
	// order is the per-block concatenation, so grouping by block preserves
	// each block's static order.
	for _, id := range order {
		b := g.Node(id).Block
		res.BlockOrders[b] = append(res.BlockOrders[b], id)
	}
	mDegraded.Inc()
	sc.emitRobust(obs.KindDegrade, reason)
	return res, nil
}

// fallbackLoop degrades a loop request: critical-path list scheduling of the
// loop-independent body, evaluated in the periodic steady-state model.
func (sc *Scheduler) fallbackLoop(g *Graph, m *Machine, reason string) (*LoopSteady, error) {
	order, err := baseline.ScheduleTrace(baseline.CriticalPath{}, g.LoopIndependent(), m)
	if err != nil {
		return nil, err
	}
	st, err := loops.Evaluate(g, m, order)
	if err != nil {
		return nil, err
	}
	st.S.Degraded = reason
	mDegraded.Inc()
	sc.emitRobust(obs.KindDegrade, reason)
	return st, nil
}
