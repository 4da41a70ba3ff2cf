package aisched

// Throughput layer: a memoizing Scheduler plus the parallel batch API.
//
// Scheduler wraps the package-level entry points (ScheduleBlock,
// ScheduleTrace, ScheduleLoop) with a content-addressed result cache
// (internal/memo keyed by graph.ContentHash): re-submitting the same block —
// even rebuilt with different labels, edge insertion order, or machine name —
// returns the memoized schedule without recomputation, and concurrent
// requests for the same block compute it once. ScheduleBatch fans a slice of
// scheduling requests over a GOMAXPROCS-bounded worker pool with results in
// deterministic input order; ScheduleProgram runs the whole front-end →
// trace-selection → batch-scheduling pipeline for a compiled mini-C program.
//
// Determinism guarantee: every result a Scheduler returns is bit-identical
// to what the corresponding package-level call would return for the same
// graph and machine — cached or not, serial or batched. Cached values are
// stored detached (no reference to any caller's graph) and every return is a
// fresh clone rebound to the calling request's Graph/Machine pointers, so
// callers may mutate results freely.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aisched/internal/cfg"
	"aisched/internal/core"
	"aisched/internal/deps"
	"aisched/internal/faultinject"
	"aisched/internal/graph"
	"aisched/internal/idle"
	"aisched/internal/loops"
	"aisched/internal/memo"
	"aisched/internal/obs"
	"aisched/internal/rank"
	"aisched/internal/sbudget"
)

// CacheCounters is a snapshot of the schedule cache's activity.
type CacheCounters = memo.Counters

// SchedulerOptions configures a Scheduler. The zero value gives the
// defaults: 4096-entry schedule and step caches and GOMAXPROCS batch
// workers. Both caches also have a fixed 64 MiB resident-byte backstop
// (memo.MaxBytes) over 16 lock shards.
type SchedulerOptions struct {
	// CacheCapacity is the total cached-result budget (0 = default 4096).
	// Negative disables caching entirely: every call recomputes.
	CacheCapacity int
	// StepCacheCapacity is the structural step cache's fragment budget
	// (0 = default 4096; negative disables it). The step cache memoizes
	// individual merge/chop iterations inside ScheduleTrace keyed by
	// structural hashes, so repeated block shapes replay in O(block)
	// even across traces the whole-trace cache has never seen. Results are
	// bit-identical either way.
	StepCacheCapacity int
	// Workers bounds ScheduleBatch's worker pool (0 = GOMAXPROCS).
	Workers int
	// ParallelTrace selects the speculative parallel trace path inside
	// ScheduleTrace (fingerprint-verified segment speculation; see the
	// "Parallel trace scheduling" README section). 0 (the default) is auto:
	// long block-grouped traces are partitioned across GOMAXPROCS
	// speculative workers when no per-request Budget forces the sequential
	// walk. Negative disables the parallel path; positive forces that many
	// segments. Results are bit-identical in every mode.
	ParallelTrace int
	// Tracer, when non-nil, receives cache events (hit, miss, evict,
	// coalesce) plus cancellation/degradation events for the metrics
	// snapshot. Scheduling passes are not traced here — use Observer /
	// WithTracer to observe pass internals.
	Tracer Tracer
	// Budget bounds each scheduling request (see Budget). On exhaustion
	// the request degrades gracefully to the baseline list schedule — the
	// result's Schedule carries the reason in its Degraded field — instead
	// of returning an error. Degraded results are never cached.
	Budget Budget
}

// Scheduler is a caching, batch-capable front door to the schedulers. Safe
// for concurrent use. The zero value is not useful; use NewScheduler.
type Scheduler struct {
	cache     *memo.Cache     // nil when caching is disabled
	stepCache *core.StepCache // nil when step caching is disabled
	workers   int
	parallel  int
	budget    Budget
	tracer    Tracer
}

// NewScheduler builds a Scheduler from opt.
func NewScheduler(opt SchedulerOptions) *Scheduler {
	s := &Scheduler{workers: opt.Workers, parallel: opt.ParallelTrace,
		budget: opt.Budget, tracer: opt.Tracer}
	if opt.CacheCapacity >= 0 {
		s.cache = memo.New(memo.Config{Capacity: opt.CacheCapacity, Tracer: opt.Tracer})
	}
	if opt.StepCacheCapacity >= 0 {
		// One step cache shared by every batch worker: fragments are
		// immutable once stored and each worker replays into its own
		// pooled Step scratch.
		s.stepCache = core.NewStepCache(core.StepCacheConfig{Capacity: opt.StepCacheCapacity})
	}
	return s
}

// CacheCounters returns the cache activity counters (all zero when caching
// is disabled).
func (sc *Scheduler) CacheCounters() CacheCounters {
	if sc.cache == nil {
		return CacheCounters{}
	}
	return sc.cache.Counters()
}

// StepCacheCounters returns the structural step cache's activity counters
// (all zero when step caching is disabled).
func (sc *Scheduler) StepCacheCounters() CacheCounters {
	if sc.stepCache == nil {
		return CacheCounters{}
	}
	return sc.stepCache.Counters()
}

// SpecCounters is a snapshot of the speculative parallel trace scheduler's
// counters: runs that took the parallel path, segments speculated, join
// verification hits/misses, and blocks recomputed after a miss.
type SpecCounters = core.SpecStats

// SpecTraceCounters snapshots the speculation counters. They are
// process-wide — the parallel path engages per call, not per Scheduler — so
// callers wanting per-run numbers diff two snapshots.
func SpecTraceCounters() SpecCounters { return core.SpecCounters() }

// scheduleBlockFused is ScheduleBlock, traced or not: the Rank Algorithm's
// minimum-makespan pass and Delay_Idle_Slots share one rank context (the
// per-graph cached topo order, descendant closure and scratch). bs, when
// non-nil, makes every rank pass a cancellation/budget checkpoint. tr, when
// non-nil, receives the rank pass's start/end events (named
// obs.PassRankMakespan, the end carrying the makespan) and
// Delay_Idle_Slots' pass, slot-move and deadline events; tracing changes
// nothing else.
func scheduleBlockFused(g *Graph, m *Machine, bs *sbudget.State, tr Tracer) (*Schedule, error) {
	rc, err := rank.NewCtx(g, m)
	if err != nil {
		return nil, err
	}
	rc.SetBudget(bs)
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassStart, Pass: obs.PassRankMakespan,
			Block: -1, Node: graph.None, N: g.Len()})
	}
	t := stageTimer(stageSampler)
	res, err := rc.Run(rank.UniformDeadlines(g.Len(), rank.Big), nil)
	if err != nil {
		return nil, err
	}
	stageDone(mStageRankNS, t)
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassEnd, Pass: obs.PassRankMakespan,
			Block: -1, Node: graph.None, N: res.S.Makespan()})
	}
	d := rank.UniformDeadlines(g.Len(), res.S.Makespan())
	t = stageTimer(stageSampler)
	s, _, err := idle.DelayIdleSlotsCtx(rc, res.S, d, nil, tr)
	stageDone(mStageIdleNS, t)
	return s, err
}

// request runs one Scheduler request: compute under the request's budget,
// through the schedule cache when it is on. Cached values are stored
// detached — sched(v).G/M cleared, so the cache never retains a caller's
// graph — and every hit is returned as a clone rebound to g and m. A budget
// exhaustion degrades to fallback outside the cache: the compute returned an
// error, which is never stored, so degraded results are never cached.
func request[T interface{ Clone() T }](sc *Scheduler, ctx context.Context, kind memo.Kind, g *Graph, m *Machine,
	compute func(*sbudget.State) (T, error), sched func(T) *Schedule,
	fallback func(*Graph, *Machine, string) (T, error)) (T, error) {
	bs := sc.newBudget(ctx)
	var out T
	var err error
	if sc.cache == nil {
		out, err = compute(bs)
	} else {
		var v any
		v, _, err = sc.cache.DoCtx(ctx, memo.KeyFor(g, m, kind), func() (any, error) {
			r, err := compute(bs)
			if err != nil {
				return nil, err
			}
			s := sched(r)
			s.G, s.M = nil, nil
			return r, nil
		})
		if err == nil {
			out = v.(T).Clone()
			s := sched(out)
			s.G, s.M = g, m
		}
	}
	if err == nil {
		return out, nil
	}
	if reason := sc.degradeReason(err); reason != "" {
		return fallback(g, m, reason)
	}
	var zero T
	return zero, err
}

// ScheduleBlock is the memoized equivalent of the package-level
// ScheduleBlock.
func (sc *Scheduler) ScheduleBlock(g *Graph, m *Machine) (*Schedule, error) {
	return sc.ScheduleBlockCtx(context.Background(), g, m)
}

// ScheduleBlockCtx is ScheduleBlock with cooperative cancellation and the
// Scheduler's budget applied; on budget exhaustion it returns the baseline
// fallback schedule tagged Degraded (never an error).
func (sc *Scheduler) ScheduleBlockCtx(ctx context.Context, g *Graph, m *Machine) (*Schedule, error) {
	defer observeRequest(mReqBlockNS, time.Now())
	return request(sc, ctx, memo.KindBlock, g, m,
		func(bs *sbudget.State) (*Schedule, error) { return scheduleBlockFused(g, m, bs, nil) },
		func(s *Schedule) *Schedule { return s }, sc.fallbackBlock)
}

// ScheduleTrace is the memoized equivalent of the package-level
// ScheduleTrace.
func (sc *Scheduler) ScheduleTrace(g *Graph, m *Machine) (*TraceResult, error) {
	return sc.ScheduleTraceCtx(context.Background(), g, m)
}

// ScheduleTraceCtx is ScheduleTrace with cooperative cancellation and the
// Scheduler's budget applied; on budget exhaustion it returns the baseline
// fallback trace result tagged Degraded (never an error).
func (sc *Scheduler) ScheduleTraceCtx(ctx context.Context, g *Graph, m *Machine) (*TraceResult, error) {
	defer observeRequest(mReqTraceNS, time.Now())
	return request(sc, ctx, memo.KindTrace, g, m, func(bs *sbudget.State) (*TraceResult, error) {
		return core.LookaheadOpts(g, m, core.Options{Budget: bs, StepCache: sc.stepCache, Parallel: sc.parallel})
	}, func(r *TraceResult) *Schedule { return r.S }, sc.fallbackTrace)
}

// ScheduleLoop is the memoized equivalent of the package-level ScheduleLoop.
func (sc *Scheduler) ScheduleLoop(g *Graph, m *Machine) (*LoopSteady, error) {
	return sc.ScheduleLoopCtx(context.Background(), g, m)
}

// ScheduleLoopCtx is ScheduleLoop with cooperative cancellation and the
// Scheduler's budget applied; on budget exhaustion it returns the baseline
// fallback steady state tagged Degraded (never an error).
func (sc *Scheduler) ScheduleLoopCtx(ctx context.Context, g *Graph, m *Machine) (*LoopSteady, error) {
	defer observeRequest(mReqLoopNS, time.Now())
	return request(sc, ctx, memo.KindLoop, g, m, func(bs *sbudget.State) (*LoopSteady, error) {
		return loops.ScheduleLoopOpts(g, m, loops.Opts{Budget: bs})
	}, func(st *LoopSteady) *Schedule { return st.S }, sc.fallbackLoop)
}

// BatchKind selects which scheduler a BatchItem runs.
type BatchKind uint8

const (
	// BatchTrace runs Algorithm Lookahead (ScheduleTrace).
	BatchTrace BatchKind = iota
	// BatchBlock runs the single-block rank + Delay_Idle_Slots pipeline.
	BatchBlock
	// BatchLoop runs the §5 loop scheduler.
	BatchLoop
)

// BatchItem is one scheduling request.
type BatchItem struct {
	G    *Graph
	M    *Machine
	Kind BatchKind
}

// BatchResult is one scheduling outcome; exactly one of Trace/Block/Loop is
// set (matching the item's Kind) unless Err is non-nil.
type BatchResult struct {
	Trace *TraceResult
	Block *Schedule
	Loop  *LoopSteady
	Err   error
}

// Degraded returns the degradation reason carried by the result's schedule
// ("" for a full anticipatory result, an error result, or an empty result).
func (r BatchResult) Degraded() string {
	switch {
	case r.Block != nil:
		return r.Block.Degraded
	case r.Trace != nil && r.Trace.S != nil:
		return r.Trace.S.Degraded
	case r.Loop != nil && r.Loop.S != nil:
		return r.Loop.S.Degraded
	}
	return ""
}

// scheduleOne dispatches one batch item to the matching Ctx entry point.
func (sc *Scheduler) scheduleOne(ctx context.Context, it BatchItem) (r BatchResult) {
	switch {
	case it.G == nil || it.M == nil:
		r.Err = fmt.Errorf("aisched: batch item needs a graph and a machine")
	case it.Kind == BatchTrace:
		r.Trace, r.Err = sc.ScheduleTraceCtx(ctx, it.G, it.M)
	case it.Kind == BatchBlock:
		r.Block, r.Err = sc.ScheduleBlockCtx(ctx, it.G, it.M)
	case it.Kind == BatchLoop:
		r.Loop, r.Err = sc.ScheduleLoopCtx(ctx, it.G, it.M)
	default:
		r.Err = fmt.Errorf("aisched: unknown batch kind %d", it.Kind)
	}
	return r
}

// batchOne is the per-item worker body: items picked up after cancellation
// are drained immediately with ctx.Err() instead of being scheduled, and a
// panic anywhere in the item's scheduling (including injected faults) is
// converted into a per-item error so one poisoned item never kills the whole
// batch. submitted is when the batch was submitted; pickup-minus-submit is
// the item's queue wait.
func (sc *Scheduler) batchOne(ctx context.Context, it BatchItem, submitted time.Time) (r BatchResult) {
	mQueueWaitNS.Observe(int64(time.Since(submitted)))
	mBatchItems.Inc()
	mWorkersBusy.Inc()
	defer func() {
		mWorkersBusy.Dec()
		if p := recover(); p != nil {
			mBatchPanics.Inc()
			r = BatchResult{Err: fmt.Errorf("aisched: scheduling panicked: %v", p)}
		}
	}()
	if err := ctx.Err(); err != nil {
		mCancelled.Inc()
		sc.emitRobust(obs.KindCancel, err.Error())
		return BatchResult{Err: err}
	}
	if h := faultinject.WorkerStart; h != nil {
		h()
	}
	return sc.scheduleOne(ctx, it)
}

// ScheduleBatch schedules every item on a bounded worker pool and returns
// the results in input order. Duplicate items (same content hash) are
// computed once: concurrent duplicates coalesce on the cache's in-flight
// table, later ones hit the memo. One item's failure never affects the
// others; check each BatchResult.Err.
func (sc *Scheduler) ScheduleBatch(items []BatchItem) []BatchResult {
	return sc.ScheduleBatchCtx(context.Background(), items)
}

// ScheduleBatchCtx is ScheduleBatch with cooperative cancellation: when ctx
// is cancelled mid-flight, in-progress items return ctx.Err() within one
// checkpoint interval and not-yet-started items are drained without being
// scheduled, so every result is either complete or carries a context error —
// never partial.
func (sc *Scheduler) ScheduleBatchCtx(ctx context.Context, items []BatchItem) []BatchResult {
	results := make([]BatchResult, len(items))
	if len(items) == 0 {
		return results
	}
	submitted := time.Now()
	workers := sc.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers == 1 {
		for i := range items {
			results[i] = sc.batchOne(ctx, items[i], submitted)
		}
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				// Indexed write: no ordering coordination needed, results
				// land in input order by construction.
				results[i] = sc.batchOne(ctx, items[i], submitted)
			}
		}()
	}
	wg.Wait()
	return results
}

// ProgramTrace is one scheduled trace of a compiled program.
type ProgramTrace struct {
	// Blocks are the CFG block indices that contributed instructions, in
	// trace order; the trace graph's block index b corresponds to Blocks[b].
	Blocks []int
	// G is the trace's dependence graph (cross-block deps included).
	G *Graph
	// Res is the anticipatory schedule of the trace.
	Res *TraceResult
}

// ProgramSchedule is ScheduleProgram's output: every trace of the program,
// in trace-selection order (heaviest first).
type ProgramSchedule struct {
	Traces []ProgramTrace
}

// ScheduleProgram compiles nothing itself — it takes a compiled mini-C
// program, builds its CFG, selects traces (Fisher's heuristic, heaviest
// seed first), builds each trace's dependence graph, and schedules all
// traces through ScheduleBatch. Hot blocks repeated across programs hit the
// schedule cache.
func (sc *Scheduler) ScheduleProgram(c *CompiledC, m *Machine) (*ProgramSchedule, error) {
	return sc.ScheduleProgramCtx(context.Background(), c, m)
}

// ScheduleProgramCtx is ScheduleProgram with cooperative cancellation
// threaded through the batch pipeline.
func (sc *Scheduler) ScheduleProgramCtx(ctx context.Context, c *CompiledC, m *Machine) (*ProgramSchedule, error) {
	cg, err := cfg.FromCompiled(c)
	if err != nil {
		return nil, err
	}
	traces := cg.SelectTraces()
	ps := &ProgramSchedule{Traces: make([]ProgramTrace, 0, len(traces))}
	items := make([]BatchItem, 0, len(traces))
	for _, tr := range traces {
		// TraceInstrs skips empty blocks, so record the block indices that
		// actually landed in the graph (graph block b = kept[b]).
		var kept []int
		var instrs [][]Instr
		for _, bi := range tr {
			if bs := cg.Blocks[bi].Instrs; len(bs) > 0 {
				kept = append(kept, bi)
				instrs = append(instrs, bs)
			}
		}
		g := deps.BuildTrace(instrs)
		ps.Traces = append(ps.Traces, ProgramTrace{Blocks: kept, G: g})
		items = append(items, BatchItem{G: g, M: m, Kind: BatchTrace})
	}
	for i, r := range sc.ScheduleBatchCtx(ctx, items) {
		if r.Err != nil {
			return nil, fmt.Errorf("aisched: trace %d: %w", i, r.Err)
		}
		ps.Traces[i].Res = r.Trace
	}
	return ps, nil
}

// ScheduleBatch schedules items on a default Scheduler (fresh cache,
// GOMAXPROCS workers) and returns results in input order.
func ScheduleBatch(items []BatchItem) []BatchResult {
	return NewScheduler(SchedulerOptions{}).ScheduleBatch(items)
}

// ScheduleBatchCtx schedules items on a default Scheduler with cooperative
// cancellation.
func ScheduleBatchCtx(ctx context.Context, items []BatchItem) []BatchResult {
	return NewScheduler(SchedulerOptions{}).ScheduleBatchCtx(ctx, items)
}

// ScheduleProgram schedules every trace of a compiled program on a default
// Scheduler.
func ScheduleProgram(c *CompiledC, m *Machine) (*ProgramSchedule, error) {
	return NewScheduler(SchedulerOptions{}).ScheduleProgram(c, m)
}

// ScheduleProgramCtx schedules every trace of a compiled program on a
// default Scheduler with cooperative cancellation.
func ScheduleProgramCtx(ctx context.Context, c *CompiledC, m *Machine) (*ProgramSchedule, error) {
	return NewScheduler(SchedulerOptions{}).ScheduleProgramCtx(ctx, c, m)
}
