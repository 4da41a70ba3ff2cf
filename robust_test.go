package aisched

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"aisched/internal/faultinject"
	"aisched/internal/loops"
	"aisched/internal/obs"
	"aisched/internal/sched"
	"aisched/internal/workload"
)

// smallTrace is the property-test workload: traces small enough that the
// total checkpoint count stays in the tens, so cancelling at every
// checkpoint index over ~200 graphs remains fast even under -race.
func smallTrace() workload.TraceConfig {
	return workload.TraceConfig{
		Blocks: 3, MinSize: 2, MaxSize: 4,
		IntraProb: 0.4, CrossProb: 0.2,
		Latency: workload.ZeroOne, Classes: 1, MaxExec: 1,
	}
}

// restrictedTrace is DefaultTrace restricted to 0/1 latencies — the
// paper's restricted model, in which the predicted trace schedule satisfies
// exact dependence validation (Mixed latencies use looser cross-block
// latency semantics in the predicted schedule).
func restrictedTrace() workload.TraceConfig {
	c := workload.DefaultTrace()
	c.Latency = workload.ZeroOne
	return c
}

// checkCompleteTrace asserts that res is a complete, internally consistent
// trace result for g: the schedule validates (every node scheduled, every
// dependence and resource constraint met) and the emitted block orders form
// a partition of the graph — i.e. never a partial or corrupt result.
func checkCompleteTrace(t *testing.T, what string, res *TraceResult, g *Graph) {
	t.Helper()
	if res == nil || res.S == nil {
		t.Fatalf("%s: nil result", what)
	}
	if err := res.S.Validate(); err != nil {
		t.Fatalf("%s: invalid schedule: %v", what, err)
	}
	if len(res.Order) != g.Len() {
		t.Fatalf("%s: order covers %d of %d nodes", what, len(res.Order), g.Len())
	}
	seen := make(map[NodeID]bool, g.Len())
	for b, order := range res.BlockOrders {
		for _, id := range order {
			if g.Node(id).Block != b {
				t.Fatalf("%s: node %d emitted under block %d, belongs to %d", what, id, b, g.Node(id).Block)
			}
			if seen[id] {
				t.Fatalf("%s: node %d emitted twice", what, id)
			}
			seen[id] = true
		}
	}
	if len(seen) != g.Len() {
		t.Fatalf("%s: block orders cover %d of %d nodes", what, len(seen), g.Len())
	}
}

// TestAlreadyCancelledCtx: a context cancelled before the call returns
// context.Canceled from every Ctx entry point without doing scheduling work.
func TestAlreadyCancelledCtx(t *testing.T) {
	m := SingleUnit(4)
	r := rand.New(rand.NewSource(1))
	tg, err := workload.Trace(r, smallTrace())
	if err != nil {
		t.Fatal(err)
	}
	lg, err := workload.Loop(r, workload.DefaultLoop())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := ScheduleBlockCtx(ctx, tg, m); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScheduleBlockCtx = %v, want context.Canceled", err)
	}
	if _, err := ScheduleTraceCtx(ctx, tg, m); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScheduleTraceCtx = %v, want context.Canceled", err)
	}
	if _, err := ScheduleLoopCtx(ctx, lg, m); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScheduleLoopCtx = %v, want context.Canceled", err)
	}
}

// TestCtxBackgroundMatchesPlain: with a background context the Ctx variants
// are the plain entry points — same results, no budget machinery in the way.
func TestCtxBackgroundMatchesPlain(t *testing.T) {
	m := SingleUnit(4)
	r := rand.New(rand.NewSource(2))
	tg, err := workload.Trace(r, workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	a, err := ScheduleTrace(tg, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScheduleTraceCtx(context.Background(), tg, m)
	if err != nil {
		t.Fatal(err)
	}
	sameTraceResult(t, "background ctx", a, b)
	if a.S.Degraded != "" {
		t.Fatalf("unbudgeted result tagged Degraded %q", a.S.Degraded)
	}
}

// TestCancelAtEveryCheckpoint is the property test: for ~200 random traces,
// cancelling at every cooperative checkpoint index in turn either returns
// context.Canceled or a complete, fully legal schedule — never a partial or
// corrupt one. Checkpoints are enumerated with the faultinject.Checkpoint
// hook (every budget Check is a checkpoint), then each index k gets its own
// run whose context is cancelled exactly when checkpoint k fires.
func TestCancelAtEveryCheckpoint(t *testing.T) {
	defer faultinject.Reset()
	m := SingleUnit(4)
	const graphs = 200
	runs := 0
	for seed := int64(0); seed < graphs; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, err := workload.Trace(r, smallTrace())
		if err != nil {
			t.Fatal(err)
		}

		// Pass 1: count this graph's checkpoints. The context must be
		// cancellable so the budget state is actually allocated.
		checkpoints := 0
		faultinject.Checkpoint = func() { checkpoints++ }
		ctx, cancel := context.WithCancel(context.Background())
		want, err := ScheduleTraceCtx(ctx, g, m)
		cancel()
		faultinject.Reset()
		if err != nil {
			t.Fatalf("seed %d: uncancelled run failed: %v", seed, err)
		}
		checkCompleteTrace(t, "uncancelled", want, g)

		// Pass 2: cancel at each checkpoint index in turn.
		for k := 1; k <= checkpoints; k++ {
			ctx, cancel := context.WithCancel(context.Background())
			faultinject.Checkpoint = faultinject.After(uint64(k), cancel)
			res, err := ScheduleTraceCtx(ctx, g, m)
			faultinject.Reset()
			cancel()
			runs++
			switch {
			case err != nil:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("seed %d checkpoint %d: err = %v, want context.Canceled", seed, k, err)
				}
				if res != nil {
					t.Fatalf("seed %d checkpoint %d: cancelled call returned a partial result", seed, k)
				}
			default:
				// The call won the race with its cancellation: the result
				// must be the complete legal schedule, bit-identical to the
				// uncancelled run (the schedulers are deterministic).
				checkCompleteTrace(t, "cancelled-but-completed", res, g)
				sameTraceResult(t, "cancelled-but-completed", want, res)
			}
		}
	}
	if runs == 0 {
		t.Fatal("no checkpoints fired: cancellation is not being polled")
	}
	t.Logf("cancelled %d runs across %d graphs", runs, graphs)
}

// TestBatchCancelMidFlight: cancelling a ≥64-item batch mid-flight leaves
// every result either complete-and-legal or context.Canceled — never
// partial — and the not-yet-started tail is drained rather than scheduled.
func TestBatchCancelMidFlight(t *testing.T) {
	defer faultinject.Reset()
	m := SingleUnit(4)
	const n = 64
	items := make([]BatchItem, n)
	for i := range items {
		r := rand.New(rand.NewSource(int64(1000 + i)))
		g, err := workload.Trace(r, restrictedTrace())
		if err != nil {
			t.Fatal(err)
		}
		items[i] = BatchItem{G: g, M: m, Kind: BatchTrace}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel when the 8th item is picked up: items in flight at that moment
	// hit their next checkpoint, the rest of the batch drains.
	faultinject.WorkerStart = faultinject.After(8, cancel)

	rec := obs.NewRecorder()
	sc := NewScheduler(SchedulerOptions{Tracer: rec})
	start := time.Now()
	results := sc.ScheduleBatchCtx(ctx, items)
	elapsed := time.Since(start)

	if len(results) != n {
		t.Fatalf("got %d results for %d items", len(results), n)
	}
	completed, cancelled := 0, 0
	for i, r := range results {
		switch {
		case r.Err != nil:
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("item %d: err = %v, want context.Canceled", i, r.Err)
			}
			if r.Trace != nil {
				t.Fatalf("item %d: error result also carries a schedule", i)
			}
			cancelled++
		default:
			checkCompleteTrace(t, "batch item", r.Trace, items[i].G)
			completed++
		}
	}
	if cancelled == 0 {
		t.Fatal("mid-flight cancellation cancelled nothing")
	}
	if rec.Stats().Cancellations == 0 {
		t.Fatal("no KindCancel events were emitted")
	}
	t.Logf("batch of %d: %d completed, %d cancelled, in %v", n, completed, cancelled, elapsed)
}

// TestBudgetExhaustionDegrades: a Scheduler with a starvation budget never
// errors — every kind returns the baseline fallback tagged with the
// exhaustion reason, the fallback validates, and nothing degraded lands in
// the cache.
func TestBudgetExhaustionDegrades(t *testing.T) {
	m := SingleUnit(4)
	r := rand.New(rand.NewSource(6))
	tg, err := workload.Trace(r, workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	lg, err := workload.Loop(r, workload.DefaultLoop())
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	sc := NewScheduler(SchedulerOptions{Budget: Budget{MaxRankPasses: 1}, Tracer: rec})

	s, err := sc.ScheduleBlockCtx(context.Background(), tg, m)
	if err != nil {
		t.Fatalf("block under starvation budget: %v", err)
	}
	if s.Degraded == "" || !strings.Contains(s.Degraded, "rank-pass limit") {
		t.Fatalf("block Degraded = %q, want rank-pass reason", s.Degraded)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("degraded block schedule invalid: %v", err)
	}

	tr, err := sc.ScheduleTraceCtx(context.Background(), tg, m)
	if err != nil {
		t.Fatalf("trace under starvation budget: %v", err)
	}
	if tr.S.Degraded == "" {
		t.Fatal("trace result not tagged Degraded")
	}
	if err := tr.S.Validate(); err != nil {
		t.Fatalf("degraded trace schedule invalid: %v", err)
	}
	if len(tr.Order) != tg.Len() {
		t.Fatalf("degraded trace order covers %d of %d nodes", len(tr.Order), tg.Len())
	}

	st, err := sc.ScheduleLoopCtx(context.Background(), lg, m)
	if err != nil {
		t.Fatalf("loop under starvation budget: %v", err)
	}
	if st.S.Degraded == "" {
		t.Fatal("loop result not tagged Degraded")
	}
	if st.II <= 0 {
		t.Fatalf("degraded loop II = %d", st.II)
	}

	// Degraded results must never be cached: repeating the same request
	// misses again (and degrades again) rather than hitting a stored
	// fallback.
	before := sc.CacheCounters()
	if before.Hits != 0 {
		t.Fatalf("degraded results produced cache hits: %+v", before)
	}
	s2, err := sc.ScheduleBlockCtx(context.Background(), tg, m)
	if err != nil || s2.Degraded == "" {
		t.Fatalf("repeat degraded block: err=%v Degraded=%q", err, s2.Degraded)
	}
	after := sc.CacheCounters()
	if after.Hits != before.Hits {
		t.Fatalf("a degraded result was served from cache: %+v -> %+v", before, after)
	}
	if rec.Stats().Degradations < 4 {
		t.Fatalf("Degradations = %d, want ≥ 4", rec.Stats().Degradations)
	}

	// The same Scheduler without exhaustion pressure still caches normally.
	sc2 := NewScheduler(SchedulerOptions{})
	if _, err := sc2.ScheduleBlockCtx(context.Background(), tg, m); err != nil {
		t.Fatal(err)
	}
	if _, err := sc2.ScheduleBlockCtx(context.Background(), tg, m); err != nil {
		t.Fatal(err)
	}
	if c := sc2.CacheCounters(); c.Hits != 1 {
		t.Fatalf("unbudgeted scheduler should cache: %+v", c)
	}
}

// TestWallClockBudgetDegrades: an immediately-expired wall-clock budget
// degrades (never errors) on the first checkpoint.
func TestWallClockBudgetDegrades(t *testing.T) {
	m := SingleUnit(4)
	r := rand.New(rand.NewSource(8))
	tg, err := workload.Trace(r, workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScheduler(SchedulerOptions{Budget: Budget{WallClock: time.Nanosecond}})
	tr, err := sc.ScheduleTraceCtx(context.Background(), tg, m)
	if err != nil {
		t.Fatalf("wall-clock starvation errored: %v", err)
	}
	if !strings.Contains(tr.S.Degraded, "wall-clock") {
		t.Fatalf("Degraded = %q, want wall-clock reason", tr.S.Degraded)
	}
}

// TestForcedExhaustionViaFaultInjection: the BudgetExhaust hook forces the
// degradation path without any real budget configured.
func TestForcedExhaustionViaFaultInjection(t *testing.T) {
	defer faultinject.Reset()
	m := SingleUnit(4)
	r := rand.New(rand.NewSource(9))
	tg, err := workload.Trace(r, workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	faultinject.BudgetExhaust = faultinject.ForceExhaust(nil, "test-site")
	sc := NewScheduler(SchedulerOptions{})
	tr, err := sc.ScheduleTraceCtx(context.Background(), tg, m)
	if err != nil {
		t.Fatalf("forced exhaustion errored: %v", err)
	}
	if tr.S.Degraded == "" {
		t.Fatal("forced exhaustion did not degrade")
	}
	if faultinject.Injected() == 0 {
		t.Fatal("injection counter did not advance")
	}
}

// TestWorkerPanicRecovered: an injected panic at worker start (and one deep
// inside a rank pass) becomes that item's error; the rest of the batch is
// unaffected and the process survives.
func TestWorkerPanicRecovered(t *testing.T) {
	defer faultinject.Reset()
	m := SingleUnit(4)
	items := make([]BatchItem, 4)
	for i := range items {
		r := rand.New(rand.NewSource(int64(2000 + i)))
		g, err := workload.Trace(r, restrictedTrace())
		if err != nil {
			t.Fatal(err)
		}
		items[i] = BatchItem{G: g, M: m, Kind: BatchTrace}
	}

	// Panic on the second worker pickup.
	faultinject.WorkerStart = faultinject.After(2, func() { panic("injected worker fault") })
	sc := NewScheduler(SchedulerOptions{Workers: 1, CacheCapacity: -1})
	results := sc.ScheduleBatch(items)
	faultinject.Reset()

	var failed, ok int
	for i, r := range results {
		if r.Err != nil {
			if !strings.Contains(r.Err.Error(), "panicked") {
				t.Fatalf("item %d: err = %v, want panic conversion", i, r.Err)
			}
			failed++
			continue
		}
		checkCompleteTrace(t, "surviving item", r.Trace, items[i].G)
		ok++
	}
	if failed != 1 || ok != 3 {
		t.Fatalf("failed=%d ok=%d, want exactly one poisoned item", failed, ok)
	}

	// A panic deep inside the scheduler (rank pass) on the cached path is
	// recovered by the memo layer and surfaces as a per-item error too.
	faultinject.RankPass = faultinject.After(1, func() { panic("injected rank fault") })
	sc2 := NewScheduler(SchedulerOptions{Workers: 1})
	results = sc2.ScheduleBatch(items[:2])
	faultinject.Reset()
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panicked") {
		t.Fatalf("rank-pass panic: item 0 err = %v", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("rank-pass panic leaked into item 1: %v", results[1].Err)
	}
}

// TestLoopCandidatePanicRecovered: a panic inside a §5.2.3 candidate
// evaluation (an injected rank-pass fault) reaches the memo layer, through
// Scheduler.ScheduleLoop and through a BatchLoop item of ScheduleBatch,
// and becomes an error; nothing is cached, and the next call computes the
// uncached result.
func TestLoopCandidatePanicRecovered(t *testing.T) {
	defer faultinject.Reset()
	m := SingleUnit(4)
	g, err := workload.Loop(rand.New(rand.NewSource(29)), workload.DefaultLoop())
	if err != nil {
		t.Fatal(err)
	}
	want, err := loops.ScheduleLoop(g, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, via := range []string{"ScheduleLoop", "ScheduleBatch"} {
		sc := NewScheduler(SchedulerOptions{Workers: 1})
		run := func() (*LoopSteady, error) {
			if via == "ScheduleLoop" {
				return sc.ScheduleLoop(g, m)
			}
			r := sc.ScheduleBatch([]BatchItem{{G: g, M: m, Kind: BatchLoop}})[0]
			return r.Loop, r.Err
		}
		faultinject.RankPass = faultinject.After(2, func() { panic("injected rank fault") })
		_, err := run()
		faultinject.Reset()
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("%s: err = %v, want the panic as an error", via, err)
		}
		if c := sc.CacheCounters(); c.Bytes != 0 || c.Hits != 0 {
			t.Fatalf("%s: panicked result cached: %+v", via, c)
		}
		got, err := run()
		if err != nil {
			t.Fatalf("%s after the panic: %v", via, err)
		}
		sameSteady(t, via+" after the panic", got, want)
		if c := sc.CacheCounters(); c.Hits != 0 || c.Misses != 2 {
			t.Fatalf("%s: counters %+v, want two misses and no hit", via, c)
		}
	}
}

// TestBatchResultDegradedAccessor covers the Degraded accessor across kinds.
func TestBatchResultDegradedAccessor(t *testing.T) {
	if (BatchResult{}).Degraded() != "" {
		t.Fatal("empty result reports degradation")
	}
	s := &Schedule{Degraded: "budget"}
	if (BatchResult{Block: s}).Degraded() != "budget" {
		t.Fatal("block degradation not surfaced")
	}
	if (BatchResult{Trace: &TraceResult{S: s}}).Degraded() != "budget" {
		t.Fatal("trace degradation not surfaced")
	}
	if (BatchResult{Loop: &LoopSteady{S: s}}).Degraded() != "budget" {
		t.Fatal("loop degradation not surfaced")
	}
}

// TestBatchBudgetDegradesPerItem: budgets apply per item — a starved batch
// degrades every item instead of failing the batch.
func TestBatchBudgetDegradesPerItem(t *testing.T) {
	m := SingleUnit(4)
	items := make([]BatchItem, 8)
	for i := range items {
		r := rand.New(rand.NewSource(int64(3000 + i)))
		g, err := workload.Trace(r, workload.DefaultTrace())
		if err != nil {
			t.Fatal(err)
		}
		items[i] = BatchItem{G: g, M: m, Kind: BatchTrace}
	}
	sc := NewScheduler(SchedulerOptions{Budget: Budget{MaxRankPasses: 1}})
	for i, r := range sc.ScheduleBatch(items) {
		if r.Err != nil {
			t.Fatalf("item %d errored under budget: %v", i, r.Err)
		}
		if r.Degraded() == "" {
			t.Fatalf("item %d did not degrade under a 1-pass budget", i)
		}
	}
}

// TestNegativeClassRejected: an instruction whose class is negative names no
// functional unit. Every entry point must reject it with an error — never an
// index-out-of-range panic — on single-unit and multi-unit machines alike,
// and a stream that saw one stays poisoned instead of panicking again.
func TestNegativeClassRejected(t *testing.T) {
	build := func() *Graph {
		g := NewGraph(3)
		a := g.AddNode("a", 1, 0, 0)
		b := g.AddNode("b", 1, -1, 0)
		c := g.AddNode("c", 1, 0, 1)
		g.MustEdge(a, b, 1, 0)
		g.MustEdge(b, c, 0, 0)
		return g
	}
	entries := map[string]func(g *Graph, m *Machine) error{
		"ScheduleBlock": func(g *Graph, m *Machine) error {
			_, err := ScheduleBlock(g, m)
			return err
		},
		"ScheduleTrace": func(g *Graph, m *Machine) error {
			_, err := ScheduleTrace(g, m)
			return err
		},
		"StreamScheduler.Push": func(g *Graph, m *Machine) error {
			blocks, _, err := TraceStreamBlocks(g)
			if err != nil {
				return err
			}
			ss := NewStreamScheduler(m, StreamOptions{})
			_, err = ss.Push(blocks[0])
			if err == nil {
				return nil
			}
			if _, again := ss.Push(blocks[1]); again == nil {
				t.Errorf("push after a rejected block succeeded; want the stream poisoned")
			}
			return err
		},
		"SimulateTrace": func(g *Graph, m *Machine) error {
			_, err := SimulateTrace(g, m, []NodeID{0, 1, 2})
			return err
		},
		"CheckLegal": func(g *Graph, m *Machine) error {
			s := sched.New(g, m)
			for v := range s.Start {
				s.Start[v], s.Unit[v] = 2*v, 0
			}
			return CheckLegal(s, m.Window)
		},
		"Pipeline": func(g *Graph, m *Machine) error {
			_, err := Pipeline(g, m)
			return err
		},
	}
	machines := map[string]*Machine{"single-w2": SingleUnit(2), "rs6000-w4": RS6000(4)}
	for mname, m := range machines {
		for name, run := range entries {
			t.Run(name+"/"+mname, func(t *testing.T) {
				var err error
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("panicked: %v", p)
						}
					}()
					err = run(build(), m)
				}()
				if err == nil {
					t.Fatal("negative class accepted")
				}
			})
		}
	}
}
