package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"aisched/internal/faultinject"
	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
	"aisched/internal/sbudget"
	"aisched/internal/testutil"
	"aisched/internal/workload"
)

// requireSameResult asserts two Lookahead results are bit-identical:
// the emission order, every absolute placement, and every per-block static
// order. This is the parallel path's whole contract — speculation must be
// invisible in the output, not merely makespan-equivalent.
func requireSameResult(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if len(got.Order) != len(want.Order) {
		t.Fatalf("%s: order length %d, want %d", tag, len(got.Order), len(want.Order))
	}
	for i := range want.Order {
		if got.Order[i] != want.Order[i] {
			t.Fatalf("%s: Order[%d] = %d, want %d", tag, i, got.Order[i], want.Order[i])
		}
	}
	for v := range want.S.Start {
		if got.S.Start[v] != want.S.Start[v] || got.S.Unit[v] != want.S.Unit[v] {
			t.Fatalf("%s: node %d placed (%d,%d), want (%d,%d)", tag, v,
				got.S.Start[v], got.S.Unit[v], want.S.Start[v], want.S.Unit[v])
		}
	}
	if len(got.BlockOrders) != len(want.BlockOrders) {
		t.Fatalf("%s: %d block orders, want %d", tag, len(got.BlockOrders), len(want.BlockOrders))
	}
	for b, wo := range want.BlockOrders {
		go_ := got.BlockOrders[b]
		if len(go_) != len(wo) {
			t.Fatalf("%s: block %d has %d nodes, want %d", tag, b, len(go_), len(wo))
		}
		for i := range wo {
			if go_[i] != wo[i] {
				t.Fatalf("%s: block %d order[%d] = %d, want %d", tag, b, i, go_[i], wo[i])
			}
		}
	}
}

// specTestInstance draws one random trace for the differential tests,
// cycling through the regimes speculation must survive: barrier-rich and
// barrier-free traces, 0/1 and mixed latencies (mixed latencies produce the
// cross-segment release floors the join verifies), multi-class machines,
// and non-unit execution times.
func specTestInstance(t *testing.T, seed int) (*graph.Graph, *machine.Machine) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(seed)))
	var g *graph.Graph
	var err error
	switch seed % 5 {
	case 0: // barrier-rich long trace, mixed latencies
		cfg := workload.DefaultLongTrace(12 + seed%4*8)
		g, err = workload.LongTrace(r, cfg)
	case 1: // sparse barriers
		cfg := workload.DefaultLongTrace(16 + seed%3*8)
		cfg.BarrierEvery = 4
		g, err = workload.LongTrace(r, cfg)
	case 2: // no barriers at all: every join must miss or genuinely converge
		cfg := workload.DefaultTrace()
		cfg.Blocks = 10 + seed%11*3
		g, err = workload.Trace(r, cfg)
	case 3: // restricted model (0/1 latencies), denser cross edges
		cfg := workload.DefaultTrace()
		cfg.Blocks = 12 + seed%7*4
		cfg.Latency = workload.ZeroOne
		cfg.CrossProb = 0.3
		g, err = workload.Trace(r, cfg)
	default: // multi-class, non-unit exec, mixed latencies
		cfg := workload.DefaultTrace()
		cfg.Blocks = 10 + seed%9*3
		cfg.Classes = 2
		cfg.MaxExec = 3
		g, err = workload.Trace(r, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	var m *machine.Machine
	switch seed % 3 {
	case 0:
		m = machine.SingleUnit(4)
	case 1:
		m = machine.SingleUnit(2)
	default:
		m = machine.NewMachine("2u", []int{2, 1}, 4)
	}
	return g, m
}

// TestSpeculativeTraceBitIdentical is the core differential property:
// across ~300 random traces spanning latency regimes, machine shapes, and
// barrier densities, the speculative parallel path at every forced segment
// width is bit-identical to the sequential walk — with and without a step
// cache shared across instances. The last input is a maximally repetitive
// trace run twice at one width through that cache, so the repeat's workers
// replay the first run's fragments from their first warm-up block on.
func TestSpeculativeTraceBitIdentical(t *testing.T) {
	sc := NewStepCache(StepCacheConfig{})
	defer sc.Release()
	check := func(tag string, g *graph.Graph, m *machine.Machine, opts []Options) {
		t.Helper()
		seq, err := LookaheadOpts(g, m, Options{Parallel: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range opts {
			par, err := LookaheadOpts(g, m, opt)
			tag := fmt.Sprintf("%s/p=%d/cached=%t", tag, opt.Parallel, opt.StepCache != nil)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			requireSameResult(t, tag, seq, par)
		}
	}
	widths := []int{2, 3, 4, 8}
	for seed := 0; seed < 75; seed++ {
		g, m := specTestInstance(t, seed)
		opts := make([]Options, len(widths))
		for wi, p := range widths {
			opts[wi].Parallel = p
			if (seed+wi)%2 == 1 {
				opts[wi].StepCache = sc
			}
		}
		check(fmt.Sprintf("seed=%d", seed), g, m, opts)
	}
	repeat := Options{Parallel: 4, StepCache: sc}
	check("repetitive", repetitiveChainTrace(48, 8), machine.SingleUnit(4), []Options{repeat, repeat})
	st := SpecCounters()
	t.Logf("cumulative: runs=%d segments=%d hits=%d misses=%d fallback=%d",
		st.Runs, st.Segments, st.Hits, st.Misses, st.FallbackBlocks)
}

// TestSpeculativeForcedMismatch fault-injects a wrong verification verdict
// at every join: all speculation must be rejected, every segment recomputed
// sequentially, and the output still bit-identical — the fallback path is
// the sequential walk by construction, and this pins it.
func TestSpeculativeForcedMismatch(t *testing.T) {
	defer faultinject.Reset()
	r := rand.New(rand.NewSource(99))
	g, err := workload.LongTrace(r, workload.DefaultLongTrace(64))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.SingleUnit(4)
	seq, err := LookaheadOpts(g, m, Options{Parallel: -1})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.SpecVerify = func() bool { return true }
	before := SpecCounters()
	par, err := LookaheadOpts(g, m, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Reset()
	requireSameResult(t, "forced-mismatch", seq, par)
	d := diffSpec(before, SpecCounters())
	if d.Runs != 1 {
		t.Fatalf("runs delta = %d, want 1", d.Runs)
	}
	if d.Segments == 0 || d.Misses != d.Segments || d.Hits != 0 {
		t.Fatalf("want all %d segments rejected, got hits=%d misses=%d", d.Segments, d.Hits, d.Misses)
	}
	if d.FallbackBlocks == 0 {
		t.Fatalf("no blocks recomputed despite %d rejected segments", d.Misses)
	}
}

func diffSpec(a, b SpecStats) SpecStats {
	return SpecStats{
		Runs: b.Runs - a.Runs, Segments: b.Segments - a.Segments,
		Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses,
		FallbackBlocks: b.FallbackBlocks - a.FallbackBlocks,
	}
}

// repetitiveChainTrace builds a trace of identical latency-1 chain blocks —
// maximal structural repetition, where the step cache replays the most.
func repetitiveChainTrace(blocks, size int) *graph.Graph {
	g := graph.New(blocks * size)
	for b := 0; b < blocks; b++ {
		var prev graph.NodeID
		for i := 0; i < size; i++ {
			id := g.AddNode("", 1, 0, b)
			if i > 0 {
				g.MustEdge(prev, id, 1, 0)
			}
			prev = id
		}
	}
	return g
}

// TestParallelTraceGates pins every condition that must keep the parallel
// path off: explicit disable, short traces under the auto threshold, a
// Budget, and node IDs not grouped by block.
func TestParallelTraceGates(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	long, err := workload.LongTrace(r, workload.DefaultLongTrace(64))
	if err != nil {
		t.Fatal(err)
	}
	small, err := workload.Trace(r, workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved block IDs: block-grouped layout is violated, so the
	// parallel path must refuse even when forced.
	interleaved := graph.New(64)
	for i := 0; i < 64; i++ {
		interleaved.AddNode("", 1, 0, i%8)
	}
	m := machine.SingleUnit(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cases := []struct {
		name string
		g    *graph.Graph
		opt  Options
	}{
		{"disabled", long, Options{Parallel: -1}},
		{"auto-small-trace", small, Options{Parallel: 0}},
		{"budget", long, Options{Parallel: 4, Budget: sbudget.New(ctx, time.Hour, 1<<30)}},
		{"ungrouped-ids", interleaved, Options{Parallel: 4}},
	}
	for _, tc := range cases {
		before := SpecCounters().Runs
		if _, err := LookaheadOpts(tc.g, m, tc.opt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := SpecCounters().Runs; got != before {
			t.Fatalf("%s: parallel path engaged (runs %d -> %d)", tc.name, before, got)
		}
	}
	// Control: the same long trace with speculation forced does engage.
	before := SpecCounters().Runs
	if _, err := LookaheadOpts(long, m, Options{Parallel: 4}); err != nil {
		t.Fatal(err)
	}
	if got := SpecCounters().Runs; got != before+1 {
		t.Fatalf("control: parallel path did not engage (runs %d -> %d)", before, got)
	}
}

// TestSpeculativeTraceTraced: a Tracer keeps the parallel path. A traced
// forced-parallel long trace engages speculation, and its result and event
// list equal the traced sequential walk's: workers' events arrive in block
// order, and a rejected segment's are replaced by its recompute's.
func TestSpeculativeTraceTraced(t *testing.T) {
	hits := SpecCounters().Hits
	for seed := 0; seed < 10; seed++ {
		g, m := specTestInstance(t, seed)
		seqRec := obs.NewRecorder()
		seq, err := LookaheadOpts(g, m, Options{Parallel: -1, Tracer: seqRec})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 4} {
			tag := fmt.Sprintf("seed %d p=%d", seed, p)
			before := SpecCounters().Runs
			rec := obs.NewRecorder()
			par, err := LookaheadOpts(g, m, Options{Parallel: p, Tracer: rec})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if SpecCounters().Runs == before {
				t.Fatalf("%s: traced run did not take the parallel path", tag)
			}
			requireSameResult(t, tag, seq, par)
			want, got := seqRec.Events(), rec.Events()
			if len(got) != len(want) {
				t.Fatalf("%s: %d events, sequential %d", tag, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: event %d = %+v, sequential %+v", tag, i, got[i], want[i])
				}
			}
		}
	}
	if SpecCounters().Hits == hits {
		t.Fatal("no speculation verified: no worker's events were re-emitted")
	}
}

// TestSpeculativeTraceDeterminism re-runs the parallel path on one instance
// and requires identical output both times — the property the CI
// parallel-determinism job exercises under -count=2 -cpu=1,4.
func TestSpeculativeTraceDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	cfg := workload.DefaultLongTrace(96)
	cfg.BarrierEvery = 3
	g, err := workload.LongTrace(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewMachine("2u", []int{2, 1}, 4)
	seq, err := LookaheadOpts(g, m, Options{Parallel: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		par, err := LookaheadOpts(g, m, Options{Parallel: 5})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "determinism", seq, par)
	}
}

// TestParallelPlanAutoGateAllocFree pins the auto gate's cost on a trace with
// enough nodes but too few blocks: rejecting it must not build the group
// table, so parallelPlan allocates nothing even with GOMAXPROCS ≥ 2.
func TestParallelPlanAutoGateAllocFree(t *testing.T) {
	testutil.SkipIfAllocSensitive(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g, err := workload.LongTrace(rand.New(rand.NewSource(7)), workload.DefaultLongTrace(64))
	if err != nil {
		t.Fatal(err)
	}
	csr := graph.NewCSR(g)
	if ng := buildGroups(csr, 1).ngroups(); csr.Len() < parAutoMinGroups || ng != 64 {
		t.Fatalf("want a 64-block trace of ≥%d nodes, got %d blocks over %d nodes",
			parAutoMinGroups, ng, csr.Len())
	}
	// testing.AllocsPerRun pins GOMAXPROCS to 1, which the gate rejects
	// first, so count mallocs around the calls directly.
	opt := Options{}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if parallelPlan(csr, &opt) != nil {
			t.Fatal("auto gate planned a 64-block trace")
		}
	}
	runtime.ReadMemStats(&after)
	if allocs := float64(after.Mallocs-before.Mallocs) / runs; allocs >= 1 {
		t.Fatalf("parallelPlan rejected a 64-block trace with %.1f allocs per call, want 0", allocs)
	}
}

// TestSpeculativeWorkerPanic drives one speculative worker directly with a
// rank pass that always panics: run must capture the panic as a per-segment
// error (which the driver then treats as a rejected speculation) instead of
// letting it escape the goroutine.
func TestSpeculativeWorkerPanic(t *testing.T) {
	defer faultinject.Reset()
	r := rand.New(rand.NewSource(321))
	g, err := workload.LongTrace(r, workload.DefaultLongTrace(64))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.SingleUnit(4)
	csr := graph.NewCSR(g)
	opt := Options{Parallel: 4}
	plan := parallelPlan(csr, &opt)
	if plan == nil {
		t.Fatal("no parallel plan for the 64-block trace")
	}
	wk := &specWorker{gLo: plan.cuts[1], gHi: plan.cuts[2], done: make(chan struct{})}
	faultinject.RankPass = faultinject.Panic(nil, "spec-worker", "injected")
	wk.run(csr, m, &opt, plan.groups)
	faultinject.Reset()
	<-wk.done
	if wk.err == nil {
		t.Fatal("injected worker panic was not captured as an error")
	}
	wk.release()
}
