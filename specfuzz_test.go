package aisched

// Differential fuzzing for the speculative parallel trace scheduler:
// arbitrary bytes decode into a restricted-model trace (see fuzz_test.go),
// which is replicated into a long trace — repetition plus stitch edges gives
// the fuzzer both the repetitive structure the step cache replays and
// cross-copy release floors the join verification must compare — and
// scheduled with speculation forced at several segment widths. The
// invariant is exact: every speculative result must be bit-identical to the
// sequential walk.

import (
	"slices"
	"testing"

	"aisched/internal/core"
	"aisched/internal/obs"
	"aisched/internal/workload"

	"math/rand"
)

// replicateTrace concatenates `copies` relabeled copies of g into one trace,
// shifting block numbers so copies stay in trace order, and stitches
// adjacent copies with a latency-1 edge from each copy's last node to the
// next copy's first — a release floor that crosses every copy boundary.
func replicateTrace(g *Graph, copies int) *Graph {
	n := g.Len()
	maxBlk := 0
	for v := 0; v < n; v++ {
		if b := g.Node(NodeID(v)).Block; b > maxBlk {
			maxBlk = b
		}
	}
	out := NewGraph(n * copies)
	for c := 0; c < copies; c++ {
		for v := 0; v < n; v++ {
			id := out.AddUnit("f")
			out.SetBlock(id, c*(maxBlk+1)+g.Node(NodeID(v)).Block)
		}
	}
	for c := 0; c < copies; c++ {
		off := NodeID(c * n)
		for v := 0; v < n; v++ {
			for _, e := range g.Out(NodeID(v)) {
				out.MustEdge(off+e.Src, off+e.Dst, e.Latency, 0)
			}
		}
		if c+1 < copies {
			out.MustEdge(off+NodeID(n-1), NodeID((c+1)*n), 1, 0)
		}
	}
	return out
}

// requireSpecIdentical asserts a speculative result matches the sequential
// one bit for bit.
func requireSpecIdentical(t *testing.T, tag string, want, got *TraceResult) {
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
}

// FuzzSpeculativeTrace: replicated restricted-model traces through the
// speculative parallel path at several forced widths, with and without a
// step cache, asserting bit-identity with the sequential walk. The traced
// arm runs with the step cache off: the forced-parallel result and event
// list must equal the traced sequential walk's.
func FuzzSpeculativeTrace(f *testing.F) {
	f.Add([]byte{1, 9, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0x80, 4, 2, 7, 0x85, 10})
	f.Add([]byte{3, 13, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0x80, 5, 1, 9, 0x83, 14})
	// The PR 7 window-realizability reproducer: the repaired merge's carried
	// state is exactly what segment speculation must reproduce at joins.
	f.Add([]byte("0A00000010000\x809\x80$71\x819\x81$\x820\x830\x86(()aA(a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g0, m := decodeInstance(data, true)
		if g0 == nil {
			return
		}
		g := replicateTrace(g0, 8)
		seq, err := core.LookaheadOpts(g, m, core.Options{Parallel: -1})
		if err != nil {
			t.Fatalf("sequential: %v", err)
		}
		seqRec := obs.NewRecorder()
		if _, err := core.LookaheadOpts(g, m, core.Options{Parallel: -1, Tracer: seqRec}); err != nil {
			t.Fatalf("sequential traced: %v", err)
		}
		sc := core.NewStepCache(core.StepCacheConfig{})
		defer sc.Release()
		for _, p := range []int{2, 4} {
			par, err := core.LookaheadOpts(g, m, core.Options{Parallel: p})
			if err != nil {
				t.Fatalf("parallel p=%d: %v", p, err)
			}
			requireSpecIdentical(t, "bare", seq, par)
			rec := obs.NewRecorder()
			par, err = core.LookaheadOpts(g, m, core.Options{Parallel: p, Tracer: rec})
			if err != nil {
				t.Fatalf("parallel p=%d traced: %v", p, err)
			}
			requireSpecIdentical(t, "traced", seq, par)
			if !slices.Equal(rec.Events(), seqRec.Events()) {
				t.Fatalf("parallel p=%d: traced event list differs from the sequential walk's", p)
			}
			// Twice through one step cache: the second pass's driver and
			// workers replay the fragments the first stored.
			for pass := 0; pass < 2; pass++ {
				par, err := core.LookaheadOpts(g, m, core.Options{Parallel: p, StepCache: sc})
				if err != nil {
					t.Fatalf("parallel p=%d cached pass %d: %v", p, pass, err)
				}
				requireSpecIdentical(t, "cached", seq, par)
			}
		}
	})
}

// TestParallelTraceFacade pins the SchedulerOptions.ParallelTrace plumbing:
// a forced-parallel Scheduler takes the speculative path (visible in the
// process-wide counters) and still returns the sequential walk's result;
// a disabled one never engages it.
func TestParallelTraceFacade(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g, err := workload.LongTrace(r, workload.DefaultLongTrace(64))
	if err != nil {
		t.Fatal(err)
	}
	m := SingleUnit(4)
	off := NewScheduler(SchedulerOptions{CacheCapacity: -1, ParallelTrace: -1})
	want, err := off.ScheduleTrace(g, m)
	if err != nil {
		t.Fatal(err)
	}
	before := SpecTraceCounters()
	on := NewScheduler(SchedulerOptions{CacheCapacity: -1, ParallelTrace: 4})
	got, err := on.ScheduleTrace(g, m)
	if err != nil {
		t.Fatal(err)
	}
	requireSpecIdentical(t, "facade", want, got)
	after := SpecTraceCounters()
	if after.Runs != before.Runs+1 {
		t.Fatalf("forced ParallelTrace did not engage: runs %d -> %d", before.Runs, after.Runs)
	}
	if after.Segments == before.Segments {
		t.Fatal("no segments speculated")
	}
	if _, err := off.ScheduleTrace(g, m); err != nil {
		t.Fatal(err)
	}
	if final := SpecTraceCounters(); final.Runs != after.Runs {
		t.Fatalf("disabled ParallelTrace engaged the parallel path: runs %d -> %d",
			after.Runs, final.Runs)
	}
}
