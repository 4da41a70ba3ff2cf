// Allocation-budget tests for the arena-backed scheduling core (PR 5).
// allocs/op is deterministic (unlike wall-clock), so these pin the hot-path
// budgets exactly where benchsnap's ±2% gate would allow drift to accumulate:
// a regression that doubles allocations inside the noise floor of ns/op still
// fails here.
package aisched

import (
	"math/rand"
	"testing"

	"aisched/internal/machine"
	"aisched/internal/workload"

	"aisched/internal/testutil"
)

// TestScheduleTraceAllocBudget pins the end-to-end trace-scheduling
// allocation count on the benchsnap workload (seed-11 trace, single-unit
// W=4). The arena/CSR core brought this from 916 allocs/op to ~200; the
// budget leaves headroom for incidental growth but fails long before the
// pre-arena count.
func TestScheduleTraceAllocBudget(t *testing.T) {
	testutil.SkipIfAllocSensitive(t)
	g, err := workload.Trace(rand.New(rand.NewSource(11)), workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	m := machine.SingleUnit(4)
	// Warm the scratch pools so the measurement sees steady state, the same
	// regime the batch pipeline and the benchmarks run in.
	for i := 0; i < 3; i++ {
		if _, err := ScheduleTrace(g, m); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 250
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ScheduleTrace(g, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("ScheduleTrace: %.0f allocs/op, budget %d", allocs, budget)
	}
	t.Logf("ScheduleTrace: %.0f allocs/op (budget %d)", allocs, budget)
}

// TestScheduleTraceAllocExactSpecOff pins the default trace path — which
// stays sequential on this workload, since six blocks are far below the
// speculative parallel path's auto threshold — at exactly 121 allocs/op.
// The parallel dispatch gate must cost an integer compare, not an
// allocation: any drift here means speculation leaked into the small-trace
// hot path.
func TestScheduleTraceAllocExactSpecOff(t *testing.T) {
	testutil.SkipIfAllocSensitive(t)
	g, err := workload.Trace(rand.New(rand.NewSource(11)), workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	m := machine.SingleUnit(4)
	for i := 0; i < 3; i++ {
		if _, err := ScheduleTrace(g, m); err != nil {
			t.Fatal(err)
		}
	}
	const exact = 121
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ScheduleTrace(g, m); err != nil {
			t.Fatal(err)
		}
	})
	if int(allocs) != exact {
		t.Fatalf("ScheduleTrace: %.0f allocs/op, want exactly %d", allocs, exact)
	}
}

// TestSimulateTraceAllocBudget pins the simulator at its two unavoidable
// allocations per run: the Issued slice and the Result, both of which escape
// to the caller. The window bookkeeping itself (pending bitset, stream,
// finish times, unit clocks) must come from the pooled scratch.
func TestSimulateTraceAllocBudget(t *testing.T) {
	testutil.SkipIfAllocSensitive(t)
	g, err := workload.Trace(rand.New(rand.NewSource(11)), workload.DefaultTrace())
	if err != nil {
		t.Fatal(err)
	}
	m := machine.SingleUnit(4)
	res, err := ScheduleTrace(g, m)
	if err != nil {
		t.Fatal(err)
	}
	order := res.StaticOrder()
	for i := 0; i < 3; i++ {
		if _, err := SimulateTrace(g, m, order); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := SimulateTrace(g, m, order); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("SimulateTrace: %.0f allocs/op, budget 2", allocs)
	}
}
