package aisched

// Native fuzz targets for the scheduling facade. Arbitrary bytes decode into
// a restricted-model scheduling instance — single functional unit, unit
// execution times, 0/1 latencies, forward edges only — which is exactly the
// regime where the paper proves its guarantees, so the targets can assert
// real invariants rather than just "no panic":
//
//   - FuzzScheduleBlock: the block pipeline never errors on a well-formed
//     DAG, its schedule is Definition 2.3-legal, and its makespan never
//     exceeds the critical-path list-schedule baseline (the Rank Algorithm
//     is optimal in the restricted model).
//   - FuzzScheduleTrace: Algorithm Lookahead always emits a complete,
//     dependence-valid result whose simulated completion never loses more
//     than one cycle to per-block baseline scheduling (the repo-wide
//     invariant; see internal/core's property tests and EXPERIMENTS.md).
//
// Run as ordinary tests they exercise the seed corpus; `go test -fuzz` (see
// scripts/check.sh) explores the byte space.

import (
	"testing"

	"aisched/internal/baseline"
	"aisched/internal/hw"
	"aisched/internal/paperex"
	"aisched/internal/sched"
)

// decodeInstance decodes fuzz bytes into a restricted-model instance:
//
//	data[0]        → window W ∈ [2,5]
//	data[1]        → node count n ∈ [2,15]
//	data[2:2+n]    → per-node block deltas (bit 0), giving nondecreasing
//	                 block indices starting at 0 (ignored when !multiBlock)
//	rest, in pairs → edges: a = latency<<7 | src, b = dst; the edge
//	                 src%n → dst%n is added iff src < dst (always a DAG)
//
// Returns nil when data is too short to describe an instance.
func decodeInstance(data []byte, multiBlock bool) (*Graph, *Machine) {
	if len(data) < 2 {
		return nil, nil
	}
	w := 2 + int(data[0])%4
	n := 2 + int(data[1])%14
	if len(data) < 2+n {
		return nil, nil
	}
	g := NewGraph(n)
	blk := 0
	for i := 0; i < n; i++ {
		if multiBlock {
			blk += int(data[2+i]) % 2
		}
		id := g.AddUnit("f")
		g.SetBlock(id, blk)
	}
	for p := 2 + n; p+1 < len(data); p += 2 {
		lat := int(data[p] >> 7)
		src := int(data[p]&0x7F) % n
		dst := int(data[p+1]) % n
		if src < dst {
			g.MustEdge(NodeID(src), NodeID(dst), lat, 0)
		}
	}
	return g, SingleUnit(w)
}

// encodeInstance is decodeInstance's inverse for seeding the corpus from the
// paper's worked examples (latencies clamp to the restricted model's 0/1).
func encodeInstance(g *Graph, w int) []byte {
	n := g.Len()
	data := []byte{byte(w - 2), byte(n - 2)}
	prev := 0
	for i := 0; i < n; i++ {
		b := g.Node(NodeID(i)).Block
		data = append(data, byte(b-prev))
		prev = b
	}
	for i := 0; i < n; i++ {
		for _, e := range g.Out(NodeID(i)) {
			lat := e.Latency
			if lat > 1 {
				lat = 1
			}
			data = append(data, byte(lat<<7|int(e.Src)), byte(e.Dst))
		}
	}
	return data
}

// FuzzScheduleBlock: single-block restricted instances through the block
// pipeline.
func FuzzScheduleBlock(f *testing.F) {
	fig1 := paperex.NewFig1()
	f.Add(encodeInstance(fig1.G, 4))
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 13, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0x80, 5, 1, 9, 0x83, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, m := decodeInstance(data, false)
		if g == nil {
			return
		}
		s, err := ScheduleBlock(g, m)
		if err != nil {
			t.Fatalf("ScheduleBlock failed on a well-formed DAG: %v", err)
		}
		if err := CheckLegal(s, m.Window); err != nil {
			t.Fatalf("illegal block schedule: %v", err)
		}
		order, err := baseline.CriticalPath{}.Order(g, m)
		if err != nil {
			t.Fatalf("baseline order: %v", err)
		}
		bs, err := sched.ListSchedule(g, m, order)
		if err != nil {
			t.Fatalf("baseline schedule: %v", err)
		}
		if s.Makespan() > bs.Makespan() {
			t.Fatalf("anticipatory makespan %d exceeds baseline %d (restricted model is optimal)",
				s.Makespan(), bs.Makespan())
		}
	})
}

// TestWindowRealizabilityRegression pins the PR 7 fuzz finding (see
// EXPERIMENTS.md): on this W=2 two-block instance the deadline-confined
// merge used to slide carried node 5 three cycles later and hoist the next
// block's first instruction into the vacated slot — a prediction the
// anchored window cannot execute from the static order, simulating at 13
// cycles vs the baseline's 11. The window-realizability repair re-merges
// with carried finish times pinned and recovers the legal 11-cycle schedule.
func TestWindowRealizabilityRegression(t *testing.T) {
	data := []byte("0A00000010000\x809\x80$71\x819\x81$\x820\x830\x86(()aA(a")
	g, m := decodeInstance(data, true)
	if g == nil {
		t.Fatal("corpus input no longer decodes to an instance")
	}
	res, err := ScheduleTrace(g, m)
	if err != nil {
		t.Fatalf("ScheduleTrace: %v", err)
	}
	la, err := hw.SimulateTrace(g, m, res.StaticOrder())
	if err != nil {
		t.Fatalf("simulate anticipatory: %v", err)
	}
	order, err := baseline.ScheduleTrace(baseline.CriticalPath{}, g, m)
	if err != nil {
		t.Fatalf("baseline order: %v", err)
	}
	lb, err := hw.SimulateTrace(g, m, order)
	if err != nil {
		t.Fatalf("simulate baseline: %v", err)
	}
	if la.Completion > lb.Completion {
		t.Fatalf("anticipatory completion %d still loses to baseline %d", la.Completion, lb.Completion)
	}
	if la.Completion > res.Makespan() {
		t.Fatalf("predicted makespan %d is unrealizable: simulated completion %d",
			res.Makespan(), la.Completion)
	}
}

// restrictedReplayRegression decodes to a W=3, 15-node restricted trace on
// which the merge predicted a 15-cycle execution that the window, running
// the emitted static order, completes at 16 (EXPERIMENTS.md E2).
const restrictedReplayRegression = "1700000000100101078\xc4c\xf27"

// TestRestrictedReplayRegression: the merge's realizability check replays
// the prediction's static order on the window machine, so the emitted
// schedule is Definition 2.3-legal and its makespan is the simulated
// completion (16).
func TestRestrictedReplayRegression(t *testing.T) {
	g, m := decodeInstance([]byte(restrictedReplayRegression), true)
	res, err := ScheduleTrace(g, m)
	if err != nil {
		t.Fatalf("ScheduleTrace: %v", err)
	}
	if err := CheckLegal(res.S, m.Window); err != nil {
		t.Fatalf("illegal trace schedule: %v", err)
	}
	sim, err := hw.SimulateTrace(g, m, res.StaticOrder())
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if sim.Completion != res.Makespan() || sim.Completion != 16 {
		t.Fatalf("predicted %d, simulated %d, want both 16", res.Makespan(), sim.Completion)
	}
}

// FuzzScheduleTrace: multi-block restricted instances through Algorithm
// Lookahead, checked against the per-block baseline under the window
// simulator.
func FuzzScheduleTrace(f *testing.F) {
	fig1 := paperex.NewFig1()
	f.Add(encodeInstance(fig1.G, 4))
	fig2 := paperex.NewFig2()
	f.Add(encodeInstance(fig2.G, 2))
	f.Add([]byte{})
	f.Add([]byte{1, 9, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0x80, 4, 2, 7, 0x85, 10})
	// The PR 7 window-realizability finding (EXPERIMENTS.md): before the
	// merge repair, the deadline-confined merge slid a carried node past an
	// idle slot and predicted an execution the W=2 window could not reach,
	// losing 2 cycles to the baseline (13 vs 11).
	f.Add([]byte("0A00000010000\x809\x80$71\x819\x81$\x820\x830\x86(()aA(a"))
	// TestRestrictedReplayRegression's instance: the window-realizability
	// pre-check accepted a prediction the window does not execute.
	f.Add([]byte(restrictedReplayRegression))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, m := decodeInstance(data, true)
		if g == nil {
			return
		}
		res, err := ScheduleTrace(g, m)
		if err != nil {
			t.Fatalf("ScheduleTrace failed on a well-formed DAG: %v", err)
		}
		if err := res.S.Validate(); err != nil {
			t.Fatalf("invalid trace schedule: %v", err)
		}
		if len(res.Order) != g.Len() {
			t.Fatalf("order covers %d of %d nodes", len(res.Order), g.Len())
		}
		emitted := 0
		for b, order := range res.BlockOrders {
			for _, id := range order {
				if g.Node(id).Block != b {
					t.Fatalf("node %d emitted under block %d, belongs to %d", id, b, g.Node(id).Block)
				}
				emitted++
			}
		}
		if emitted != g.Len() {
			t.Fatalf("block orders cover %d of %d nodes", emitted, g.Len())
		}
		la, err := hw.SimulateTrace(g, m, res.StaticOrder())
		if err != nil {
			t.Fatalf("simulate anticipatory: %v", err)
		}
		order, err := baseline.ScheduleTrace(baseline.CriticalPath{}, g, m)
		if err != nil {
			t.Fatalf("baseline order: %v", err)
		}
		lb, err := hw.SimulateTrace(g, m, order)
		if err != nil {
			t.Fatalf("simulate baseline: %v", err)
		}
		if la.Completion > lb.Completion+1 {
			t.Fatalf("anticipatory completion %d loses more than one cycle to baseline %d",
				la.Completion, lb.Completion)
		}
	})
}
