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
//   - FuzzScheduleLoop: a caching Scheduler's loop schedules equal the
//     uncached loops.ScheduleLoop ones, and the memo hits a relabelled
//     rebuild but misses an ID-permuted body unless it is the same
//     instance. Loop keys are the only memo keys whose carried edges'
//     distances must enter the key. On a single-block body every §5.2.3
//     candidate's steady state, and the one chosen, equal those of a
//     search that evaluates every candidate (referenceLoopCandidates).
//
// Run as ordinary tests they exercise the seed corpus; `go test -fuzz` (see
// scripts/check.sh) explores the byte space.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"aisched/internal/baseline"
	"aisched/internal/graph"
	"aisched/internal/hw"
	"aisched/internal/loops"
	"aisched/internal/obs"
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

// decodeLoopInstance decodes fuzz bytes into a loop body:
//
//	data[0]        → window W ∈ [2,5] (bits 0–1), RS6000 instead of the
//	                 single unit (bit 2), several blocks (bit 3), and the
//	                 rotation that permutes IDs within each block (bits 4–7)
//	data[1]        → node count n ∈ [2,12]
//	data[2:2+n]    → per node: block delta (bit 0, ignored for one block),
//	                 class (bits 1–2, modulo the machine's classes), exec
//	                 time 1 or 2 (bit 3)
//	rest, in pairs → edges: a = latency<<6 | src, b = distance-1<<6 |
//	                 carried<<5 | dst. A carried edge src%n → dst%n has
//	                 distance 1 or 2 and may run anywhere; a loop-independent
//	                 one is added iff src < dst.
//
// Returns nil when data is too short to describe a body.
func decodeLoopInstance(data []byte) (*Graph, *Machine) {
	if len(data) < 2 {
		return nil, nil
	}
	w := 2 + int(data[0]&3)
	m := SingleUnit(w)
	if data[0]&4 != 0 {
		m = RS6000(w)
	}
	n := 2 + int(data[1])%11
	if len(data) < 2+n {
		return nil, nil
	}
	g := NewGraph(n)
	blk := 0
	for i := 0; i < n; i++ {
		b := data[2+i]
		if data[0]&8 != 0 {
			blk += int(b & 1)
		}
		g.AddNode("l", 1+int(b>>3&1), int(b>>1&3)%len(m.Units), blk)
	}
	for p := 2 + n; p+1 < len(data); p += 2 {
		a, b := data[p], data[p+1]
		src, dst := int(a&0x3F)%n, int(b&0x1F)%n
		lat := int(a >> 6)
		switch {
		case b&0x20 != 0:
			g.MustEdge(NodeID(src), NodeID(dst), lat, 1+int(b>>6&1))
		case src < dst:
			g.MustEdge(NodeID(src), NodeID(dst), lat, 0)
		}
	}
	return g, m
}

// permuteWithinBlocks rebuilds g with each block's node IDs rotated by k,
// so blocks stay contiguous and no edge changes blocks.
func permuteWithinBlocks(g *Graph, k int) *Graph {
	n := g.Len()
	perm := make([]NodeID, n) // old ID → new ID
	for lo := 0; lo < n; {
		hi := lo
		for hi < n && g.Node(NodeID(hi)).Block == g.Node(NodeID(lo)).Block {
			hi++
		}
		for i := lo; i < hi; i++ {
			perm[i] = NodeID(lo + (i-lo+k)%(hi-lo))
		}
		lo = hi
	}
	inv := make([]NodeID, n)
	for old, nw := range perm {
		inv[nw] = NodeID(old)
	}
	h := NewGraph(n)
	for _, old := range inv {
		nd := g.Node(old)
		h.AddNode(nd.Label, nd.Exec, nd.Class, nd.Block)
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Out(NodeID(v)) {
			h.MustEdge(perm[e.Src], perm[e.Dst], e.Latency, e.Distance)
		}
	}
	return h
}

// stretchCarried copies g with every loop-carried edge's distance raised
// by one, or returns nil when g has no carried edge: the same body with
// longer recurrences, a different loop instance.
func stretchCarried(g *Graph) *Graph {
	h := NewGraph(g.Len())
	for v := 0; v < g.Len(); v++ {
		nd := g.Node(NodeID(v))
		h.AddNode(nd.Label, nd.Exec, nd.Class, nd.Block)
	}
	carried := false
	for v := 0; v < g.Len(); v++ {
		for _, e := range g.Out(NodeID(v)) {
			d := e.Distance
			if d > 0 {
				d++
				carried = true
			}
			h.MustEdge(e.Src, e.Dst, e.Latency, d)
		}
	}
	if !carried {
		return nil
	}
	return h
}

// instanceEncoding is the exact, unhashed identity of a graph as a
// scheduling instance: node attributes in ID order and each node's
// out-edges sorted by (destination, distance). Labels and insertion order
// are left out.
func instanceEncoding(g *Graph) string {
	var b strings.Builder
	for v := 0; v < g.Len(); v++ {
		nd := g.Node(NodeID(v))
		es := append([]Edge(nil), g.Out(NodeID(v))...)
		sort.Slice(es, func(i, j int) bool {
			if es[i].Dst != es[j].Dst {
				return es[i].Dst < es[j].Dst
			}
			return es[i].Distance < es[j].Distance
		})
		fmt.Fprintf(&b, "[%d %d %d %v]", nd.Exec, nd.Class, nd.Block, es)
	}
	return b.String()
}

// loopCandidate is one §5.2.3 candidate: its kind, its instruction
// (graph.None for the base) and its steady state.
type loopCandidate struct {
	kind string
	node NodeID
	st   *LoopSteady
}

// referenceLoopCandidates is the §5.2.3 search of a single-block body with
// no candidate skipped, built from the exported API (internal/loops tests
// its own search against referenceSingleBlockLoop, which this package
// cannot see). It returns every candidate in candidate order: the base
// (the block schedule of the loop-independent subgraph), each target of a
// carried edge as a single source, then each carried edge's source as a
// single sink; with no latency above 1 only the subgraph's sources and
// sinks qualify.
func referenceLoopCandidates(g *Graph, m *Machine) ([]loopCandidate, error) {
	li := g.LoopIndependent()
	n := g.Len()
	isSource, isSink := make([]bool, n), make([]bool, n)
	maxLat := 0
	for _, e := range g.Edges() {
		maxLat = max(maxLat, e.Latency)
		if e.Distance > 0 {
			isSource[e.Dst], isSink[e.Src] = true, true
		}
	}
	if maxLat <= 1 {
		liSource, liSink := make([]bool, n), make([]bool, n)
		for _, v := range li.Sources() {
			liSource[v] = true
		}
		for _, v := range li.Sinks() {
			liSink[v] = true
		}
		for v := range n {
			isSource[v] = isSource[v] && liSource[v]
			isSink[v] = isSink[v] && liSink[v]
		}
	}
	base, err := ScheduleBlock(li, m)
	if err != nil {
		return nil, err
	}
	st, err := EvaluateLoopOrder(g, m, base.Permutation())
	if err != nil {
		return nil, err
	}
	out := []loopCandidate{{kind: "base", node: graph.None, st: st}}
	for _, kind := range []string{"source", "sink"} {
		for v := range n {
			y := NodeID(v)
			var order []NodeID
			switch {
			case kind == "source" && isSource[v]:
				order, err = loops.SingleSourceOrder(g, m, y)
			case kind == "sink" && isSink[v]:
				order, err = loops.SingleSinkOrder(g, m, y)
			default:
				continue
			}
			if err != nil {
				return nil, err
			}
			if st, err = EvaluateLoopOrder(g, m, order); err != nil {
				return nil, err
			}
			out = append(out, loopCandidate{kind: kind, node: y, st: st})
		}
	}
	return out, nil
}

// checkLoopCandidates compares the traced loop search on a single-block
// body with referenceLoopCandidates: one KindIICandidate event per
// candidate with the reference's kind, node, II and makespan, and want (the
// untraced result) equal to the first candidate of least (II, makespan).
func checkLoopCandidates(t *testing.T, g *Graph, m *Machine, want *LoopSteady) {
	t.Helper()
	ref, err := referenceLoopCandidates(g, m)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	rec := NewRecorder()
	if _, err := WithTracer(rec).ScheduleLoop(g, m); err != nil {
		t.Fatalf("traced: %v", err)
	}
	var got []obs.Event
	for _, ev := range rec.Events() {
		if ev.Kind == obs.KindIICandidate {
			got = append(got, ev)
		}
	}
	if len(got) != len(ref) {
		t.Fatalf("%d candidate events, reference has %d candidates", len(got), len(ref))
	}
	best := ref[0].st
	for i, c := range ref {
		if ev := got[i]; ev.Pass != c.kind || ev.Node != c.node || ev.N != c.st.II || ev.From != c.st.Makespan {
			t.Fatalf("candidate %d: %s %d II %d makespan %d, reference %s %d II %d makespan %d",
				i, ev.Pass, ev.Node, ev.N, ev.From, c.kind, c.node, c.st.II, c.st.Makespan)
		}
		if c.st.II < best.II || (c.st.II == best.II && c.st.Makespan < best.Makespan) {
			best = c.st
		}
	}
	sameSteady(t, "reference", want, best)
}

// FuzzScheduleLoop: a caching Scheduler against the uncached loop
// scheduler, on the first call, on a relabelled and edge-shuffled
// resubmission (a memo hit), on an ID-permuted resubmission (a miss unless
// the permutation left the instance unchanged), and on the body with its
// carried distances raised (always a miss: distance is part of the key).
// A single-block body's candidates are also checked against the reference
// search (checkLoopCandidates). The last seed is a body whose source
// candidates n1 and n3 share an exec time but not a class, and give
// different steady states.
func FuzzScheduleLoop(f *testing.F) {
	f.Add([]byte{0x02, 3, 0, 0, 0, 0x41, 1, 0x02, 0x20})
	f.Add([]byte{0x1a, 6, 0, 1, 0, 1, 0, 1, 0x01, 0x02, 0x43, 0x04, 0x05, 0x20, 0x84, 0x60})
	f.Add([]byte{0x25, 5, 2, 4, 8, 0, 10, 0x00, 0x03, 0x41, 0x22, 0x82, 0x61})
	f.Add([]byte{0x3e, 8, 1, 0, 9, 1, 0, 3, 1, 0, 0x00, 0x05, 0x42, 0x07, 0x03, 0x26, 0xc6, 0x40})
	f.Add([]byte{0x06, 6, 4, 8, 0, 10, 4, 8, 0, 0, 0x80, 0x02, 0x82, 0x04, 0x03, 0x63, 0x05, 0x21})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, m := decodeLoopInstance(data)
		if g == nil {
			return
		}
		want, wantErr := loops.ScheduleLoop(g, m)
		if wantErr == nil && g.Node(0).Block == g.Node(NodeID(g.Len()-1)).Block {
			checkLoopCandidates(t, g, m, want)
		}
		sc := NewScheduler(SchedulerOptions{})
		check := func(what string, g *Graph, want *LoopSteady, wantErr error, wantHit bool) {
			t.Helper()
			before := sc.CacheCounters()
			got, err := sc.ScheduleLoop(g, m)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: cached error %v, uncached %v", what, err, wantErr)
			}
			if err != nil {
				return
			}
			sameSteady(t, what, got, want)
			after := sc.CacheCounters()
			if hit := after.Hits > before.Hits; hit != wantHit {
				t.Fatalf("%s: memo hit %v, want %v (%+v after %+v)", what, hit, wantHit, after, before)
			}
		}
		check("first call", g, want, wantErr, false)
		check("relabelled", relabel(g, rand.New(rand.NewSource(int64(len(data))))), want, wantErr, wantErr == nil)

		p := permuteWithinBlocks(g, int(data[0]>>4))
		wantP, errP := loops.ScheduleLoop(p, m)
		check("permuted", p, wantP, errP, wantErr == nil && instanceEncoding(p) == instanceEncoding(g))

		if st := stretchCarried(g); st != nil {
			wantS, errS := loops.ScheduleLoop(st, m)
			check("stretched", st, wantS, errS, false)
		}
	})
}
