package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/idle"
	"aisched/internal/machine"
	"aisched/internal/obs"
	"aisched/internal/rank"
	"aisched/internal/sched"
	"aisched/internal/workload"
)

// Differential test: LookaheadOpts on the context-based engine (shared
// rank.Ctx per induced subgraph, incremental re-ranks on loosen/fallback,
// ctx-driven Delay_Idle_Slots, binary-search chop) must be bit-identical to
// referenceLookahead below, which rebuilds the pipeline from the retained
// naive pieces exactly as the pre-context implementation did.

// referenceLookahead mirrors LookaheadOpts using rank.ReferenceCompute /
// rank.ReferenceRun, idle.ReferenceDelayIdleSlots and a linear-scan chop.
func referenceLookahead(g *graph.Graph, m *machine.Machine, opt Options) (*Result, error) {
	return referenceLookaheadRounds(g, m, opt, nil)
}

// referenceLookaheadRounds is referenceLookahead that also records, when
// rounds is non-nil, how many loosening rounds each block's merge ran,
// keyed by block; the repair's re-merge is not counted, as Step.Run emits
// no loosen events for it.
func referenceLookaheadRounds(g *graph.Graph, m *machine.Machine, opt Options, rounds map[int]int) (*Result, error) {
	if g.Len() == 0 {
		return &Result{Order: nil, BlockOrders: map[int][]graph.NodeID{}, S: sched.New(g, m)}, nil
	}
	if !g.IsAcyclic() {
		return nil, fmt.Errorf("core: trace graph has a loop-independent cycle")
	}
	blocks := sched.Blocks(g)
	byBlock := make(map[int][]graph.NodeID)
	for v := 0; v < g.Len(); v++ {
		b := g.Node(graph.NodeID(v)).Block
		byBlock[b] = append(byBlock[b], graph.NodeID(v))
	}
	var emitted []graph.NodeID
	var oldIDs []graph.NodeID
	dOld := map[graph.NodeID]int{}
	fOld := map[graph.NodeID]int{}
	relAbs := make([]int, g.Len()) // absolute releases from committed latencies
	oldMakespan := 0
	var plusOrder []graph.NodeID
	timeBase := 0
	absStart := make([]int, g.Len())
	absUnit := make([]int, g.Len())
	for i := range absStart {
		absStart[i] = sched.Unassigned
		absUnit[i] = sched.Unassigned
	}
	for _, b := range blocks {
		newIDs := byBlock[b]
		keep := make(map[graph.NodeID]bool, len(oldIDs)+len(newIDs))
		for _, id := range oldIDs {
			keep[id] = true
		}
		for _, id := range newIDs {
			keep[id] = true
		}
		sub, ids := g.Induced(keep)
		toSub := make(map[graph.NodeID]graph.NodeID, len(ids))
		for si, oi := range ids {
			toSub[oi] = graph.NodeID(si)
		}
		isOld := make([]bool, sub.Len())
		for _, id := range oldIDs {
			isOld[toSub[id]] = true
		}
		rel := make([]int, sub.Len())
		for si, oi := range ids {
			rel[si] = relAbs[oi] - timeBase
		}

		res0, err := rank.ReferenceRunRel(sub, m, rank.UniformDeadlines(sub.Len(), rank.Big), nil, rel)
		if err != nil {
			return nil, err
		}
		t := res0.S.Makespan()
		d := make([]int, sub.Len())
		for si := 0; si < sub.Len(); si++ {
			if isOld[si] {
				d[si] = dOld[ids[si]]
				if oldMakespan < d[si] {
					d[si] = oldMakespan
				}
			} else {
				d[si] = t
			}
		}
		// mergeRounds mirrors Step.mergeRounds as the unit-step loop: re-rank
		// under the assigned deadlines, loosen the new deadlines one cycle
		// per round until feasible, then the §4.2 heuristic fallback syncing
		// deadlines to achieved finishes. It returns the rounds it ran.
		mergeRounds := func(d []int) (*sched.Schedule, int, error) {
			res, err := rank.ReferenceRunRel(sub, m, d, nil, rel)
			if err != nil {
				return nil, 0, err
			}
			bump := 0
			for ; !res.Feasible && bump <= maxBump(sub); bump++ {
				for si := 0; si < sub.Len(); si++ {
					if !isOld[si] {
						d[si]++
					}
				}
				res, err = rank.ReferenceRunRel(sub, m, d, nil, rel)
				if err != nil {
					return nil, 0, err
				}
			}
			for tries := 0; !res.Feasible && tries < 30; tries++ {
				changed := false
				for si := 0; si < sub.Len(); si++ {
					if f := res.S.Finish(graph.NodeID(si)); f > d[si] {
						d[si] = f
						changed = true
					}
				}
				if !changed {
					break
				}
				res, err = rank.ReferenceRunRel(sub, m, d, nil, rel)
				if err != nil {
					return nil, 0, err
				}
			}
			if !res.Feasible {
				for si := 0; si < sub.Len(); si++ {
					if f := res.S.Finish(graph.NodeID(si)); f > d[si] {
						d[si] = f
					}
				}
			}
			return res.S, bump, nil
		}
		s, n, err := mergeRounds(d)
		if err != nil {
			return nil, err
		}
		if rounds != nil {
			rounds[b] = n
		}
		if !opt.SkipDelay {
			s, d, err = idle.ReferenceDelayIdleSlotsRel(s, m, d, nil, rel)
			if err != nil {
				return nil, err
			}
		}
		// Window-realizability repair, mirroring Step.Run: in the restricted
		// model, if the window does not execute the predicted starts from the
		// static order, redo the merge with old deadlines pinned to carried
		// finish times; if the window rejects that too, adopt what it does
		// with the first merge's order.
		if referenceRestricted(sub, m) && !referenceRealizable(s, sub, m.Window, rel) {
			dSave := append([]int(nil), d...)
			sSave := s
			for si := 0; si < sub.Len(); si++ {
				if isOld[si] {
					d[si] = fOld[ids[si]]
				} else {
					d[si] = t
				}
			}
			s2, _, err := mergeRounds(d)
			if err != nil {
				return nil, err
			}
			if !opt.SkipDelay {
				s2, d, err = idle.ReferenceDelayIdleSlotsRel(s2, m, d, nil, rel)
				if err != nil {
					return nil, err
				}
			}
			if referenceRealizable(s2, sub, m.Window, rel) {
				s = s2
			} else if issue, ok := referenceReplay(sSave, sub, m.Window, rel); ok {
				s = sSave.Clone()
				copy(d, dSave)
				for v, t := range issue {
					s.Start[v] = t
					d[v] = max(d[v], t+1)
				}
			} else {
				s = sSave
				copy(d, dSave)
			}
		}
		minus, plus, base := referenceChop(s, m.Window)
		for _, si := range minus {
			oi := ids[si]
			emitted = append(emitted, oi)
			absStart[oi] = s.Start[si] + timeBase
			absUnit[oi] = s.Unit[si]
			// Mirror LookaheadOpts: record the committed node's latency
			// lower bounds as absolute releases on its destinations.
			f := absStart[oi] + g.Node(oi).Exec
			for _, e := range g.Out(oi) {
				if e.Distance != 0 {
					continue
				}
				if r := f + e.Latency; r > relAbs[e.Dst] {
					relAbs[e.Dst] = r
				}
			}
		}
		oldIDs = oldIDs[:0]
		dOld = map[graph.NodeID]int{}
		fOld = map[graph.NodeID]int{}
		plusOrder = plusOrder[:0]
		for _, si := range plus {
			oi := ids[si]
			oldIDs = append(oldIDs, oi)
			dOld[oi] = d[si] - base
			fOld[oi] = s.Finish(si) - base
			plusOrder = append(plusOrder, oi)
			absStart[oi] = s.Start[si] + timeBase
			absUnit[oi] = s.Unit[si]
		}
		oldMakespan = s.Makespan() - base
		timeBase += base
	}
	emitted = append(emitted, plusOrder...)
	if len(emitted) != g.Len() {
		return nil, fmt.Errorf("core: emitted %d of %d instructions", len(emitted), g.Len())
	}
	final := sched.New(g, m)
	copy(final.Start, absStart)
	copy(final.Unit, absUnit)
	out := &Result{Order: emitted, BlockOrders: map[int][]graph.NodeID{}, S: final}
	for _, id := range emitted {
		b := g.Node(id).Block
		out.BlockOrders[b] = append(out.BlockOrders[b], id)
	}
	return out, nil
}

// referenceRestricted mirrors Step.restrictedModel on the induced subgraph.
func referenceRestricted(sub *graph.Graph, m *machine.Machine) bool {
	if m.TotalUnits() != 1 {
		return false
	}
	for v := 0; v < sub.Len(); v++ {
		if sub.Node(graph.NodeID(v)).Exec != 1 {
			return false
		}
		for _, e := range sub.Out(graph.NodeID(v)) {
			if e.Latency > 1 {
				return false
			}
		}
	}
	return true
}

// referenceReplay is a naive cycle-by-cycle run of s's static order (blocks
// in order, each block's nodes by start) on a single-unit W-window with unit
// execution times: each cycle the first ready instruction among the w
// statically oldest unissued ones issues, where ready means every producer
// has issued, its finish plus latency has passed, and so has the node's
// release rel. It returns each node's issue cycle, or false when the window
// deadlocks.
func referenceReplay(s *sched.Schedule, sub *graph.Graph, w int, rel []int) ([]int, bool) {
	n := sub.Len()
	static := make([]graph.NodeID, n)
	for i := range static {
		static[i] = graph.NodeID(i)
	}
	sort.Slice(static, func(i, j int) bool {
		a, b := static[i], static[j]
		if sub.Node(a).Block != sub.Node(b).Block {
			return sub.Node(a).Block < sub.Node(b).Block
		}
		return s.Start[a] < s.Start[b]
	})
	preds := make([][]graph.Edge, n)
	limit := 3*n + 3
	for v := 0; v < n; v++ {
		for _, e := range sub.Out(graph.NodeID(v)) {
			preds[e.Dst] = append(preds[e.Dst], e)
		}
		limit += max(rel[v], 0)
	}
	issue := make([]int, n)
	for i := range issue {
		issue[i] = -1
	}
	for t, done := 0, 0; done < n; t++ {
		if t > limit {
			return nil, false
		}
		head := 0
		for issue[static[head]] >= 0 {
			head++
		}
		for _, v := range static[head:min(head+w, n)] {
			ready := issue[v] < 0 && t >= rel[v]
			for _, e := range preds[v] {
				ready = ready && issue[e.Src] >= 0 && issue[e.Src]+1+e.Latency <= t
			}
			if ready {
				issue[v] = t
				done++
				break
			}
		}
	}
	return issue, true
}

// referenceRealizable reports whether referenceReplay issues every node at
// its predicted start.
func referenceRealizable(s *sched.Schedule, sub *graph.Graph, w int, rel []int) bool {
	issue, ok := referenceReplay(s, sub, w, rel)
	return ok && slices.Equal(issue, s.Start)
}

// referenceChop is chop with the original per-slot linear rescan of the
// permutation in place of the binary search.
func referenceChop(s *sched.Schedule, w int) (minus, plus []graph.NodeID, base int) {
	perm := s.Permutation()
	if len(perm) < w {
		return nil, perm, 0
	}
	j := -1
	for _, t := range s.IdleSlots() {
		after := 0
		for _, id := range perm {
			if s.Start[id] > t {
				after++
			}
		}
		if after >= w && t > j {
			j = t
		}
	}
	if j < 0 {
		return nil, perm, 0
	}
	for _, id := range perm {
		if s.Finish(id) <= j {
			minus = append(minus, id)
		} else {
			plus = append(plus, id)
		}
	}
	if len(minus) == 0 {
		return nil, perm, 0
	}
	return minus, plus, j + 1
}

// randomDiffTrace builds an acyclic multi-block trace with forward edges
// only, execution times in [1, maxExec] and latencies in [0, maxLat].
func randomDiffTrace(r *rand.Rand, n, nblocks int, p float64, classes, maxExec, maxLat int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), 1+r.Intn(maxExec), r.Intn(classes), i*nblocks/n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(maxLat+1), 0)
			}
		}
	}
	return g
}

// TestDifferentialLookaheadMatchesReference compares LookaheadOpts with
// referenceLookahead, whose merge is the unit-step loosening loop, on random
// traces and on benchmark-shaped ones outside the restricted model. The
// latter are where the merge settles its loosening rounds, so the test also
// requires both settled outcomes to have fired: a loop that ran out its
// rounds with an old node late, and one that jumped to its first feasible
// round.
func TestDifferentialLookaheadMatchesReference(t *testing.T) {
	jumps := CountLoosenJumps(t)
	check := func(label string, g *graph.Graph, m *machine.Machine, opt Options) {
		t.Helper()
		want, err := referenceLookahead(g, m, opt)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		got, err := LookaheadOpts(g, m, opt)
		if err != nil {
			t.Fatalf("%s: optimized: %v", label, err)
		}
		assertSameResult(t, label, g, got, want)
	}
	cases := []struct {
		m       *machine.Machine
		classes int
	}{
		{machine.SingleUnit(4), 3},
		{machine.RS6000(4), 3},
		{machine.Superscalar(2, 4), 1},
		{machine.SingleUnit(2), 1},
	}
	for seed := int64(0); seed < 40; seed++ {
		cs := cases[seed%int64(len(cases))]
		r := rand.New(rand.NewSource(seed))
		g := randomDiffTrace(r, 4+r.Intn(20), 1+r.Intn(4), 0.3, cs.classes, 2, 2)
		check(fmt.Sprintf("seed %d on %s", seed, cs.m.Name), g, cs.m, Options{SkipDelay: seed%5 == 4})
	}
	// Three-cycle instructions and latencies up to 4: new nodes that stay
	// late for many rounds while every old node keeps its deadline.
	for seed := int64(0); seed < 80; seed++ {
		m := []*machine.Machine{machine.SingleUnit(4), machine.RS6000(4)}[seed%2]
		r := rand.New(rand.NewSource(seed))
		g := randomDiffTrace(r, 8+r.Intn(16), 2+r.Intn(4), 0.3, 3, 3, 4)
		check(fmt.Sprintf("long seed %d on %s", seed, m.Name), g, m, Options{SkipDelay: seed%5 == 4})
	}
	// trace-cold's three-class RS/6000 shape with two-cycle instructions,
	// and wide single-class machines.
	rs := workload.DefaultTrace()
	rs.Classes, rs.MaxExec = 3, 2
	wide := workload.DefaultTrace()
	wide.MaxExec = 2
	shapes := []struct {
		cfg workload.TraceConfig
		m   *machine.Machine
	}{
		{rs, machine.RS6000(4)},
		{workload.DefaultTrace(), machine.Superscalar(2, 4)},
		{wide, machine.Superscalar(3, 2)},
	}
	for seed := int64(0); seed < 60; seed++ {
		sh := shapes[seed%int64(len(shapes))]
		g, err := workload.Trace(rand.New(rand.NewSource(seed)), sh.cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("trace seed %d on %s", seed, sh.m.Name), g, sh.m, Options{SkipDelay: seed%7 == 6})
	}
	if f, l := jumps.Feasible.Load(), jumps.Limit.Load(); f < 3 || l < 100 {
		t.Fatalf("settled loosening loops: %d jumped to a feasible round (want ≥ 3), %d ran to the limit (want ≥ 100)", f, l)
	}
}

// assertSameResult fails unless the two Lookahead results agree on order,
// per-node start and unit, and per-block orders.
func assertSameResult(t *testing.T, label string, g *graph.Graph, got, want *Result) {
	t.Helper()
	if fmt.Sprint(got.Order) != fmt.Sprint(want.Order) {
		t.Fatalf("%s: orders differ\n got %v\n want %v", label, got.Order, want.Order)
	}
	for v := 0; v < g.Len(); v++ {
		if got.S.Start[v] != want.S.Start[v] || got.S.Unit[v] != want.S.Unit[v] {
			t.Fatalf("%s: schedule differs at node %d: (%d,%d) vs (%d,%d)",
				label, v, got.S.Start[v], got.S.Unit[v], want.S.Start[v], want.S.Unit[v])
		}
	}
	var gb, wb []int
	for b := range got.BlockOrders {
		gb = append(gb, b)
	}
	for b := range want.BlockOrders {
		wb = append(wb, b)
	}
	sort.Ints(gb)
	sort.Ints(wb)
	if fmt.Sprint(gb) != fmt.Sprint(wb) {
		t.Fatalf("%s: block sets differ: %v vs %v", label, gb, wb)
	}
	for _, b := range gb {
		if fmt.Sprint(got.BlockOrders[b]) != fmt.Sprint(want.BlockOrders[b]) {
			t.Fatalf("%s: block %d orders differ\n got %v\n want %v",
				label, b, got.BlockOrders[b], want.BlockOrders[b])
		}
	}
}

// TestDifferentialRestrictedRepairMatchesReference runs the realizability
// repair against referenceLookahead's naive replay in the restricted model
// (one unit, unit exec, 0/1 latencies), where it is active. The fixed
// instances are fuzz-decoder traces that enter it: the first is confirmed by
// the deadline-pinned re-merge, the other three fall back to the first
// merge's replayed execution.
func TestDifferentialRestrictedRepairMatchesReference(t *testing.T) {
	fixed := []struct {
		w      int
		blocks []int
		edges  [][3]int // src, dst, latency
	}{
		{3, []int{0, 0, 0, 1, 2, 2}, [][3]int{{0, 1, 1}, {1, 2, 1}, {2, 5, 0}, {3, 5, 0}, {4, 5, 1}}},
		{3, []int{1, 2, 3, 4, 4, 5}, [][3]int{{0, 1, 1}, {0, 5, 0}, {1, 2, 1}, {2, 4, 0}, {3, 4, 0}}},
		{3, []int{1, 1, 1, 2, 2, 3, 4, 5}, [][3]int{{0, 1, 1}, {0, 5, 0}, {1, 5, 0}, {1, 2, 1}, {2, 3, 0}}},
		{3, []int{1, 2, 3, 4, 5, 6}, [][3]int{{0, 2, 0}, {0, 1, 1}, {0, 5, 1}, {1, 2, 1}, {1, 4, 0},
			{2, 4, 1}, {3, 5, 0}, {3, 4, 1}}},
	}
	run := func(label string, g *graph.Graph, m *machine.Machine, wantPin bool) {
		for _, skip := range []bool{false, true} {
			opt := Options{SkipDelay: skip}
			want, err := referenceLookahead(g, m, opt)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			rec := obs.NewRecorder()
			opt.Tracer = rec
			got, err := LookaheadOpts(g, m, opt)
			if err != nil {
				t.Fatalf("%s: optimized: %v", label, err)
			}
			assertSameResult(t, label, g, got, want)
			pinned := slices.ContainsFunc(rec.Events(), func(e obs.Event) bool {
				return e.Kind == obs.KindMergePin
			})
			if wantPin && !skip && !pinned {
				t.Fatalf("%s: the repair did not run", label)
			}
		}
	}
	for i, c := range fixed {
		g := graph.New(len(c.blocks))
		for v, b := range c.blocks {
			g.AddNode(fmt.Sprintf("n%d", v), 1, 0, b)
		}
		for _, e := range c.edges {
			g.MustEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), e[2], 0)
		}
		run(fmt.Sprintf("fixed %d", i), g, machine.SingleUnit(c.w), true)
	}
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(16)
		g := graph.New(n)
		blk := 0
		for v := 0; v < n; v++ {
			blk += r.Intn(2)
			g.AddNode(fmt.Sprintf("n%d", v), 1, 0, blk)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.2 {
					g.MustEdge(graph.NodeID(u), graph.NodeID(v), r.Intn(2), 0)
				}
			}
		}
		run(fmt.Sprintf("seed %d", seed), g, machine.SingleUnit(2+r.Intn(4)), false)
	}
}

// rs6000TraceShape is trace-cold's RS/6000 shape: three unit classes and
// two-cycle instructions, where greedy-by-rank often misses an old node's
// deadline and the merge settles its loosening rounds.
func rs6000TraceShape() (workload.TraceConfig, *machine.Machine) {
	cfg := workload.DefaultTrace()
	cfg.Classes, cfg.MaxExec = 3, 2
	return cfg, machine.RS6000(4)
}

// TestLoosenEventsMatchReferenceRounds: a traced run emits one
// KindMergeLoosen event per round the unit-step loop runs, numbered from 1
// in each block, also where the merge settles its rounds and re-ranks only
// some of them: RS/6000-shaped traces run theirs to the limit, and traces
// with three-cycle instructions and long latencies jump to a feasible
// round.
func TestLoosenEventsMatchReferenceRounds(t *testing.T) {
	jumps := CountLoosenJumps(t)
	check := func(label string, g *graph.Graph, m *machine.Machine) {
		t.Helper()
		want := map[int]int{}
		ref, err := referenceLookaheadRounds(g, m, Options{}, want)
		if err != nil {
			t.Fatal(err)
		}
		maps.DeleteFunc(want, func(_, n int) bool { return n == 0 })
		rec := obs.NewRecorder()
		got, err := LookaheadOpts(g, m, Options{Tracer: rec})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, label, g, got, ref)
		seen := map[int]int{}
		for _, e := range rec.Events() {
			if e.Kind != obs.KindMergeLoosen {
				continue
			}
			seen[e.Block]++
			if e.N != seen[e.Block] {
				t.Fatalf("%s: block %d loosen event numbered %d, want %d", label, e.Block, e.N, seen[e.Block])
			}
		}
		if !maps.Equal(seen, want) {
			t.Fatalf("%s: loosen events per block %v, unit-step rounds %v", label, seen, want)
		}
	}
	cfg, m := rs6000TraceShape()
	for seed := int64(1); seed <= 8; seed++ {
		g, err := workload.Trace(rand.New(rand.NewSource(seed)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("RS/6000 seed %d", seed), g, m)
	}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomDiffTrace(r, 8+r.Intn(16), 2+r.Intn(4), 0.3, 3, 3, 4)
		check(fmt.Sprintf("long seed %d", seed), g, machine.SingleUnit(4))
	}
	if f, l := jumps.Feasible.Load(), jumps.Limit.Load(); f < 2 || l < 30 {
		t.Fatalf("settled loosening loops: %d jumped to a feasible round (want ≥ 2), %d ran to the limit (want ≥ 30)", f, l)
	}
}

// decodeDiffInstance decodes fuzz bytes into a multi-block trace outside
// the restricted model, for the differential fuzz target:
//
//	data[0]       → bits 0-1: machine (one unit, RS/6000, 2-wide, a 2+1
//	                unit two-class machine); bits 2-3: window W ∈ [2,5];
//	                bit 4: SkipDelay
//	data[1]       → node count n ∈ [2,25]
//	data[2:2+n]   → per node: bit 0 block delta (block indices start at 0
//	                and never decrease), bits 1-2 execution time − 1,
//	                bits 3-4 unit class (modulo the machine's classes)
//	rest, in pairs → edges: a = latency<<5 | src, b = dst; the edge
//	                src%n → dst%n is added iff src < dst (always a DAG)
//
// It returns a nil graph when data is too short to describe an instance.
func decodeDiffInstance(data []byte) (*graph.Graph, *machine.Machine, Options) {
	if len(data) < 2 {
		return nil, nil, Options{}
	}
	w := 2 + int(data[0]>>2)%4
	m := []*machine.Machine{machine.SingleUnit(w), machine.RS6000(w), machine.Superscalar(2, w),
		machine.NewMachine("2+1", []int{2, 1}, w)}[data[0]&3]
	opt := Options{SkipDelay: data[0]&0x10 != 0}
	n := 2 + int(data[1])%24
	if len(data) < 2+n {
		return nil, nil, Options{}
	}
	g := graph.New(n)
	blk := 0
	for i, b := range data[2 : 2+n] {
		blk += int(b & 1)
		g.AddNode(fmt.Sprintf("n%d", i), 1+int(b>>1)&3, int(b>>3)&3%len(m.Units), blk)
	}
	for p := 2 + n; p+1 < len(data); p += 2 {
		lat := int(data[p] >> 5)
		src := int(data[p]&0x1F) % n
		if dst := int(data[p+1]) % n; src < dst {
			g.MustEdge(graph.NodeID(src), graph.NodeID(dst), lat, 0)
		}
	}
	return g, m, opt
}

// encodeDiffInstance is decodeDiffInstance's inverse for seeding the corpus
// (head is data[0]); g must fit the encoding: at most 25 nodes, block steps
// of at most one, execution times ≤ 4, latencies ≤ 7 and node IDs ≤ 31.
func encodeDiffInstance(g *graph.Graph, head byte) []byte {
	data := []byte{head, byte(g.Len() - 2)}
	prev := 0
	for v := 0; v < g.Len(); v++ {
		nd := g.Node(graph.NodeID(v))
		data = append(data, byte(nd.Block-prev)|byte(nd.Exec-1)<<1|byte(nd.Class)<<3)
		prev = nd.Block
	}
	for v := 0; v < g.Len(); v++ {
		for _, e := range g.Out(graph.NodeID(v)) {
			data = append(data, byte(e.Latency<<5|int(e.Src)), byte(e.Dst))
		}
	}
	return data
}

// FuzzLookaheadMatchesReference compares LookaheadOpts with the unit-step
// reference on byte-decoded multi-class, multi-cycle traces: order, starts,
// units and block orders must agree.
func FuzzLookaheadMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 10, 0, 2, 3, 8, 1, 2, 10, 0, 3, 1, 0x41, 3, 0x22, 5, 0x63, 7, 0x84, 9})
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomDiffTrace(r, 8+r.Intn(16), 2+r.Intn(4), 0.3, 3, 3, 4)
		f.Add(encodeDiffInstance(g, byte(seed%2)|1<<2))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, m, opt := decodeDiffInstance(data)
		if g == nil {
			return
		}
		want, err := referenceLookahead(g, m, opt)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		got, err := LookaheadOpts(g, m, opt)
		if err != nil {
			t.Fatalf("optimized: %v", err)
		}
		assertSameResult(t, m.Name, g, got, want)
	})
}

// unitStepMergeRounds is Step.mergeRounds with the loop it settles: one
// re-rank per loosening round up to the limit, then the §4.2 fallback.
func unitStepMergeRounds(st *Step, in *StepIn, d []int, repin bool) (*sched.Schedule, error) {
	sn := in.View.N
	_, res, err := st.rerank(d)
	if err != nil {
		return nil, err
	}
	for bump := 0; !res.Feasible && bump <= 4*(sn+max(in.View.MaxLat, 1)+2); bump++ {
		if tr := in.Tracer; tr != nil && !repin {
			tr.Emit(obs.Event{Kind: obs.KindMergeLoosen, Block: in.Block, Node: graph.None, N: bump + 1})
		}
		for si := 0; si < sn; si++ {
			if !in.IsOld[si] {
				d[si]++
			}
		}
		if _, res, err = st.rerank(d); err != nil {
			return nil, err
		}
	}
	for tries := 0; !res.Feasible && tries < 30; tries++ {
		changed := false
		for si := 0; si < sn; si++ {
			if f := res.S.Finish(graph.NodeID(si)); f > d[si] {
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
	}
	if !res.Feasible {
		for si := 0; si < sn; si++ {
			if f := res.S.Finish(graph.NodeID(si)); f > d[si] {
				d[si] = f
			}
		}
	}
	return res.S, nil
}

// TestMergeRoundsMatchesUnitStep compares Step.mergeRounds with
// unitStepMergeRounds on random views — the last block new, the rest old —
// under random deadlines and release times, on the first merge and on the
// repair path: schedules, final deadlines and loosen events must agree.
// Arbitrary deadlines reach settled states that Run's assignment seldom
// does, such as a feasible round several rounds away.
func TestMergeRoundsMatchesUnitStep(t *testing.T) {
	jumps := CountLoosenJumps(t)
	machines := []*machine.Machine{machine.SingleUnit(2), machine.RS6000(4), machine.Superscalar(2, 4)}
	for seed := int64(0); seed < 600; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := machines[seed%int64(len(machines))]
		g := randomDiffTrace(r, 4+r.Intn(16), 2+r.Intn(3), 0.3, len(m.Units), 3, 4)
		view := graph.NewCSR(g).View()
		n := view.N
		in := StepIn{View: view, M: m, IsOld: make([]bool, n), DOld: make([]int, n),
			FOld: make([]int, n), ROld: make([]int, n)}
		// Odd seeds give the old nodes room and put the new deadlines past
		// every old one by more than settle's gap, with releases that keep
		// new nodes late for several rounds.
		gap := view.MaxLat
		for _, e := range view.Exec {
			gap += int(e)
		}
		d := make([]int, n)
		for v := range n {
			in.IsOld[v] = view.Block[v] != view.Block[n-1]
			switch {
			case seed%2 == 0:
				d[v] = 1 + r.Intn(3*n)
				if r.Intn(4) == 0 {
					in.ROld[v] = r.Intn(2 * n)
				}
			case in.IsOld[v]:
				d[v] = gap
			default:
				d[v] = 2*gap + 1 + r.Intn(4)
				if r.Intn(2) == 0 {
					in.ROld[v] = d[v] + r.Intn(6) - 2
				}
			}
		}
		for _, repin := range []bool{false, true} {
			var s [2]*sched.Schedule
			var dd [2][]int
			var events [2][]obs.Event
			for i, merge := range []func(*Step, *StepIn, []int, bool) (*sched.Schedule, error){
				(*Step).mergeRounds, unitStepMergeRounds,
			} {
				rec := obs.NewRecorder()
				in.Tracer = rec
				var st Step
				if _, err := st.assign(&in); err != nil {
					t.Fatal(err)
				}
				copy(st.d, d)
				var err error
				if s[i], err = merge(&st, &in, st.d, repin); err != nil {
					t.Fatal(err)
				}
				dd[i], events[i] = st.d, rec.Events()
			}
			label := fmt.Sprintf("seed %d repin %t", seed, repin)
			if !slices.Equal(s[0].Start, s[1].Start) || !slices.Equal(s[0].Unit, s[1].Unit) {
				t.Fatalf("%s: schedules differ\n got %v\n want %v", label, s[0].Start, s[1].Start)
			}
			if !slices.Equal(dd[0], dd[1]) {
				t.Fatalf("%s: deadlines differ\n got %v\n want %v", label, dd[0], dd[1])
			}
			if !slices.Equal(events[0], events[1]) {
				t.Fatalf("%s: %d events, unit-step %d", label, len(events[0]), len(events[1]))
			}
		}
	}
	for _, c := range []struct {
		name string
		n    int64
	}{
		{"jumped to a feasible round", jumps.Feasible.Load()},
		{"jumped more than one round to a feasible one", jumps.Far.Load()},
		{"ran to the limit", jumps.Limit.Load()},
		{"settled on the repair path", jumps.Repin.Load()},
	} {
		if c.n < 50 {
			t.Errorf("%d settled loosening loops %s, want ≥ 50", c.n, c.name)
		}
	}
}
