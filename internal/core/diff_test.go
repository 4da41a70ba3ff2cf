package core

import (
	"fmt"
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
)

// Differential test: LookaheadOpts on the context-based engine (shared
// rank.Ctx per induced subgraph, incremental re-ranks on loosen/fallback,
// ctx-driven Delay_Idle_Slots, binary-search chop) must be bit-identical to
// referenceLookahead below, which rebuilds the pipeline from the retained
// naive pieces exactly as the pre-context implementation did.

// referenceLookahead mirrors LookaheadOpts using rank.ReferenceCompute /
// rank.ReferenceRun, idle.ReferenceDelayIdleSlots and a linear-scan chop.
func referenceLookahead(g *graph.Graph, m *machine.Machine, opt Options) (*Result, error) {
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
		// mergeRounds mirrors Step.mergeRounds: re-rank under the assigned
		// deadlines, loosen the new deadlines until feasible, then the §4.2
		// heuristic fallback syncing deadlines to achieved finishes.
		mergeRounds := func(d []int) (*sched.Schedule, error) {
			res, err := rank.ReferenceRunRel(sub, m, d, nil, rel)
			if err != nil {
				return nil, err
			}
			for bump := 0; !res.Feasible && bump <= maxBump(sub); bump++ {
				for si := 0; si < sub.Len(); si++ {
					if !isOld[si] {
						d[si]++
					}
				}
				res, err = rank.ReferenceRunRel(sub, m, d, nil, rel)
				if err != nil {
					return nil, err
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
					return nil, err
				}
			}
			if !res.Feasible {
				for si := 0; si < sub.Len(); si++ {
					if f := res.S.Finish(graph.NodeID(si)); f > d[si] {
						d[si] = f
					}
				}
			}
			return res.S, nil
		}
		s, err := mergeRounds(d)
		if err != nil {
			return nil, err
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
			s2, err := mergeRounds(d)
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

// randomTrace builds an acyclic multi-block trace with forward edges only.
func randomDiffTrace(r *rand.Rand, n, nblocks int, p float64, classes int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), 1+r.Intn(2), r.Intn(classes), i*nblocks/n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(3), 0)
			}
		}
	}
	return g
}

func TestDifferentialLookaheadMatchesReference(t *testing.T) {
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
		g := randomDiffTrace(r, 4+r.Intn(20), 1+r.Intn(4), 0.3, cs.classes)
		opt := Options{SkipDelay: seed%5 == 4}

		want, err := referenceLookahead(g, cs.m, opt)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		got, err := LookaheadOpts(g, cs.m, opt)
		if err != nil {
			t.Fatalf("seed %d: optimized: %v", seed, err)
		}
		assertSameResult(t, fmt.Sprintf("seed %d on %s", seed, cs.m.Name), g, got, want)
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
