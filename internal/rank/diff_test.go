package rank

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/sched"
)

// Differential tests: the context-based engine (Ctx.Compute / Ctx.Run /
// Ctx.Refresh / Ctx.RunRanks) must be bit-identical to the retained naive implementation
// (ReferenceCompute / ReferenceRun) on every input — same ranks, same start
// times, same unit assignments, same feasibility verdicts.

// randomDiffDAG builds a DAG exercising the general machine model: execution
// times 1–3, unit classes 0..classes-1, latencies 0–3.
func randomDiffDAG(r *rand.Rand, n int, p float64, classes int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), 1+r.Intn(3), r.Intn(classes), 0)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(4), 0)
			}
		}
	}
	return g
}

// randomDeadlines mixes effectively-infinite deadlines with tight random
// ones, so both the feasible and infeasible regimes are exercised.
func randomDeadlines(r *rand.Rand, n int) []int {
	d := make([]int, n)
	for i := range d {
		if r.Intn(2) == 0 {
			d[i] = Big
		} else {
			d[i] = 1 + r.Intn(4*n+4)
		}
	}
	return d
}

// diffMachines pairs each machine model with the number of node classes its
// graphs may use (Superscalar has units for class 0 only).
type diffMachine struct {
	m       *machine.Machine
	classes int
}

func diffMachines() []diffMachine {
	return []diffMachine{
		{machine.SingleUnit(4), 3}, // classes folded to 0 on single-unit models
		{machine.RS6000(4), 3},
		{machine.Superscalar(2, 4), 1},
	}
}

func sameSchedule(a, b *sched.Schedule) bool {
	if a.G.Len() != b.G.Len() {
		return false
	}
	for v := 0; v < a.G.Len(); v++ {
		if a.Start[v] != b.Start[v] || a.Unit[v] != b.Unit[v] {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDifferentialCtxMatchesReference(t *testing.T) {
	machines := diffMachines()
	for seed := int64(0); seed < 70; seed++ {
		dm := machines[seed%int64(len(machines))]
		m := dm.m
		r := rand.New(rand.NewSource(seed))
		g := randomDiffDAG(r, 2+r.Intn(24), 0.3, dm.classes)
		d := randomDeadlines(r, g.Len())

		want, err := ReferenceCompute(g, m, d)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		c, err := NewCtx(g, m)
		if err != nil {
			t.Fatalf("seed %d: NewCtx: %v", seed, err)
		}
		got, err := c.Compute(d)
		if err != nil {
			t.Fatalf("seed %d: Compute: %v", seed, err)
		}
		if !sameInts(got, want) {
			t.Fatalf("seed %d on %s: ranks differ\n ctx %v\n ref %v", seed, m.Name, got, want)
		}

		wantRes, err := ReferenceRun(g, m, d, nil)
		if err != nil {
			t.Fatalf("seed %d: ReferenceRun: %v", seed, err)
		}
		gotRes, err := c.Run(d, nil)
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if gotRes.Feasible != wantRes.Feasible || !sameSchedule(gotRes.S, wantRes.S) {
			t.Fatalf("seed %d on %s: schedules differ (feasible %v vs %v)\n ctx %v/%v\n ref %v/%v",
				seed, m.Name, gotRes.Feasible, wantRes.Feasible,
				gotRes.S.Start, gotRes.S.Unit, wantRes.S.Start, wantRes.S.Unit)
		}
	}
}

func TestDifferentialPackageAPIMatchesReference(t *testing.T) {
	// The package-level Compute/Run wrappers go through a throwaway Ctx; pin
	// them to the reference too so the public surface can never drift.
	for seed := int64(100); seed < 130; seed++ {
		m := machine.RS6000(4)
		r := rand.New(rand.NewSource(seed))
		g := randomDiffDAG(r, 2+r.Intn(18), 0.35, 3)
		d := randomDeadlines(r, g.Len())
		want, err := ReferenceCompute(g, m, d)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		got, err := Compute(g, m, d)
		if err != nil {
			t.Fatalf("seed %d: Compute: %v", seed, err)
		}
		if !sameInts(got, want) {
			t.Fatalf("seed %d: ranks differ\n got %v\n want %v", seed, got, want)
		}
	}
}

func TestDifferentialIncrementalUpdateMatchesFullCompute(t *testing.T) {
	// Refresh after a batch of deadline demotions must land in exactly the
	// state a from-scratch Compute (and the naive reference) produces. This
	// is the path Move_Idle_Slot and the lookahead loosen/fallback loops use.
	machines := diffMachines()
	for seed := int64(200); seed < 260; seed++ {
		dm := machines[seed%int64(len(machines))]
		m := dm.m
		r := rand.New(rand.NewSource(seed))
		g := randomDiffDAG(r, 2+r.Intn(22), 0.3, dm.classes)
		n := g.Len()
		d := randomDeadlines(r, n)

		c, err := NewCtx(g, m)
		if err != nil {
			t.Fatalf("seed %d: NewCtx: %v", seed, err)
		}
		if _, err := c.Refresh(d); err != nil {
			t.Fatalf("seed %d: Refresh: %v", seed, err)
		}
		for round := 0; round < 6; round++ {
			if round%2 == 0 {
				// Single demotion, as in Move_Idle_Slot.
				d[r.Intn(n)] -= 1 + r.Intn(3)
			} else {
				// Batch change, as in the lookahead loosen loop.
				for k := 0; k < 1+r.Intn(3); k++ {
					d[r.Intn(n)] += r.Intn(7) - 3
				}
			}
			ranks, err := c.Refresh(d)
			if err != nil {
				t.Fatalf("seed %d round %d: Refresh: %v", seed, round, err)
			}
			want, err := ReferenceCompute(g, m, d)
			if err != nil {
				t.Fatalf("seed %d round %d: reference: %v", seed, round, err)
			}
			if !sameInts(ranks, want) {
				t.Fatalf("seed %d round %d on %s: incremental ranks diverged\n got %v\n want %v",
					seed, round, m.Name, ranks, want)
			}
		}
	}
}

// refreshDAG builds a DAG for the Refresh differentials: execution times
// 1–3, latencies 0–4, unit classes 0..classes-1.
func refreshDAG(r *rand.Rand, n int, p float64, classes int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), 1+r.Intn(3), r.Intn(classes), 0)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(5), 0)
			}
		}
	}
	return g
}

// refreshMachines are the Refresh differentials' machines, each with the
// node classes its graphs may use.
func refreshMachines() []diffMachine {
	return []diffMachine{
		{machine.SingleUnit(4), 3},
		{machine.RS6000(4), 3},
		{machine.Superscalar(2, 3), 1},
	}
}

// editDeadlines applies deadline edit number op to d: a uniform shift of a
// random subset, a uniform shift of an ID suffix (descendant-closed, like
// the merge's new nodes), a single demotion, an arbitrary rewrite, a no-op,
// or every Big deadline made finite.
func editDeadlines(r *rand.Rand, d []int, op int) {
	n := len(d)
	delta := 1 + r.Intn(5)
	if r.Intn(2) == 0 {
		delta = -delta
	}
	switch op % 6 {
	case 0:
		for v := range d {
			if r.Intn(2) == 0 {
				d[v] += delta
			}
		}
	case 1:
		for v := r.Intn(n); v < n; v++ {
			d[v] += delta
		}
	case 2:
		d[r.Intn(n)] -= 1 + r.Intn(3)
	case 3:
		copy(d, randomDeadlines(r, n))
	case 4:
	case 5:
		for v := range d {
			if d[v] == Big {
				d[v] = 1 + r.Intn(4*n+4)
			}
		}
	}
}

// checkRefresh fails unless c.Refresh(d) equals a fresh ComputeInto and the
// naive reference.
func checkRefresh(t *testing.T, c *Ctx, g *graph.Graph, m *machine.Machine, d []int, what string) {
	t.Helper()
	got, err := c.Refresh(d)
	if err != nil {
		t.Fatalf("%s: Refresh: %v", what, err)
	}
	fresh, err := NewCtx(g, m)
	if err != nil {
		t.Fatalf("%s: NewCtx: %v", what, err)
	}
	full := make([]int, g.Len())
	if err := fresh.ComputeInto(full, d); err != nil {
		t.Fatalf("%s: ComputeInto: %v", what, err)
	}
	ref, err := ReferenceCompute(g, m, d)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	if !sameInts(got, full) || !sameInts(got, ref) {
		t.Fatalf("%s on %s: ranks differ\n refresh %v\n compute %v\n ref     %v\n d %v",
			what, m.Name, got, full, ref, d)
	}
}

func TestDifferentialRefreshMatchesCompute(t *testing.T) {
	machines := refreshMachines()
	for seed := int64(0); seed < 90; seed++ {
		dm := machines[seed%int64(len(machines))]
		r := rand.New(rand.NewSource(seed))
		g := refreshDAG(r, 2+r.Intn(24), 0.3, dm.classes)
		d := randomDeadlines(r, g.Len())
		c, err := NewCtx(g, dm.m)
		if err != nil {
			t.Fatal(err)
		}
		checkRefresh(t, c, g, dm.m, d, fmt.Sprintf("seed %d first pass", seed))
		for round := 0; round < 12; round++ {
			op := r.Intn(6)
			editDeadlines(r, d, op)
			checkRefresh(t, c, g, dm.m, d, fmt.Sprintf("seed %d round %d edit %d", seed, round, op))
		}
	}
}

// TestRunRanksReuseMatchesListSchedule pins RunRanks' schedule reuse: a
// call whose priority list equals the previous call's returns that same
// schedule, and every returned schedule equals a fresh greedy list schedule
// of the rank-ordered list, with and without release times.
func TestRunRanksReuseMatchesListSchedule(t *testing.T) {
	machines := refreshMachines()
	reused := 0
	for seed := int64(0); seed < 60; seed++ {
		dm := machines[seed%int64(len(machines))]
		r := rand.New(rand.NewSource(seed))
		g := refreshDAG(r, 2+r.Intn(20), 0.3, dm.classes)
		n := g.Len()
		d := UniformDeadlines(n, Big)
		c, err := NewCtx(g, dm.m)
		if err != nil {
			t.Fatal(err)
		}
		var rel []int
		var prev *sched.Schedule
		var prevList []graph.NodeID
		for round := 0; round < 10; round++ {
			switch round {
			case 4:
				rel = make([]int, n)
				for v := range rel {
					rel[v] = r.Intn(6) - 1
				}
				c.SetRelease(rel)
				prev = nil
			case 8:
				rel = nil
				c.SetRelease(nil)
				prev = nil
			default:
				if round > 0 {
					editDeadlines(r, d, []int{1, 4, 0, 2}[round%4])
				}
			}
			ranks, err := c.Refresh(d)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.RunRanks(ranks, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			list := ListFromRanks(g, ranks, sched.SourceOrder(g))
			want, err := sched.ListScheduleRelease(g, dm.m, list, rel)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSchedule(res.S, want) {
				t.Fatalf("seed %d round %d on %s: RunRanks schedule differs from ListSchedule\n got  %v/%v\n want %v/%v",
					seed, round, dm.m.Name, res.S.Start, res.S.Unit, want.Start, want.Unit)
			}
			if prev != nil && slices.Equal(list, prevList) {
				if res.S != prev {
					t.Fatalf("seed %d round %d: unchanged list was rescheduled", seed, round)
				}
				reused++
			}
			prev, prevList = res.S, list
		}
	}
	if reused == 0 {
		t.Fatal("no round reused its schedule; the reuse path is untested")
	}
}

// FuzzRankRefresh drives one context through a fuzzer-chosen sequence of
// deadline edits and checks every Refresh against a fresh ComputeInto and
// the naive reference.
func FuzzRankRefresh(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(7), []byte{1, 1, 1, 4, 2, 2})
	f.Add(int64(42), []byte{5, 0, 3, 1})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 32 {
			ops = ops[:32]
		}
		machines := refreshMachines()
		dm := machines[uint64(seed)%uint64(len(machines))]
		r := rand.New(rand.NewSource(seed))
		g := refreshDAG(r, 1+r.Intn(20), 0.3, dm.classes)
		d := randomDeadlines(r, g.Len())
		c, err := NewCtx(g, dm.m)
		if err != nil {
			t.Fatal(err)
		}
		checkRefresh(t, c, g, dm.m, d, "first pass")
		for i, op := range ops {
			editDeadlines(r, d, int(op))
			checkRefresh(t, c, g, dm.m, d, fmt.Sprintf("edit %d (%d)", i, op%6))
		}
	})
}

// searchRank is the reference rank step: ReferenceCompute's binary search
// over the completion time with one referencePackFeasible probe per
// candidate, for a node with deadline dv and sorted descendants ds.
func searchRank(ds []descendant, m *machine.Machine, dv int) int {
	hi, total, maxLat := dv, 0, 0
	for _, u := range ds {
		hi = min(hi, u.rank-u.exec-u.lat)
		total += u.exec
		maxLat = max(maxLat, u.lat)
	}
	lo := hi - 2*(total+maxLat+2)
	if !referencePackFeasible(ds, m, lo) {
		return lo
	}
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if referencePackFeasible(ds, m, mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// TestRankOfMatchesBinarySearch is the exactness property of the one-pass
// rank: on random descendant sets — exec 1–3, release latency 0–4, up to
// three unit classes, ranks drawn low enough that many sets are infeasible
// and the rank falls below exec — rankOf equals the reference binary search
// over referencePackFeasible. It also pins why the reference's floor clamp
// is not needed: the packing is always feasible at the bottom of the search
// range.
func TestRankOfMatchesBinarySearch(t *testing.T) {
	machines := diffMachines()
	belowExec := 0
	for seed := int64(0); seed < 3000; seed++ {
		dm := machines[seed%int64(len(machines))]
		r := rand.New(rand.NewSource(seed))
		classes := 1 + r.Intn(dm.classes)
		// A context bound to one node per class sizes unitsFor and occ.
		g := graph.New(classes)
		for cls := 0; cls < classes; cls++ {
			g.AddNode("c", 1, cls, 0)
		}
		c, err := NewCtx(g, dm.m)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + r.Intn(12)
		ds := make([]descendant, k)
		minExec := 3
		for i := range ds {
			cls := r.Intn(classes)
			if dm.m.SingleUnitOnly() {
				cls = 0
			}
			ds[i] = descendant{
				rank:  r.Intn(3*k+6) - 2,
				exec:  1 + r.Intn(3),
				class: cls,
				lat:   r.Intn(5),
				pos:   i,
			}
			minExec = min(minExec, ds[i].exec)
		}
		slices.SortFunc(ds, compareDescendants)
		dv := Big
		if r.Intn(2) == 0 {
			dv = r.Intn(3*k + 6)
		}
		want := searchRank(ds, dm.m, dv)
		if got := c.rankOf(ds, dv); got != want {
			t.Fatalf("seed %d on %s: rankOf = %d, binary search = %d\n ds %+v dv %d",
				seed, dm.m.Name, got, want, ds, dv)
		}
		if want < minExec {
			belowExec++
		}
		hi, total, maxLat := dv, 0, 0
		for _, u := range ds {
			hi = min(hi, u.rank-u.exec-u.lat)
			total += u.exec
			maxLat = max(maxLat, u.lat)
		}
		if lo := hi - 2*(total+maxLat+2); !referencePackFeasible(ds, dm.m, lo) {
			t.Fatalf("seed %d on %s: packing infeasible at the search floor %d", seed, dm.m.Name, lo)
		}
	}
	if belowExec < 300 {
		t.Fatalf("only %d of 3000 sets ranked below exec; the infeasible regime is under-sampled", belowExec)
	}
}
