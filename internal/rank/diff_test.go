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
// Ctx.Update) must be bit-identical to the retained naive implementation
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
	// Update after a batch of deadline demotions must land in exactly the
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
		ranks, err := c.Compute(d)
		if err != nil {
			t.Fatalf("seed %d: Compute: %v", seed, err)
		}
		for round := 0; round < 6; round++ {
			changed := graph.NewBitset(n)
			if round%2 == 0 {
				// Single demotion, as in Move_Idle_Slot.
				v := graph.NodeID(r.Intn(n))
				d[v] -= 1 + r.Intn(3)
				c.UpdateOne(ranks, d, v)
			} else {
				// Batch change, as in the lookahead loosen loop.
				for k := 0; k < 1+r.Intn(3); k++ {
					v := r.Intn(n)
					d[v] += r.Intn(7) - 3
					changed.Set(v)
				}
				c.Update(ranks, d, changed)
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
