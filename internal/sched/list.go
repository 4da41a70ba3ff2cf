package sched

import (
	"fmt"

	"aisched/internal/graph"
	"aisched/internal/machine"
)

// ListSchedule runs the greedy list scheduler: at each cycle, scan the
// priority list front to back and start every ready instruction for which a
// functional unit of its class is free. An instruction is ready at cycle t
// when every distance-0 predecessor u satisfies finish(u) + latency ≤ t.
//
// This single routine serves two roles in the paper:
//   - step 3 of the Rank Algorithm (greedy scheduling of the rank-ordered
//     list, §2.1),
//   - the baseline prioritized-list schedulers (§6, Warren/Gibbons-Muchnick
//     style, with different priority orders).
//
// Definition 2.3 legality is judged by the window replay in CheckLegal, not
// by this windowless scheduler.
//
// The priority list must contain each node exactly once. An error is
// returned if the list is malformed or the graph's loop-independent subgraph
// is cyclic.
func ListSchedule(g *graph.Graph, m *machine.Machine, priority []graph.NodeID) (*Schedule, error) {
	ls, err := NewListScheduler(g, m)
	if err != nil {
		return nil, err
	}
	return ls.Run(priority)
}

// ListScheduleRelease is ListSchedule with per-node release times (see
// ListScheduler.SetRelease); rel may be nil. It serves the naive reference
// pipelines of the differential tests — hot paths hold a ListScheduler.
func ListScheduleRelease(g *graph.Graph, m *machine.Machine, priority []graph.NodeID, rel []int) (*Schedule, error) {
	ls, err := NewListScheduler(g, m)
	if err != nil {
		return nil, err
	}
	ls.SetRelease(rel)
	return ls.Run(priority)
}

// ListScheduler runs the greedy list scheduler repeatedly over one graph
// view and machine, reusing the readiness scratch between runs. It is the
// allocation-free core behind ListSchedule; the Rank Algorithm context
// (internal/rank) holds one per graph so the hundreds of reschedules of a
// Delay_Idle_Slots pass share the same buffers. Reset rebinds it to a new
// view without allocating once the scratch has grown to size.
type ListScheduler struct {
	// Flat adjacency and attributes, borrowed from the bound AdjView.
	n      int
	off    []int32
	dst    []graph.NodeID
	lat    []int32
	exec   []int32
	class  []int32
	labels []string

	// g is the graph behind the view when the caller has one (nil for
	// induced subgraph views); it is stored on produced Schedules so that
	// graph-dependent methods (Validate, ConcatSubpermutations) keep working.
	g *graph.Graph
	m *machine.Machine

	// indeg is the distance-0 in-degree template copied into remaining at
	// the start of every run.
	indeg     []int
	earliest  []int
	remaining []int
	unitFree  []int
	// posOf[v] is v's index in the priority list; ready holds, by list
	// position, the unissued nodes whose predecessors have all issued.
	posOf []int
	ready graph.Bitset
	// rel, when non-nil, holds per-node release times seeding earliest at
	// the start of every run (see SetRelease).
	rel []int
	// ubase/ucount cache m.UnitRange per class present in the view.
	ubase  []int
	ucount []int
	// negClass is the first node of the bound view with a negative class
	// (no unit can run it), or -1; Run rejects such a view.
	negClass int
}

// NewListScheduler validates that g's loop-independent subgraph is acyclic
// and returns a scheduler whose Run can be called any number of times.
func NewListScheduler(g *graph.Graph, m *machine.Machine) (*ListScheduler, error) {
	if !g.IsAcyclic() {
		return nil, fmt.Errorf("sched: loop-independent subgraph is cyclic")
	}
	return NewListSchedulerAcyclic(g, m), nil
}

// NewListSchedulerAcyclic is NewListScheduler for callers that have already
// established that g's loop-independent subgraph is acyclic (typically by
// computing a topological order), skipping the redundant validation pass.
// Run on a cyclic graph never terminates; use NewListScheduler when in doubt.
func NewListSchedulerAcyclic(g *graph.Graph, m *machine.Machine) *ListScheduler {
	ls := &ListScheduler{}
	ls.Reset(graph.NewCSR(g).View(), m, g)
	return ls
}

// Reset rebinds the scheduler to a new (acyclic) adjacency view. g may be
// nil when the view is an induced subgraph with no standalone *Graph; the
// produced Schedules then rely on the recorded exec times instead of G.
// Scratch is grown as needed and otherwise reused.
func (ls *ListScheduler) Reset(view graph.AdjView, m *machine.Machine, g *graph.Graph) {
	n := view.N
	ls.n = n
	ls.off, ls.dst, ls.lat = view.Off, view.Dst, view.Lat
	ls.exec, ls.class, ls.labels = view.Exec, view.Class, view.Labels
	ls.g, ls.m = g, m
	ls.rel = nil

	if cap(ls.indeg) < n {
		// One backing for the four per-node int arrays.
		ints := make([]int, 4*n)
		ls.indeg, ls.earliest = ints[:n:n], ints[n:2*n:2*n]
		ls.remaining, ls.posOf = ints[2*n:3*n:3*n], ints[3*n:]
		ls.ready = graph.NewBitset(n)
	}
	ls.indeg = ls.indeg[:n]
	ls.earliest = ls.earliest[:n]
	ls.remaining = ls.remaining[:n]
	ls.posOf = ls.posOf[:n]
	ls.ready = ls.ready[:(n+63)/64]
	clear(ls.indeg)
	for _, d := range ls.dst[:view.Off[n]] {
		ls.indeg[d]++
	}

	if tot := m.TotalUnits(); cap(ls.unitFree) < tot {
		ls.unitFree = make([]int, tot)
	} else {
		ls.unitFree = ls.unitFree[:tot]
	}

	maxClass := 0
	ls.negClass = -1
	for v, c := range view.Class {
		if int(c) > maxClass {
			maxClass = int(c)
		}
		if c < 0 && ls.negClass < 0 {
			ls.negClass = v
		}
	}
	if cap(ls.ubase) < maxClass+1 {
		ls.ubase = make([]int, maxClass+1)
		ls.ucount = make([]int, maxClass+1)
	}
	ls.ubase = ls.ubase[:maxClass+1]
	ls.ucount = ls.ucount[:maxClass+1]
	for c := 0; c <= maxClass; c++ {
		ls.ubase[c], ls.ucount[c] = m.UnitRange(machine.UnitClass(c))
	}
}

// SetRelease installs per-node release times: node v may not start before
// rel[v], exactly as if an already-emitted predecessor's finish + latency
// landed there. The slice is retained (not copied) and read by every Run
// until the next Reset or SetRelease(nil); its length must match the bound
// view. Values ≤ 0 are no constraint. Anticipatory scheduling uses this to
// keep latencies sound across chop commits: edges from a committed prefix
// into the carried suffix leave the merge's view, so their lower bounds ride
// along as release times instead.
func (ls *ListScheduler) SetRelease(rel []int) { ls.rel = rel }

// Run greedily schedules the priority list (see ListSchedule). Only the
// returned Schedule is freshly allocated; all bookkeeping is reused.
func (ls *ListScheduler) Run(priority []graph.NodeID) (*Schedule, error) {
	n := ls.n
	if len(priority) != n {
		return nil, fmt.Errorf("sched: priority list has %d entries for %d nodes", len(priority), n)
	}
	if v := ls.negClass; v >= 0 {
		return nil, fmt.Errorf("sched: node %d (%s) has negative class %d", v, ls.labels[v], ls.class[v])
	}
	posOf := ls.posOf
	for v := range posOf {
		posOf[v] = -1
	}
	for i, id := range priority {
		if id < 0 || int(id) >= n || posOf[id] >= 0 {
			return nil, fmt.Errorf("sched: priority list is not a permutation (node %d)", id)
		}
		posOf[id] = i
	}

	s := &Schedule{G: ls.g, M: ls.m, Start: make([]int, n), Unit: make([]int, n), exec: ls.exec}
	for i := range s.Start {
		s.Start[i] = Unassigned
		s.Unit[i] = Unassigned
	}
	// earliest[v]: max over scheduled preds of finish+latency, floored at
	// the release time when one is set; -1 per unsatisfied pred is tracked
	// via remaining count.
	earliest := ls.earliest
	if ls.rel != nil {
		if len(ls.rel) != n {
			return nil, fmt.Errorf("sched: %d release times for %d nodes", len(ls.rel), n)
		}
		copy(earliest, ls.rel)
	} else {
		clear(earliest)
	}
	remaining := ls.remaining
	copy(remaining, ls.indeg)
	// unitFree[u]: cycle at which global unit u becomes free.
	unitFree := ls.unitFree
	clear(unitFree)
	// The scans below visit only ready nodes, in list order: the same nodes,
	// in the same order, that a scan of the whole list would not skip.
	// NextSet re-reads the live word, so a node made ready by an issue
	// earlier in the same cycle is still visited, as in a full scan.
	ready := ls.ready
	clear(ready)
	for v, r := range remaining {
		if r == 0 {
			ready.Set(posOf[v])
		}
	}

	scheduled := 0
	for t := 0; scheduled < n; t++ {
		progress := false
		for p := ready.NextSet(0); p >= 0; p = ready.NextSet(p + 1) {
			v := int(priority[p])
			if earliest[v] > t {
				continue
			}
			base, count := ls.ubase[ls.class[v]], ls.ucount[ls.class[v]]
			if count == 0 {
				return nil, fmt.Errorf("sched: node %d (%s) has class %d with no units",
					v, ls.labels[v], ls.class[v])
			}
			unit := -1
			for u := base; u < base+count; u++ {
				if unitFree[u] <= t {
					unit = u
					break
				}
			}
			if unit < 0 {
				continue
			}
			s.Start[v] = t
			s.Unit[v] = unit
			ready.Clear(p)
			fin := t + int(ls.exec[v])
			unitFree[unit] = fin
			scheduled++
			progress = true
			for e := ls.off[v]; e < ls.off[v+1]; e++ {
				d := ls.dst[e]
				if remaining[d]--; remaining[d] == 0 {
					ready.Set(posOf[d])
				}
				if r := fin + int(ls.lat[e]); r > earliest[d] {
					earliest[d] = r
				}
			}
		}
		// Fast-forward over guaranteed-idle stretches to keep the loop
		// O(makespan) rather than cycle-perfect scanning: if nothing was
		// issued, jump to the next time anything can change.
		if !progress && scheduled < n {
			next := -1
			for p := ready.NextSet(0); p >= 0; p = ready.NextSet(p + 1) {
				v := int(priority[p])
				cand := earliest[v]
				base, count := ls.ubase[ls.class[v]], ls.ucount[ls.class[v]]
				// earliest unit availability for this class
				uf := -1
				for u := base; u < base+count; u++ {
					if uf == -1 || unitFree[u] < uf {
						uf = unitFree[u]
					}
				}
				if uf > cand {
					cand = uf
				}
				if next == -1 || cand < next {
					next = cand
				}
			}
			if next <= t {
				next = t + 1
			}
			t = next - 1 // loop increment brings it to `next`
		}
	}
	return s, nil
}

// SourceOrder returns the identity priority list (original program order).
func SourceOrder(g *graph.Graph) []graph.NodeID {
	out := make([]graph.NodeID, g.Len())
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}
