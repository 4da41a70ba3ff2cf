// Package sched defines the schedule representation shared by every
// scheduler in this repository, the greedy list scheduler that underlies
// the Rank Algorithm and the baselines, and the legality check of Sarkar &
// Simons Definition 2.3, which replays the schedule's own block order on
// the window hardware model (internal/hw).
//
// Time conventions: cycles are integers starting at 0. A node with start
// time s and execution time e occupies its functional unit during [s, s+e)
// and finishes at s+e. An edge (x, y) with latency ℓ requires
// start(y) ≥ finish(x) + ℓ. Only distance-0 (loop-independent) edges
// constrain a single-iteration schedule; loop-carried edges are handled by
// internal/loops and the dynamic simulator.
package sched

import (
	"fmt"
	"sort"
	"strings"

	"aisched/internal/graph"
	"aisched/internal/machine"
)

// Unassigned marks a node that has no start time in a Schedule.
const Unassigned = -1

// Schedule maps every node of a graph to a start time and functional unit.
type Schedule struct {
	G *graph.Graph
	M *machine.Machine
	// Start[v] is the start cycle of node v, or Unassigned.
	Start []int
	// Unit[v] is the global unit index node v runs on (0-based across all
	// classes, in class order), or Unassigned.
	Unit []int
	// Degraded is empty for a full anticipatory schedule. When the facade's
	// scheduling budget was exhausted it holds the reason, and the schedule
	// is the baseline greedy list schedule produced by graceful degradation
	// (valid, but without the anticipatory guarantees).
	Degraded string
	// exec[v] is the execution time of node v, recorded by the view-based
	// list scheduler so that Finish/Makespan work without touching G (which
	// may be nil for schedules built from an induced graph view).
	exec []int32
}

// New returns an empty (all-unassigned) schedule for g on m.
func New(g *graph.Graph, m *machine.Machine) *Schedule {
	s := &Schedule{
		G:     g,
		M:     m,
		Start: make([]int, g.Len()),
		Unit:  make([]int, g.Len()),
	}
	for i := range s.Start {
		s.Start[i] = Unassigned
		s.Unit[i] = Unassigned
	}
	return s
}

// Clone returns a deep copy sharing the graph and machine.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{G: s.G, M: s.M, Degraded: s.Degraded, exec: s.exec}
	c.Start = append([]int(nil), s.Start...)
	c.Unit = append([]int(nil), s.Unit...)
	return c
}

// ApproxBytes reports the schedule's approximate resident footprint for the
// memo layer's byte-bounded LRU (memo.Sizer).
func (s *Schedule) ApproxBytes() int {
	return 96 + 8*(len(s.Start)+len(s.Unit)) + 4*len(s.exec) + len(s.Degraded)
}

// ResetView reinitializes s in place as a view-backed schedule of n nodes on
// m: Start and Unit are resized (contents unspecified — the caller fills
// them), the graph pointer is cleared, and exec is aliased so Finish and
// Makespan work without a graph. This is the step cache's replay target: one
// reusable Schedule per Step, refilled from a fragment on every hit, valid
// until the next reset (the same lifetime as StepOut's scratch).
func (s *Schedule) ResetView(m *machine.Machine, n int, exec []int32) {
	s.G, s.M = nil, m
	s.Degraded = ""
	if cap(s.Start) < n {
		s.Start = make([]int, n)
		s.Unit = make([]int, n)
	}
	s.Start, s.Unit = s.Start[:n], s.Unit[:n]
	s.exec = exec
}

// Len reports the number of nodes the schedule covers.
func (s *Schedule) Len() int { return len(s.Start) }

// execOf returns the execution time of v, from the recorded exec slice when
// present (view-built schedules) or from the graph.
func (s *Schedule) execOf(v graph.NodeID) int {
	if s.exec != nil {
		return int(s.exec[v])
	}
	return s.G.Node(v).Exec
}

// Finish returns the finish time of v (start + exec), or Unassigned.
func (s *Schedule) Finish(v graph.NodeID) int {
	if s.Start[v] == Unassigned {
		return Unassigned
	}
	return s.Start[v] + s.execOf(v)
}

// Makespan returns the completion time of the last instruction (0 for an
// empty schedule). Unassigned nodes are ignored.
func (s *Schedule) Makespan() int {
	max := 0
	for v := range s.Start {
		if s.Start[v] == Unassigned {
			continue
		}
		if f := s.Finish(graph.NodeID(v)); f > max {
			max = f
		}
	}
	return max
}

// Complete reports whether every node has a start time.
func (s *Schedule) Complete() bool {
	for _, st := range s.Start {
		if st == Unassigned {
			return false
		}
	}
	return true
}

// Validate checks that the schedule is complete, respects all distance-0
// dependence edges, assigns each node to a unit legal for its class, and
// never runs two nodes on one unit at the same time.
func (s *Schedule) Validate() error {
	if !s.Complete() {
		return fmt.Errorf("sched: schedule is incomplete")
	}
	for v := 0; v < s.G.Len(); v++ {
		id := graph.NodeID(v)
		if s.Start[v] < 0 {
			return fmt.Errorf("sched: node %d (%s) has negative start %d", v, s.G.Node(id).Label, s.Start[v])
		}
		base, count := s.M.UnitRange(machine.UnitClass(s.G.Node(id).Class))
		if count == 0 {
			return fmt.Errorf("sched: node %d (%s) has class %d with no units", v, s.G.Node(id).Label, s.G.Node(id).Class)
		}
		if s.Unit[v] < base || s.Unit[v] >= base+count {
			return fmt.Errorf("sched: node %d (%s) on unit %d outside class range [%d,%d)",
				v, s.G.Node(id).Label, s.Unit[v], base, base+count)
		}
		for _, e := range s.G.Out(id) {
			if e.Distance != 0 {
				continue
			}
			if s.Start[e.Dst] < s.Finish(id)+e.Latency {
				return fmt.Errorf("sched: edge %d→%d latency %d violated: finish(%d)=%d, start(%d)=%d",
					e.Src, e.Dst, e.Latency, e.Src, s.Finish(id), e.Dst, s.Start[e.Dst])
			}
		}
	}
	// Resource conflicts: sort by (unit, start) and check overlap.
	type occ struct{ unit, start, finish int }
	occs := make([]occ, 0, s.G.Len())
	for v := 0; v < s.G.Len(); v++ {
		occs = append(occs, occ{s.Unit[v], s.Start[v], s.Finish(graph.NodeID(v))})
	}
	sort.Slice(occs, func(i, j int) bool {
		if occs[i].unit != occs[j].unit {
			return occs[i].unit < occs[j].unit
		}
		return occs[i].start < occs[j].start
	})
	for i := 1; i < len(occs); i++ {
		if occs[i].unit == occs[i-1].unit && occs[i].start < occs[i-1].finish {
			return fmt.Errorf("sched: unit %d runs two nodes at once (starts %d and %d)",
				occs[i].unit, occs[i-1].start, occs[i].start)
		}
	}
	return nil
}

// IdleSlots returns the start times of all idle slots across all units: a
// unit has an idle slot at integer time t < makespan when it is neither
// starting nor running an instruction at t. Returned ascending, with
// duplicates when several units are idle at the same time on multi-unit
// machines. For the paper's single-unit model this is exactly the t_1 < t_2
// < ... < t_j sequence of §3.
func (s *Schedule) IdleSlots() []int {
	T := s.Makespan()
	total := s.M.TotalUnits()
	busy := make([]graph.Bitset, total)
	for u := range busy {
		busy[u] = graph.NewBitset(T)
	}
	for v := range s.Start {
		if s.Start[v] == Unassigned {
			continue
		}
		busy[s.Unit[v]].SetRange(s.Start[v], s.Finish(graph.NodeID(v)))
	}
	var idles []int
	for t := 0; t < T; t++ {
		for u := 0; u < total; u++ {
			if !busy[u].Has(t) {
				idles = append(idles, t)
			}
		}
	}
	return idles
}

// IdleSlotsOnUnit returns the idle-slot start times of one unit.
func (s *Schedule) IdleSlotsOnUnit(unit int) []int {
	T := s.Makespan()
	busy := graph.NewBitset(T)
	for v := range s.Start {
		if s.Start[v] == Unassigned || s.Unit[v] != unit {
			continue
		}
		busy.SetRange(s.Start[v], s.Finish(graph.NodeID(v)))
	}
	var idles []int
	for t := busy.NextClear(0); t < T; t = busy.NextClear(t + 1) {
		idles = append(idles, t)
	}
	return idles
}

// Permutation returns the node IDs ordered by (start time, unit). On a
// single-unit machine this is the total order P of Definition 2.1.
func (s *Schedule) Permutation() []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(s.Start))
	for v := range s.Start {
		if s.Start[v] != Unassigned {
			ids = append(ids, graph.NodeID(v))
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if s.Start[ids[i]] != s.Start[ids[j]] {
			return s.Start[ids[i]] < s.Start[ids[j]]
		}
		return s.Unit[ids[i]] < s.Unit[ids[j]]
	})
	return ids
}

// Blocks returns the sorted distinct block indices present in the graph.
func Blocks(g *graph.Graph) []int {
	seen := map[int]bool{}
	for v := 0; v < g.Len(); v++ {
		seen[g.Node(graph.NodeID(v)).Block] = true
	}
	out := make([]int, 0, len(seen))
	for b := range seen {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// ConcatSubpermutations returns L = P_1 ∘ P_2 ∘ ... ∘ P_m: each block's
// subpermutation P_k (the relative order of its nodes in the schedule's
// permutation, Definition 2.1) concatenated in block order (Definition
// 2.3's priority list), as one sort by (block, start, unit). This is the static
// instruction order the compiler would emit.
func (s *Schedule) ConcatSubpermutations() []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(s.Start))
	for v := range s.Start {
		if s.Start[v] != Unassigned {
			ids = append(ids, graph.NodeID(v))
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if ba, bb := s.G.Node(a).Block, s.G.Node(b).Block; ba != bb {
			return ba < bb
		}
		if s.Start[a] != s.Start[b] {
			return s.Start[a] < s.Start[b]
		}
		return s.Unit[a] < s.Unit[b]
	})
	return ids
}

// String renders the schedule as a per-unit timeline, e.g.
// "u0: [a b . c]" where '.' is an idle slot.
func (s *Schedule) String() string {
	T := s.Makespan()
	total := s.M.TotalUnits()
	rows := make([][]string, total)
	for u := range rows {
		rows[u] = make([]string, T)
		for t := range rows[u] {
			rows[u][t] = "."
		}
	}
	for v := 0; v < s.G.Len(); v++ {
		if s.Start[v] == Unassigned {
			continue
		}
		lbl := s.G.Node(graph.NodeID(v)).Label
		for t := s.Start[v]; t < s.Finish(graph.NodeID(v)); t++ {
			rows[s.Unit[v]][t] = lbl
		}
	}
	var b strings.Builder
	for u := range rows {
		fmt.Fprintf(&b, "u%d: [%s]", u, strings.Join(rows[u], " "))
		if u != len(rows)-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
