package sched

import (
	"fmt"

	"aisched/internal/hw"
)

// CheckLegal runs Definition 2.3's legality check for window size w. The
// schedule must be valid, and the window hardware (internal/hw), running the
// static order L = P_1 ∘ P_2 ∘ ... ∘ P_m of the schedule's own per-block
// subpermutations, must issue every instruction at exactly its scheduled
// start. The one replay covers the Window Constraint, the Ordering
// Constraint and Definition 2.1 emittability.
func CheckLegal(s *Schedule, w int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	l := s.ConcatSubpermutations()
	res, err := hw.SimulateTrace(s.G, s.M.WithWindow(w), l)
	if err != nil {
		return err
	}
	for i, v := range l {
		if res.Issued[i] != s.Start[v] {
			return fmt.Errorf("sched: node %d (%s) is scheduled at %d but issues at %d under window %d",
				v, s.G.Node(v).Label, s.Start[v], res.Issued[i], w)
		}
	}
	return nil
}

// PermutationLabels is a debugging helper returning the labels of the
// permutation in schedule order.
func PermutationLabels(s *Schedule) []string {
	p := s.Permutation()
	out := make([]string, len(p))
	for i, id := range p {
		out[i] = s.G.Node(id).Label
	}
	return out
}
