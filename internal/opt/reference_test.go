package opt

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/hw"
	"aisched/internal/machine"
)

// referenceOptimalTrace is the exhaustive oracle the search is checked
// against: every emittable order (each block's segment a topological order
// of that block, blocks ascending) replayed by hw.SimulateTrace, keeping the
// first order of minimum completion.
func referenceOptimalTrace(g *graph.Graph, m *machine.Machine) (int, []graph.NodeID, error) {
	if g.Len() > DefaultMaxNodes {
		return 0, nil, fmt.Errorf("reference: %d nodes exceeds %d", g.Len(), DefaultMaxNodes)
	}
	blockPerms, err := perBlockTopoOrders(g)
	if err != nil {
		return 0, nil, err
	}
	best := never
	var bestOrder []graph.NodeID
	var walk func(i int, acc []graph.NodeID)
	walk = func(i int, acc []graph.NodeID) {
		if i == len(blockPerms) {
			res, err := hw.SimulateTrace(g, m, acc)
			if err != nil {
				return // deadlocking order: not achievable, skip
			}
			if res.Completion < best {
				best = res.Completion
				bestOrder = slices.Clone(acc)
			}
			return
		}
		for _, p := range blockPerms[i] {
			walk(i+1, append(acc, p...))
		}
	}
	walk(0, nil)
	if bestOrder == nil {
		return 0, nil, fmt.Errorf("reference: no executable order")
	}
	return best, bestOrder, nil
}

// referenceSimulate is the solver's original window machine, kept as an
// independent reference for internal/hw's kernel (the way internal/rank
// keeps ReferenceCompute): it executes order as a complete stream — in-order
// fetch, out-of-order issue within the W-window, position priority, first
// free unit, head advance — and returns each position's issue cycle and the
// completion.
func referenceSimulate(s *solver, order []graph.NodeID) ([]int, int, error) {
	p := len(order)
	issued := make([]int, p)
	finishN := make([]int, s.n)
	for i := range finishN {
		finishN[i] = -1
	}
	for i := range issued {
		issued[i] = -1
	}
	readyAt := func(v graph.NodeID) int {
		at := 0
		for _, e := range s.preds[v] {
			f := finishN[e.node]
			if f < 0 {
				return never
			}
			at = max(at, f+e.lat)
		}
		return at
	}
	unitFree := make([]int, s.m.TotalUnits())
	head, done := 0, 0
	for t := 0; done < p; t++ {
		progress := false
		inWindow := min(head+s.w, p)
		for i := head; i < inWindow; i++ {
			v := order[i]
			if issued[i] >= 0 || readyAt(v) > t {
				continue
			}
			base, cnt := s.m.UnitRange(machine.UnitClass(s.class[v]))
			for u := base; u < base+cnt; u++ {
				if unitFree[u] <= t {
					issued[i] = t
					finishN[v] = t + s.exec[v]
					unitFree[u] = finishN[v]
					done++
					progress = true
					break
				}
			}
		}
		for head < p && issued[head] >= 0 {
			head++
		}
		if progress {
			continue
		}
		// Jump to the next cycle anything can change.
		next := -1
		for i := head; i < min(head+s.w, p); i++ {
			if issued[i] >= 0 {
				continue
			}
			v := order[i]
			cand := readyAt(v)
			base, cnt := s.m.UnitRange(machine.UnitClass(s.class[v]))
			cand = max(cand, slices.Min(unitFree[base:base+cnt]))
			if next == -1 || cand < next {
				next = cand
			}
		}
		if next >= never/2 || next < 0 {
			return nil, 0, fmt.Errorf("reference: stream deadlock at cycle %d (prefix %d)", t, p)
		}
		t = max(next, t+1) - 1
	}
	comp := 0
	for i, v := range order {
		comp = max(comp, issued[i]+s.exec[v])
	}
	return issued, comp, nil
}

// TestExactKernelMatchesReference replays every prefix of the natural order
// and of random block-contiguous topological orders of
// TestExactSimulatorAgreesWithHW's instances through the solver's kernel
// stream and through referenceSimulate: issue cycles and completions must
// agree position for position.
func TestExactKernelMatchesReference(t *testing.T) {
	gs, ms := agreeInstances(t)
	r := rand.New(rand.NewSource(29))
	for i, g := range gs {
		s, err := newSolver(context.Background(), g, ms[i], Limits{})
		if err != nil {
			t.Fatal(err)
		}
		orders := [][]graph.NodeID{slices.Clone(s.bestOrder)}
		for j := 0; j < 4; j++ {
			orders = append(orders, randomEmittable(s, r))
		}
		for _, order := range orders {
			for p := 0; p <= len(order); p++ {
				for q, v := range order[:p] {
					s.place(q, v)
				}
				s.k.Truncate(p)
				comp, err := s.replay(p)
				if err != nil {
					t.Fatal(err)
				}
				want, wantComp, err := referenceSimulate(s, order[:p])
				if err != nil {
					t.Fatal(err)
				}
				got := make([]int, p)
				for q := range got {
					got[q] = s.k.Issued(q)
				}
				if comp != wantComp || !slices.Equal(got, want) {
					t.Fatalf("instance %d, prefix %d of %v: kernel %v (completion %d), reference %v (completion %d)",
						i, p, order, got, comp, want, wantComp)
				}
			}
		}
	}
}

// randomEmittable draws a block-contiguous order whose per-block segments
// are random topological orders — a stream the search could emit.
func randomEmittable(s *solver, r *rand.Rand) []graph.NodeID {
	var order []graph.NodeID
	var placed uint32
	for _, blk := range s.blockSeq {
		for range blk {
			var ready []graph.NodeID
			for _, v := range blk {
				if placed&(1<<uint(v)) == 0 && s.predBit[v]&^placed == 0 {
					ready = append(ready, v)
				}
			}
			v := ready[r.Intn(len(ready))]
			placed |= 1 << uint(v)
			order = append(order, v)
		}
	}
	return order
}
