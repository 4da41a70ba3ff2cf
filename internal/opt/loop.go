package opt

import (
	"fmt"
	"sort"

	"aisched/internal/graph"
	"aisched/internal/loops"
	"aisched/internal/machine"
)

// maxLoopNodes guards OptimalLoopII's brute force: a 10-node body has at
// most 10! orders.
const maxLoopNodes = 10

// OptimalLoopII finds the minimum periodic initiation interval over all
// topologically valid single-block loop body orders, each evaluated by
// loops.Evaluate (brute force; ties on II go to the smaller makespan, then
// to the first order enumerated).
func OptimalLoopII(g *graph.Graph, m *machine.Machine) (*loops.Steady, error) {
	if g.Len() > maxLoopNodes {
		return nil, fmt.Errorf("%w: %d loop nodes > %d", ErrTooLarge, g.Len(), maxLoopNodes)
	}
	perms, err := perBlockTopoOrders(g)
	if err != nil {
		return nil, err
	}
	if len(perms) != 1 {
		return nil, fmt.Errorf("opt: OptimalLoopII expects a single-block loop")
	}
	var best *loops.Steady
	for _, order := range perms[0] {
		st, err := loops.Evaluate(g, m, order)
		if err != nil {
			return nil, err
		}
		if best == nil || st.II < best.II || (st.II == best.II && st.Makespan < best.Makespan) {
			best = st
		}
	}
	return best, nil
}

// perBlockTopoOrders enumerates, for each block in ascending block number,
// every order of its nodes that respects the block's distance-0 edges.
func perBlockTopoOrders(g *graph.Graph) ([][][]graph.NodeID, error) {
	blockIDs := map[int][]graph.NodeID{}
	var blocks []int
	for v := 0; v < g.Len(); v++ {
		b := g.Node(graph.NodeID(v)).Block
		if _, ok := blockIDs[b]; !ok {
			blocks = append(blocks, b)
		}
		blockIDs[b] = append(blockIDs[b], graph.NodeID(v))
	}
	sort.Ints(blocks)
	var out [][][]graph.NodeID
	for _, b := range blocks {
		ids := blockIDs[b]
		inBlock := map[graph.NodeID]bool{}
		for _, id := range ids {
			inBlock[id] = true
		}
		var perms [][]graph.NodeID
		used := map[graph.NodeID]bool{}
		var cur []graph.NodeID
		var gen func()
		gen = func() {
			if len(cur) == len(ids) {
				perms = append(perms, append([]graph.NodeID(nil), cur...))
				return
			}
			for _, id := range ids {
				if used[id] {
					continue
				}
				ok := true
				for _, e := range g.In(id) {
					if e.Distance == 0 && inBlock[e.Src] && !used[e.Src] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				used[id] = true
				cur = append(cur, id)
				gen()
				cur = cur[:len(cur)-1]
				used[id] = false
			}
		}
		gen()
		if len(perms) == 0 {
			return nil, fmt.Errorf("opt: block %d has no topological order", b)
		}
		out = append(out, perms)
	}
	return out, nil
}
