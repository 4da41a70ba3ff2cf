package rank_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/opt"
	"aisched/internal/rank"
)

// randomUETDAG draws a single-block restricted-model graph: unit execution
// times and 0/1 latencies, each forward pair joined with probability p.
func randomUETDAG(r *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddUnit("n")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(2), 0)
			}
		}
	}
	return g
}

// T4 headline property: the Rank Algorithm is optimal in the restricted
// case (UET, 0/1 latencies, single functional unit). The block optimum is
// the exact oracle's trace optimum with every instruction in the window.
func TestPropertyRankAlgorithmMatchesExactOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomUETDAG(r, 2+r.Intn(9), 0.15+r.Float64()*0.4)
		m := machine.SingleUnit(1)
		s, err := rank.Makespan(g, m)
		if err != nil {
			return false
		}
		best, _, _, err := opt.OptimalTrace(context.Background(), g, m.WithWindow(g.Len()), opt.Limits{})
		if err != nil {
			return false
		}
		return s.Makespan() == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
