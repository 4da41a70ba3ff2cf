package rank

import (
	"math/rand"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/workload"
)

// Layer benchmarks for the rank kernel on the views Algorithm Lookahead
// actually ranks: every merge re-ranks the induced subgraph of the carried
// suffix (old) plus the incoming block (new). Each op ranks or reschedules
// every adjacent-block pair view of a 16-block trace, so ns/op divided by
// the view count is the per-merge-pass cost.

// mergeViews is one benchmark family: a trace's adjacent-block pair views,
// each bound to its own Ctx, with Big deadlines and precomputed ranks.
type mergeViews struct {
	name  string
	ctxs  []*Ctx
	d     [][]int
	ranks [][]int
}

func benchMergeViews(b *testing.B) []mergeViews {
	b.Helper()
	rs := workload.DefaultTrace()
	rs.Classes = 3
	families := []struct {
		name string
		cfg  workload.TraceConfig
		m    *machine.Machine
	}{
		{"default", workload.DefaultTrace(), machine.SingleUnit(4)},
		{"dense", workload.DenseTrace(), machine.SingleUnit(4)},
		{"rs6000", rs, machine.RS6000(4)},
	}
	var out []mergeViews
	for _, f := range families {
		f.cfg.Blocks = 16
		g, err := workload.Trace(rand.New(rand.NewSource(12)), f.cfg)
		if err != nil {
			b.Fatal(err)
		}
		csr := graph.NewCSR(g)
		mv := mergeViews{name: f.name}
		for blk := 1; blk < f.cfg.Blocks; blk++ {
			var ids []graph.NodeID
			for v := 0; v < g.Len(); v++ {
				if bb := g.Node(graph.NodeID(v)).Block; bb == blk-1 || bb == blk {
					ids = append(ids, graph.NodeID(v))
				}
			}
			sub := &graph.Sub{}
			sub.Init(csr, ids)
			c := NewReusable()
			if err := c.Reset(sub.View(), f.m, nil); err != nil {
				b.Fatal(err)
			}
			d := UniformDeadlines(len(ids), Big)
			ranks, err := c.Compute(d)
			if err != nil {
				b.Fatal(err)
			}
			mv.ctxs = append(mv.ctxs, c)
			mv.d = append(mv.d, d)
			mv.ranks = append(mv.ranks, ranks)
		}
		out = append(out, mv)
	}
	return out
}

// BenchmarkCtxCompute measures the rank pass alone (Ctx.ComputeInto).
func BenchmarkCtxCompute(b *testing.B) {
	for _, mv := range benchMergeViews(b) {
		b.Run(mv.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k, c := range mv.ctxs {
					if err := c.ComputeInto(mv.ranks[k], mv.d[k]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCtxRunRanks measures the greedy list-scheduling half of rank_alg
// (Ctx.RunRanks on precomputed ranks): list build, list scheduler and the
// deadline check.
func BenchmarkCtxRunRanks(b *testing.B) {
	for _, mv := range benchMergeViews(b) {
		b.Run(mv.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k, c := range mv.ctxs {
					if _, err := c.RunRanks(mv.ranks[k], mv.d[k], nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
