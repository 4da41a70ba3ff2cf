package idle

import (
	"math/rand"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/rank"
	"aisched/internal/sched"
	"aisched/internal/workload"
)

// delayInput is one Delay_Idle_Slots benchmark input: a rank context bound
// to an adjacent-block pair view, the view's makespan schedule, and uniform
// deadlines at that makespan (the deadlines Algorithm Lookahead's merge
// hands the pass when every old node is already confined).
type delayInput struct {
	c *rank.Ctx
	s *sched.Schedule
	d []int
}

// delayInputs builds the pair views of four trace-cold-shaped traces:
// latency-bound blocks, dense restricted-model blocks, 16-block traces and
// three-class RS/6000 blocks with two-cycle instructions.
func delayInputs(b *testing.B) []delayInput {
	b.Helper()
	var out []delayInput
	for i := 0; i < 4; i++ {
		cfg, m := workload.DefaultTrace(), machine.SingleUnit(4)
		switch i {
		case 1:
			cfg = workload.DenseTrace()
		case 2:
			cfg.Blocks = 16
		case 3:
			cfg.Classes, cfg.MaxExec, m = 3, 2, machine.RS6000(4)
		}
		g, err := workload.Trace(rand.New(rand.NewSource(int64(i))), cfg)
		if err != nil {
			b.Fatal(err)
		}
		csr := graph.NewCSR(g)
		for blk := 1; blk < cfg.Blocks; blk++ {
			var ids []graph.NodeID
			for v := 0; v < g.Len(); v++ {
				if bb := g.Node(graph.NodeID(v)).Block; bb == blk-1 || bb == blk {
					ids = append(ids, graph.NodeID(v))
				}
			}
			sub := &graph.Sub{}
			sub.Init(csr.View(), ids)
			c := rank.NewReusable()
			if err := c.Reset(sub.View(), m, nil); err != nil {
				b.Fatal(err)
			}
			res, err := c.Run(rank.UniformDeadlines(len(ids), rank.Big), nil)
			if err != nil {
				b.Fatal(err)
			}
			out = append(out, delayInput{c, res.S, rank.UniformDeadlines(len(ids), res.S.Makespan())})
		}
	}
	return out
}

// BenchmarkDelayIdleSlotsCtx measures the whole Delay_Idle_Slots pass on a
// bound context: every op delays the idle slots of each pair view's
// makespan schedule once.
func BenchmarkDelayIdleSlotsCtx(b *testing.B) {
	ins := delayInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			if _, _, err := DelayIdleSlotsCtx(in.c, in.s, in.d, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}
