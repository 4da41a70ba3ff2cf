package core

import (
	"math/rand"
	"slices"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
	"aisched/internal/workload"
)

// Layer benchmark for one Algorithm Lookahead step: merge with its
// loosening rounds, Delay_Idle_Slots and chop. The inputs are the StepIn
// values a sequential walk hands to Step over trace-cold-shaped traces, so
// ns/op divided by the step count is the per-block step cost.

// stepCapture is a Tracer that snapshots the walk's step input at the merge
// event of every block. Step never writes to its input, so at that point
// w.stepIn still holds exactly what Run was given.
type stepCapture struct {
	w   *traceWalk
	ins []StepIn
}

func (c *stepCapture) Emit(e obs.Event) {
	if e.Kind == obs.KindMerge {
		c.ins = append(c.ins, cloneStepIn(c.w.stepIn))
	}
}

// cloneStepIn deep-copies in, dropping its tracer and budget.
func cloneStepIn(in StepIn) StepIn {
	v := in.View
	v.Off, v.Dst, v.Lat = slices.Clone(v.Off), slices.Clone(v.Dst), slices.Clone(v.Lat)
	v.Exec, v.Class = slices.Clone(v.Exec), slices.Clone(v.Class)
	v.Block, v.Labels = slices.Clone(v.Block), slices.Clone(v.Labels)
	in.View = v
	in.IsOld = slices.Clone(in.IsOld)
	in.DOld, in.FOld, in.ROld = slices.Clone(in.DOld), slices.Clone(in.FOld), slices.Clone(in.ROld)
	in.Tracer, in.Budget = nil, nil
	return in
}

// captureSteps walks g block by block and returns every step input.
func captureSteps(tb testing.TB, g *graph.Graph, m *machine.Machine) []StepIn {
	tb.Helper()
	var w traceWalk
	capt := &stepCapture{w: &w}
	csr := graph.NewCSR(g)
	w.init(csr.View(), m, &Options{Tracer: capt}, nil)
	n := g.Len()
	slices.SortStableFunc(w.byBlock, func(a, b graph.NodeID) int { return csr.Block(a) - csr.Block(b) })
	for lo := 0; lo < n; {
		hi, b := lo, csr.Block(w.byBlock[lo])
		for hi < n && csr.Block(w.byBlock[hi]) == b {
			hi++
		}
		if err := w.block(w.byBlock[lo:hi], b); err != nil {
			tb.Fatal(err)
		}
		lo = hi
	}
	return capt.ins
}

// traceColdShapes names the benchmark workload's four rotating trace
// shapes: latency-bound blocks, dense restricted-model blocks, 16-block
// traces, and three-class RS/6000 blocks with two-cycle instructions.
var traceColdShapes = [4]string{"latency", "dense", "blocks16", "rs6000"}

// traceColdSteps is a fixed trace-cold-shaped step sequence: eight traces,
// trace i in shape traceColdShapes[i%4]. shape[k] is step k's shape index.
func traceColdSteps(tb testing.TB) (ins []StepIn, shape []int) {
	tb.Helper()
	for i := 0; i < 8; i++ {
		cfg, m := workload.DefaultTrace(), machine.SingleUnit(4)
		switch i % 4 {
		case 1:
			cfg = workload.DenseTrace()
		case 2:
			cfg.Blocks = 16
		case 3:
			cfg, m = rs6000TraceShape()
		}
		g, err := workload.Trace(rand.New(rand.NewSource(int64(1<<24+i))), cfg)
		if err != nil {
			tb.Fatal(err)
		}
		steps := captureSteps(tb, g, m)
		ins = append(ins, steps...)
		for range steps {
			shape = append(shape, i%4)
		}
	}
	return ins, shape
}

// BenchmarkStepRun measures Step.Run over the fixed trace-cold-shaped step
// sequence: every op runs each captured step once on one reused Step. The
// all sub-benchmark runs the whole sequence; the others run one shape's
// steps, so the RS/6000 shape, where the merge's loosening rounds are
// spent, has its own number.
func BenchmarkStepRun(b *testing.B) {
	ins, shape := traceColdSteps(b)
	run := func(b *testing.B, ins []StepIn) {
		var st Step
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := range ins {
				if _, err := st.Run(&ins[k]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(ins)), "steps/op")
	}
	b.Run("all", func(b *testing.B) { run(b, ins) })
	for sh, name := range traceColdShapes {
		var sub []StepIn
		for k := range ins {
			if shape[k] == sh {
				sub = append(sub, ins[k])
			}
		}
		b.Run(name, func(b *testing.B) { run(b, sub) })
	}
}

// BenchmarkStepRunMemoHit measures the step cache's hit path, key plus
// replay, over the same step sequence: a warm-up pass stores every step's
// fragment, so every timed RunMemo is a hit.
func BenchmarkStepRunMemoHit(b *testing.B) {
	ins, _ := traceColdSteps(b)
	var st Step
	sc := NewStepCache(StepCacheConfig{Capacity: 2 * len(ins)})
	for k := range ins {
		if _, err := st.RunMemo(&ins[k], sc); err != nil {
			b.Fatal(err)
		}
	}
	warm := sc.Counters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range ins {
			if _, err := st.RunMemo(&ins[k], sc); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if c := sc.Counters(); c.Misses != warm.Misses {
		b.Fatalf("%d timed lookups missed", c.Misses-warm.Misses)
	}
	b.ReportMetric(float64(len(ins)), "steps/op")
}
