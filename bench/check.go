package main

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"aisched"
	"aisched/internal/baseline"
	"aisched/internal/core"
	"aisched/internal/graph"
	"aisched/internal/hw"
	"aisched/internal/interp"
	"aisched/internal/isa"
	"aisched/internal/loops"
	"aisched/internal/machine"
	"aisched/internal/sched"
)

// Output checks. Every request's result is validated and hashed into the
// repetition's digest; a fixed one-in-four sample is also simulated, compared
// with the local baseline, recomputed by the uncached sequential walk, and
// (for programs) executed on the ISA interpreter. All of it runs outside the
// timed calls.

// digest is an allocation-free FNV-1a hash over ints: the output digest of
// one repetition (static orders and loop initiation intervals, in request
// order).
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) add(v int) {
	x := uint64(v)
	for i := 0; i < 8; i++ {
		*d ^= digest(x & 0xff)
		*d *= 1099511628211
		x >>= 8
	}
}

// sampled reports whether request i is in the verified sample: one in four,
// with the phase rotating every four requests so that a workload cycling
// through four shapes has each shape sampled.
func sampled(i int) bool { return (i+i/4)%4 == 0 }

// quality accumulates the sampled schedule-quality measurements: simulated
// completion of the emitted code against the rank-local baseline, and the
// Definition 2.3 legality findings, which are recorded, not failed.
type quality struct {
	simCycles, baseCycles, insts int
	def23                        int
}

// checkTrace validates one trace result and adds its static order to d: the
// predicted schedule is valid and the block orders partition the trace's
// nodes by block.
func checkTrace(g *graph.Graph, res *core.Result, d *digest, t *tracer) error {
	s := t.begin(spValidate)
	err := res.S.Validate()
	t.end(s)
	if err != nil {
		return err
	}
	seen := make([]bool, g.Len())
	count := 0
	for b, order := range res.BlockOrders {
		for _, id := range order {
			if id < 0 || int(id) >= g.Len() || seen[id] || g.Node(id).Block != b {
				return fmt.Errorf("block %d order lists node %d out of place", b, id)
			}
			seen[id] = true
			count++
		}
	}
	if count != g.Len() {
		return fmt.Errorf("block orders cover %d of %d nodes", count, g.Len())
	}
	for _, id := range res.StaticOrder() {
		d.add(int(id))
	}
	d.add(-1)
	return nil
}

// sampleTrace runs the sampled checks on one trace result. With ref set it
// also recomputes the trace with both caches off and the sequential walk,
// which must give the same result bit for bit.
func (q *quality) sampleTrace(g *graph.Graph, m *machine.Machine, res *core.Result, ref bool, t *tracer) error {
	if ref {
		want, err := core.LookaheadOpts(g, m, core.Options{Parallel: -1})
		if err != nil {
			return fmt.Errorf("reference walk: %w", err)
		}
		if !sameTrace(want, res) {
			return errors.New("result differs from the uncached sequential walk")
		}
	}
	s := t.begin(spSimulate)
	sim, err := hw.SimulateTrace(g, m, res.StaticOrder())
	t.end(s)
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	if restricted(g, m) && sim.Completion != res.Makespan() {
		return fmt.Errorf("restricted model: predicted %d cycles, simulated %d", res.Makespan(), sim.Completion)
	}
	base, err := baselineCycles(g, m, t)
	if err != nil {
		return err
	}
	q.simCycles += sim.Completion
	q.baseCycles += base
	q.insts += g.Len()
	if sched.CheckLegal(res.S, m.Window) != nil {
		q.def23++
	}
	return nil
}

// baselineCycles simulates the code the rank-local baseline emits for g: each
// block scheduled alone by the Rank Algorithm, without anticipation.
func baselineCycles(g *graph.Graph, m *machine.Machine, t *tracer) (int, error) {
	order, err := baseline.ScheduleTrace(baseline.RankLocal{}, g, m)
	if err != nil {
		return 0, fmt.Errorf("rank-local baseline: %w", err)
	}
	s := t.begin(spSimulate)
	sim, err := hw.SimulateTrace(g, m, order)
	t.end(s)
	if err != nil {
		return 0, fmt.Errorf("simulate baseline: %w", err)
	}
	return sim.Completion, nil
}

func sameTrace(a, b *core.Result) bool {
	return slices.Equal(a.Order, b.Order) &&
		maps.EqualFunc(a.BlockOrders, b.BlockOrders, slices.Equal[[]graph.NodeID]) &&
		slices.Equal(a.S.Start, b.S.Start) && slices.Equal(a.S.Unit, b.S.Unit)
}

// restricted reports whether (g, m) is an instance of the paper's restricted
// model — one functional unit, unit execution times, 0/1 latencies — where
// the predicted makespan must equal the simulated completion.
func restricted(g *graph.Graph, m *machine.Machine) bool {
	if m.TotalUnits() != 1 {
		return false
	}
	for v := 0; v < g.Len(); v++ {
		if g.Node(graph.NodeID(v)).Exec != 1 {
			return false
		}
		for _, e := range g.Out(graph.NodeID(v)) {
			if e.Latency > 1 {
				return false
			}
		}
	}
	return true
}

// program is one compiled and scheduled program: its trace schedules and the
// steady states of its single-block loops.
type program struct {
	c     *aisched.CompiledC
	ps    *aisched.ProgramSchedule
	loops []loopOut
}

type loopOut struct {
	body int // index of the loop body in c.Blocks
	g    *graph.Graph
	st   *loops.Steady
}

// checkProgram validates every trace and loop schedule of p and adds them
// to d.
func checkProgram(p *program, d *digest, t *tracer) error {
	for i, tr := range p.ps.Traces {
		if err := checkTrace(tr.G, tr.Res, d, t); err != nil {
			return fmt.Errorf("trace %d: %w", i, err)
		}
	}
	for _, l := range p.loops {
		s := t.begin(spValidate)
		err := l.st.S.Validate()
		t.end(s)
		if err != nil {
			return fmt.Errorf("loop %d: %w", l.body, err)
		}
		if !isPermutation(l.st.Order, l.g.Len()) {
			return fmt.Errorf("loop %d: order is not a permutation of its body", l.body)
		}
		for _, id := range l.st.Order {
			d.add(int(id))
		}
		d.add(-2)
		d.add(l.st.II)
	}
	return nil
}

func isPermutation(order []graph.NodeID, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, id := range order {
		if id < 0 || int(id) >= n || seen[id] {
			return false
		}
		seen[id] = true
	}
	return true
}

// sampleProgram runs the sampled checks on every trace of p. With ref set it
// also recomputes each loop without the cache and runs the original program
// and its rescheduled forms on the ISA interpreter: reordering instructions
// inside blocks must not change the final machine state.
func (q *quality) sampleProgram(p *program, m *machine.Machine, ref bool, t *tracer) error {
	for i, tr := range p.ps.Traces {
		if err := q.sampleTrace(tr.G, m, tr.Res, ref, t); err != nil {
			return fmt.Errorf("trace %d: %w", i, err)
		}
	}
	if !ref {
		return nil
	}
	for _, l := range p.loops {
		want, err := loops.ScheduleLoopOpts(l.g, m, loops.Opts{})
		if err != nil {
			return fmt.Errorf("loop %d reference: %w", l.body, err)
		}
		if !slices.Equal(want.Order, l.st.Order) || want.II != l.st.II || want.Makespan != l.st.Makespan {
			return fmt.Errorf("loop %d differs from the uncached loop scheduler", l.body)
		}
	}
	orig, err := interp.Run(p.c.Blocks, nil, 0)
	if err != nil {
		return fmt.Errorf("interpret original: %w", err)
	}
	traced, looped := slices.Clone(p.c.Blocks), slices.Clone(p.c.Blocks)
	for _, tr := range p.ps.Traces {
		off := 0
		for gb, bi := range tr.Blocks {
			traced[bi].Instrs = reorder(p.c.Blocks[bi].Instrs, tr.Res.BlockOrders[gb], off)
			off += len(p.c.Blocks[bi].Instrs)
		}
	}
	for _, l := range p.loops {
		looped[l.body].Instrs = reorder(p.c.Blocks[l.body].Instrs, l.st.Order, 0)
	}
	for name, blocks := range map[string][]isa.Block{"trace": traced, "loop": looped} {
		got, err := interp.Run(blocks, nil, 0)
		if err != nil {
			return fmt.Errorf("interpret %s-scheduled program: %w", name, err)
		}
		if got.Regs != orig.Regs || !maps.Equal(got.Mem, orig.Mem) {
			return fmt.Errorf("%s-scheduled program computes a different machine state", name)
		}
	}
	return nil
}

// reorder returns instrs permuted by order, whose node IDs start at off.
func reorder(instrs []isa.Instr, order []graph.NodeID, off int) []isa.Instr {
	out := make([]isa.Instr, 0, len(instrs))
	for _, id := range order {
		out = append(out, instrs[int(id)-off])
	}
	return out
}
