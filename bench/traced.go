package main

import (
	"context"
	"fmt"

	"aisched"
	"aisched/internal/cfg"
	"aisched/internal/core"
	"aisched/internal/deps"
	"aisched/internal/graph"
	"aisched/internal/idle"
	"aisched/internal/isa"
	"aisched/internal/loops"
	"aisched/internal/machine"
	"aisched/internal/memo"
	"aisched/internal/minic"
	"aisched/internal/rank"
	"aisched/internal/stream"
)

// The traced run sends the same requests as the facade, but decomposed into
// the calls the facade makes on the internal modules, each timed from
// outside as a span. It builds its caches with the facade's defaults, so its
// cache counters must match the facade's.

// tracedRep is one traced repetition's spans and counters.
type tracedRep struct {
	t         *tracer
	digest    digest
	memo      memo.Counters
	step      memo.Counters
	suffixSum int // carried stream suffix summed over pushes
	pushes    int
	def23     int
}

// decomposer holds one traced repetition's caches, mirroring the facade
// Scheduler's.
type decomposer struct {
	t        *tracer
	cache    *memo.Cache
	step     *core.StepCache
	computed []traceReq // graphs core.lookahead ran on, awaiting the layer probes
}

func newDecomposer(t *tracer) *decomposer {
	return &decomposer{t: t, cache: memo.New(memo.Config{}), step: core.NewStepCache(core.StepCacheConfig{})}
}

// trace is Scheduler.ScheduleTrace: fingerprint, memo lookup around
// Algorithm Lookahead, clone of the cached result.
func (x *decomposer) trace(g *graph.Graph, m *machine.Machine) (*core.Result, error) {
	t := x.t
	s := t.begin(spFingerprint)
	key := memo.KeyFor(g, m, memo.KindTrace)
	t.end(s)
	s = t.begin(spMemoLookup)
	v, _, err := x.cache.DoCtx(context.Background(), key, func() (any, error) {
		c := t.begin(spLookahead)
		r, err := core.LookaheadOpts(g, m, core.Options{StepCache: x.step})
		t.end(c)
		if err != nil {
			return nil, err
		}
		x.computed = append(x.computed, traceReq{g, m})
		r.S.G, r.S.M = nil, nil
		return r, nil
	})
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin(spClone)
	out := v.(*core.Result).Clone()
	out.S.G, out.S.M = g, m
	t.end(s)
	return out, nil
}

// loop is Scheduler.ScheduleLoop: fingerprint, memo lookup around the loop
// scheduler, clone of the cached steady state.
func (x *decomposer) loop(g *graph.Graph, m *machine.Machine) (*loops.Steady, error) {
	t := x.t
	s := t.begin(spFingerprint)
	key := memo.KeyFor(g, m, memo.KindLoop)
	t.end(s)
	s = t.begin(spMemoLookup)
	v, _, err := x.cache.DoCtx(context.Background(), key, func() (any, error) {
		c := t.begin(spLoops)
		st, err := loops.ScheduleLoopOpts(g, m, loops.Opts{})
		t.end(c)
		if err != nil {
			return nil, err
		}
		st.S.G, st.S.M = nil, nil
		return st, nil
	})
	t.end(s)
	if err != nil {
		return nil, err
	}
	out := v.(*loops.Steady).Clone()
	out.S.G, out.S.M = g, m
	return out, nil
}

// program is one compile-c request: minic.Compile, the CFG and trace
// selection, the dependence graphs, the batch of trace requests (run in
// order, so spans never overlap), and the single-block loops.
func (x *decomposer) program(src string, m *machine.Machine) (*program, error) {
	t := x.t
	s := t.begin(spMinic)
	c, err := minic.Compile(src)
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin(spCfg)
	cg, err := cfg.FromCompiled(c)
	var traces [][]int
	if err == nil {
		traces = cg.SelectTraces()
	}
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin(spDeps)
	ps := &aisched.ProgramSchedule{Traces: make([]aisched.ProgramTrace, 0, len(traces))}
	for _, tr := range traces {
		var kept []int
		var instrs [][]isa.Instr
		for _, bi := range tr {
			if bs := cg.Blocks[bi].Instrs; len(bs) > 0 {
				kept = append(kept, bi)
				instrs = append(instrs, bs)
			}
		}
		ps.Traces = append(ps.Traces, aisched.ProgramTrace{Blocks: kept, G: deps.BuildTrace(instrs)})
	}
	t.end(s)
	s = t.begin(spBatch)
	for i := range ps.Traces {
		if ps.Traces[i].Res, err = x.trace(ps.Traces[i].G, m); err != nil {
			break
		}
	}
	t.end(s)
	if err != nil {
		return nil, err
	}
	p := &program{c: c, ps: ps}
	for _, l := range c.Loops {
		body := c.Body(l)
		if body == nil {
			continue
		}
		s = t.begin(spDeps)
		g := deps.BuildLoop(body)
		t.end(s)
		st, err := x.loop(g, m)
		if err != nil {
			return nil, err
		}
		p.loops = append(p.loops, loopOut{body: l.BodyBlocks[0], g: g, st: st})
	}
	return p, nil
}

// tracedRep runs one traced repetition. Chunk by chunk, like the facade
// run, it sends the decomposed requests, then runs the verification spans,
// then the per-block layer probes.
func (s *session) tracedRep() tracedRep {
	t := newTracer()
	x := newDecomposer(t)
	tr := tracedRep{t: t, digest: newDigest()}
	q := &quality{}
	switch s.in.kind {
	case kindTrace:
		reqs := make([]traceReq, chunk)
		results := make([]*core.Result, chunk)
		errs := make([]error, chunk)
		for lo := 0; lo < s.in.requests; lo += chunk {
			hi := min(lo+chunk, s.in.requests)
			for i := lo; i < hi; i++ {
				reqs[i-lo] = s.in.trace(i)
			}
			for i := lo; i < hi; i++ {
				root := t.beginRequest(i)
				results[i-lo], errs[i-lo] = x.trace(reqs[i-lo].g, reqs[i-lo].m)
				t.endRequest(root)
			}
			for i := lo; i < hi; i++ {
				r, err := reqs[i-lo], errs[i-lo]
				if err == nil {
					err = checkTrace(r.g, results[i-lo], &tr.digest, t)
				}
				if err == nil && sampled(i) {
					err = q.sampleTrace(r.g, r.m, results[i-lo], false, t)
				}
				if err != nil {
					s.fail(fmt.Errorf("traced request %d: %w", i, err))
				}
			}
			if err := x.probe(); err != nil {
				s.fail(err)
			}
		}
	case kindProgram:
		progs := make([]*program, chunk)
		errs := make([]error, chunk)
		for lo := 0; lo < s.in.requests; lo += chunk {
			hi := min(lo+chunk, s.in.requests)
			for i := lo; i < hi; i++ {
				root := t.beginRequest(i)
				progs[i-lo], errs[i-lo] = x.program(s.in.sources[i], s.in.m)
				t.endRequest(root)
			}
			for i := lo; i < hi; i++ {
				p, err := progs[i-lo], errs[i-lo]
				if err == nil {
					err = checkProgram(p, &tr.digest, t)
				}
				if err == nil && sampled(i) {
					err = q.sampleProgram(p, s.in.m, false, t)
				}
				if err != nil {
					s.fail(fmt.Errorf("traced program %d: %w", i, err))
				}
			}
			if err := x.probe(); err != nil {
				s.fail(err)
			}
		}
	case kindStream:
		s.tracedStream(&tr, x, q)
		if err := x.probe(); err != nil {
			s.fail(err)
		}
	}
	tr.memo, tr.step = x.cache.Counters(), x.step.Counters()
	tr.def23 = q.def23
	return tr
}

// tracedStream pushes the workload's blocks straight into the stream engine
// the facade wraps. The layer probes then run the batch walk over the sampled
// source traces, the same blocks the stream scheduled.
func (s *session) tracedStream(tr *tracedRep, x *decomposer, q *quality) {
	c, t := s.stream, x.t
	c.reset()
	eng := stream.New(s.in.m, stream.Options{Lookahead: 1, StepCache: x.step})
	var deps []aisched.StreamDep
	for bi := 0; bi < c.pushes(); bi++ {
		b := c.block(bi, deps)
		deps = b.Deps
		root := t.beginRequest(bi)
		sp := t.begin(spPush)
		res, err := eng.Push(b, nil)
		t.end(sp)
		t.endRequest(root)
		tr.suffixSum += eng.SuffixLen()
		tr.pushes++
		if err == nil {
			err = c.accept(res)
		}
		if err != nil {
			s.fail(fmt.Errorf("traced push %d: %w", bi, err))
		}
	}
	res, err := eng.Flush()
	if err == nil {
		err = c.accept(res)
	}
	if err == nil {
		err = c.done()
	}
	if err != nil {
		s.fail(fmt.Errorf("traced flush: %w", err))
	}
	tr.digest = c.d
	for slot, pi := range s.in.slots {
		if !sampled(slot) {
			continue
		}
		g := traceGraph(s.in.pool[pi])
		if err := q.sampleSlot(c, slot, g, t); err != nil {
			s.fail(err)
			continue
		}
		sp := t.begin(spLookahead)
		_, err := core.LookaheadOpts(g, s.in.m, core.Options{})
		t.end(sp)
		if err != nil {
			s.fail(fmt.Errorf("batch walk of slot %d: %w", slot, err))
		}
		x.computed = append(x.computed, traceReq{g, s.in.m})
	}
}

// probe times the per-block layers standalone on the graphs core.lookahead
// ran on since the last probe: the CSR build of each trace, then the Rank
// Algorithm and Delay_Idle_Slots on each of its blocks alone. It returns the
// first error a layer reported.
func (x *decomposer) probe() error {
	t := x.t
	defer func() { x.computed = x.computed[:0] }()
	for _, r := range x.computed {
		s := t.begin(spCSR)
		graph.NewCSR(r.g)
		t.end(s)
		for _, b := range blockGraphs(r.g) {
			s = t.begin(spRank)
			sc, err := rank.Makespan(b, r.m)
			t.end(s)
			if err != nil {
				return fmt.Errorf("rank probe: %w", err)
			}
			s = t.begin(spIdle)
			_, _, err = idle.DelayIdleSlots(sc, r.m, rank.UniformDeadlines(b.Len(), sc.Makespan()), nil)
			t.end(s)
			if err != nil {
				return fmt.Errorf("idle-slot probe: %w", err)
			}
		}
	}
	return nil
}

// blockGraphs splits a trace graph into one graph per basic block, keeping
// intra-block edges only.
func blockGraphs(g *graph.Graph) []*graph.Graph {
	local := make([]graph.NodeID, g.Len())
	idx := map[int]int{}
	var out []*graph.Graph
	for v := 0; v < g.Len(); v++ {
		nd := g.Node(graph.NodeID(v))
		i, ok := idx[nd.Block]
		if !ok {
			i = len(out)
			idx[nd.Block] = i
			out = append(out, graph.New(0))
		}
		local[v] = out[i].AddNode(nd.Label, nd.Exec, nd.Class, 0)
	}
	for _, e := range g.Edges() {
		a, b := g.Node(e.Src).Block, g.Node(e.Dst).Block
		if a == b && e.Distance == 0 {
			out[idx[a]].MustEdge(local[e.Src], local[e.Dst], e.Latency, 0)
		}
	}
	return out
}
