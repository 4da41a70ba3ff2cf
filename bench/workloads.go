package main

import (
	"fmt"
	"math/rand"

	"aisched"
	"aisched/internal/graph"
	"aisched/internal/interp"
	"aisched/internal/machine"
	"aisched/internal/minic"
	"aisched/internal/workload"
)

// Workload inputs. Every input is a pure function of the seed and the
// request's position, built outside the timed calls, so the scheduler
// receives only finished graphs, stream blocks or source text. Trace
// requests are built chunk by chunk rather than all at once: a workload held
// in memory would make the program's garbage collector mark it on every
// cycle. README.md records why each workload was chosen.

type kind int

const (
	kindTrace   kind = iota // one ScheduleTrace per request
	kindStream              // one StreamScheduler.Push per request
	kindProgram             // one CompileC + ScheduleProgram + ScheduleLoop per request
)

// spec is one workload: its name, the facade path it drives, and how many
// requests one repetition sends (for a stream, how many source traces it
// pushes block by block).
type spec struct {
	name     string
	kind     kind
	requests int
}

var specs = []spec{
	{"trace-cold", kindTrace, 2400},
	{"trace-repeat", kindTrace, 5200},
	{"long-trace", kindTrace, 400},
	{"stream-online", kindStream, 14000},
	{"compile-c", kindProgram, 3200},
}

func specByName(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// traceReq is one trace-scheduling request.
type traceReq struct {
	g *graph.Graph
	m *machine.Machine
}

// inputs is one workload's generated requests; which fields are set depends
// on the workload's kind.
type inputs struct {
	spec
	seed    int64
	m       *machine.Machine
	rs      *machine.Machine        // trace-cold's RS/6000 shape
	pool    [][]aisched.StreamBlock // kindStream: distinct source traces, dependences in trace-local IDs
	slots   []int                   // kindStream: pool index of each pushed trace, in order
	sources []string                // kindProgram
}

// streamPool is the number of distinct source traces the stream draws from;
// with 14000 draws per repetition most traces recur a few times, so the step
// cache sees both repeats and misses.
const streamPool = 4096

// programStmts is the top-level statement count of each generated program.
const programStmts = 6

// generate prepares n requests of workload sp from seed. Trace requests are
// built on demand by trace; the others are built here.
func generate(sp spec, seed int64, n int) (*inputs, error) {
	in := &inputs{spec: sp, seed: seed, m: machine.SingleUnit(4), rs: machine.RS6000(4)}
	in.requests = n
	r := rand.New(rand.NewSource(seed))
	switch sp.kind {
	case kindStream:
		return in, genStream(in, r)
	case kindProgram:
		in.m = in.rs
		return in, genPrograms(in, r)
	}
	_, err := in.build(0)
	return in, err
}

// trace builds trace request i. Each request draws from its own random
// stream, derived from the seed and i, so any request can be rebuilt alone.
func (in *inputs) trace(i int) traceReq {
	t, err := in.build(i)
	if err != nil {
		// generate built request 0 with the same fixed configuration, so
		// only a generator bug can fail here.
		panic(fmt.Sprintf("bench: %s request %d: %v", in.name, i, err))
	}
	return t
}

func (in *inputs) build(i int) (traceReq, error) {
	r := rand.New(rand.NewSource(in.seed<<24 + int64(i)))
	switch in.name {
	case "trace-cold":
		// Four shapes in rotation: latency-bound blocks, dense
		// restricted-model blocks, 16-block traces, and three-class RS/6000
		// blocks with multi-cycle instructions.
		cfg, m := workload.DefaultTrace(), in.m
		switch i % 4 {
		case 1:
			cfg = workload.DenseTrace()
		case 2:
			cfg.Blocks = 16
		case 3:
			cfg.Classes, cfg.MaxExec, m = 3, 2, in.rs
		}
		g, err := workload.Trace(r, cfg)
		return traceReq{g, m}, err
	case "trace-repeat":
		if i%4 == 3 {
			// A rebuilt copy of an earlier request.
			return traceReq{rebuild(in.trace(r.Intn(i)).g, r), in.m}, nil
		}
		return traceReq{repeatTrace(r), in.m}, nil
	case "long-trace":
		// 256-block traces with a barrier every second block, alternating
		// with 128-block traces without barriers.
		cfg := workload.DefaultLongTrace(256)
		if i%2 == 1 {
			cfg = workload.DefaultLongTrace(128)
			cfg.BarrierEvery = 0
		}
		g, err := workload.LongTrace(r, cfg)
		return traceReq{g, in.m}, err
	}
	return traceReq{}, fmt.Errorf("no trace generator for workload %q", in.name)
}

// blockTmpl is one basic-block shape of the trace-repeat workload.
type blockTmpl struct {
	n     int
	edges [][3]int // local source, local destination, latency
}

// repeatTemplates are the trace-repeat workload's 24 block shapes: 16 latency
// chains and 8 random blocks. They are part of the workload's definition, so
// they come from a fixed seed; --seed chooses how traces combine them. Drawn
// per seed, 24 shapes are too few to average out, and the cache hit rate
// and cost per instruction would vary from seed to seed.
var repeatTemplates = func() []blockTmpl {
	const chains, randoms = 16, 8
	r := rand.New(rand.NewSource(24))
	tmpls := make([]blockTmpl, 0, chains+randoms)
	for i := 0; i < chains; i++ {
		t := blockTmpl{n: 5 + r.Intn(3)}
		for j := 0; j+1 < t.n; j++ {
			t.edges = append(t.edges, [3]int{j, j + 1, 1 + r.Intn(2)})
		}
		tmpls = append(tmpls, t)
	}
	lats := []int{0, 1, 1, 2, 4}
	for i := 0; i < randoms; i++ {
		t := blockTmpl{n: 3 + r.Intn(6)}
		for a := 0; a < t.n; a++ {
			for b := a + 1; b < t.n; b++ {
				if r.Float64() < 0.4 {
					t.edges = append(t.edges, [3]int{a, b, lats[r.Intn(len(lats))]})
				}
			}
		}
		tmpls = append(tmpls, t)
	}
	return tmpls
}()

// repeatTrace draws a 32-block trace from the repeat templates.
func repeatTrace(r *rand.Rand) *graph.Graph {
	const blocks = 32
	seq := make([]int, blocks)
	total := 0
	for b := range seq {
		seq[b] = r.Intn(len(repeatTemplates))
		total += repeatTemplates[seq[b]].n
	}
	g := graph.New(total)
	for b, ti := range seq {
		t := repeatTemplates[ti]
		base := graph.NodeID(g.Len())
		for j := 0; j < t.n; j++ {
			g.AddNode("", 1, 0, b)
		}
		for _, e := range t.edges {
			g.MustEdge(base+graph.NodeID(e[0]), base+graph.NodeID(e[1]), e[2], 0)
		}
	}
	return g
}

// traceGraph rebuilds the dependence graph of a stream source trace from its
// blocks, for the checks that need the whole trace. The pool keeps only the
// blocks: the graphs would triple its share of the live heap.
func traceGraph(blocks []aisched.StreamBlock) *graph.Graph {
	g := graph.New(0)
	for b, blk := range blocks {
		for _, nd := range blk.Nodes {
			g.AddNode(nd.Label, nd.Exec, nd.Class, b)
		}
		for _, d := range blk.Deps {
			g.MustEdge(d.Src, d.Dst, d.Latency, 0)
		}
	}
	return g
}

// rebuild reconstructs g node for node with fresh labels and a shuffled edge
// insertion order: the same instance arriving down another front-end path,
// which the schedule cache must recognise by content.
func rebuild(g *graph.Graph, r *rand.Rand) *graph.Graph {
	h := graph.New(g.Len())
	for v := 0; v < g.Len(); v++ {
		nd := g.Node(graph.NodeID(v))
		h.AddNode("", nd.Exec, nd.Class, nd.Block)
	}
	es := g.Edges()
	for _, i := range r.Perm(len(es)) {
		h.MustEdge(es[i].Src, es[i].Dst, es[i].Latency, es[i].Distance)
	}
	return h
}

// genStream builds a pool of DefaultTrace source traces and the sequence of
// pool draws the stream pushes; each drawn trace's dependence IDs are
// rebased to its fresh stream IDs at push time.
func genStream(in *inputs, r *rand.Rand) error {
	pool := min(streamPool, in.requests)
	for i := 0; i < pool; i++ {
		g, err := workload.Trace(r, workload.DefaultTrace())
		if err != nil {
			return err
		}
		blocks, _, err := aisched.TraceStreamBlocks(g)
		if err != nil {
			return err
		}
		in.pool = append(in.pool, blocks)
	}
	for i := 0; i < in.requests; i++ {
		in.slots = append(in.slots, r.Intn(pool))
	}
	return nil
}

// genPrograms draws random mini-C programs, keeping those that terminate
// within the interpreter's step limit: a loop body may reassign its own
// induction variable, and the output check runs every sampled program.
func genPrograms(in *inputs, r *rand.Rand) error {
	for len(in.sources) < in.requests {
		src := workload.RandomProgram(r, programStmts)
		c, err := minic.Compile(src)
		if err != nil {
			return fmt.Errorf("generated program does not compile: %w", err)
		}
		if _, err := interp.Run(c.Blocks, nil, 0); err == nil {
			in.sources = append(in.sources, src)
		}
	}
	return nil
}
