// Package aisched is a Go implementation of Anticipatory Instruction
// Scheduling (Sarkar & Simons, SPAA 1996): compile-time instruction
// scheduling that rearranges instructions only within basic blocks, yet
// minimizes the dynamic completion time of whole traces and loops on
// processors with a hardware lookahead window — the window overlaps the end
// of one block with the start of the next, so the scheduler moves idle
// slots as late as possible and orders each block's tail anticipating its
// successors.
//
// The package is a facade over the internal implementation:
//
//   - ScheduleBlock: the Rank Algorithm + Delay_Idle_Slots on one block;
//   - ScheduleTrace: Algorithm Lookahead over a multi-block trace (§4);
//   - ScheduleLoop: the §5 loop algorithms (single- and multi-block bodies);
//   - Pipeline / PipelineThenAnticipate: software pipelining and the
//     anticipatory post-pass (§2.4);
//   - Simulate*: the cycle-accurate lookahead-window hardware model used to
//     evaluate every schedule;
//   - CompileC / ParseAsm + BuildTraceGraph / BuildLoopGraph: front ends
//     producing dependence graphs from mini-C source or RS/6000-flavoured
//     assembly.
//
// Quick start:
//
//	g := aisched.NewGraph(3)
//	a := g.AddUnit("a")
//	b := g.AddUnit("b")
//	c := g.AddUnit("c")
//	g.MustEdge(a, b, 1, 0) // b starts ≥ 1 cycle after a completes
//	g.MustEdge(b, c, 0, 0)
//	m := aisched.SingleUnit(4) // one functional unit, window W = 4
//	s, _ := aisched.ScheduleBlock(g, m)
//	fmt.Println(s.Makespan())
package aisched

import (
	"context"

	"aisched/internal/cfg"
	"aisched/internal/core"
	"aisched/internal/deps"
	"aisched/internal/emit"
	"aisched/internal/graph"
	"aisched/internal/hw"
	"aisched/internal/interp"
	"aisched/internal/isa"
	"aisched/internal/loops"
	"aisched/internal/machine"
	"aisched/internal/minic"
	"aisched/internal/obs"
	"aisched/internal/regren"
	"aisched/internal/sched"
)

// Core type aliases: the dependence graph, machine model, and schedule
// representation.
type (
	// Graph is a dependence graph over instructions: nodes carry execution
	// time, functional-unit class, and basic-block index; edges carry a
	// <latency, distance> label (distance > 0 = loop-carried).
	Graph = graph.Graph
	// NodeID identifies a node within a Graph.
	NodeID = graph.NodeID
	// Edge is a dependence edge.
	Edge = graph.Edge
	// Machine describes functional units and the lookahead window size W.
	Machine = machine.Machine
	// Schedule assigns every node a start cycle and functional unit.
	Schedule = sched.Schedule
	// TraceResult is Algorithm Lookahead's output: the per-block static
	// orders (the emitted code) and the predicted execution schedule.
	TraceResult = core.Result
	// LoopSteady describes a loop schedule's periodic steady state: the
	// intra-iteration makespan and the initiation interval II, so n
	// iterations complete in Makespan + (n−1)·II cycles.
	LoopSteady = loops.Steady
	// Kernel is a software-pipelined loop kernel (modulo schedule).
	Kernel = loops.Kernel
	// Instr is one machine instruction of the RISC-like target ISA.
	Instr = isa.Instr
	// AsmBlock is a labeled block of parsed assembly.
	AsmBlock = isa.Block
	// CompiledC is the mini-C compiler's output.
	CompiledC = minic.Compiled
	// SimResult reports one hardware simulation.
	SimResult = hw.Result
	// SimOptions tunes the hardware simulation (speculation, misprediction,
	// optional cycle-level tracing via the Tracer field).
	SimOptions = hw.Options
	// Tracer receives structured observability events from the scheduler
	// passes and the hardware simulator. Use NewRecorder for the standard
	// in-memory implementation.
	Tracer = obs.Tracer
	// TraceEvent is one structured observability event.
	TraceEvent = obs.Event
	// TraceRecorder collects trace events and renders them as a Stats
	// snapshot, Chrome trace-event JSON (Perfetto-loadable), or a plain-text
	// pipeline timeline.
	TraceRecorder = obs.Recorder
	// Stats is the metrics-registry snapshot: stall-cycle breakdown by
	// reason, window-occupancy distribution, idle-slot fills split into
	// same-block vs cross-block (the paper's headline effect), rollback and
	// scheduler-pass counters. Marshals to stable JSON.
	Stats = obs.Stats
)

// NewRecorder returns an empty trace recorder; install it with WithTracer or
// on SimOptions.Tracer.
func NewRecorder() *TraceRecorder { return obs.NewRecorder() }

// NewRecorderCap returns a trace recorder that retains at most n events,
// dropping the oldest once full. Stats stay exact across drops (evicted
// events are folded into a running aggregate); only the Events/Timeline/
// ChromeTrace views are truncated to the retained window. Use this for
// long-running or batch workloads where an unbounded recorder would grow
// without limit.
func NewRecorderCap(n int) *TraceRecorder { return obs.NewRecorderCap(n) }

// Observer binds a Tracer to the scheduling and simulation entry points, so
// one run can be observed end to end: pass decisions (merge, idle-slot
// delays, chop, II candidates) and per-cycle hardware behaviour (issues,
// stall reasons, window occupancy, rollbacks).
//
//	rec := aisched.NewRecorder()
//	o := aisched.WithTracer(rec)
//	res, _ := o.ScheduleTrace(g, m)
//	o.SimulateTrace(g, m, res.StaticOrder())
//	stats := rec.Stats()
type Observer struct {
	tr Tracer
}

// WithTracer returns an Observer whose operations emit events to t. A nil t
// yields an Observer with tracing disabled (zero overhead).
func WithTracer(t Tracer) *Observer { return &Observer{tr: t} }

// ScheduleBlock is the traced equivalent of the package-level ScheduleBlock:
// the same pipeline, with its passes reported to the Observer's Tracer.
func (o *Observer) ScheduleBlock(g *Graph, m *Machine) (*Schedule, error) {
	return scheduleBlockFused(g, m, nil, o.tr)
}

// ScheduleTrace is the traced equivalent of the package-level ScheduleTrace.
func (o *Observer) ScheduleTrace(g *Graph, m *Machine) (*TraceResult, error) {
	return core.LookaheadOpts(g, m, core.Options{Tracer: o.tr})
}

// ScheduleLoop is the traced equivalent of the package-level ScheduleLoop.
func (o *Observer) ScheduleLoop(g *Graph, m *Machine) (*LoopSteady, error) {
	return loops.ScheduleLoopOpts(g, m, loops.Opts{Tracer: o.tr})
}

// SimulateTrace is the traced equivalent of the package-level SimulateTrace:
// the simulator emits per-cycle issue, stall-reason, window-occupancy and
// rollback events.
func (o *Observer) SimulateTrace(g *Graph, m *Machine, order []NodeID) (*SimResult, error) {
	return hw.SimulateLoop(g, m, order, 1, SimOptions{Speculate: true, Tracer: o.tr})
}

// SimulateLoop is the traced equivalent of the package-level SimulateLoop;
// any Tracer already set on opt is replaced by the Observer's.
func (o *Observer) SimulateLoop(g *Graph, m *Machine, order []NodeID, iters int, opt SimOptions) (*SimResult, error) {
	opt.Tracer = o.tr
	return hw.SimulateLoop(g, m, order, iters, opt)
}

// NewGraph returns an empty dependence graph with capacity for n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// Machine presets.
var (
	// SingleUnit is the paper's restricted model: one functional unit that
	// executes every instruction class, lookahead window W.
	SingleUnit = machine.SingleUnit
	// RS6000 is an RS/6000-flavoured three-unit machine (fixed point,
	// float/multiply, branch).
	RS6000 = machine.RS6000
	// Superscalar is a k-wide single-class machine.
	Superscalar = machine.Superscalar
)

// ScheduleBlock schedules a single basic block: minimum-makespan Rank
// Algorithm schedule followed by Delay_Idle_Slots, so every idle slot sits
// as late as possible (ready to be filled by successor-block instructions
// through the hardware window). Optimal for unit execution times, 0/1
// latencies and a single functional unit; a strong heuristic otherwise.
// ScheduleBlockCtx adds cooperative cancellation.
func ScheduleBlock(g *Graph, m *Machine) (*Schedule, error) {
	return ScheduleBlockCtx(context.Background(), g, m)
}

// ScheduleTrace runs Algorithm Lookahead (§4) over a trace graph whose
// nodes carry block indices. The result's BlockOrders are the static code
// to emit; instructions never cross block boundaries. ScheduleTraceCtx adds
// cooperative cancellation.
func ScheduleTrace(g *Graph, m *Machine) (*TraceResult, error) {
	return ScheduleTraceCtx(context.Background(), g, m)
}

// ScheduleLoop schedules a loop body graph (distance-1 carried edges): the
// §5.2 general case for single-block bodies, the §5.1 trace algorithm for
// multi-block bodies. The result reports the static order and the periodic
// steady state. ScheduleLoopCtx adds cooperative cancellation. Like
// ScheduleTrace, it runs on the caller's goroutine and lets a panic inside
// the scheduler through; ScheduleBatch, and ScheduleLoop on a Scheduler
// with its cache on, return it as an error instead.
func ScheduleLoop(g *Graph, m *Machine) (*LoopSteady, error) {
	return ScheduleLoopCtx(context.Background(), g, m)
}

// EvaluateLoopOrder computes the periodic steady state of an explicit loop
// body order.
func EvaluateLoopOrder(g *Graph, m *Machine, order []NodeID) (*LoopSteady, error) {
	return loops.Evaluate(g, m, order)
}

// UnrolledSteady is the result of unroll-and-schedule: the unrolled body's
// steady state, with PerIteration() normalizing to original iterations.
type UnrolledSteady = loops.UnrolledSteady

// UnrollLoop replicates a single-block loop body k times (dependence
// distances adjusted) and schedules the unrolled body anticipatorily. When
// the un-unrolled schedule is faster per iteration, it is returned instead
// (K = 1), so unrolling never loses.
func UnrollLoop(g *Graph, m *Machine, k int) (*UnrolledSteady, error) {
	return loops.UnrollAndSchedule(g, m, k)
}

// Pipeline computes a software-pipelined kernel (modulo schedule) of a loop
// body.
func Pipeline(g *Graph, m *Machine) (*Kernel, error) { return loops.Pipeline(g, m) }

// PipelineThenAnticipate runs software pipelining followed by the
// anticipatory single-block post-pass — the complementary combination of
// the paper's §2.4.
func PipelineThenAnticipate(g *Graph, m *Machine) (*LoopSteady, *Kernel, error) {
	return loops.PipelineThenAnticipate(g, m)
}

// SimulateTrace executes a static instruction order for a trace graph on
// the lookahead-window hardware model and returns the dynamic completion
// time.
func SimulateTrace(g *Graph, m *Machine, order []NodeID) (*SimResult, error) {
	t := stageTimer(simSampler)
	res, err := hw.SimulateTrace(g, m, order)
	stageDone(mStageSimNS, t)
	return res, err
}

// SimulateLoop executes iters iterations of a loop body order.
func SimulateLoop(g *Graph, m *Machine, order []NodeID, iters int, opt SimOptions) (*SimResult, error) {
	t := stageTimer(simSampler)
	res, err := hw.SimulateLoop(g, m, order, iters, opt)
	stageDone(mStageSimNS, t)
	return res, err
}

// LoopSteadyState estimates the dynamic cycles-per-iteration of a loop
// order on the window hardware.
func LoopSteadyState(g *Graph, m *Machine, order []NodeID, opt SimOptions) (float64, error) {
	return hw.SteadyState(g, m, order, opt)
}

// CompileC compiles mini-C source to basic blocks of the target ISA.
func CompileC(src string) (*CompiledC, error) { return minic.Compile(src) }

// ParseAsm parses RS/6000-flavoured assembly into labeled blocks.
func ParseAsm(src string) ([]AsmBlock, error) { return isa.Parse(src) }

// BuildBlockGraph builds the dependence graph of one basic block.
func BuildBlockGraph(instrs []Instr) *Graph { return deps.BuildBlock(instrs, 0) }

// BuildTraceGraph builds the dependence graph of a trace of basic blocks,
// including cross-block register and memory dependences.
func BuildTraceGraph(blocks [][]Instr) *Graph { return deps.BuildTrace(blocks) }

// BuildLoopGraph builds the dependence graph of a single-basic-block loop,
// including distance-1 loop-carried dependences.
func BuildLoopGraph(instrs []Instr) *Graph { return deps.BuildLoop(instrs) }

// CheckLegal verifies the paper's Definition 2.3 legality of a trace
// schedule for window size w: the schedule must be dependence- and
// resource-valid, and the window model that SimulateTrace runs, given the
// static order made of the schedule's own per-block orders, must issue every
// instruction at exactly its scheduled start. That one replay covers the
// Window Constraint, the Ordering Constraint and Definition 2.1
// emittability. Outside the restricted model (several units, latencies
// above 1) predictions can drift from the replay, so it may reject them.
func CheckLegal(s *Schedule, w int) error { return sched.CheckLegal(s, w) }

// CFG is a control-flow graph over compiled basic blocks, with
// statically-predicted (or profiled) edge probabilities, block frequency
// estimation, and Fisher-style trace selection.
type CFG = cfg.CFG

// BuildCFG builds the control-flow graph of a compiled mini-C program.
func BuildCFG(c *CompiledC) (*CFG, error) { return cfg.FromCompiled(c) }

// RenameRegisters rewrites a basic block so each definition targets a
// fresh register while preserving live-out values, removing the false
// (anti/output) register dependences that would otherwise serialize the
// schedule on multi-issue machines.
func RenameRegisters(instrs []Instr) []Instr { return regren.Rename(instrs) }

// RenameProgram renames every block of a program, reserving all registers
// the program references anywhere so cross-block live values are never
// clobbered. Prefer this over RenameRegisters for multi-block code.
func RenameProgram(blocks []AsmBlock) []AsmBlock { return regren.RenameBlocks(blocks) }

// MachineState is the architectural state of the functional ISA
// interpreter: register files and a sparse memory.
type MachineState = interp.State

// Interpret executes a program (blocks with labels, branches followed by
// label) on the functional interpreter, returning the final architectural
// state. A nil state starts from zeros; maxSteps ≤ 0 uses the default
// runaway-loop bound. Use it to check that scheduled or renamed code
// computes exactly what the original did.
func Interpret(blocks []AsmBlock, st *MachineState, maxSteps int) (*MachineState, error) {
	return interp.Run(blocks, st, maxSteps)
}

// EmitTrace renders a scheduled trace back to assembly text: block labels
// preserved, instructions in the anticipatory order within each block.
func EmitTrace(blocks []AsmBlock, orders map[int][]NodeID) (string, error) {
	return emit.Trace(blocks, orders)
}

// EmitLoop renders a scheduled single-block loop body back to assembly.
func EmitLoop(b AsmBlock, order []NodeID) (string, error) { return emit.Loop(b, order) }
