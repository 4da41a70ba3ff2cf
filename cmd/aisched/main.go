// Command aisched schedules an assembly file with anticipatory instruction
// scheduling and reports the static per-block code plus the dynamic
// completion time under the lookahead-window hardware model, compared
// against local baselines.
//
// Usage:
//
//	aisched [-mode trace|loop] [-w window] [-machine single|rs6000|wide2] [-iters n]
//	        [-par on|off] [-trace out.json] [-stats] [-timeline] file.s
//
// With no file, the paper's Figure 3 partial-products loop is used.
//
// Modes:
//
//	trace   — treat the file's blocks as a trace; run Algorithm Lookahead.
//	loop    — treat the first block as a single-block loop body; run the §5.2
//	          general-case loop scheduler and report steady-state cycles/iter.
//	program — treat the file as mini-C source: compile it, select traces over
//	          the CFG, and schedule every trace through the parallel batch
//	          pipeline with the content-addressed schedule cache; reports
//	          per-trace makespans and the cache hit/miss counters.
//	stream  — feed the file's blocks one Push at a time through the streaming
//	          scheduler (lookahead -k; -k -1 = unbounded, batch-identical)
//	          and print each block's schedule the moment it is finalized,
//	          with its emit lag; then compare the streamed makespan against
//	          batch ScheduleTrace.
//
// Program and stream modes run with the structural step cache on by default
// (-stepcache=off disables it, -stepcache-size bounds its fragment count);
// repeated block shapes replay memoized merge/chop steps, and the hit/miss
// counters are reported after the run. Results are bit-identical either way.
//
// Trace and program modes run with speculative parallel trace scheduling in
// its default auto mode (-par=off pins the sequential walk): long traces are
// partitioned at barrier-scored cut points, segments are scheduled
// speculatively on parallel workers and accepted on an O(1) entry-state
// fingerprint match. When the speculative path engaged, the verified/missed
// segment counters are printed after the run. Results are bit-identical
// either way; -par only exists to measure the difference.
//
// Observability:
//
//	-trace out.json — write a Chrome trace-event JSON of the scheduler passes
//	                  and the cycle-level window simulation; load it in
//	                  Perfetto (ui.perfetto.dev) or chrome://tracing.
//	-stats          — print the metrics snapshot (stall breakdown, window
//	                  occupancy, idle-slot fills, ...) as JSON.
//	-timeline       — print a plain-text per-unit pipeline timeline.
//	-metrics        — after the run, print the always-on process metrics
//	                  (counters, gauges, latency histograms) as JSON.
//	-debug-addr a   — serve /metrics (Prometheus), /statsz, /healthz, and
//	                  /debug/pprof/* on the given address for the lifetime of
//	                  the run.
//	-version        — print the build identity (module version, VCS revision)
//	                  and exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"aisched"
	"aisched/internal/baseline"
	"aisched/internal/emit"
	"aisched/internal/graph"
	"aisched/internal/isa"
	"aisched/internal/machine"
	"aisched/internal/tables"
)

const fig3Asm = `
CL.18:
	loadu  r6, 4(r7)   ; load x[i], bump pointer
	storeu r0, 4(r5)   ; store y[i-1], bump pointer
	cmpi   cr1, r6, 0  ; x[i] == 0 ?
	mul    r0, r6, r0  ; y[i] = y[i-1] * x[i]
	bt     cr1, CL.18  ; loop back
`

// fig3Program is the paper's Figure 3 C fragment (§2.4), the default input
// of -mode program.
const fig3Program = `
int x[100];
int y[100];
int i;
y[0] = x[0];
for (i = 1; x[i] != 0; i = i + 1) {
	y[i] = y[i-1] * x[i];
}
y[i] = 0;
`

func main() {
	var (
		mode      = flag.String("mode", "loop", "trace, loop, program, or stream")
		kAhead    = flag.Int("k", 0, "stream mode: lookahead k (0 = fully online, -1 = unbounded/batch-identical)")
		backendN  = flag.String("backend", "heuristic", "trace mode: heuristic or exact (exact runs the capped branch-and-bound oracle and reports the provable optimum)")
		w         = flag.Int("w", 4, "lookahead window size W")
		mdl       = flag.String("machine", "single", "single, rs6000, or wide2")
		iters     = flag.Int("iters", 20, "loop iterations to simulate")
		unroll    = flag.Int("unroll", 1, "loop unroll factor (loop mode)")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto) to this file")
		stats     = flag.Bool("stats", false, "print the observability metrics snapshot as JSON")
		timeline  = flag.Bool("timeline", false, "print a plain-text pipeline timeline")
		bPasses   = flag.Int("budget-passes", 0, "program mode: per-trace rank-pass budget; exhausted traces degrade to the baseline list schedule (0 = unlimited)")
		bMillis   = flag.Int("budget-ms", 0, "program mode: per-trace wall-clock budget in milliseconds (0 = unlimited)")
		par       = flag.String("par", "on", "speculative parallel trace scheduling: on (auto) or off (trace and program modes)")
		stepcache = flag.String("stepcache", "on", "structural step cache: on or off (program and stream modes)")
		stepSize  = flag.Int("stepcache-size", 0, "step cache fragment budget (0 = default 4096)")
		metricsF  = flag.Bool("metrics", false, "print the always-on process metrics snapshot as JSON after the run")
		dbgAddr   = flag.String("debug-addr", "", "serve /metrics, /statsz, /healthz, and /debug/pprof/* on this address (e.g. localhost:6060)")
		version   = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("aisched", aisched.VersionInfo())
		return
	}
	if *dbgAddr != "" {
		d, err := aisched.ServeDebug(*dbgAddr)
		if err != nil {
			fatal(err)
		}
		defer d.Close()
		fmt.Printf("debug server on http://%s (/metrics /statsz /healthz /debug/pprof/)\n", d.Addr())
	}

	var rec *aisched.TraceRecorder
	if *traceOut != "" || *stats || *timeline {
		rec = aisched.NewRecorder()
		rec.SetMeta("build", aisched.VersionInfo().String())
	}

	// stepCap is the step-cache fragment budget threaded to both facades:
	// -1 disables, 0 is the default size.
	stepCap := *stepSize
	switch *stepcache {
	case "on":
	case "off":
		stepCap = -1
	default:
		fatal(fmt.Errorf("-stepcache must be on or off, got %q", *stepcache))
	}
	// parTrace is the SchedulerOptions.ParallelTrace value: 0 is the auto
	// gate (engages on long traces when GOMAXPROCS permits), -1 pins the
	// sequential walk.
	parTrace := 0
	switch *par {
	case "on":
	case "off":
		parTrace = -1
	default:
		fatal(fmt.Errorf("-par must be on or off, got %q", *par))
	}

	var m *machine.Machine
	switch *mdl {
	case "single":
		m = machine.SingleUnit(*w)
	case "rs6000":
		m = machine.RS6000(*w)
	case "wide2":
		m = machine.Superscalar(2, *w)
	default:
		fatal(fmt.Errorf("unknown machine %q", *mdl))
	}
	fmt.Printf("machine: %s\n\n", m)

	if *mode == "program" {
		src := fig3Program
		if flag.NArg() > 0 {
			data, err := os.ReadFile(flag.Arg(0))
			if err != nil {
				fatal(err)
			}
			src = string(data)
		}
		budget := aisched.Budget{
			WallClock:     time.Duration(*bMillis) * time.Millisecond,
			MaxRankPasses: *bPasses,
		}
		runProgram(src, m, rec, budget, stepCap, parTrace)
	} else {
		src := fig3Asm
		if flag.NArg() > 0 {
			data, err := os.ReadFile(flag.Arg(0))
			if err != nil {
				fatal(err)
			}
			src = string(data)
		}
		blocks, err := aisched.ParseAsm(src)
		if err != nil {
			fatal(err)
		}
		if len(blocks) == 0 {
			fatal(fmt.Errorf("no instructions"))
		}
		switch *mode {
		case "loop":
			runLoop(blocks[0], m, *iters, *unroll, rec)
		case "trace":
			runTrace(blocks, m, rec, *backendN, parTrace)
		case "stream":
			runStream(blocks, m, *kAhead, rec, stepCap)
		default:
			fatal(fmt.Errorf("unknown mode %q", *mode))
		}
	}

	if rec != nil {
		reportObs(rec, *traceOut, *stats, *timeline)
	}
	if *metricsF {
		data, err := aisched.MetricsSnapshot().JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nprocess metrics:\n%s\n", data)
	}
}

// reportObs renders whatever the recorder captured: a text timeline and/or a
// JSON stats snapshot on stdout, and/or a Chrome trace-event file on disk.
func reportObs(rec *aisched.TraceRecorder, traceOut string, stats, timeline bool) {
	if timeline {
		fmt.Println("\npipeline timeline:")
		fmt.Print(rec.Timeline())
	}
	if stats {
		data, err := rec.Stats().JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nstats:\n%s\n", data)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote Chrome trace (%d events) to %s — load in ui.perfetto.dev or chrome://tracing\n",
			rec.Len(), traceOut)
	}
}

func runLoop(b isa.Block, m *machine.Machine, iters, unroll int, rec *aisched.TraceRecorder) {
	g := aisched.BuildLoopGraph(b.Instrs)
	t := tables.New(fmt.Sprintf("loop %s: steady-state comparison", b.Label),
		"scheduler", "cycles/iter (periodic)", "completion of n="+fmt.Sprint(iters))
	progOrder := sourceOrder(g)
	prog, err := aisched.EvaluateLoopOrder(g, m, progOrder)
	if err != nil {
		fatal(err)
	}
	t.Add("program order", prog.II, prog.CompletionN(iters))
	best, err := observer(rec).ScheduleLoop(g, m)
	if err != nil {
		fatal(err)
	}
	t.Add("anticipatory (5.2)", best.II, best.CompletionN(iters))
	fmt.Println(t)
	body, err := emit.Loop(b, best.Order)
	if err != nil {
		fatal(err)
	}
	fmt.Println("anticipatory body order:")
	fmt.Print(body)
	dyn, err := aisched.LoopSteadyState(g, m, best.Order, aisched.SimOptions{Speculate: true})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\ndynamic steady state on window hardware: %.2f cycles/iter\n", dyn)
	if rec != nil {
		// Capture the cycle-level events of the full n-iteration run.
		if _, err := observer(rec).SimulateLoop(g, m, best.Order, iters,
			aisched.SimOptions{Speculate: true}); err != nil {
			fatal(err)
		}
	}

	if unroll > 1 {
		u, err := aisched.UnrollLoop(g, m, unroll)
		if err != nil {
			fatal(err)
		}
		note := ""
		if u.K != unroll {
			note = " (the rolled loop is faster and is kept)"
		}
		fmt.Printf("unrolled ×%d: %.2f cycles per original iteration%s\n", unroll, u.PerIteration(), note)
	}
}

func runTrace(blocks []isa.Block, m *machine.Machine, rec *aisched.TraceRecorder, backendName string, parTrace int) {
	var seqs [][]isa.Instr
	for _, b := range blocks {
		seqs = append(seqs, b.Instrs)
	}
	g := aisched.BuildTraceGraph(seqs)
	// A Scheduler (with both caches off — one request has nothing to
	// memoize) rather than the Observer, so -par reaches the core. Its
	// Tracer receives cache, cancellation and degradation events, not the
	// scheduler's pass events; the cycle-level events come from the
	// simulation below.
	opts := aisched.SchedulerOptions{
		CacheCapacity: -1, StepCacheCapacity: -1, ParallelTrace: parTrace,
	}
	if rec != nil {
		opts.Tracer = rec
	}
	specBefore := aisched.SpecTraceCounters()
	res, err := aisched.NewScheduler(opts).ScheduleTrace(g, m)
	if err != nil {
		fatal(err)
	}
	sim, err := observer(rec).SimulateTrace(g, m, res.StaticOrder())
	if err != nil {
		fatal(err)
	}
	t := tables.New("trace: dynamic completion under the window model",
		"scheduler", "completion (cycles)")
	t.Add("anticipatory (Algorithm Lookahead)", sim.Completion)

	// -backend=exact adds the branch-and-bound optimum as a reference row
	// and emits the oracle's static code instead of the heuristic's.
	emitOrders := res.BlockOrders
	emitLabel := "anticipatory"
	if backendName != "" && backendName != "heuristic" {
		be, err := aisched.BackendByName(backendName)
		if err != nil {
			fatal(err)
		}
		br, err := be.ScheduleTrace(context.Background(), g, m)
		if err != nil {
			fatal(fmt.Errorf("backend %s: %w (the exact oracle is capped to small traces; use -backend=heuristic)", backendName, err))
		}
		bsim, err := aisched.SimulateTrace(g, m, br.Order)
		if err != nil {
			fatal(err)
		}
		t.Add(fmt.Sprintf("%s backend (provable optimum)", be.Name()), bsim.Completion)
		eo := make(map[int][]graph.NodeID, len(blocks))
		for _, id := range br.Order {
			b := g.Node(id).Block
			eo[b] = append(eo[b], id)
		}
		emitOrders = eo
		emitLabel = be.Name()
	}
	for _, bl := range baseline.All() {
		order, err := baseline.ScheduleTrace(bl, g, m)
		if err != nil {
			fatal(err)
		}
		s, err := aisched.SimulateTrace(g, m, order)
		if err != nil {
			fatal(err)
		}
		t.Add(bl.Name(), s.Completion)
	}
	fmt.Println(t)
	printSpec(specBefore)
	out, err := emit.Trace(blocks, emitOrders)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s static code:\n", emitLabel)
	fmt.Print(out)
}

// printSpec reports the speculative-parallel activity since before, if the
// path engaged at all (short traces and -par=off leave the counters flat).
func printSpec(before aisched.SpecCounters) {
	d := aisched.SpecTraceCounters()
	if segs := d.Segments - before.Segments; segs > 0 {
		fmt.Printf("speculation: %d/%d segments verified, %d blocks recomputed\n",
			d.Hits-before.Hits, segs, d.FallbackBlocks-before.FallbackBlocks)
	}
}

// runStream feeds the trace block by block through the streaming scheduler,
// printing each block's final schedule at the push that finalizes it —
// demonstrating the O(block) time-to-first-schedule the streaming API buys —
// then compares the streamed makespan against batch ScheduleTrace (identical
// at k = unbounded, and usually identical well before that; EXPERIMENTS.md
// S1 measures the gap).
func runStream(blocks []isa.Block, m *machine.Machine, k int, rec *aisched.TraceRecorder, stepCap int) {
	var seqs [][]isa.Instr
	for _, b := range blocks {
		seqs = append(seqs, b.Instrs)
	}
	g := aisched.BuildTraceGraph(seqs)
	sblocks, _, err := aisched.TraceStreamBlocks(g)
	if err != nil {
		fatal(err)
	}
	if k < 0 {
		k = aisched.LookaheadUnbounded
	}
	opt := aisched.StreamOptions{Lookahead: k, StepCacheCapacity: stepCap}
	if rec != nil {
		opt.Tracer = rec
	}
	ss := aisched.NewStreamScheduler(m, opt)
	show := func(push int, r *aisched.BlockResult) {
		label := blocks[r.Block].Label
		fmt.Printf("push %d: block %d (%s) final, lag %d", push, r.Block, label, r.Lag)
		if r.Degraded != "" {
			fmt.Printf(" [degraded: %s]", r.Degraded)
		}
		fmt.Println()
		for i, id := range r.Order {
			nd := g.Node(id)
			fmt.Printf("  t=%-4d u%-2d %s\n", r.Start[i], r.Unit[i], nd.Label)
		}
	}
	for i, sb := range sblocks {
		res, err := ss.Push(sb)
		if err != nil {
			fatal(err)
		}
		for _, r := range res {
			show(i, r)
		}
	}
	tail, err := ss.Flush()
	if err != nil {
		fatal(err)
	}
	for _, r := range tail {
		show(len(sblocks), r)
	}
	streamed := ss.Makespan()
	batch, err := aisched.ScheduleTrace(g, m)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nstreamed makespan (k=%s): %d; batch ScheduleTrace: %d\n",
		kLabel(k), streamed, batch.Makespan())
	if scc := ss.StepCacheCounters(); scc.Hits+scc.Misses > 0 {
		fmt.Printf("step cache: %d hits, %d misses, %d evictions\n",
			scc.Hits, scc.Misses, scc.Evictions)
	}
}

func kLabel(k int) string {
	if k == aisched.LookaheadUnbounded {
		return "unbounded"
	}
	return fmt.Sprint(k)
}

// runProgram is the batch pipeline: compile mini-C, select traces over the
// CFG, schedule every trace through aisched.ScheduleBatch (cache-integrated,
// GOMAXPROCS workers, optional per-trace budget), and report per-trace
// results plus cache activity.
func runProgram(src string, m *machine.Machine, rec *aisched.TraceRecorder, budget aisched.Budget, stepCap, parTrace int) {
	c, err := aisched.CompileC(src)
	if err != nil {
		fatal(err)
	}
	opts := aisched.SchedulerOptions{
		Budget: budget, StepCacheCapacity: stepCap, ParallelTrace: parTrace,
	}
	if rec != nil {
		opts.Tracer = rec
	}
	specBefore := aisched.SpecTraceCounters()
	sc := aisched.NewScheduler(opts)
	ps, err := sc.ScheduleProgram(c, m)
	if err != nil {
		fatal(err)
	}
	t := tables.New("program: anticipatory schedule per selected trace",
		"trace", "blocks", "instrs", "predicted makespan", "dynamic completion", "degraded")
	degraded := 0
	for i, tr := range ps.Traces {
		if tr.G.Len() == 0 {
			t.Add(i, fmt.Sprint(tr.Blocks), 0, 0, 0, "")
			continue
		}
		sim, err := aisched.SimulateTrace(tr.G, m, tr.Res.StaticOrder())
		if err != nil {
			fatal(err)
		}
		reason := tr.Res.S.Degraded
		if reason != "" {
			degraded++
		}
		t.Add(i, fmt.Sprint(tr.Blocks), tr.G.Len(), tr.Res.Makespan(), sim.Completion, reason)
	}
	fmt.Println(t)
	cc := sc.CacheCounters()
	fmt.Printf("schedule cache: %d hits, %d misses, %d coalesced, %d evictions\n",
		cc.Hits, cc.Misses, cc.Coalesced, cc.Evictions)
	if scc := sc.StepCacheCounters(); scc.Hits+scc.Misses > 0 {
		fmt.Printf("step cache: %d hits, %d misses, %d evictions\n",
			scc.Hits, scc.Misses, scc.Evictions)
	}
	printSpec(specBefore)
	if degraded > 0 {
		fmt.Printf("budget: %d of %d traces degraded to the baseline list schedule\n",
			degraded, len(ps.Traces))
	}
}

// observer wraps the recorder in an aisched.Observer, taking care not to
// smuggle a typed nil into the Tracer interface when recording is off.
func observer(rec *aisched.TraceRecorder) *aisched.Observer {
	if rec == nil {
		return aisched.WithTracer(nil)
	}
	return aisched.WithTracer(rec)
}

func sourceOrder(g *graph.Graph) []graph.NodeID {
	out := make([]graph.NodeID, g.Len())
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aisched:", err)
	os.Exit(1)
}
