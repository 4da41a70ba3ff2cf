// Package experiments implements the reproduction harness: one function per
// experiment in EXPERIMENTS.md. E1–E4 regenerate the paper's Figures 1, 2,
// 3, and 8 and check every printed number; T1–T5 are the empirical
// comparison the paper defers to future work ("compare their effectiveness
// with known local and global scheduling algorithms"), run on synthetic
// workloads and measured by the hardware lookahead-window simulator.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"aisched/internal/baseline"
	"aisched/internal/core"
	"aisched/internal/graph"
	"aisched/internal/hw"
	"aisched/internal/idle"
	"aisched/internal/loops"
	"aisched/internal/machine"
	"aisched/internal/opt"
	"aisched/internal/paperex"
	"aisched/internal/rank"
	"aisched/internal/sched"
	"aisched/internal/tables"
	"aisched/internal/workload"
)

// Result is one experiment's rendered output plus a pass/fail verdict for
// the checks that pin paper-reported numbers.
type Result struct {
	ID     string
	Table  *tables.Table
	Notes  []string
	Passed bool
}

func (r *Result) String() string {
	status := "PASS"
	if !r.Passed {
		status = "FAIL"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s [%s] ==\n%s", r.ID, status, r.Table)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// E1 reproduces Figure 1: the Rank Algorithm schedule of BB1 (makespan 7,
// idle slot at t=2) and Move_Idle_Slot's relocation of the slot to t=5.
func E1() (*Result, error) {
	f := paperex.NewFig1()
	m := machine.SingleUnit(2)
	t := tables.New("E1 (Figure 1): BB1 rank schedule and idle-slot delay",
		"quantity", "paper", "measured")
	res := &Result{ID: "E1", Table: t, Passed: true}

	ranks, err := rank.Compute(f.G, m, rank.UniformDeadlines(f.G.Len(), 100))
	if err != nil {
		return nil, err
	}
	check := func(name string, paper, got int) {
		t.Add(name, paper, got)
		if paper != got {
			res.Passed = false
		}
	}
	check("rank(x)", 95, ranks[f.X])
	check("rank(e)", 95, ranks[f.E])
	check("rank(w)", 98, ranks[f.W])
	check("rank(b)", 98, ranks[f.B])
	check("rank(a)", 100, ranks[f.A])
	check("rank(r)", 100, ranks[f.R])

	r0, err := rank.Run(f.G, m, rank.UniformDeadlines(f.G.Len(), 100), f.PaperTie)
	if err != nil {
		return nil, err
	}
	check("makespan", 7, r0.S.Makespan())
	idles := r0.S.IdleSlots()
	slot0 := -1
	if len(idles) == 1 {
		slot0 = idles[0]
	}
	check("idle slot (before)", 2, slot0)

	d := rank.Rebase(rank.UniformDeadlines(f.G.Len(), 100), 100-r0.S.Makespan())
	moved, err := idle.MoveIdleSlot(r0.S, m, d, 0, 2, f.PaperTie)
	if err != nil {
		return nil, err
	}
	check("idle slot (after move)", 5, moved.NewStart)
	check("makespan (after move)", 7, moved.S.Makespan())
	check("d(x) committed", 1, moved.D[f.X])
	res.Notes = append(res.Notes,
		fmt.Sprintf("moved schedule: %v (paper: x e r b w _ a)", sched.PermutationLabels(moved.S)))
	return res, nil
}

// E2 reproduces Figure 2: the merged ranks of BB1 ∪ BB2, the lower bound 11,
// and the legal anticipatory schedule of makespan 11 for W = 2.
func E2() (*Result, error) {
	f := paperex.NewFig2()
	m := machine.SingleUnit(2)
	t := tables.New("E2 (Figure 2): two-block anticipatory scheduling, W=2",
		"quantity", "paper", "measured")
	res := &Result{ID: "E2", Table: t, Passed: true}
	check := func(name string, paper, got int) {
		t.Add(name, paper, got)
		if paper != got {
			res.Passed = false
		}
	}

	ranks, err := rank.Compute(f.G, m, rank.UniformDeadlines(f.G.Len(), 100))
	if err != nil {
		return nil, err
	}
	for _, c := range []struct {
		name  string
		id    graph.NodeID
		paper int
	}{
		{"rank(x)", f.X, 90}, {"rank(e)", f.E, 91}, {"rank(w)", f.W, 93},
		{"rank(z)", f.Z, 95}, {"rank(q)", f.Q, 97}, {"rank(p)", f.P, 98},
		{"rank(b)", f.B, 98}, {"rank(v)", f.V, 100}, {"rank(a)", f.A, 100},
		{"rank(r)", f.R, 100}, {"rank(g)", f.Gn, 100},
	} {
		check(c.name, c.paper, ranks[c.id])
	}

	la, err := core.Lookahead(f.G, m)
	if err != nil {
		return nil, err
	}
	check("lookahead predicted makespan", 11, la.Makespan())
	sim, err := hw.SimulateTrace(f.G, m, la.StaticOrder())
	if err != nil {
		return nil, err
	}
	check("simulated completion (W=2)", 11, sim.Completion)
	if err := sched.CheckLegal(la.S, 2); err != nil {
		res.Passed = false
		res.Notes = append(res.Notes, "legality check failed: "+err.Error())
	} else {
		res.Notes = append(res.Notes, "Definition 2.3 legality: the window replay of its block orders reproduces it")
	}
	return res, nil
}

// E3 reproduces Figure 3: the partial-products loop's two schedules
// (5-cycle/7-steady vs 6-cycle/6-steady) and the §5.2.3 general case
// finding the better one with MULTIPLY as the source candidate.
func E3() (*Result, error) {
	f := paperex.NewFig3()
	m := machine.SingleUnit(4)
	t := tables.New("E3 (Figure 3): partial-products loop steady state",
		"quantity", "paper", "measured")
	res := &Result{ID: "E3", Table: t, Passed: true}
	check := func(name string, paper, got int) {
		t.Add(name, paper, got)
		if paper != got {
			res.Passed = false
		}
	}
	s1, err := loops.Evaluate(f.G, m, f.Schedule1)
	if err != nil {
		return nil, err
	}
	check("schedule1 single-iteration cycles", 5, s1.Makespan)
	check("schedule1 steady-state cycles/iter", 7, s1.II)
	s2, err := loops.Evaluate(f.G, m, f.Schedule2)
	if err != nil {
		return nil, err
	}
	check("schedule2 single-iteration cycles", 6, s2.Makespan)
	check("schedule2 steady-state cycles/iter", 6, s2.II)
	best, err := loops.ScheduleSingleBlockLoop(f.G, m)
	if err != nil {
		return nil, err
	}
	check("general-case (5.2.3) steady state", 6, best.II)
	ssOrder, err := loops.SingleSourceOrder(f.G, m, f.M)
	if err != nil {
		return nil, err
	}
	same := len(ssOrder) == len(f.Schedule2)
	for i := range f.Schedule2 {
		if same && ssOrder[i] != f.Schedule2[i] {
			same = false
		}
	}
	v := 0
	if same {
		v = 1
	}
	check("single-source(M) yields schedule2", 1, v)
	return res, nil
}

// E4 reproduces Figure 8: the symmetric-acyclic-graph counter-example —
// S1 completes n iterations in 5n−1 cycles, S2 in 4n; the single-source
// transform cannot find S2, the single-sink transform (and the general
// case) can.
func E4() (*Result, error) {
	f := paperex.NewFig8()
	m := machine.SingleUnit(4)
	t := tables.New("E4 (Figure 8): single-source counter-example",
		"quantity", "paper", "measured")
	res := &Result{ID: "E4", Table: t, Passed: true}
	check := func(name string, paper, got int) {
		t.Add(name, paper, got)
		if paper != got {
			res.Passed = false
		}
	}
	s1, err := loops.Evaluate(f.G, m, f.S1)
	if err != nil {
		return nil, err
	}
	s2, err := loops.Evaluate(f.G, m, f.S2)
	if err != nil {
		return nil, err
	}
	for _, n := range []int{1, 4, 10} {
		check(fmt.Sprintf("S1 completion(%d) = 5n-1", n), 5*n-1, s1.CompletionN(n))
		check(fmt.Sprintf("S2 completion(%d) = 4n", n), 4*n, s2.CompletionN(n))
	}
	src, err := loops.SingleSourceOrder(f.G, m, f.N1)
	if err != nil {
		return nil, err
	}
	srcEval, err := loops.Evaluate(f.G, m, src)
	if err != nil {
		return nil, err
	}
	check("single-source II (suboptimal)", 5, srcEval.II)
	snk, err := loops.SingleSinkOrder(f.G, m, f.N3)
	if err != nil {
		return nil, err
	}
	snkEval, err := loops.Evaluate(f.G, m, snk)
	if err != nil {
		return nil, err
	}
	check("single-sink II (optimal)", 4, snkEval.II)
	best, err := loops.ScheduleSingleBlockLoop(f.G, m)
	if err != nil {
		return nil, err
	}
	check("general-case II", 4, best.II)
	return res, nil
}

// traceSchedulers returns the named static-order producers compared in T1,
// T2 and T5: Algorithm Lookahead plus every local baseline.
func traceSchedulers(opt core.Options) map[string]func(*graph.Graph, *machine.Machine) ([]graph.NodeID, error) {
	out := map[string]func(*graph.Graph, *machine.Machine) ([]graph.NodeID, error){
		"anticipatory": func(g *graph.Graph, m *machine.Machine) ([]graph.NodeID, error) {
			res, err := core.LookaheadOpts(g, m, opt)
			if err != nil {
				return nil, err
			}
			return res.StaticOrder(), nil
		},
	}
	for _, b := range baseline.All() {
		b := b
		out[b.Name()] = func(g *graph.Graph, m *machine.Machine) ([]graph.NodeID, error) {
			return baseline.ScheduleTrace(b, g, m)
		}
	}
	return out
}

// T1 compares dynamic trace completion across schedulers and window sizes.
func T1(seed int64, instances int) (*Result, error) {
	windows := []int{1, 2, 4, 8, 16}
	scheds := traceSchedulers(core.Options{})
	names := []string{"anticipatory", "rank-local", "critical-path", "gibbons-muchnick", "coffman-graham", "source-order"}
	t := tables.New(
		fmt.Sprintf("T1: dynamic completion vs window size (random latency-bound traces, %d instances, 1 FU)", instances),
		"scheduler", "W=1", "W=2", "W=4", "W=8", "W=16")
	res := &Result{ID: "T1", Table: t, Passed: true}

	// completions[name][wIdx] accumulates geometric-mean input.
	samples := map[string][][]float64{}
	for _, n := range names {
		samples[n] = make([][]float64, len(windows))
	}
	for i := 0; i < instances; i++ {
		r := rand.New(rand.NewSource(seed + int64(i)))
		g, err := workload.Trace(r, workload.DefaultTrace())
		if err != nil {
			return nil, err
		}
		for wi, w := range windows {
			m := machine.SingleUnit(w)
			for _, name := range names {
				order, err := scheds[name](g, m)
				if err != nil {
					return nil, err
				}
				sim, err := hw.SimulateTrace(g, m, order)
				if err != nil {
					return nil, err
				}
				samples[name][wi] = append(samples[name][wi], float64(sim.Completion))
			}
		}
	}
	for _, name := range names {
		row := []interface{}{name}
		for wi := range windows {
			row = append(row, tables.Summarize(samples[name][wi]).Mean)
		}
		t.Add(row...)
	}
	// Shape checks: anticipatory never loses on average, and its advantage
	// over rank-local is zero at W=1 (no lookahead to exploit).
	for wi := range windows {
		a := tables.Summarize(samples["anticipatory"][wi]).Mean
		rl := tables.Summarize(samples["rank-local"][wi]).Mean
		if a > rl+0.25 {
			res.Passed = false
			res.Notes = append(res.Notes, fmt.Sprintf("anticipatory (%.2f) worse than rank-local (%.2f) at W=%d", a, rl, windows[wi]))
		}
	}
	a2 := tables.Summarize(samples["anticipatory"][1]).Mean
	rl2 := tables.Summarize(samples["rank-local"][1]).Mean
	res.Notes = append(res.Notes, fmt.Sprintf("W=2 mean advantage over rank-local: %.2f cycles", rl2-a2))

	// Control condition: resource-bound dense blocks have no trailing idle
	// slots, so anticipatory and the strongest local baseline must tie.
	var cA, cR float64
	for i := 0; i < instances; i++ {
		r := rand.New(rand.NewSource(seed + 5000 + int64(i)))
		g, err := workload.Trace(r, workload.DenseTrace())
		if err != nil {
			return nil, err
		}
		m := machine.SingleUnit(4)
		oa, err := scheds["anticipatory"](g, m)
		if err != nil {
			return nil, err
		}
		sa, err := hw.SimulateTrace(g, m, oa)
		if err != nil {
			return nil, err
		}
		or, err := scheds["rank-local"](g, m)
		if err != nil {
			return nil, err
		}
		sr, err := hw.SimulateTrace(g, m, or)
		if err != nil {
			return nil, err
		}
		cA += float64(sa.Completion)
		cR += float64(sr.Completion)
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"control (dense resource-bound blocks, W=4): anticipatory %.2f vs rank-local %.2f — schedulers converge when blocks have no idle slots",
		cA/float64(instances), cR/float64(instances)))
	return res, nil
}

// T2 is the Delay_Idle_Slots ablation: Algorithm Lookahead with and without
// the idle-slot delaying pass.
func T2(seed int64, instances int) (*Result, error) {
	windows := []int{2, 4, 8}
	t := tables.New(
		fmt.Sprintf("T2: Delay_Idle_Slots ablation (%d instances)", instances),
		"variant", "W=2", "W=4", "W=8")
	res := &Result{ID: "T2", Table: t, Passed: true}
	full := make([][]float64, len(windows))
	ablated := make([][]float64, len(windows))
	for i := 0; i < instances; i++ {
		r := rand.New(rand.NewSource(seed + int64(i)))
		g, err := workload.Trace(r, workload.DefaultTrace())
		if err != nil {
			return nil, err
		}
		for wi, w := range windows {
			m := machine.SingleUnit(w)
			rf, err := core.LookaheadOpts(g, m, core.Options{})
			if err != nil {
				return nil, err
			}
			sf, err := hw.SimulateTrace(g, m, rf.StaticOrder())
			if err != nil {
				return nil, err
			}
			ra, err := core.LookaheadOpts(g, m, core.Options{SkipDelay: true})
			if err != nil {
				return nil, err
			}
			sa, err := hw.SimulateTrace(g, m, ra.StaticOrder())
			if err != nil {
				return nil, err
			}
			full[wi] = append(full[wi], float64(sf.Completion))
			ablated[wi] = append(ablated[wi], float64(sa.Completion))
		}
	}
	rowF := []interface{}{"full (with Delay_Idle_Slots)"}
	rowA := []interface{}{"ablated (no Delay_Idle_Slots)"}
	for wi := range windows {
		rowF = append(rowF, tables.Summarize(full[wi]).Mean)
		rowA = append(rowA, tables.Summarize(ablated[wi]).Mean)
	}
	t.Add(rowF...)
	t.Add(rowA...)
	for wi, w := range windows {
		f := tables.Summarize(full[wi]).Mean
		a := tables.Summarize(ablated[wi]).Mean
		if f > a+0.25 {
			res.Passed = false
			res.Notes = append(res.Notes, fmt.Sprintf("delaying hurt at W=%d: %.2f vs %.2f", w, f, a))
		}
	}
	return res, nil
}

// T3 compares loop schedulers on random single-block loops: steady-state
// cycles per iteration under the periodic model and the dynamic simulator.
func T3(seed int64, instances int) (*Result, error) {
	t := tables.New(
		fmt.Sprintf("T3: single-block loops, steady-state cycles/iteration (%d instances)", instances),
		"scheduler", "periodic II (mean)", "dynamic cyc/iter (mean)")
	res := &Result{ID: "T3", Table: t, Passed: true}
	m := machine.SingleUnit(8)

	type entry struct {
		name  string
		order func(*graph.Graph) ([]graph.NodeID, error)
	}
	schedulers := []entry{
		{"anticipatory (5.2.3)", func(g *graph.Graph) ([]graph.NodeID, error) {
			st, err := loops.ScheduleSingleBlockLoop(g, m)
			if err != nil {
				return nil, err
			}
			return st.Order, nil
		}},
		{"block-optimal (rank)", func(g *graph.Graph) ([]graph.NodeID, error) {
			li := g.LoopIndependent()
			s, err := rank.Makespan(li, m)
			if err != nil {
				return nil, err
			}
			return s.Permutation(), nil
		}},
		{"critical-path", func(g *graph.Graph) ([]graph.NodeID, error) {
			li := g.LoopIndependent()
			return baseline.CriticalPath{}.Order(li, m)
		}},
		{"source-order", func(g *graph.Graph) ([]graph.NodeID, error) {
			return sched.SourceOrder(g), nil
		}},
	}
	ii := map[string][]float64{}
	dyn := map[string][]float64{}
	for i := 0; i < instances; i++ {
		r := rand.New(rand.NewSource(seed + int64(i)))
		g, err := workload.Loop(r, workload.DefaultLoop())
		if err != nil {
			return nil, err
		}
		for _, e := range schedulers {
			order, err := e.order(g)
			if err != nil {
				return nil, err
			}
			st, err := loops.Evaluate(g, m, order)
			if err != nil {
				return nil, err
			}
			d, err := hw.SteadyState(g, m, order, hw.Options{Speculate: true})
			if err != nil {
				return nil, err
			}
			ii[e.name] = append(ii[e.name], float64(st.II))
			dyn[e.name] = append(dyn[e.name], d)
		}
	}
	for _, e := range schedulers {
		t.Add(e.name, tables.Summarize(ii[e.name]).Mean, tables.Summarize(dyn[e.name]).Mean)
	}
	a := tables.Summarize(ii["anticipatory (5.2.3)"]).Mean
	b := tables.Summarize(ii["block-optimal (rank)"]).Mean
	if a > b+1e-9 {
		res.Passed = false
		res.Notes = append(res.Notes, fmt.Sprintf("anticipatory II %.2f worse than block-optimal %.2f", a, b))
	}
	return res, nil
}

// T4 measures optimality against the exact oracle, internal/opt, on small
// restricted instances (the executable analogue of the paper's proofs).
func T4(seed int64, instances int) (*Result, error) {
	t := tables.New(
		fmt.Sprintf("T4: optimality vs exhaustive oracles (restricted model, %d instances each)", instances),
		"claim", "exact matches", "max gap (cycles)")
	res := &Result{ID: "T4", Table: t, Passed: true}

	// (a) Rank Algorithm vs the block optimum: the trace optimum with every
	// instruction in the window.
	exact, maxGap := 0, 0
	for i := 0; i < instances; i++ {
		r := rand.New(rand.NewSource(seed + int64(i)))
		g := randomRestrictedBlock(r, 2+r.Intn(9), 0.15+r.Float64()*0.4)
		m := machine.SingleUnit(1)
		s, err := rank.Makespan(g, m)
		if err != nil {
			return nil, err
		}
		best, _, _, err := opt.OptimalTrace(context.Background(), g, m.WithWindow(g.Len()), opt.Limits{})
		if err != nil {
			return nil, err
		}
		if gap := s.Makespan() - best; gap == 0 {
			exact++
		} else if gap > maxGap {
			maxGap = gap
		}
	}
	t.Add("rank = optimal (block)", fmt.Sprintf("%d/%d", exact, instances), maxGap)
	if exact != instances {
		res.Passed = false
	}

	// (b) Lookahead vs the best static order under the window simulator.
	exact, maxGap = 0, 0
	for i := 0; i < instances; i++ {
		r := rand.New(rand.NewSource(seed + 1000 + int64(i)))
		g := randomRestrictedTrace(r)
		m := machine.SingleUnit(1 + r.Intn(4))
		la, err := core.Lookahead(g, m)
		if err != nil {
			return nil, err
		}
		sim, err := hw.SimulateTrace(g, m, la.StaticOrder())
		if err != nil {
			return nil, err
		}
		best, _, _, err := opt.OptimalTrace(context.Background(), g, m, opt.Limits{})
		if err != nil {
			return nil, err
		}
		if gap := sim.Completion - best; gap == 0 {
			exact++
		} else if gap > maxGap {
			maxGap = gap
		}
	}
	t.Add("lookahead = optimal (trace)", fmt.Sprintf("%d/%d", exact, instances), maxGap)
	if exact*10 < instances*8 { // reproduction finding: ≥ 80% exact, small gaps
		res.Passed = false
	}

	// (c) General-case loop scheduling vs exhaustive body orders.
	exact, maxGap = 0, 0
	for i := 0; i < instances; i++ {
		r := rand.New(rand.NewSource(seed + 2000 + int64(i)))
		g := randomRestrictedLoop(r)
		m := machine.SingleUnit(4)
		st, err := loops.ScheduleSingleBlockLoop(g, m)
		if err != nil {
			return nil, err
		}
		best, err := opt.OptimalLoopII(g, m)
		if err != nil {
			return nil, err
		}
		if gap := st.II - best.II; gap == 0 {
			exact++
		} else if gap > maxGap {
			maxGap = gap
		}
	}
	t.Add("general case = optimal (loop II)", fmt.Sprintf("%d/%d", exact, instances), maxGap)
	if exact*10 < instances*8 {
		res.Passed = false
	}
	res.Notes = append(res.Notes,
		"reproduction finding: the published merge/transform heuristics miss the exhaustive optimum on a small fraction of instances by ≤ 2 cycles; see EXPERIMENTS.md")
	return res, nil
}

// T5 evaluates the §4.2 heuristic regime: multiple functional units,
// non-unit execution times, latencies > 1.
func T5(seed int64, instances int) (*Result, error) {
	t := tables.New(
		fmt.Sprintf("T5: general machine models, mean dynamic completion (%d instances, W=4)", instances),
		"scheduler", "2-wide superscalar", "rs6000-like 3-unit", "1 FU multi-cycle")
	res := &Result{ID: "T5", Table: t, Passed: true}
	scheds := traceSchedulers(core.Options{})
	names := []string{"anticipatory", "rank-local", "critical-path", "gibbons-muchnick", "source-order"}

	cfgs := []struct {
		name string
		m    *machine.Machine
		gen  func(*rand.Rand) (*graph.Graph, error)
	}{
		{"2-wide", machine.Superscalar(2, 4), func(r *rand.Rand) (*graph.Graph, error) {
			c := workload.DefaultTrace()
			c.Latency = workload.Mixed
			return workload.Trace(r, c)
		}},
		{"rs6000", machine.RS6000(4), func(r *rand.Rand) (*graph.Graph, error) {
			c := workload.DefaultTrace()
			c.Latency = workload.Mixed
			c.Classes = 3
			return workload.Trace(r, c)
		}},
		{"multicycle", machine.SingleUnit(4), func(r *rand.Rand) (*graph.Graph, error) {
			c := workload.DefaultTrace()
			c.Latency = workload.Mixed
			c.MaxExec = 4
			return workload.Trace(r, c)
		}},
	}
	samples := map[string][][]float64{}
	for _, n := range names {
		samples[n] = make([][]float64, len(cfgs))
	}
	for ci, cfg := range cfgs {
		for i := 0; i < instances; i++ {
			r := rand.New(rand.NewSource(seed + int64(ci*1000+i)))
			g, err := cfg.gen(r)
			if err != nil {
				return nil, err
			}
			for _, name := range names {
				order, err := scheds[name](g, cfg.m)
				if err != nil {
					return nil, err
				}
				sim, err := hw.SimulateTrace(g, cfg.m, order)
				if err != nil {
					return nil, err
				}
				samples[name][ci] = append(samples[name][ci], float64(sim.Completion))
			}
		}
	}
	for _, name := range names {
		row := []interface{}{name}
		for ci := range cfgs {
			row = append(row, tables.Summarize(samples[name][ci]).Mean)
		}
		t.Add(row...)
	}
	for ci, cfg := range cfgs {
		a := tables.Summarize(samples["anticipatory"][ci]).Mean
		so := tables.Summarize(samples["source-order"][ci]).Mean
		if a > so {
			res.Passed = false
			res.Notes = append(res.Notes, fmt.Sprintf("anticipatory lost to source order on %s", cfg.name))
		}
	}
	return res, nil
}

func randomRestrictedBlock(r *rand.Rand, n int, p float64) *graph.Graph {
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

func randomRestrictedTrace(r *rand.Rand) *graph.Graph {
	nblocks := 2 + r.Intn(2)
	per := 2 + r.Intn(2)
	g := graph.New(nblocks * per)
	var bn [][]graph.NodeID
	for b := 0; b < nblocks; b++ {
		var ids []graph.NodeID
		for i := 0; i < per; i++ {
			ids = append(ids, g.AddNode("n", 1, 0, b))
		}
		bn = append(bn, ids)
	}
	for b := 0; b < nblocks; b++ {
		for i := 0; i < per; i++ {
			for j := i + 1; j < per; j++ {
				if r.Float64() < 0.4 {
					g.MustEdge(bn[b][i], bn[b][j], r.Intn(2), 0)
				}
			}
			if b+1 < nblocks {
				for j := 0; j < per; j++ {
					if r.Float64() < 0.3 {
						g.MustEdge(bn[b][i], bn[b+1][j], r.Intn(2), 0)
					}
				}
			}
		}
	}
	return g
}

func randomRestrictedLoop(r *rand.Rand) *graph.Graph {
	n := 2 + r.Intn(5)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddUnit("n")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.35 {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(2), 0)
			}
		}
	}
	u := graph.NodeID(r.Intn(n))
	v := graph.NodeID(r.Intn(n))
	g.MustEdge(u, v, r.Intn(2), 1)
	return g
}

// All runs every experiment with default sizes.
func All(seed int64) ([]*Result, error) {
	var out []*Result
	for _, f := range []func() (*Result, error){E1, E2, E3, E4} {
		r, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	type tf func(int64, int) (*Result, error)
	for _, f := range []struct {
		fn tf
		n  int
	}{{T1, 25}, {T2, 25}, {T3, 25}, {T3b, 25}, {T4, 60}, {T5, 15}, {T7, 20}, {A1, 20}, {A2, 15}} {
		r, err := f.fn(seed, f.n)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
