package experiments

import (
	"fmt"

	"aisched/internal/graph"
	"aisched/internal/hw"
	"aisched/internal/loops"
	"aisched/internal/machine"
	"aisched/internal/obs"
	"aisched/internal/paperex"
	"aisched/internal/tables"
)

// O1 exercises the observability layer on the paper's Figure 3
// partial-products loop: it simulates the program-order and anticipatory
// schedules under the W=4 window model with a tracer attached and breaks the
// dynamic cost down by stall reason and idle-slot fill kind. The checks pin
// the invariants the metrics are built on: the stall breakdown partitions
// the stall cycles, the anticipatory schedule wins, and — the paper's
// headline effect — it wins by filling idle slots with instructions from a
// *different* iteration (cross-block fills).
func O1() (*Result, error) {
	f := paperex.NewFig3()
	m := machine.SingleUnit(4)
	const iters = 20
	t := tables.New(
		fmt.Sprintf("O1: stall breakdown and idle-slot fills (Figure 3 loop, single unit, n=%d)", iters),
		"schedule", "W", "completion", "stalls", "dep-wait", "window-full",
		"head-blocked", "unit-busy", "same-blk fills", "cross-blk fills")
	res := &Result{ID: "O1", Table: t, Passed: true}

	sched := obs.NewRecorder()
	best, err := loops.ScheduleLoopOpts(f.G, m, loops.Opts{Tracer: sched})
	if err != nil {
		return nil, err
	}
	ss := sched.Stats()
	res.Notes = append(res.Notes,
		fmt.Sprintf("loop scheduler tried %d II candidates, best II = %d", ss.IICandidates, ss.BestII))
	if ss.IICandidates == 0 || ss.BestII != best.II {
		res.Passed = false
		res.Notes = append(res.Notes, "FAIL: scheduler pass trace disagrees with the returned schedule")
	}

	rows := []struct {
		name  string
		w     int
		order []graph.NodeID
	}{
		{"program order", 1, f.Schedule1},
		{"anticipatory (5.2)", 1, best.Order},
		{"program order", 4, f.Schedule1},
		{"anticipatory (5.2)", 4, best.Order},
	}
	stats := make([]obs.Stats, len(rows))
	for i, row := range rows {
		rec := obs.NewRecorder()
		sim, err := hw.SimulateLoop(f.G, machine.SingleUnit(row.w), row.order, iters,
			hw.Options{Speculate: true, Tracer: rec})
		if err != nil {
			return nil, err
		}
		s := rec.Stats()
		stats[i] = s
		sum := 0
		for _, n := range s.StallByReason {
			sum += n
		}
		if sum != s.StallCycles {
			res.Passed = false
			res.Notes = append(res.Notes, fmt.Sprintf(
				"FAIL: %s W=%d stall breakdown sums to %d, total is %d", row.name, row.w, sum, s.StallCycles))
		}
		if s.Completion != sim.Completion {
			res.Passed = false
			res.Notes = append(res.Notes, fmt.Sprintf(
				"FAIL: %s W=%d traced completion %d != simulator result %d", row.name, row.w, s.Completion, sim.Completion))
		}
		t.Add(row.name, row.w, s.Completion, s.StallCycles,
			s.StallByReason[obs.DepWait.String()],
			s.StallByReason[obs.WindowFull.String()],
			s.StallByReason[obs.HeadBlocked.String()],
			s.StallByReason[obs.UnitBusy.String()],
			s.SameBlockFills, s.CrossBlockFills)
	}
	// W=1: no hardware reordering, the static schedule is everything.
	if stats[1].Completion >= stats[0].Completion {
		res.Passed = false
		res.Notes = append(res.Notes, "FAIL: W=1 anticipatory schedule does not beat program order")
	}
	// W=4: the anticipatory schedule still wins, and it does so by moving
	// work across iteration boundaries.
	prog, anti := stats[2], stats[3]
	if anti.Completion >= prog.Completion {
		res.Passed = false
		res.Notes = append(res.Notes, "FAIL: W=4 anticipatory schedule does not beat program order")
	}
	if anti.CrossBlockFills == 0 {
		res.Passed = false
		res.Notes = append(res.Notes, "FAIL: anticipatory schedule fills no idle slots across iterations")
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"static schedule alone (W=1): %d → %d cycles; with the W=4 window: %d → %d",
		stats[0].Completion, stats[1].Completion, prog.Completion, anti.Completion))
	return res, nil
}
