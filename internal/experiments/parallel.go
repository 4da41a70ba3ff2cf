package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"aisched"
	"aisched/internal/machine"
	"aisched/internal/tables"
	"aisched/internal/workload"
)

// P3 measures the speculative parallel trace scheduler across trace length
// and barrier rate: sequential vs forced-parallel wall clock, the join
// verification hit rate, and the blocks recomputed on mismatches. Every
// parallel result is checked bit-identical to the sequential walk — that is
// the acceptance that must hold on any host.
//
// The wall-clock speedup is a function of the machine: segment workers run
// concurrently, so the walk scales only with *physical* cores — and Go
// cannot tell those apart from an oversubscribed GOMAXPROCS (CI runners,
// `-cpu=4` on a 1-core container). The speedup column is therefore
// advisory: reported always, noted when it misses the design target (>= 2x
// on the 256-block barrier-rich trace at GOMAXPROCS >= 4; the README/bench
// target is 3x), never a failure. No-barrier traces are the designed miss
// regime: cut points get low scores, joins mismatch, and the driver
// recomputes — the row documents that the fallback stays correct, not that
// it is fast.
func P3(seed int64, reps int) (*Result, error) {
	if reps < 1 {
		reps = 1
	}
	m := machine.SingleUnit(4)
	procs := runtime.GOMAXPROCS(0)
	nseg := procs
	if nseg < 4 {
		nseg = 4
	}
	t := tables.New(fmt.Sprintf("P3: speculative parallel trace scheduling (forced %d segments, GOMAXPROCS=%d, best of %d)", nseg, procs, reps),
		"trace", "blocks", "seq µs", "par µs", "speedup", "verified", "fallback blocks")
	res := &Result{ID: "P3", Table: t, Passed: true}

	cases := []struct {
		name         string
		blocks       int
		barrierEvery int
	}{
		{"barrier-rich", 64, 2},
		{"barrier-rich", 256, 2},
		{"sparse-barrier", 256, 6},
		{"no-barrier", 64, 0},
	}
	for _, c := range cases {
		cfg := workload.DefaultLongTrace(c.blocks)
		cfg.BarrierEvery = c.barrierEvery
		g, err := workload.LongTrace(rand.New(rand.NewSource(seed+int64(100*c.blocks+c.barrierEvery))), cfg)
		if err != nil {
			return nil, err
		}

		seqSched := aisched.NewScheduler(aisched.SchedulerOptions{
			CacheCapacity: -1, StepCacheCapacity: -1, ParallelTrace: -1,
		})
		want, err := seqSched.ScheduleTrace(g, m)
		if err != nil {
			return nil, err
		}
		seqNS, err := bestTraceNS(reps, seqSched, g, m)
		if err != nil {
			return nil, err
		}

		parSched := aisched.NewScheduler(aisched.SchedulerOptions{
			CacheCapacity: -1, StepCacheCapacity: -1, ParallelTrace: nseg,
		})
		before := aisched.SpecTraceCounters()
		got, err := parSched.ScheduleTrace(g, m)
		if err != nil {
			return nil, err
		}
		if diff := specDiff(want, got); diff != "" {
			res.Passed = false
			res.Notes = append(res.Notes, fmt.Sprintf("%s/%d: parallel result diverged: %s", c.name, c.blocks, diff))
			continue
		}
		parNS, err := bestTraceNS(reps, parSched, g, m)
		if err != nil {
			return nil, err
		}
		after := aisched.SpecTraceCounters()
		segs := after.Segments - before.Segments
		hits := after.Hits - before.Hits
		fallback := after.FallbackBlocks - before.FallbackBlocks
		hit := 0.0
		if segs > 0 {
			hit = float64(hits) / float64(segs)
		}

		speed := float64(seqNS) / float64(parNS)
		t.Add(c.name, c.blocks,
			seqNS/1000, parNS/1000, fmt.Sprintf("%.2fx", speed),
			fmt.Sprintf("%d/%d (%.0f%%)", hits, segs, 100*hit), fallback)

		if c.barrierEvery == 2 && hit < 0.5 {
			res.Passed = false
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%s/%d: join verification hit rate %.0f%% below 50%%", c.name, c.blocks, 100*hit))
		}
		if c.barrierEvery == 2 && c.blocks == 256 && procs >= 4 && speed < 2 {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"advisory: %s/%d speedup %.2fx below the 2x target at GOMAXPROCS=%d (oversubscribed or shared cores?)",
				c.name, c.blocks, speed, procs))
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"speedup is advisory (GOMAXPROCS=%d may oversubscribe physical cores); the gates are bit-identity and the barrier-trace hit rate", procs))
	return res, nil
}

// bestTraceNS times reps whole-trace calls and keeps the fastest.
func bestTraceNS(reps int, sc *aisched.Scheduler, g *aisched.Graph, m *machine.Machine) (int64, error) {
	best := int64(1) << 62
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := sc.ScheduleTrace(g, m); err != nil {
			return 0, err
		}
		if d := time.Since(t0).Nanoseconds(); d < best {
			best = d
		}
	}
	return best, nil
}

// specDiff reports the first placement difference between two trace results,
// or "" when they are bit-identical.
func specDiff(want, got *aisched.TraceResult) string {
	if len(got.Order) != len(want.Order) {
		return fmt.Sprintf("order length %d vs %d", len(got.Order), len(want.Order))
	}
	for i := range want.Order {
		if got.Order[i] != want.Order[i] {
			return fmt.Sprintf("Order[%d] = %d vs %d", i, got.Order[i], want.Order[i])
		}
	}
	for v := range want.S.Start {
		if got.S.Start[v] != want.S.Start[v] || got.S.Unit[v] != want.S.Unit[v] {
			return fmt.Sprintf("node %d placed (%d,%d) vs (%d,%d)", v,
				got.S.Start[v], got.S.Unit[v], want.S.Start[v], want.S.Unit[v])
		}
	}
	return ""
}
