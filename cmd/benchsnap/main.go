// Command benchsnap records a benchmark snapshot for the facade-level
// workloads the PR-to-PR regression budget is measured against — the three
// single-request paths (ScheduleTrace, SimulateTrace, ScheduleLoop, all with
// tracing disabled) plus the batch-pipeline throughput workloads (BatchDup0,
// BatchDup90, SerialDup90: a 64-item trace batch at 0% and ~90% duplicate
// rates through ScheduleBatch, and the same ~90%-duplicate items through the
// serial uncached entry point) plus the streaming workloads (StreamPush: one
// steady-state k=1 push on an unending rebased trace; StreamFirstResult: a
// cold k=0 scheduler plus the one push that finalizes the first block — the
// time-to-first-schedule the streaming API exists for) — and writes it as
// JSON, or compares a fresh run against a committed snapshot and fails
// beyond the tolerance:
//
// PR 8 adds the repetitive-block workloads the structural step cache is
// built for (ScheduleTraceRepetitive, StreamPushDup: a 64-block trace at
// ~75% duplicate-block rate, batch and steady-state stream, plus their
// step-cache-off twins for the amortized speedup lines).
//
// PR 10 adds the long-trace workloads behind the speculative parallel path
// (ScheduleTraceLong256: a 256-block half-barrier trace; ScheduleTraceLong64:
// a 64-block barrier-free mixed-latency trace). The gated entries pin
// ParallelTrace off — the sequential walk is deterministic on any host,
// while the parallel path's timing and allocations scale with GOMAXPROCS —
// and the parallel speedup is printed as a non-gated diagnostic line
// (auto vs off on the 256-block trace, with the speculation hit rate).
//
//	go run ./cmd/benchsnap -o BENCH_PR12.json
//	go run ./cmd/benchsnap -compare BENCH_PR12.json
//
// A snapshot also records the host it was taken on: NumCPU, GOMAXPROCS and
// the noise floor (the widest ns/op spread across one benchmark's runs).
// allocs/op depend on GOMAXPROCS (the loop candidate search, for one, fans
// out over GOMAXPROCS workers), so -compare measures at the snapshot's
// GOMAXPROCS, prints both hosts, and refuses a snapshot that did not record
// one.
//
// -cpuprofile and -memprofile write pprof profiles covering the benchmark
// measurements, for digging into a regression the gate reports:
//
//	go run ./cmd/benchsnap -cpuprofile cpu.out -memprofile mem.out
//
// Comparison prints a per-benchmark delta table and exits non-zero if any
// allocs/op or ns/op delta exceeds ±tol% (default 2%), enforcing the ROADMAP
// regression budget mechanically. Each benchmark is measured runs times
// (default 3) and the best run is kept. allocs/op is deterministic, so its
// budget is enforced exactly as configured; wall-clock is not, so the
// effective ns/op tolerance is max(tol, the spread across this invocation's
// own runs, -noisefloor). The default noise floor (25%) keeps the gate
// reliable on shared/virtualized hardware whose minute-scale load drift
// dwarfs the budget; set -noisefloor 0 on a quiet dedicated machine to
// enforce the strict ±tol on wall-clock too.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"aisched"
	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/paperex"
	"aisched/internal/workload"
)

// batchN is the number of scheduling requests per batch benchmark op; the
// printed amortized ns/block figures divide ns/op by it.
const batchN = 64

type entry struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

type snapshot struct {
	Go         string           `json:"go"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	Host       host             `json:"host"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

// host describes the machine a snapshot was taken on. Snapshots older than
// the field decode it as zeros.
type host struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// NoiseFloorPct is the widest ns/op spread, in percent of the fastest
	// run, that any one benchmark showed across this invocation's runs.
	NoiseFloorPct float64 `json:"noise_floor_pct"`
}

func (h host) String() string {
	if h.GOMAXPROCS == 0 {
		return "unrecorded"
	}
	return fmt.Sprintf("NumCPU=%d GOMAXPROCS=%d noise floor %.1f%%", h.NumCPU, h.GOMAXPROCS, h.NoiseFloorPct)
}

func main() {
	out := flag.String("o", "BENCH_PR12.json", "output file (ignored with -compare)")
	compare := flag.String("compare", "", "compare against this snapshot instead of writing one")
	tol := flag.Float64("tol", 2.0, "regression budget in percent for -compare")
	noisefloor := flag.Float64("noisefloor", 25.0, "minimum ns/op tolerance in percent (wall-clock noise on shared hardware)")
	runs := flag.Int("runs", 3, "measurements per benchmark (best run kept)")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-measurement deadline; a stalled benchmark is reported by name instead of hanging the run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering every benchmark measurement to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile (after a final GC) to this file")
	flag.Parse()

	// flushProfiles stops the CPU profile and writes the allocation profile.
	// It must run on every exit path, including the os.Exit in the -compare
	// branch, so it is invoked explicitly rather than deferred.
	flushProfiles := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		flushProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memprofile != "" {
		stopCPU := flushProfiles
		path := *memprofile
		flushProfiles = func() {
			stopCPU()
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
		}
	}
	defer flushProfiles()

	// A comparison measures at the GOMAXPROCS its snapshot was taken at, so
	// the allocs/op it gates on count the same worker fan-out.
	var old snapshot
	if *compare != "" {
		old = loadSnapshot(*compare)
		if old.Host.GOMAXPROCS < 1 {
			fatal(fmt.Errorf("%s records no GOMAXPROCS, and allocs/op depend on it; record a new snapshot with -o", *compare))
		}
		runtime.GOMAXPROCS(old.Host.GOMAXPROCS)
	}

	// The same workloads as BenchmarkScheduleTrace / BenchmarkSimulateTrace /
	// BenchmarkScheduleLoop in bench_test.go: a seed-11 random trace and the
	// paper's Figure 3 loop, on the single-unit W=4 machine.
	g, err := workload.Trace(rand.New(rand.NewSource(11)), workload.DefaultTrace())
	if err != nil {
		fatal(err)
	}
	m := machine.SingleUnit(4)
	res, err := aisched.ScheduleTrace(g, m)
	if err != nil {
		fatal(err)
	}
	order := res.StaticOrder()
	f3 := paperex.NewFig3()

	// Batch throughput workloads: batchN trace requests where every duplicate
	// is an independently rebuilt copy (fresh labels, shuffled edge insertion
	// order), so the schedule cache must match by content fingerprint.
	// BatchDup0 is all-distinct (worst case for the cache); BatchDup90 keeps
	// ~10% distinct graphs; SerialDup90 pushes the same ~90%-duplicate items
	// through the uncached package-level path, so SerialDup90/BatchDup90 is
	// the amortized speedup the throughput layer buys on duplicate-heavy
	// streams. A fresh Scheduler per op keeps every measurement cold-cache.
	batch0 := batchItems(batchN, batchN)
	batch90 := batchItems(batchN, 7)

	// Streaming workloads (mirroring BenchmarkStreamPush and
	// BenchmarkStreamFirstResult in bench_test.go): the same seed-11 trace as
	// the single-request paths, split into StreamBlocks. StreamPush measures
	// one steady-state k=1 push on an unending stream (the trace repeated
	// with dependence IDs rebased to each cycle's fresh stream IDs);
	// StreamFirstResult measures a cold k=0 scheduler plus the single push
	// after which the first block's schedule is final.
	sblocks, _, err := aisched.TraceStreamBlocks(g)
	if err != nil {
		fatal(err)
	}
	const streamCycles = 64
	var streamLong []aisched.StreamBlock
	for c := 0; c < streamCycles; c++ {
		off := graph.NodeID(c * g.Len())
		for _, b := range sblocks {
			nb := aisched.StreamBlock{Nodes: b.Nodes, Deps: make([]aisched.StreamDep, len(b.Deps))}
			for i, d := range b.Deps {
				nb.Deps[i] = aisched.StreamDep{Src: d.Src + off, Dst: d.Dst + off, Latency: d.Latency}
			}
			streamLong = append(streamLong, nb)
		}
	}
	streamWarm := 2 * len(sblocks)

	// Repetitive-block workloads (the structural step cache's target): a
	// 64-block trace drawn from 16 serial-chain templates (≥75% of blocks
	// are duplicates of an earlier one). Latency chains stall the single
	// unit, so every step chops and the carried suffix reaches a periodic
	// steady state — the regime where merge inputs recur and the step cache
	// replays them. The batch pair measures one whole-trace call (fresh
	// Scheduler per op, the cache warming over the trace's own blocks); the
	// stream pair measures one steady-state k=1 push on the unending
	// repetition of the same trace.
	repSeq, repG := repetitiveTrace()
	dupLong := repetitiveStream(repSeq, 8)
	dupWarm := 2 * len(repSeq)

	// Long-trace workloads (the speculative parallel path's regime): a
	// 256-block trace with every second block a natural barrier, and a
	// 64-block barrier-free mixed-latency trace. The gated entries measure
	// the sequential walk (ParallelTrace pinned off) with both caches
	// disabled, so the numbers are host-independent; the parallel speedup is
	// reported separately below, outside the regression gate.
	longBarrier, err := workload.LongTrace(rand.New(rand.NewSource(256)), workload.DefaultLongTrace(256))
	if err != nil {
		fatal(err)
	}
	longMixedCfg := workload.DefaultLongTrace(64)
	longMixedCfg.BarrierEvery = 0
	longMixed, err := workload.LongTrace(rand.New(rand.NewSource(64)), longMixedCfg)
	if err != nil {
		fatal(err)
	}
	longSeq := aisched.NewScheduler(aisched.SchedulerOptions{
		CacheCapacity: -1, StepCacheCapacity: -1, ParallelTrace: -1,
	})

	runBatch := func(b *testing.B, items []aisched.BatchItem) {
		for i := 0; i < b.N; i++ {
			sc := aisched.NewScheduler(aisched.SchedulerOptions{})
			for _, r := range sc.ScheduleBatch(items) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	}

	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"ScheduleTrace", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := aisched.ScheduleTrace(g, m); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SimulateTrace", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := aisched.SimulateTrace(g, m, order); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ScheduleLoop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := aisched.ScheduleLoop(f3.G, m); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"BatchDup0", func(b *testing.B) { runBatch(b, batch0) }},
		{"BatchDup90", func(b *testing.B) { runBatch(b, batch90) }},
		{"SerialDup90", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, it := range batch90 {
					if _, err := aisched.ScheduleTrace(it.G, it.M); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{"StreamPush", func(b *testing.B) {
			newWarm := func() *aisched.StreamScheduler {
				ss := aisched.NewStreamScheduler(m, aisched.StreamOptions{Lookahead: 1})
				for _, blk := range streamLong[:streamWarm] {
					if _, err := ss.Push(blk); err != nil {
						b.Fatal(err)
					}
				}
				return ss
			}
			ss := newWarm()
			i := streamWarm
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if i == len(streamLong) {
					b.StopTimer()
					ss = newWarm()
					i = streamWarm
					b.StartTimer()
				}
				if _, err := ss.Push(streamLong[i]); err != nil {
					b.Fatal(err)
				}
				i++
			}
		}},
		// The repetitive batch pair shares one Scheduler across ops (one
		// warm-up call before the timer): a long-running scheduler keeps its
		// step cache across requests, so this is the amortized regime the
		// cache targets. The whole-trace memo is disabled on both sides so
		// every op really walks the per-block loop.
		{"ScheduleTraceRepetitive", func(b *testing.B) {
			sc := aisched.NewScheduler(aisched.SchedulerOptions{CacheCapacity: -1})
			if _, err := sc.ScheduleTrace(repG, m); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sc.ScheduleTrace(repG, m); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ScheduleTraceRepetitiveOff", func(b *testing.B) {
			sc := aisched.NewScheduler(aisched.SchedulerOptions{CacheCapacity: -1, StepCacheCapacity: -1})
			if _, err := sc.ScheduleTrace(repG, m); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sc.ScheduleTrace(repG, m); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"StreamPushDup", func(b *testing.B) {
			benchStreamSteady(b, m, aisched.StreamOptions{Lookahead: 1}, dupLong, dupWarm)
		}},
		{"StreamPushDupOff", func(b *testing.B) {
			benchStreamSteady(b, m, aisched.StreamOptions{Lookahead: 1, StepCacheCapacity: -1}, dupLong, dupWarm)
		}},
		{"ScheduleTraceLong256", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := longSeq.ScheduleTrace(longBarrier, m); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ScheduleTraceLong64", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := longSeq.ScheduleTrace(longMixed, m); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"StreamFirstResult", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ss := aisched.NewStreamScheduler(m, aisched.StreamOptions{})
				res, err := ss.Push(sblocks[0])
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != 1 {
					b.Fatalf("first push finalized %d blocks, want 1", len(res))
				}
			}
		}},
	}

	snap := snapshot{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Host:       host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
		Benchmarks: map[string]entry{},
	}
	if *runs < 1 {
		*runs = 1
	}
	// The runs go round-robin over the benchmarks, so one benchmark's runs
	// are spread across the whole invocation instead of landing together in
	// one slow stretch of a shared host. noise[name] = spread of this
	// invocation's ns/op measurements in percent of the fastest run: the
	// measurable noise floor of this machine right now.
	worst, noise := map[string]int64{}, map[string]float64{}
	for i := 0; i < *runs; i++ {
		for _, bench := range benches {
			r, ok := benchmarkWithDeadline(bench.name, bench.fn, *timeout)
			if !ok {
				// A deadlocked benchmark (e.g. a scheduling hang) must fail
				// the gate with a diagnosis, not wedge the whole CI run.
				fatal(fmt.Errorf("benchmark %s stalled: no result within %v (run %d/%d)",
					bench.name, *timeout, i+1, *runs))
			}
			e := entry{
				NsPerOp:     r.NsPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			if best, ok := snap.Benchmarks[bench.name]; !ok || e.NsPerOp < best.NsPerOp {
				snap.Benchmarks[bench.name] = e
			}
			worst[bench.name] = max(worst[bench.name], e.NsPerOp)
		}
	}
	for _, bench := range benches {
		best := snap.Benchmarks[bench.name]
		noise[bench.name] = 100 * float64(worst[bench.name]-best.NsPerOp) / float64(best.NsPerOp)
		snap.Host.NoiseFloorPct = max(snap.Host.NoiseFloorPct, noise[bench.name])
		fmt.Printf("%-14s %10d ns/op %8d B/op %6d allocs/op\n",
			bench.name, best.NsPerOp, best.BytesPerOp, best.AllocsPerOp)
	}
	if s, bt := snap.Benchmarks["SerialDup90"], snap.Benchmarks["BatchDup90"]; bt.NsPerOp > 0 {
		fmt.Printf("amortized at ~90%% dup: batch %d ns/block vs serial %d ns/block (%.1fx)\n",
			bt.NsPerOp/batchN, s.NsPerOp/batchN, float64(s.NsPerOp)/float64(bt.NsPerOp))
	}
	if fr, st := snap.Benchmarks["StreamFirstResult"], snap.Benchmarks["ScheduleTrace"]; fr.NsPerOp > 0 {
		fmt.Printf("time-to-first-schedule: stream %d ns vs batch %d ns (%.1fx)\n",
			fr.NsPerOp, st.NsPerOp, float64(st.NsPerOp)/float64(fr.NsPerOp))
	}
	if on, off := snap.Benchmarks["ScheduleTraceRepetitive"], snap.Benchmarks["ScheduleTraceRepetitiveOff"]; on.NsPerOp > 0 {
		fmt.Printf("step cache at ~75%% dup (batch, amortized): %d -> %d ns/block (%.1fx)\n",
			off.NsPerOp/int64(len(repSeq)), on.NsPerOp/int64(len(repSeq)),
			float64(off.NsPerOp)/float64(on.NsPerOp))
	}
	if on, off := snap.Benchmarks["StreamPushDup"], snap.Benchmarks["StreamPushDupOff"]; on.NsPerOp > 0 {
		fmt.Printf("step cache at ~75%% dup (stream, per push): %d -> %d ns/op (%.1fx)\n",
			off.NsPerOp, on.NsPerOp, float64(off.NsPerOp)/float64(on.NsPerOp))
	}
	// Non-gated diagnostic: the speculative parallel speedup on the 256-block
	// barrier trace (auto vs pinned-off), with the speculation hit rate. Not
	// part of the snapshot — the parallel path's timing scales with the host's
	// core count, and on a single CPU the auto gate keeps it off entirely.
	{
		parSched := aisched.NewScheduler(aisched.SchedulerOptions{
			CacheCapacity: -1, StepCacheCapacity: -1, ParallelTrace: 0,
		})
		before := aisched.SpecTraceCounters()
		parOn, ok := benchmarkWithDeadline("ScheduleTraceLong256Par", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := parSched.ScheduleTrace(longBarrier, m); err != nil {
					b.Fatal(err)
				}
			}
		}, *timeout)
		d := aisched.SpecTraceCounters()
		off := snap.Benchmarks["ScheduleTraceLong256"]
		if ok && off.NsPerOp > 0 {
			if segs := d.Segments - before.Segments; segs > 0 {
				fmt.Printf("parallel trace (256 blocks, GOMAXPROCS=%d): %d -> %d ns/op (%.1fx), %d/%d segments verified, %d hint-seeded\n",
					runtime.GOMAXPROCS(0), off.NsPerOp, parOn.NsPerOp(),
					float64(off.NsPerOp)/float64(parOn.NsPerOp()),
					d.Hits-before.Hits, segs, d.LaneB-before.LaneB)
			} else {
				fmt.Printf("parallel trace (256 blocks): auto gate kept speculation off (GOMAXPROCS=%d)\n",
					runtime.GOMAXPROCS(0))
			}
		}
	}

	if *compare != "" {
		for name := range noise {
			noise[name] = max(noise[name], *noisefloor)
		}
		code := compareSnapshots(*compare, old, snap, noise, *tol)
		flushProfiles()
		os.Exit(code)
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// benchmarkWithDeadline runs one testing.Benchmark measurement on its own
// goroutine and gives up after d: ok is false when the benchmark never
// finished — the goroutine is left blocked (it cannot be killed) and the
// caller is expected to report the stall and exit. testing.Benchmark has no
// internal deadline, so without this a single deadlocked scheduling path
// would hang the whole -compare gate instead of failing it.
func benchmarkWithDeadline(name string, fn func(b *testing.B), d time.Duration) (testing.BenchmarkResult, bool) {
	done := make(chan testing.BenchmarkResult, 1)
	go func() {
		done <- testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-done:
		return r, true
	case <-timer.C:
		return testing.BenchmarkResult{}, false
	}
}

// loadSnapshot reads a snapshot written by -o.
func loadSnapshot(path string) snapshot {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return s
}

// compareSnapshots prints the per-benchmark deltas of cur against old (read
// from path) and returns the process exit code: 0 when every allocs/op delta
// is within ±tol percent and every ns/op delta is within ±max(tol, observed
// noise) percent, 1 otherwise (including benchmarks missing on either side).
func compareSnapshots(path string, old, cur snapshot, noise map[string]float64, tol float64) int {
	fmt.Printf("\ncomparing against %s (budget ±%.1f%%; ns/op tolerance widens to this run's noise floor)\n", path, tol)
	fmt.Printf("snapshot host: %s\ncurrent host:  %s\n", old.Host, cur.Host)
	// Walk the sorted union of both snapshots' benchmark names so every
	// out-of-tolerance (or missing) benchmark is reported before the nonzero
	// exit, not just the first.
	names := map[string]bool{}
	for name := range old.Benchmarks {
		names[name] = true
	}
	for name := range cur.Benchmarks {
		names[name] = true
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	fail := false
	for _, bench := range sorted {
		oe, okOld := old.Benchmarks[bench]
		ce, okCur := cur.Benchmarks[bench]
		if !okOld || !okCur {
			fmt.Printf("%-14s MISSING (old %v, current %v)\n", bench, okOld, okCur)
			fail = true
			continue
		}
		nsDelta := 100 * (float64(ce.NsPerOp) - float64(oe.NsPerOp)) / float64(oe.NsPerOp)
		allocDelta := 100 * (float64(ce.AllocsPerOp) - float64(oe.AllocsPerOp)) / float64(oe.AllocsPerOp)
		nsTol := max(tol, noise[bench])
		verdict := "ok"
		if nsDelta > nsTol || nsDelta < -nsTol {
			verdict = "FAIL(ns)"
			fail = true
		}
		if allocDelta > tol || allocDelta < -tol {
			verdict = "FAIL(allocs)"
			fail = true
		}
		fmt.Printf("%-14s ns/op %10d -> %10d (%+6.2f%%, tol ±%.1f%%)  allocs/op %6d -> %6d (%+6.2f%%)  %s\n",
			bench, oe.NsPerOp, ce.NsPerOp, nsDelta, nsTol,
			oe.AllocsPerOp, ce.AllocsPerOp, allocDelta, verdict)
	}
	if fail {
		fmt.Println("benchsnap: outside regression budget (refresh the snapshot with -o if intentional)")
		return 1
	}
	fmt.Println("benchsnap: within regression budget")
	return 0
}

// batchItems builds n trace-scheduling requests drawn from distinct base
// graphs; every duplicate is rebuilt node-for-node with fresh labels and a
// shuffled edge insertion order, so duplicate detection must come from the
// content fingerprint, never pointer identity.
func batchItems(n, distinct int) []aisched.BatchItem {
	r := rand.New(rand.NewSource(77))
	m := machine.SingleUnit(4)
	bases := make([]*graph.Graph, distinct)
	for i := range bases {
		g, err := workload.Trace(r, workload.DefaultTrace())
		if err != nil {
			fatal(err)
		}
		bases[i] = g
	}
	items := make([]aisched.BatchItem, n)
	for i := range items {
		items[i] = aisched.BatchItem{G: rebuild(bases[i%distinct], r), M: m, Kind: aisched.BatchTrace}
	}
	return items
}

// rebuild reconstructs g with fresh labels and shuffled edge order — the same
// scheduling instance arriving down a different front-end path.
func rebuild(g *graph.Graph, r *rand.Rand) *graph.Graph {
	h := graph.New(g.Len())
	for v := 0; v < g.Len(); v++ {
		nd := g.Node(graph.NodeID(v))
		h.AddNode(fmt.Sprintf("b%d", v), nd.Exec, nd.Class, nd.Block)
	}
	var es []graph.Edge
	for v := 0; v < g.Len(); v++ {
		es = append(es, g.Out(graph.NodeID(v))...)
	}
	for _, i := range r.Perm(len(es)) {
		h.MustEdge(es[i].Src, es[i].Dst, es[i].Latency, es[i].Distance)
	}
	return h
}

// repetitiveTrace builds the repetitive-block workload: 64 blocks drawn from
// 16 serial-chain templates (chain length 5-7, per-edge latency 1-2), as a
// whole-trace graph plus the template index sequence for the stream twin.
// With 16 templates over 64 blocks at least 75% of blocks duplicate an
// earlier one's structure.
func repetitiveTrace() ([]int, *graph.Graph) {
	r := rand.New(rand.NewSource(5))
	type tmpl struct{ lat []int } // chain of len(lat)+1 nodes
	tmpls := make([]tmpl, 16)
	for i := range tmpls {
		lat := make([]int, 4+r.Intn(3))
		for j := range lat {
			lat[j] = 1 + r.Intn(2)
		}
		tmpls[i] = tmpl{lat: lat}
	}
	seq := make([]int, batchN)
	for i := range seq {
		seq[i] = r.Intn(len(tmpls))
	}
	total := 0
	for _, ti := range seq {
		total += len(tmpls[ti].lat) + 1
	}
	g := graph.New(total)
	id := 0
	for b, ti := range seq {
		tm := tmpls[ti]
		base := id
		for i := 0; i <= len(tm.lat); i++ {
			g.AddNode(fmt.Sprintf("r%d_%d", b, i), 1, 0, b)
			id++
		}
		for i, l := range tm.lat {
			g.MustEdge(graph.NodeID(base+i), graph.NodeID(base+i+1), l, 0)
		}
	}
	return seq, g
}

// repetitiveStream unrolls the repetitive trace into an unending stream:
// cycles repetitions of the template sequence with stream IDs rebased per
// block, mirroring streamLong's construction.
func repetitiveStream(seq []int, cycles int) []aisched.StreamBlock {
	// Rebuild the template latency chains deterministically (same seed as
	// repetitiveTrace) so both twins describe identical block structures.
	r := rand.New(rand.NewSource(5))
	lats := make([][]int, 16)
	for i := range lats {
		lat := make([]int, 4+r.Intn(3))
		for j := range lat {
			lat[j] = 1 + r.Intn(2)
		}
		lats[i] = lat
	}
	var long []aisched.StreamBlock
	id := 0
	for c := 0; c < cycles; c++ {
		for _, ti := range seq {
			lat := lats[ti]
			n := len(lat) + 1
			nodes := make([]aisched.StreamNode, n)
			for i := range nodes {
				nodes[i] = aisched.StreamNode{Label: "r", Exec: 1, Class: 0}
			}
			deps := make([]aisched.StreamDep, len(lat))
			for i, l := range lat {
				deps[i] = aisched.StreamDep{
					Src: graph.NodeID(id + i), Dst: graph.NodeID(id + i + 1), Latency: l,
				}
			}
			long = append(long, aisched.StreamBlock{Nodes: nodes, Deps: deps})
			id += n
		}
	}
	return long
}

// benchStreamSteady measures one steady-state push on an unending stream,
// re-warming a fresh scheduler whenever the prepared stream runs out (the
// StreamPush pattern).
func benchStreamSteady(b *testing.B, m *machine.Machine, opt aisched.StreamOptions, long []aisched.StreamBlock, warm int) {
	newWarm := func() *aisched.StreamScheduler {
		ss := aisched.NewStreamScheduler(m, opt)
		for _, blk := range long[:warm] {
			if _, err := ss.Push(blk); err != nil {
				b.Fatal(err)
			}
		}
		return ss
	}
	ss := newWarm()
	i := warm
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if i == len(long) {
			b.StopTimer()
			ss = newWarm()
			i = warm
			b.StartTimer()
		}
		if _, err := ss.Push(long[i]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchsnap:", err)
	os.Exit(1)
}
