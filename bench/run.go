package main

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"aisched"
	"aisched/internal/core"
)

// config is one benchmark invocation for a single workload.
type config struct {
	spec
	seed    int64
	seconds float64
	size    int // requests per repetition; 0 means the workload's own
	trace   bool
	spans   string // Chrome trace output path, traced runs only
	probes  int    // set-up probes (child processes) per run
	minReps int    // measured repetitions at least, whatever the time budget
}

// Repetition bounds. The measured phase runs repetitions until the time
// budget is spent, but never fewer than minReps, so the fastest are picked
// from several, nor more than maxReps.
const (
	defaultMinReps = 5
	maxReps        = 50
	defaultProbes  = 9
)

// tailSamples is the number of requests the timing metrics pool: a p99 needs
// 1000, so that ten lie beyond it.
const tailSamples = 1000

// result is everything one run measured.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Reps      int               `json:"reps"`
	Digest    string            `json:"digest"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string          // metric names in print order
	notes     []string          // human-readable lines printed before the table
	firstErr  error
}

// metric is one reported number. IQR is the interquartile range across
// repetitions (across set-up probes for setup_s) as a share of the median;
// it is absent where the number comes from a single measurement.
type metric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	IQR   *float64 `json:"iqr,omitempty"`
	Note  string   `json:"note,omitempty"`
}

// host identifies where and on what a result was measured.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"vcs_revision"`
	Dirty      bool   `json:"vcs_dirty"`
}

func hostFacts() host {
	bi := aisched.VersionInfo()
	rev := bi.Revision
	if rev == "" {
		rev = "unknown"
	}
	return host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Revision: rev, Dirty: bi.Dirty}
}

func newResult(cfg config) *result {
	return &result{Workload: cfg.name, Seed: cfg.seed, Trace: cfg.trace,
		Host: hostFacts(), Metrics: map[string]metric{}}
}

// set records a metric; spreadOf, when non-nil, gives its IQR.
func (r *result) set(name string, v float64, unit string, spreadOf []float64) {
	m := metric{Value: v, Unit: unit}
	if spreadOf != nil {
		iqr := spread(spreadOf)
		m.IQR = &iqr
	}
	r.Metrics[name] = m
	r.order = append(r.order, name)
}

func (r *result) note(name, note string) {
	m := r.Metrics[name]
	m.Note = note
	r.Metrics[name] = m
}

// run executes one workload in this process.
func run(cfg config) (*result, error) {
	n := cfg.size
	if n == 0 {
		n = cfg.requests
	}
	in, err := generate(cfg.spec, cfg.seed, n)
	if err != nil {
		return nil, err
	}
	s := newSession(in)
	res := newResult(cfg)
	res.notes = append(res.notes, fmt.Sprintf("inputs: %d requests per repetition", n))

	// Warm-up: the first repetition fills lazy state and is discarded for
	// timing; it carries the sampled checks, whose outputs are deterministic.
	q := &quality{}
	warm := s.facadeRep(true, q)
	if in.kind == kindStream {
		divergent, first := s.streamReference()
		res.set("stream.stepcache_divergent_blocks", float64(divergent), "count", nil)
		if divergent > 0 {
			res.note("stream.stepcache_divergent_blocks", fmt.Sprintf("of %d, first at block %d", s.stream.pushes(), first))
		}
	}
	res.Digest = fmt.Sprintf("%016x", uint64(warm.digest))
	if cfg.trace {
		err = s.measureTraced(cfg, warm, res)
	} else {
		err = s.measureFacade(cfg, warm, q, res)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.firstErr = s.attempted, s.failed, s.firstErr
	return res, nil
}

// checkDigest counts a repetition whose output digest differs from the
// warm-up's as one failure.
func (s *session) checkDigest(what string, got, want digest) {
	if got != want {
		s.fail(fmt.Errorf("%s output digest %016x differs from the warm-up's %016x", what, uint64(got), uint64(want)))
	}
}

// measureFacade runs the measured repetitions and the set-up probes and
// derives the end-to-end metrics.
func (s *session) measureFacade(cfg config, warm rep, q *quality, res *result) error {
	var reps []rep
	start := time.Now()
	for len(reps) < cfg.minReps || len(reps) < maxReps &&
		time.Since(start)+reps[len(reps)-1].wall <= time.Duration(cfg.seconds*float64(time.Second)) {
		r := s.facadeRep(false, nil)
		s.checkDigest(fmt.Sprintf("repetition %d", len(reps)+1), r.digest, warm.digest)
		reps = append(reps, r)
	}
	res.Reps = len(reps)
	setup, err := measureSetup(cfg)
	if err != nil {
		return err
	}
	var bytes, objs []float64
	for _, r := range reps {
		bytes = append(bytes, float64(r.bytes)/float64(r.insts))
		objs = append(objs, float64(r.objects)/float64(r.insts))
	}
	// The timing metrics come from the fastest repetitions, as few as
	// together hold the requests a p99 needs. Every repetition does identical
	// work, so a slower one was slowed by the machine: on a shared virtual
	// machine, contention can halve throughput for stretches longer than half
	// a run. A slower program slows every repetition and still shows. The
	// spreads printed beside them cover all repetitions.
	fast := slices.Clone(reps)
	slices.SortFunc(fast, func(a, b rep) int { return cmp.Compare(a.busyNs, b.busyNs) })
	var lat []float64
	k := 0
	for k < len(fast) && (k == 0 || len(lat) < tailSamples) {
		lat = append(lat, fast[k].latUs...)
		k++
	}
	fast = fast[:k]
	var tput, p50s, p99s []float64
	for _, r := range reps {
		tput = append(tput, float64(r.insts)/(float64(r.busyNs)/1e9))
		q50, _ := percentile(r.latUs, 0.5)
		p50s = append(p50s, q50.Value)
		if q99, ok := percentile(r.latUs, 0.99); ok {
			p99s = append(p99s, q99.Value)
		}
	}
	var fastTput []float64
	for _, r := range fast {
		fastTput = append(fastTput, float64(r.insts)/(float64(r.busyNs)/1e9))
	}
	res.set("setup_s", median(setup), "s", setup)
	res.set("insts_per_s", median(fastTput), "inst/s", tput)
	q50, _ := percentile(lat, 0.5)
	res.set("req_p50_us", q50.Value, "us", p50s)
	res.note("req_p50_us", q50.String())
	q99, ok := percentile(lat, 0.99)
	if !ok {
		// Too few requests for a p99 (only at reduced test sizes): report
		// the highest percentile the sample supports, and say so.
		q99 = tail(lat)
	}
	res.set("req_p99_us", q99.Value, "us", nilIfShort(p99s, len(reps)))
	res.note("req_p99_us", q99.String())
	res.set("sim_cycles_per_inst", float64(q.simCycles)/float64(max(q.insts, 1)), "cycles/inst", nil)
	res.note("sim_cycles_per_inst", fmt.Sprintf("%d cycles over %d sampled instructions", q.simCycles, q.insts))
	res.set("speedup_vs_rank_local", float64(q.baseCycles)/float64(max(q.simCycles, 1)), "ratio", nil)
	res.note("speedup_vs_rank_local", fmt.Sprintf("%d rank-local cycles / %d anticipatory", q.baseCycles, q.simCycles))
	res.set("alloc_bytes_per_inst", median(bytes), "B/inst", bytes)
	res.set("allocs_per_inst", median(objs), "obj/inst", objs)
	res.set("peak_rss_mb", peakRSSMiB(), "MiB", nil)
	res.set("error_rate", float64(s.failed)/float64(max(s.attempted, 1)), "ratio", nil)
	res.note("error_rate", fmt.Sprintf("%d failed of %d attempted", s.failed, s.attempted))
	res.set("sched.def23_violations", float64(q.def23), "count", nil)

	last := reps[len(reps)-1]
	res.notes = append(res.notes,
		fmt.Sprintf("repetitions: 1 warm-up + %d measured (timings from the fastest %d), %.2f s median wall each, %d instructions each",
			len(reps), len(fast), median(wallSeconds(reps)), last.insts),
		fmt.Sprintf("insts/s per repetition: %.0f", tput),
		fmt.Sprintf("caches (last repetition): memo %d hits / %d lookups, step %d hits / %d lookups",
			last.memo.Hits+last.memo.Coalesced, last.memo.Hits+last.memo.Misses+last.memo.Coalesced,
			last.step.Hits, last.step.Hits+last.step.Misses))
	return nil
}

// nilIfShort drops a per-repetition series that some repetitions could not
// contribute to, so no spread is claimed from a partial series.
func nilIfShort(xs []float64, reps int) []float64 {
	if len(xs) < reps {
		return nil
	}
	return xs
}

func wallSeconds(reps []rep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.wall.Seconds()
	}
	return out
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupSeed generates the set-up probe's request. It is fixed, not the run's
// seed: set-up time measures process start, package and constructor work and
// one cold request, and a request that changed with the seed would add the
// seed-to-seed variation of a single request to it.
const setupSeed = 0

// measureSetup starts this binary cfg.probes times as a set-up probe and
// times each from process start until its first request has completed.
func measureSetup(cfg config) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < cfg.probes; i++ {
		cmd := exec.Command(exe, "-setup-probe", "-workload", cfg.name, "-seed", strconv.Itoa(setupSeed))
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0)
		werr := cmd.Wait()
		if err := errors.Join(rerr, werr); err != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up probe: %q %v", line, err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// setupProbe is the child side of measureSetup: build the first request,
// send it through a fresh facade, and report when it has completed.
func setupProbe(sp spec, seed int64) error {
	in, err := generate(sp, seed, 1)
	if err != nil {
		return err
	}
	switch in.kind {
	case kindTrace:
		sc := aisched.NewScheduler(aisched.SchedulerOptions{})
		t := in.trace(0)
		_, err = sc.ScheduleTrace(t.g, t.m)
	case kindStream:
		ss := aisched.NewStreamScheduler(in.m, aisched.StreamOptions{Lookahead: 1})
		_, err = ss.Push(in.pool[0][0])
	case kindProgram:
		_, err = compileProgram(aisched.NewScheduler(aisched.SchedulerOptions{Workers: 1}), in.sources[0], in.m)
	}
	if err != nil {
		return err
	}
	_, err = fmt.Println("ready")
	return err
}

// measureTraced alternates facade and traced repetitions until the time
// budget is spent, and derives the per-layer metrics from the traced ones.
func (s *session) measureTraced(cfg config, warm rep, res *result) error {
	var layers [numSpans]layerStats
	var reqNs, covNs int64
	var trs []tracedRep
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	spec0 := core.SpecCounters()
	// The tracing overhead compares the fastest of each kind of repetition,
	// for the same reason the end-to-end timings use the fastest.
	bestFac, bestTraced := int64(math.MaxInt64), int64(math.MaxInt64)
	start := time.Now()
	for len(trs) == 0 || len(trs) < maxReps &&
		time.Since(start)*time.Duration(len(trs)+1)/time.Duration(len(trs)) <= time.Duration(cfg.seconds*float64(time.Second)) {
		fac := s.facadeRep(false, nil)
		s.checkDigest(fmt.Sprintf("facade repetition %d", len(trs)+1), fac.digest, warm.digest)
		tr := s.tracedRep()
		s.checkDigest(fmt.Sprintf("traced repetition %d", len(trs)+1), tr.digest, warm.digest)
		s.checkCounters(tr, fac)
		r, c := tr.t.aggregate(&layers)
		reqNs += r
		covNs += c
		bestFac, bestTraced = min(bestFac, fac.busyNs), min(bestTraced, r)
		if len(trs) == 0 && cfg.spans != "" {
			if err := tr.t.writeChrome(cfg.spans); err != nil {
				return fmt.Errorf("write spans: %w", err)
			}
		}
		tr.t = nil // keep only the aggregates
		trs = append(trs, tr)
	}
	spec1 := core.SpecCounters()
	runtime.ReadMemStats(&ms1)
	queueWait := aisched.MetricsSnapshot().Metrics.Histograms["aisched_batch_queue_wait_ns"]
	res.Reps = len(trs)
	perRep := 1 / float64(len(trs))
	for name := spFingerprint; name < numSpans; name++ {
		ls := &layers[name]
		x := spanNames[name]
		tq := tail(ls.durUs)
		res.set(x+".calls", float64(ls.calls)*perRep, "count", nil)
		res.set(x+".self_ms", float64(ls.selfNs)*perRep/1e6, "ms", nil)
		res.set(x+".share", ratio(float64(ls.selfNs), float64(reqNs)), "ratio", nil)
		res.set(x+".tail_us", tq.Value, "us", nil)
		res.note(x+".tail_us", tq.String())
	}
	t0 := trs[0]
	var suffix, pushes int
	for _, tr := range trs {
		suffix += tr.suffixSum
		pushes += tr.pushes
	}
	memoLookups := t0.memo.Hits + t0.memo.Misses + t0.memo.Coalesced
	stepLookups := t0.step.Hits + t0.step.Misses
	res.set("memo.lookups", float64(memoLookups), "count", nil)
	res.set("memo.hit_ratio", ratio(float64(t0.memo.Hits+t0.memo.Coalesced), float64(memoLookups)), "ratio", nil)
	res.set("memo.evictions", float64(t0.memo.Evictions), "count", nil)
	res.set("core.stepcache.lookups", float64(stepLookups), "count", nil)
	res.set("core.stepcache.hit_ratio", ratio(float64(t0.step.Hits), float64(stepLookups)), "ratio", nil)
	res.set("core.stepcache.evictions_per_step", ratio(float64(t0.step.Evictions), float64(stepLookups)), "ratio", nil)
	res.set("core.stepcache.bytes", float64(t0.step.Bytes), "B", nil)
	segments := float64(spec1.Segments - spec0.Segments)
	res.set("core.spec.segments", segments*perRep, "count", nil)
	res.set("core.spec.verified_ratio", ratio(float64(spec1.Hits-spec0.Hits), segments), "ratio", nil)
	res.set("core.spec.fallback_blocks_per_run", ratio(float64(spec1.FallbackBlocks-spec0.FallbackBlocks),
		float64(spec1.Runs-spec0.Runs)), "blocks/run", nil)
	res.set("core.rank_pass_equiv", ratio(float64(layers[spLookahead].selfNs),
		float64(layers[spRank].selfNs+layers[spIdle].selfNs)), "ratio", nil)
	res.set("stream.suffix_len_mean", ratio(float64(suffix), float64(pushes)), "inst", nil)
	res.set("aisched.batch.queue_wait_p99_us", queueWait.P99/1e3, "us", nil)
	res.note("aisched.batch.queue_wait_p99_us", fmt.Sprintf("n=%d, warm-up and facade repetitions", queueWait.Count))
	res.set("sched.def23_violations", float64(t0.def23), "count", nil)
	res.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC)*perRep, "count", nil)
	res.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)*perRep/1e6, "ms", nil)
	res.set("trace.overhead_pct", 100*float64(bestTraced-bestFac)/float64(bestFac), "%", nil)
	res.set("trace.coverage_pct", 100*ratio(float64(covNs), float64(reqNs)), "%", nil)
	res.notes = append(res.notes, fmt.Sprintf("repetitions: 1 warm-up + %d facade and traced pairs; fastest request time %.1f ms traced vs %.1f ms facade",
		len(trs), float64(bestTraced)/1e6, float64(bestFac)/1e6))
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkCounters compares a traced repetition's cache counters with the
// facade repetition's. Speculative segments on long traces race for step
// cache entries, so there the step counters may differ by under 1% of
// lookups; everything else must match exactly.
func (s *session) checkCounters(tr tracedRep, fac rep) {
	fm, tm := fac.memo, tr.memo
	if fm.Hits+fm.Coalesced != tm.Hits+tm.Coalesced || fm.Misses != tm.Misses || fm.Evictions != tm.Evictions {
		s.fail(fmt.Errorf("traced memo counters %+v differ from the facade's %+v", tm, fm))
	}
	fs, ts := fac.step, tr.step
	lookups := float64(fs.Hits + fs.Misses)
	tol := 0.0
	if s.in.name == "long-trace" {
		tol = 0.01 * lookups
	}
	if absDiff(fs.Hits, ts.Hits) > tol || absDiff(fs.Misses, ts.Misses) > tol || absDiff(fs.Evictions, ts.Evictions) > tol {
		s.fail(fmt.Errorf("traced step-cache counters %+v differ from the facade's %+v", ts, fs))
	}
}

func absDiff(a, b uint64) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}
