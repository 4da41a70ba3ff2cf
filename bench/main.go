// Command bench is the repository benchmark. It runs five seeded workloads
// through the public aisched facade, checks every output, and prints each
// end-to-end metric by name with its unit. A separate traced run sends the
// same requests through the internal modules' public functions, times each
// call from outside, and prints per-layer metrics. README.md describes the
// workloads, the metrics and how to compare two sets of runs.
//
//	bash bench/run.sh --workload trace-cold --seed 1 --seconds 20 --trace 0
//	go -C bench run . -workload all
//	go -C bench run . -workload long-trace -trace 1 -spans /tmp/spans.json
//	go -C bench run . -compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
// for an untraced run, its per-layer metrics for a traced one. The exit code
// is non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	workloadName := flag.String("workload", "all", "workload to run, or all (one process per workload)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "time budget of the measured repetitions")
	trace := flag.Int("trace", 0, "1 runs the traced layer decomposition instead of the facade measurement")
	spans := flag.String("spans", "", "write the first traced repetition's spans to this file (Chrome trace-event JSON)")
	out := flag.String("out", "", "append the full result, with host facts and spreads, as a JSON line to this file")
	compare := flag.String("compare", "", "compare the result file given here with the one given as the argument")
	probe := flag.Bool("setup-probe", false, "internal: run one cold request and exit (set-up time measurement)")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("-compare A.jsonl needs a second result file B.jsonl"))
		}
		code, err := compareFiles(*compare, flag.Arg(0), "", os.Stdout)
		if err != nil {
			fatal(err)
		}
		os.Exit(code)
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	if *workloadName == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *spans, *out))
	}
	sp, err := specByName(*workloadName)
	if err != nil {
		fatal(err)
	}
	if *probe {
		if err := setupProbe(sp, *seed); err != nil {
			fatal(err)
		}
		return
	}
	res, err := run(config{spec: sp, seed: *seed, seconds: *seconds, trace: *trace == 1,
		spans: *spans, probes: defaultProbes, minReps: defaultMinReps})
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fatal(err)
		}
	}
	printResult(os.Stdout, res)
	if res.Failed > 0 {
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process, passing the output
// through, and returns the exit code.
func runAll(seed int64, seconds float64, trace int, spans, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, sp := range specs {
		args := []string{"-workload", sp.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		if spans != "" {
			args = append(args, "-spans", strings.TrimSuffix(spans, ".json")+"."+sp.name+".json")
		}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			code = 1
		}
	}
	return code
}

// printResult prints the human-readable report and, last, the one-line JSON
// object with the metrics BENCHMARK.json lists for this kind of run.
func printResult(w *os.File, res *result) {
	h := res.Host
	fmt.Fprintf(w, "workload %s  seed %d  trace %v\n", res.Workload, res.Seed, res.Trace)
	fmt.Fprintf(w, "host: %d CPUs, GOMAXPROCS %d, %s, revision %s (dirty %v)\n",
		h.NumCPU, h.GOMAXPROCS, h.Go, h.Revision, h.Dirty)
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "output digest %s, %d failed of %d attempted\n", res.Digest, res.Failed, res.Attempted)
	if res.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", res.firstErr)
	}
	fmt.Fprintf(w, "%-40s %16s %-12s %8s  %s\n", "metric", "value", "unit", "iqr", "note")
	for _, name := range res.order {
		m := res.Metrics[name]
		iqr := "-"
		if m.IQR != nil {
			iqr = fmt.Sprintf("%.2f%%", 100**m.IQR)
		}
		fmt.Fprintf(w, "%-40s %16.6g %-12s %8s  %s\n", name, m.Value, m.Unit, iqr, m.Note)
	}
	names := endToEnd
	if res.Trace {
		names = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, name := range names {
		m := res.Metrics[name]
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(b))
}

// endToEnd and perLayer are the metric names BENCHMARK.json lists, in its
// order; a test checks the two agree.
var endToEnd = []string{
	"setup_s", "insts_per_s", "req_p50_us", "req_p99_us", "sim_cycles_per_inst",
	"speedup_vs_rank_local", "alloc_bytes_per_inst", "allocs_per_inst", "peak_rss_mb",
}

// perLayer lists, for the layers every workload runs, each span's calls, self
// time, share of request time and tail latency; for the layers only some
// workloads run, calls and share; then the counters.
var perLayer = func() []string {
	everywhere := []int{spLookahead, spCSR, spRank, spIdle, spSimulate, spValidate}
	some := []int{spFingerprint, spMemoLookup, spClone, spMinic, spCfg, spDeps, spBatch, spLoops, spPush}
	var names []string
	for _, s := range everywhere {
		for _, m := range []string{"calls", "self_ms", "share", "tail_us"} {
			names = append(names, spanNames[s]+"."+m)
		}
	}
	for _, s := range some {
		names = append(names, spanNames[s]+".calls", spanNames[s]+".share")
	}
	return append(names,
		"memo.lookups", "memo.hit_ratio", "memo.evictions",
		"core.stepcache.lookups", "core.stepcache.hit_ratio", "core.stepcache.evictions_per_step", "core.stepcache.bytes",
		"core.spec.segments", "core.spec.verified_ratio", "core.spec.fallback_blocks_per_run",
		"core.rank_pass_equiv", "stream.suffix_len_mean", "sched.def23_violations",
		"runtime.gc_cycles", "runtime.gc_pause_ms", "trace.overhead_pct", "trace.coverage_pct")
}()

// appendResult appends res as one JSON line to path.
func appendResult(path string, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
