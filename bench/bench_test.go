package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// smoke run starts it as a set-up probe.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-setup-probe" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// inputDigest hashes a workload's generated inputs.
func inputDigest(in *inputs) uint64 {
	h := fnv.New64a()
	for i := 0; in.kind == kindTrace && i < in.requests; i++ {
		t := in.trace(i)
		fmt.Fprintf(h, "%s|%v|", t.m, t.g)
	}
	fmt.Fprint(h, in.pool, in.slots, in.sources)
	return h.Sum64()
}

// tinySize is the per-repetition request count the tests run each workload
// at.
const tinySize = 8

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a, err := generate(sp, 7, tinySize)
			if err != nil {
				t.Fatal(err)
			}
			b, err := generate(sp, 7, tinySize)
			if err != nil {
				t.Fatal(err)
			}
			c, err := generate(sp, 8, tinySize)
			if err != nil {
				t.Fatal(err)
			}
			if inputDigest(a) != inputDigest(b) {
				t.Error("same seed gave different inputs")
			}
			if inputDigest(a) == inputDigest(c) {
				t.Error("different seeds gave the same inputs")
			}
		})
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 of 999 samples accepted; it has only 9 beyond it")
	}
	xs = append(xs, 1000)
	q, ok := percentile(xs, 0.99)
	if !ok || q.Value != 990 {
		t.Errorf("p99 of 1..1000 = %v (ok %v), want 990", q.Value, ok)
	}
	if s := q.String(); !strings.Contains(s, "n=1000") {
		t.Errorf("%q does not print the sample count", s)
	}
	if q := tail(xs[:500]); q.P != 0.95 || q.N != 500 {
		t.Errorf("tail of 500 samples is %v, want p95", q)
	}
	if q := tail(xs[:5]); q.P != 0.5 {
		t.Errorf("tail of 5 samples is %v, want the median", q)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestTracedDecompositionMatchesFacade checks that the traced run computes
// what the facade computes: the same output digest and cache counters.
func TestTracedDecompositionMatchesFacade(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			in, err := generate(sp, 3, tinySize)
			if err != nil {
				t.Fatal(err)
			}
			s := newSession(in)
			fac := s.facadeRep(false, nil)
			tr := s.tracedRep()
			if tr.digest != fac.digest {
				t.Errorf("traced digest %x, facade %x", tr.digest, fac.digest)
			}
			s.checkCounters(tr, fac)
			if s.failed > 0 {
				t.Fatalf("%d failures, first: %v", s.failed, s.firstErr)
			}
			var layers [numSpans]layerStats
			reqNs, covNs := tr.t.aggregate(&layers)
			if layers[spRequest].calls == 0 || covNs > reqNs {
				t.Errorf("request spans: %d calls, %d of %d ns covered", layers[spRequest].calls, covNs, reqNs)
			}
		})
	}
}

// TestSmokeAllWorkloads runs every workload end to end at a tiny size, both
// untraced and traced, and checks that every metric BENCHMARK.json names is
// reported.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			cfg := config{spec: sp, seed: 5, size: tinySize, trace: traced, probes: 1, minReps: 2}
			if traced {
				cfg.spans = filepath.Join(dir, sp.name+".json")
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
			if res.Failed > 0 {
				t.Fatalf("%s traced=%v: %d of %d failed, first: %v", sp.name, traced, res.Failed, res.Attempted, res.firstErr)
			}
			names := endToEnd
			if traced {
				names = perLayer
			}
			for _, n := range names {
				m, ok := res.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", sp.name, n)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, n, m.Value)
				}
			}
			if traced {
				if cov := res.Metrics["trace.coverage_pct"].Value; cov < 95 {
					t.Errorf("%s: span coverage %.1f%% < 95%%", sp.name, cov)
				}
				var spans struct{ TraceEvents []json.RawMessage }
				b, err := os.ReadFile(cfg.spans)
				if err == nil {
					err = json.Unmarshal(b, &spans)
				}
				if err != nil || len(spans.TraceEvents) == 0 {
					t.Errorf("%s: spans file: %v, %d events", sp.name, err, len(spans.TraceEvents))
				}
			}
		}
	}
}

// TestBenchmarkJSONAgrees checks BENCHMARK.json against the code: the same
// workloads and metric names, in order, with the units the code reports.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		benchSpec
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var workloads, e2e, layer []string
	for _, w := range bj.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, m.Name)
	}
	var names []string
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	if !slices.Equal(workloads, names) {
		t.Errorf("workloads %v, code has %v", workloads, names)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v, code reports %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per_layer %v, code reports %v", layer, perLayer)
	}
	res, err := run(config{spec: specs[0], seed: 1, size: tinySize, probes: 1, minReps: 2})
	if err != nil {
		t.Fatal(err)
	}
	tres, err := run(config{spec: specs[0], seed: 1, size: tinySize, trace: true, probes: 1, minReps: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range bj.EndToEnd {
		if got := res.Metrics[m.Name].Unit; got != m.Unit {
			t.Errorf("%s: unit %q, code reports %q", m.Name, m.Unit, got)
		}
	}
	for _, m := range bj.PerLayer {
		if got := tres.Metrics[m.Name].Unit; got != m.Unit {
			t.Errorf("%s: unit %q, code reports %q", m.Name, m.Unit, got)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "insts_per_s", "unit": "inst/s", "better": "higher", "bound": 0.1},
		{"name": "req_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
		{"name": "req_p99_us", "unit": "us", "better": "lower", "bound": 0.1},
		{"name": "sim_cycles_per_inst", "unit": "cycles/inst", "better": "lower", "bound": 0.05}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name, workload string, runs ...map[string]float64) string {
		path := filepath.Join(dir, name)
		for i, vals := range runs {
			r := &result{Workload: workload, Seed: int64(i + 1), Digest: "d", Metrics: map[string]metric{}}
			for k, v := range vals {
				r.Metrics[k] = metric{Value: v}
			}
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", "trace-cold",
		map[string]float64{"insts_per_s": 100, "req_p50_us": 10, "req_p99_us": 50, "sim_cycles_per_inst": 1.2},
		map[string]float64{"insts_per_s": 102, "req_p50_us": 10, "req_p99_us": 90, "sim_cycles_per_inst": 1.3})
	b := write("b.jsonl", "trace-cold",
		map[string]float64{"insts_per_s": 80, "req_p50_us": 8, "req_p99_us": 50, "sim_cycles_per_inst": 1.2},
		map[string]float64{"insts_per_s": 81, "req_p50_us": 8, "req_p99_us": 91, "sim_cycles_per_inst": 1.31})
	// A spread wider than the bound, but every run of B beats every run of A.
	write("a.jsonl", "trace-repeat", map[string]float64{"insts_per_s": 100}, map[string]float64{"insts_per_s": 150})
	write("b.jsonl", "trace-repeat", map[string]float64{"insts_per_s": 160}, map[string]float64{"insts_per_s": 170})
	var out strings.Builder
	code, err := compareFiles(a, b, spec, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit code %d, want 1 (a metric got worse)", code)
	}
	for row, want := range map[string]string{
		"trace-cold insts_per_s": "worse", "trace-cold req_p50_us": "better",
		"trace-cold req_p99_us": "unresolved", "trace-cold sim_cycles_per_inst": "differs",
		"trace-cold error_rate": "ok", "trace-cold output digest": "ok",
		"trace-repeat insts_per_s": "better",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(strings.Join(strings.Fields(line), " "), row+" ") {
				found = true
				if !strings.HasSuffix(strings.TrimSpace(line), want) {
					t.Errorf("%s: %q, want verdict %s", row, line, want)
				}
			}
		}
		if !found {
			t.Errorf("no row for %s in\n%s", row, out.String())
		}
	}
}
