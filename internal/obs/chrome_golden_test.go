package obs_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"aisched/internal/hw"
	"aisched/internal/loops"
	"aisched/internal/machine"
	"aisched/internal/obs"
	"aisched/internal/paperex"
)

var update = flag.Bool("update", false, "rewrite the Chrome trace golden file")

// fig3Trace produces the canonical observability fixture: the §5.2 loop
// scheduler and a 4-iteration window simulation of the paper's Figure 3
// partial-products loop, fully deterministic.
func fig3Trace(t *testing.T) *obs.Recorder {
	t.Helper()
	f := paperex.NewFig3()
	m := machine.SingleUnit(4)
	rec := obs.NewRecorder()
	st, err := loops.ScheduleLoopOpts(f.G, m, loops.Opts{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hw.SimulateLoop(f.G, m, st.Order, 4,
		hw.Options{Speculate: true, Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestChromeTraceGolden pins the exported Chrome trace-event JSON for the
// Figure 3 fixture byte for byte, so the export format cannot silently
// drift. Regenerate with:
//
//	go test ./internal/obs -run TestChromeTraceGolden -update
func TestChromeTraceGolden(t *testing.T) {
	got, err := fig3Trace(t).ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fig3_chrome_trace.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if string(got) != string(want) {
		t.Fatalf("Chrome trace JSON drifted from %s (run with -update after an intentional schema change)\ngot %d bytes, want %d bytes",
			golden, len(got), len(want))
	}
}

// TestChromeTraceSchema validates the structural schema independently of the
// golden bytes: required top-level keys, known phases, and the required args
// per event class.
func TestChromeTraceSchema(t *testing.T) {
	data, err := fig3Trace(t).ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
		DisplayUnit string                       `json:"displayTimeUnit"`
		OtherData   map[string]string            `json:"otherData"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if trace.DisplayUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", trace.DisplayUnit)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	// Required args per event name class; names outside this table must be
	// instruction labels (phase X on a unit lane) or stall spans.
	requiredArgs := map[string][]string{
		"stall:":           {"reason", "cycles"},
		"rollback":         {"branch_pos", "squashed", "resume"},
		"window-occupancy": {"occupied", "head"},
		"deadline-tighten": {"node", "label", "from", "to"},
		"slot-move":        {"unit", "from", "to"},
		"merge-loosen":     {"block", "round"},
		"merge":            {"block", "old", "new", "makespan"},
		"chop":             {"block", "committed", "carried", "base"},
		"ii-candidate":     {"kind", "node", "label", "ii", "makespan"},
	}
	validPhases := map[string]bool{"X": true, "B": true, "E": true, "i": true, "C": true, "M": true}
	sawIssue, sawStall, sawCounter, sawPass := false, false, false, false
	for i, ev := range trace.TraceEvents {
		var name, ph string
		if err := json.Unmarshal(ev["name"], &name); err != nil {
			t.Fatalf("event %d: bad name: %v", i, err)
		}
		if err := json.Unmarshal(ev["ph"], &ph); err != nil {
			t.Fatalf("event %d (%s): bad ph: %v", i, name, err)
		}
		if !validPhases[ph] {
			t.Errorf("event %d (%s): unknown phase %q", i, name, ph)
		}
		if _, ok := ev["ts"]; !ok && ph != "M" {
			t.Errorf("event %d (%s): missing ts", i, name)
		}
		for _, key := range []string{"pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event %d (%s): missing %s", i, name, key)
			}
		}
		var args map[string]json.RawMessage
		if raw, ok := ev["args"]; ok {
			if err := json.Unmarshal(raw, &args); err != nil {
				t.Fatalf("event %d (%s): bad args: %v", i, name, err)
			}
		}
		check := func(keys []string) {
			for _, k := range keys {
				if _, ok := args[k]; !ok {
					t.Errorf("event %d (%s): args missing %q", i, name, k)
				}
			}
		}
		switch {
		case ph == "M":
			check([]string{"name"})
		case ph == "C":
			sawCounter = true
			check(requiredArgs["window-occupancy"])
		case ph == "B" || ph == "E":
			sawPass = true
		case len(name) > 6 && name[:6] == "stall:":
			sawStall = true
			check(requiredArgs["stall:"])
		default:
			if keys, ok := requiredArgs[name]; ok {
				check(keys)
			} else if ph == "X" {
				sawIssue = true
				check([]string{"pos", "node", "block", "iter", "fill"})
			}
		}
	}
	if !sawIssue || !sawStall || !sawCounter || !sawPass {
		t.Errorf("fixture trace incomplete: issue=%v stall=%v counter=%v pass=%v",
			sawIssue, sawStall, sawCounter, sawPass)
	}
}
