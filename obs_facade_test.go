package aisched

import (
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"aisched/internal/machine"
	"aisched/internal/paperex"
)

// TestObserverFacade drives the whole observability surface through the
// public API: WithTracer, the traced schedule/simulate entry points, the
// stats snapshot, the Chrome trace export, and the text timeline.
func TestObserverFacade(t *testing.T) {
	f := paperex.NewFig3()
	m := machine.SingleUnit(4)
	rec := NewRecorder()
	o := WithTracer(rec)

	best, err := o.ScheduleLoop(f.G, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.SimulateLoop(f.G, m, best.Order, 8, SimOptions{Speculate: true})
	if err != nil {
		t.Fatal(err)
	}

	s := rec.Stats()
	if s.Completion != res.Completion {
		t.Errorf("stats completion %d != simulator %d", s.Completion, res.Completion)
	}
	if s.BestII != best.II {
		t.Errorf("stats best II %d != scheduler %d", s.BestII, best.II)
	}
	if s.IICandidates == 0 {
		t.Error("loop scheduler emitted no II candidates")
	}
	if s.CrossBlockFills == 0 {
		t.Error("anticipatory Figure 3 loop should fill at least one idle slot cross-iteration")
	}
	sum := 0
	for _, n := range s.StallByReason {
		sum += n
	}
	if sum != s.StallCycles {
		t.Errorf("stall breakdown %v sums to %d, total %d", s.StallByReason, sum, s.StallCycles)
	}

	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Error("Stats.JSON is not valid JSON")
	}

	trace, err := rec.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &parsed); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Error("Chrome trace has no events")
	}

	if tl := rec.Timeline(); !strings.Contains(tl, "cycle") || !strings.Contains(tl, "head") {
		t.Errorf("timeline missing header rows:\n%s", tl)
	}

	// A nil-tracer Observer must behave exactly like the plain facade.
	plainBest, err := WithTracer(nil).ScheduleLoop(f.G, m)
	if err != nil {
		t.Fatal(err)
	}
	if plainBest.II != best.II {
		t.Errorf("nil-tracer Observer II %d != traced %d", plainBest.II, best.II)
	}
	plainRes, err := SimulateLoop(f.G, m, best.Order, 8, SimOptions{Speculate: true})
	if err != nil {
		t.Fatal(err)
	}
	if plainRes.Completion != res.Completion {
		t.Errorf("tracing changed completion: %d vs %d", res.Completion, plainRes.Completion)
	}
}

// TestObserverScheduleBlockAndTrace covers the remaining Observer entry
// points: single-block scheduling and trace scheduling plus simulation.
func TestObserverScheduleBlockAndTrace(t *testing.T) {
	// The traced ScheduleBlock is the untraced pipeline plus events: on the
	// paper's Figures 1 and 2 and on random blocks, its schedule is
	// bit-identical to ScheduleBlock's, and it reports one rank pass and one
	// Delay_Idle_Slots pass.
	rec := NewRecorder()
	o := WithTracer(rec)
	type block struct {
		g *Graph
		m *Machine
	}
	blocks := []block{
		{paperex.NewFig1().G, machine.SingleUnit(2)},
		{paperex.NewFig2().G, machine.SingleUnit(2)},
	}
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 50; i++ {
		n := 2 + r.Intn(11)
		g := NewGraph(n)
		for v := 0; v < n; v++ {
			g.AddNode("n", 1+r.Intn(2), 0, 0)
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if r.Float64() < 0.3 {
					g.MustEdge(NodeID(a), NodeID(b), r.Intn(3), 0)
				}
			}
		}
		m := machine.SingleUnit(2)
		if i%2 == 1 {
			m = machine.Superscalar(2, 2)
		}
		blocks = append(blocks, block{g, m})
	}
	for i, b := range blocks {
		want, err := ScheduleBlock(b.g, b.m)
		if err != nil {
			t.Fatal(err)
		}
		rec.Reset()
		got, err := o.ScheduleBlock(b.g, b.m)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Start, want.Start) || !slices.Equal(got.Unit, want.Unit) {
			t.Fatalf("block %d: traced schedule %v/%v, untraced %v/%v", i, got.Start, got.Unit, want.Start, want.Unit)
		}
		if s := rec.Stats(); s.Passes["rank.Makespan"] != 1 || s.Passes["idle.DelayIdleSlots"] != 1 {
			t.Fatalf("block %d: ScheduleBlock passes = %v", i, s.Passes)
		}
	}

	f := paperex.NewFig2()
	m := machine.SingleUnit(2)
	rec.Reset()
	res, err := o.ScheduleTrace(f.G, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.SimulateTrace(f.G, m, res.StaticOrder()); err != nil {
		t.Fatal(err)
	}
	s := rec.Stats()
	if s.Passes["core.Lookahead"] != 1 || s.Passes["hw.simulate"] != 1 {
		t.Errorf("ScheduleTrace+SimulateTrace passes = %v", s.Passes)
	}
	if s.Issues == 0 {
		t.Error("no issue events recorded")
	}
}
