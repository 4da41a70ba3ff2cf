package loops

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aisched/internal/deps"
	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/minic"
	"aisched/internal/obs"
	"aisched/internal/workload"
)

// referenceSingleBlockLoop is the §5.2.3 candidate search without the
// dedupe: every candidate is evaluated, in candidate order, even when an
// earlier one of the same kind built the same transformed graph. It emits
// the events scheduleSingleBlockLoopOpts documents and keeps the same best
// candidate (smallest II, then smallest makespan, then earliest).
func referenceSingleBlockLoop(g *graph.Graph, m *machine.Machine, tr obs.Tracer) (*Steady, error) {
	if g.Len() == 0 {
		return nil, fmt.Errorf("loops: empty loop body")
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassStart, Pass: obs.PassLoop,
			Block: -1, Node: graph.None, N: g.Len()})
	}
	li := g.LoopIndependent()
	sources, sinks := candidatesLI(g, li)
	candidates := []candidate{{kind: "base", node: graph.None}}
	for _, y := range sources {
		candidates = append(candidates, candidate{kind: "source", node: y})
	}
	for _, y := range sinks {
		candidates = append(candidates, candidate{kind: "sink", node: y})
	}
	for i := range candidates {
		c := &candidates[i]
		var order []graph.NodeID
		var err error
		switch c.kind {
		case "base":
			order, err = baseOrder(li, m, nil)
		case "source":
			order, err = SingleSourceOrder(g, m, c.node)
		default:
			order, err = SingleSinkOrder(g, m, c.node)
		}
		if err != nil {
			return nil, err
		}
		if c.st, err = Evaluate(g, m, order); err != nil {
			return nil, err
		}
	}
	var best *Steady
	for _, c := range candidates {
		if tr != nil {
			label := ""
			if c.node != graph.None {
				label = g.Node(c.node).Label
			}
			tr.Emit(obs.Event{Kind: obs.KindIICandidate, Pass: c.kind,
				Node: c.node, Label: label, Block: -1,
				N: c.st.II, From: c.st.Makespan})
		}
		if best == nil || c.st.II < best.II || (c.st.II == best.II && c.st.Makespan < best.Makespan) {
			best = c.st
		}
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassEnd, Pass: obs.PassLoop,
			Block: -1, Node: graph.None, N: best.II})
	}
	return best, nil
}

// manyCandidateLoop builds a loop body with loop-carried edges into and out
// of several distinct nodes, so the §5.2.3 search has a wide candidate set
// (base + multiple sources + multiple sinks). With classes > 1 each node
// gets a random class below classes and an exec time of 1 or 2, so
// candidates can share an exec time but not a class.
func manyCandidateLoop(r *rand.Rand, n, classes int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		if classes > 1 {
			g.AddNode(fmt.Sprintf("n%d", i), 1+r.Intn(2), r.Intn(classes), 0)
		} else {
			g.AddUnit(fmt.Sprintf("n%d", i))
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.3 {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(3), 0)
			}
		}
	}
	for k := 0; k < 3+r.Intn(4); k++ {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		g.MustEdge(u, v, 2+r.Intn(3), 1+r.Intn(2))
	}
	return g
}

// classSensitiveLoop is a body whose source candidates n1 and n3 share exec
// time 2 but not class (0 and 1). On RS6000(4) their transformed graphs
// give different steady states (II 7 and 8), because z joins the per-class
// packing of every rank: a dedupe key without the class would report n1's
// II for n3.
func classSensitiveLoop() *graph.Graph {
	g := graph.New(8)
	for i, n := range []struct{ exec, class int }{
		{1, 2}, {2, 0}, {1, 0}, {2, 1}, {1, 2}, {2, 0}, {1, 0}, {1, 0},
	} {
		g.AddNode(fmt.Sprintf("n%d", i), n.exec, n.class, 0)
	}
	g.MustEdge(0, 2, 2, 0)
	g.MustEdge(2, 4, 2, 0)
	g.MustEdge(3, 3, 0, 2)
	g.MustEdge(5, 1, 0, 1)
	return g
}

// namedLoop is one input of the reference differential.
type namedLoop struct {
	name string
	g    *graph.Graph
}

// referenceInputs returns named single-block loop bodies for the
// differential: wide random candidate sets with one class and with three,
// classSensitiveLoop, the T3 loops at three sizes, and the loop bodies of
// compiled mini-C programs.
func referenceInputs(t *testing.T) []namedLoop {
	t.Helper()
	in := []namedLoop{{"class-sensitive", classSensitiveLoop()}}
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		in = append(in,
			namedLoop{fmt.Sprintf("many/%d", seed), manyCandidateLoop(r, 3+r.Intn(8), 1)},
			namedLoop{fmt.Sprintf("classes/%d", seed), manyCandidateLoop(r, 4+r.Intn(8), 3)})
	}
	t3 := workload.DefaultLoop()
	t3Mid, t3Big := t3, t3
	t3Mid.Size, t3Mid.Carried = 10, 3
	t3Big.Size, t3Big.IntraProb, t3Big.Carried = 16, 0.2, 6
	for _, cfg := range []workload.LoopConfig{t3, t3Mid, t3Big} {
		r := rand.New(rand.NewSource(1996))
		for i := 0; i < 20; i++ {
			g, err := workload.Loop(r, cfg)
			if err != nil {
				t.Fatal(err)
			}
			in = append(in, namedLoop{fmt.Sprintf("t3-%d/%d", cfg.Size, i), g})
		}
	}
	r := rand.New(rand.NewSource(1))
	for p := 0; p < 40; p++ {
		c, err := minic.Compile(workload.RandomProgram(r, 6))
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range c.Loops {
			if body := c.Body(l); body != nil {
				in = append(in, namedLoop{fmt.Sprintf("minic/%d/%d", p, i), deps.BuildLoop(body)})
			}
		}
	}
	return in
}

// TestDifferentialDistinctCandidatesMatchReference pins the search that
// evaluates each distinct transformed graph once to the reference that
// evaluates every candidate: the same order, schedule, II and makespan and
// the same event stream, on every input and machine. The duplicate count
// shows the dedupe had work to skip.
func TestDifferentialDistinctCandidatesMatchReference(t *testing.T) {
	dups := CountDuplicateCandidates(t)
	compared := 0
	for _, in := range referenceInputs(t) {
		name, g := in.name, in.g
		for _, m := range []*machine.Machine{machine.SingleUnit(4), machine.Superscalar(2, 4), machine.RS6000(4)} {
			wantRec, gotRec := obs.NewRecorder(), obs.NewRecorder()
			want, wantErr := referenceSingleBlockLoop(g, m, wantRec)
			got, err := ScheduleLoopOpts(g, m, Opts{Tracer: gotRec})
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s on %s: error %v, reference %v", name, m.Name, err, wantErr)
			}
			if err != nil {
				continue
			}
			compared++
			if got.II != want.II || got.Makespan != want.Makespan {
				t.Fatalf("%s on %s: (II, makespan) = (%d, %d), reference (%d, %d)",
					name, m.Name, got.II, got.Makespan, want.II, want.Makespan)
			}
			if !slices.Equal(got.Order, want.Order) {
				t.Fatalf("%s on %s: order %v, reference %v", name, m.Name, got.Order, want.Order)
			}
			if !slices.Equal(got.S.Start, want.S.Start) || !slices.Equal(got.S.Unit, want.S.Unit) {
				t.Fatalf("%s on %s: schedule differs from the reference", name, m.Name)
			}
			if !slices.Equal(gotRec.Events(), wantRec.Events()) {
				t.Fatalf("%s on %s: events differ\n got %v\nwant %v",
					name, m.Name, gotRec.Events(), wantRec.Events())
			}
		}
	}
	if compared < 300 || dups.Load() < 100 {
		t.Fatalf("compared %d schedules, %d duplicate candidates skipped; want ≥ 300 and ≥ 100",
			compared, dups.Load())
	}
	t.Logf("compared %d schedules, %d duplicate candidates skipped", compared, dups.Load())
}

// TestClassSensitiveLoopFixture keeps classSensitiveLoop doing its job: its
// two same-exec source candidates must give different steady states.
func TestClassSensitiveLoopFixture(t *testing.T) {
	g, m := classSensitiveLoop(), machine.RS6000(4)
	var iis []int
	for _, y := range []graph.NodeID{1, 3} {
		order, err := SingleSourceOrder(g, m, y)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Evaluate(g, m, order)
		if err != nil {
			t.Fatal(err)
		}
		iis = append(iis, st.II)
	}
	if iis[0] != 7 || iis[1] != 8 {
		t.Fatalf("source candidates n1, n3 give II %v, want [7 8]", iis)
	}
}
