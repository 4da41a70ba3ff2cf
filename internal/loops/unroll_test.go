package loops

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/paperex"
)

func TestUnrollFactorOneIsIdentity(t *testing.T) {
	f := paperex.NewFig3()
	ug, origin, err := Unroll(f.G, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ug.Len() != f.G.Len() || ug.NumEdges() != f.G.NumEdges() {
		t.Fatalf("unroll(1) changed shape: %d/%d nodes, %d/%d edges",
			ug.Len(), f.G.Len(), ug.NumEdges(), f.G.NumEdges())
	}
	for i, o := range origin {
		if int(o) != i {
			t.Fatalf("origin[%d] = %d", i, o)
		}
	}
}

func TestUnrollRejectsBadFactor(t *testing.T) {
	f := paperex.NewFig8()
	if _, _, err := Unroll(f.G, 0); err == nil {
		t.Fatal("factor 0 accepted")
	}
}

func TestUnrollFig3Twice(t *testing.T) {
	f := paperex.NewFig3()
	ug, origin, err := Unroll(f.G, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ug.Len() != 10 {
		t.Fatalf("nodes = %d, want 10", ug.Len())
	}
	if !ug.IsAcyclic() {
		t.Fatal("unrolled loop-independent subgraph cyclic")
	}
	// The carried M→ST <4,1> edge becomes an intra edge M@0→ST@1 and a
	// carried edge M@1→ST@0 with distance 1.
	m0, st1 := graph.NodeID(int(f.M)), graph.NodeID(5+int(f.ST))
	foundIntra := false
	for _, e := range ug.Out(m0) {
		if e.Dst == st1 && e.Distance == 0 && e.Latency == 4 {
			foundIntra = true
		}
	}
	if !foundIntra {
		t.Fatal("carried M→ST did not become intra M@0→ST@1")
	}
	m1, st0 := graph.NodeID(5+int(f.M)), graph.NodeID(int(f.ST))
	foundCarried := false
	for _, e := range ug.Out(m1) {
		if e.Dst == st0 && e.Distance == 1 && e.Latency == 4 {
			foundCarried = true
		}
	}
	if !foundCarried {
		t.Fatal("wrap-around carried edge M@1→ST@0 missing")
	}
	if origin[5+int(f.M)] != f.M {
		t.Fatal("origin mapping wrong")
	}
}

func TestUnrollSteadyStateNeverWorsePerIteration(t *testing.T) {
	// Unrolling Figure 3 by 2 must not be worse per original iteration than
	// the un-unrolled general case (II 6).
	f := paperex.NewFig3()
	m := machine.SingleUnit(8)
	u, err := UnrollAndSchedule(f.G, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if per := u.PerIteration(); per > 6.0+1e-9 {
		t.Fatalf("unrolled per-iteration %f worse than 6", per)
	}
}

// TestUnrollNeverLosesToBase is the reproducer of a property failure: the
// base order repeated twice reaches II 8 in the unrolled body's periodic
// model (4.0 per iteration) against the base loop's II 3.
func TestUnrollNeverLosesToBase(t *testing.T) {
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddUnit("n")
	}
	g.MustEdge(0, 1, 1, 0)
	g.MustEdge(1, 2, 1, 0)
	g.MustEdge(1, 1, 2, 1)
	m := machine.SingleUnit(8)
	base, err := ScheduleSingleBlockLoop(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if base.II != 3 {
		t.Fatalf("base II = %d, want 3", base.II)
	}
	u, err := UnrollAndSchedule(g, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if per := u.PerIteration(); per > float64(base.II) {
		t.Fatalf("unrolled ×2: %.2f cycles per iteration, base %d", per, base.II)
	}
	if len(u.Origin) != u.K*g.Len() || len(u.Steady.Order) != len(u.Origin) {
		t.Fatalf("K=%d with %d origins and a %d-node order for a %d-node loop",
			u.K, len(u.Origin), len(u.Steady.Order), g.Len())
	}
}

func TestPropertyUnrollPreservesSemanticsOfII(t *testing.T) {
	// The unrolled body's best II per original iteration never exceeds the
	// original's best II (unrolling only adds freedom) and respects the
	// recurrence bound scaled by k.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
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
		g.MustEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), 1+r.Intn(3), 1)
		m := machine.SingleUnit(8)
		base, err := ScheduleSingleBlockLoop(g, m)
		if err != nil {
			return false
		}
		u, err := UnrollAndSchedule(g, m, 2)
		if err != nil {
			return false
		}
		// Tolerance 1e-9; per-iteration can only improve or match up to the
		// integer ceiling of II (unrolled II is an integer over 2 iters).
		return u.PerIteration() <= float64(base.II)+0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUnrolledGraphWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddUnit("n")
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.3 {
					g.MustEdge(graph.NodeID(i), graph.NodeID(j), r.Intn(3), 0)
				}
			}
		}
		// A couple of carried edges, possibly with distance 2.
		for c := 0; c < 2; c++ {
			g.MustEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), r.Intn(3), 1+r.Intn(2))
		}
		k := 2 + r.Intn(3)
		ug, origin, err := Unroll(g, k)
		if err != nil {
			return false
		}
		if ug.Len() != n*k || len(origin) != n*k {
			return false
		}
		if !ug.IsAcyclic() {
			return false
		}
		// Total edge multiplicity is preserved: each original edge expands
		// to exactly k instances.
		return ug.NumEdges() == g.NumEdges()*k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
