package hw

import (
	"math/rand"
	"slices"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/testutil"
)

// TestKernelLoadViewMatchesSimulateTrace: a static order loaded from a CSR
// view replays exactly as SimulateTrace runs it from the graph.
func TestKernelLoadViewMatchesSimulateTrace(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var k Kernel
	for i := 0; i < 300; i++ {
		n := 1 + r.Intn(12)
		g := graph.New(n)
		for v := 0; v < n; v++ {
			g.AddNode("n", 1+r.Intn(3), r.Intn(3), 0)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.3 {
					g.MustEdge(graph.NodeID(u), graph.NodeID(v), r.Intn(4), 0)
				}
			}
		}
		order := identity(n)
		r.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		m := machine.RS6000(1 + r.Intn(5))
		want, werr := SimulateTrace(g, m, order)
		k.LoadView(graph.NewCSR(g).View(), order, nil)
		comp, err := k.Run(m)
		if (err == nil) != (werr == nil) {
			t.Fatalf("instance %d: kernel error %v, SimulateTrace error %v", i, err, werr)
		}
		if err == nil && (comp != want.Completion || !slices.Equal(issued(&k, n), want.Issued)) {
			t.Fatalf("instance %d: kernel %v (completion %d), SimulateTrace %v (completion %d)",
				i, issued(&k, n), comp, want.Issued, want.Completion)
		}
	}
}

// TestKernelReleaseFloor: a release floor holds an otherwise ready
// instruction back, and the window lets a later one fill the gap.
func TestKernelReleaseFloor(t *testing.T) {
	var k Kernel
	k.Truncate(0)
	k.Add(1, 0, 3) // free of producers, but released at 3
	k.Add(1, 0, 0)
	k.Add(1, 0, 0)
	k.Dep(1, 1) // position 2 waits one cycle after position 1
	comp, err := k.Run(machine.SingleUnit(3))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 0, 2}; !slices.Equal(issued(&k, 3), want) || comp != 4 {
		t.Fatalf("issued %v completion %d, want %v completion 4", issued(&k, 3), comp, want)
	}
	if _, err := k.Run(machine.SingleUnit(1)); err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 4, 6}; !slices.Equal(issued(&k, 3), want) {
		t.Fatalf("W=1 issued %v, want %v", issued(&k, 3), want)
	}
}

// issued returns the issue cycles of the kernel's first n positions.
func issued(k *Kernel, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = k.Issued(i)
	}
	return out
}

// TestKernelRunAllocatesNothing: a warmed-up kernel rebuilds and replays a
// stream without allocating.
func TestKernelRunAllocatesNothing(t *testing.T) {
	testutil.SkipIfAllocSensitive(t)
	var k Kernel
	m := machine.RS6000(3)
	build := func() {
		k.Truncate(0)
		for i := 0; i < 40; i++ {
			k.Add(1+i%3, i%3, i%5)
			if i > 0 {
				k.Dep(i-1, i%2)
			}
		}
		if _, err := k.Run(m); err != nil {
			t.Fatal(err)
		}
	}
	build()
	if allocs := testing.AllocsPerRun(50, build); allocs != 0 {
		t.Fatalf("warm kernel allocated %.1f times per replay", allocs)
	}
}

// TestSteadyStateIsPrefixDifference: SteadyState's two runs over one
// stream equal two separate simulations, rollbacks included.
func TestSteadyStateIsPrefixDifference(t *testing.T) {
	g, order := mulLoop(t)
	for _, opt := range []Options{
		{Speculate: true},
		{Speculate: false},
		{Speculate: true, MispredictEvery: 3, Penalty: 2},
	} {
		for _, m := range []*machine.Machine{machine.SingleUnit(4), machine.RS6000(8)} {
			r16, err := SimulateLoop(g, m, order, 16, opt)
			if err != nil {
				t.Fatal(err)
			}
			r64, err := SimulateLoop(g, m, order, 64, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SteadyState(g, m, order, opt)
			if err != nil {
				t.Fatal(err)
			}
			if want := float64(r64.Completion-r16.Completion) / 48; got != want {
				t.Fatalf("%s %+v: SteadyState %v, want %v", m.Name, opt, got, want)
			}
		}
	}
}
