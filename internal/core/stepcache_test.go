package core

import (
	"fmt"
	"math/rand"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/memo"
	"aisched/internal/obs"
)

// dupBlockTrace builds a trace whose blocks are instantiated from a small
// pool of structural templates — the repetitive-workload shape the step
// cache exists for. pCross adds occasional cross-block edges (they change
// merge inputs and so legitimately reduce hits, but must never change
// results).
func dupBlockTrace(r *rand.Rand, nblocks, nodesPer, classes, maxLat, nTemplates int, pCross float64) *graph.Graph {
	type tmplEdge struct{ i, j, lat int }
	type tmpl struct {
		exec, class []int
		edges       []tmplEdge
	}
	tmpls := make([]tmpl, nTemplates)
	for t := range tmpls {
		tm := tmpl{exec: make([]int, nodesPer), class: make([]int, nodesPer)}
		for i := 0; i < nodesPer; i++ {
			tm.exec[i] = 1 + r.Intn(2)
			tm.class[i] = r.Intn(classes)
		}
		for i := 0; i < nodesPer; i++ {
			for j := i + 1; j < nodesPer; j++ {
				if r.Float64() < 0.35 {
					tm.edges = append(tm.edges, tmplEdge{i, j, r.Intn(maxLat + 1)})
				}
			}
		}
		tmpls[t] = tm
	}
	g := graph.New(nblocks * nodesPer)
	for b := 0; b < nblocks; b++ {
		tm := tmpls[r.Intn(nTemplates)]
		base := graph.NodeID(b * nodesPer)
		for i := 0; i < nodesPer; i++ {
			g.AddNode(fmt.Sprintf("b%d_%d", b, i), tm.exec[i], tm.class[i], b)
		}
		for _, e := range tm.edges {
			g.MustEdge(base+graph.NodeID(e.i), base+graph.NodeID(e.j), e.lat, 0)
		}
		if b > 0 && r.Float64() < pCross {
			g.MustEdge(base-1, base, r.Intn(maxLat+1), 0)
		}
	}
	return g
}

func sameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if fmt.Sprint(got.Order) != fmt.Sprint(want.Order) {
		t.Fatalf("%s: orders differ\n got %v\n want %v", tag, got.Order, want.Order)
	}
	for v := range want.S.Start {
		if got.S.Start[v] != want.S.Start[v] || got.S.Unit[v] != want.S.Unit[v] {
			t.Fatalf("%s: schedule differs at node %d: (%d,%d) vs (%d,%d)",
				tag, v, got.S.Start[v], got.S.Unit[v], want.S.Start[v], want.S.Unit[v])
		}
	}
	if len(got.BlockOrders) != len(want.BlockOrders) {
		t.Fatalf("%s: block count %d vs %d", tag, len(got.BlockOrders), len(want.BlockOrders))
	}
	for b, o := range want.BlockOrders {
		if fmt.Sprint(got.BlockOrders[b]) != fmt.Sprint(o) {
			t.Fatalf("%s: block %d orders differ\n got %v\n want %v", tag, b, got.BlockOrders[b], o)
		}
	}
}

// TestStepCacheDifferential is the tentpole guarantee: with the step cache
// enabled — cold and warm, shared across traces — batch results are
// bit-identical to the uncached driver, across machines, classes, mixed
// latencies (release-floor regime) and duplicate-block densities.
func TestStepCacheDifferential(t *testing.T) {
	machines := []*machine.Machine{
		machine.SingleUnit(4),
		machine.SingleUnit(2),
		machine.RS6000(4),
		machine.Superscalar(2, 4),
	}
	sc := NewStepCache(StepCacheConfig{})
	for seed := int64(0); seed < 48; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := machines[seed%int64(len(machines))]
		classes := 1
		if m.Name == "rs6000" || seed%3 == 0 {
			classes = len(m.Units)
		}
		maxLat := int(seed % 3) // 0/1 restricted through mixed-latency §4.2
		g := dupBlockTrace(r, 2+r.Intn(10), 2+r.Intn(5), classes, maxLat,
			1+r.Intn(3), float64(seed%4)*0.25)
		opt := Options{SkipDelay: seed%7 == 6}

		want, err := LookaheadOpts(g, m, opt)
		if err != nil {
			t.Fatalf("seed %d: uncached: %v", seed, err)
		}
		opt.StepCache = sc
		for pass := 0; pass < 2; pass++ { // cold then warm
			got, err := LookaheadOpts(g, m, opt)
			if err != nil {
				t.Fatalf("seed %d pass %d: cached: %v", seed, pass, err)
			}
			sameResult(t, fmt.Sprintf("seed %d pass %d (%s)", seed, pass, m.Name), got, want)
		}
	}
	c := sc.Counters()
	if c.Hits == 0 {
		t.Fatalf("differential sweep produced no cache hits (misses=%d)", c.Misses)
	}
	if c.Bytes <= 0 {
		t.Fatalf("resident-bytes gauge not accounted: %d", c.Bytes)
	}
}

// chainTrace builds a trace of identical serial latency chains: each block
// stalls the pipeline, so Delay_Idle_Slots and Chop fire every step and the
// carried suffix reaches a periodic steady state — the canonical hit shape.
// (A dense dup trace with no idle slots never chops: the suffix grows every
// step and every key is legitimately unique.)
func chainTrace(nblocks, nodesPer, lat int) *graph.Graph {
	g := graph.New(nblocks * nodesPer)
	for b := 0; b < nblocks; b++ {
		base := graph.NodeID(b * nodesPer)
		for i := 0; i < nodesPer; i++ {
			g.AddNode(fmt.Sprintf("b%d_%d", b, i), 1, 0, b)
		}
		for i := 0; i < nodesPer-1; i++ {
			g.MustEdge(base+graph.NodeID(i), base+graph.NodeID(i+1), lat, 0)
		}
	}
	return g
}

// TestStepCacheHitsOnDuplicateBlocks pins the intended hit pattern: a trace
// of identical blocks warms on the first few steps and replays the rest from
// the cache.
func TestStepCacheHitsOnDuplicateBlocks(t *testing.T) {
	g := chainTrace(40, 5, 2)
	m := machine.SingleUnit(4)
	sc := NewStepCache(StepCacheConfig{})
	want, err := LookaheadOpts(g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := LookaheadOpts(g, m, Options{StepCache: sc})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "dup40", got, want)
	c := sc.Counters()
	if c.Hits < 30 {
		t.Fatalf("expected ≥30 hits on 40 identical blocks, got hits=%d misses=%d", c.Hits, c.Misses)
	}
}

// replayTwice runs g twice through one shared step cache: both passes must
// equal the uncached result, and the second pass must replay all blocks
// steps from the first without a miss.
func replayTwice(t *testing.T, name string, g *graph.Graph, blocks uint64) {
	t.Helper()
	m := machine.SingleUnit(3)
	want, err := LookaheadOpts(g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewStepCache(StepCacheConfig{})
	for pass := 0; pass < 2; pass++ {
		before := sc.Counters()
		got, err := LookaheadOpts(g, m, Options{StepCache: sc})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("%s pass %d", name, pass), got, want)
		c := sc.Counters()
		if pass == 1 && (c.Hits-before.Hits != blocks || c.Misses != before.Misses) {
			t.Fatalf("%s: second pass served %d hits and %d misses, want %d hits and none",
				name, c.Hits-before.Hits, c.Misses-before.Misses, blocks)
		}
	}
}

// TestStepCacheNonCanonicalBypass: blocks assigned round robin, so from the
// second block on every new ID lies between carried IDs. Such a layout once
// had to bypass the cache; the step key hashes each view node's carried
// state in place, so it is now cached and replayed like any other. The
// edges chain each ID to the next within a round, so none runs backward.
func TestStepCacheNonCanonicalBypass(t *testing.T) {
	g := graph.New(12)
	for i := 0; i < 12; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), 1, 0, i%3)
	}
	for i := 0; i < 11; i++ {
		if i%3 != 2 {
			g.MustEdge(graph.NodeID(i), graph.NodeID(i+1), 1, 0)
		}
	}
	replayTwice(t, "round-robin", g, 3)
}

// TestStepCacheMaxOldGatingBypass: block 0 owns {0,1,2,4}, block 1 owns
// {3,5,6,7}, so the blocks ascend but carried node 4 sits above block 1's
// first ID 3. The latency-2 edge 2→4 leaves a trailing idle slot in block 0,
// so the chop carries node 4 into the merge with block 1. That merge once
// bypassed the cache behind a maxOld gate; it is now cached and replayed.
func TestStepCacheMaxOldGatingBypass(t *testing.T) {
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		blk := 0
		if i == 3 || i >= 5 {
			blk = 1
		}
		g.AddNode(fmt.Sprintf("n%d", i), 1, 0, blk)
	}
	g.MustEdge(0, 1, 1, 0)
	g.MustEdge(2, 4, 2, 0)
	g.MustEdge(3, 5, 1, 0)
	g.MustEdge(5, 6, 1, 0)
	replayTwice(t, "straddle", g, 2)
}

// TestStepCacheTracerTransparent: attaching a Tracer changes nothing the
// step cache does. A traced sequential run returns the untraced run's
// result and moves a fresh cache's counters exactly as the untraced run
// does; each hit emits its replayed chop, so the chop count equals the
// cache-off traced run's.
func TestStepCacheTracerTransparent(t *testing.T) {
	g := chainTrace(40, 5, 2)
	m := machine.SingleUnit(4)
	plain := NewStepCache(StepCacheConfig{})
	want, err := LookaheadOpts(g, m, Options{Parallel: -1, StepCache: plain})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewStepCache(StepCacheConfig{})
	rec := obs.NewRecorder()
	got, err := LookaheadOpts(g, m, Options{Parallel: -1, StepCache: sc, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "tracer", got, want)
	if a, b := sc.Counters(), plain.Counters(); a != b {
		t.Fatalf("traced cache counters %+v, untraced %+v", a, b)
	}
	if sc.Counters().Hits == 0 {
		t.Fatal("no step-cache hits: the trace exercises no replay")
	}
	off := obs.NewRecorder()
	if _, err := LookaheadOpts(g, m, Options{Parallel: -1, Tracer: off}); err != nil {
		t.Fatal(err)
	}
	if a, b := rec.Stats().Chops, off.Stats().Chops; a != b {
		t.Fatalf("cache-on traced run counted %d chops, cache-off %d", a, b)
	}
	replays := 0
	for _, e := range rec.Events() {
		if e.Kind == obs.KindChop && e.Label == "replay" {
			replays++
		}
	}
	if uint64(replays) != sc.Counters().Hits {
		t.Fatalf("%d replay chop events for %d hits", replays, sc.Counters().Hits)
	}
}

// blockStepIn builds the StepIn of one block merged into an empty suffix:
// unit-time nodes of class 0, the given forward edges (latency < 0 means no
// edge; lat[i][j] for i < j), and the given release floors.
func blockStepIn(m *machine.Machine, lat [][]int, floors []int) *StepIn {
	return carriedStepIn(m, lat, floors, make([]int, len(floors)), 0, nil, nil, 0)
}

// carriedStepIn builds the StepIn of block b merged with a carried suffix:
// view nodes [0, len(dOld)) are carried, of blocks b − behind[i], with
// carried deadlines dOld and finishes fOld; the rest are block b's. Nodes,
// edges and floors are as in blockStepIn.
func carriedStepIn(m *machine.Machine, lat [][]int, floors, behind []int, b int, dOld, fOld []int, oldMakespan int) *StepIn {
	n := len(floors)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode("", 1, 0, b-behind[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if lat[i][j] >= 0 {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), lat[i][j], 0)
			}
		}
	}
	isOld := make([]bool, n)
	for i := range isOld {
		isOld[i] = i < len(dOld)
	}
	return &StepIn{
		View: graph.NewCSR(g).View(), M: m, IsOld: isOld,
		DOld: append(dOld, make([]int, n-len(dOld))...), FOld: append(fOld, make([]int, n-len(fOld))...),
		ROld: append([]int(nil), floors...), OldCount: len(dOld), OldMakespan: oldMakespan, Block: b,
	}
}

// stepOutString renders every field of a step outcome, so outcomes can be
// compared after the Step's scratch they alias has been reused.
func stepOutString(out StepOut) string {
	return fmt.Sprint(out.S.Start, out.S.Unit, out.D, out.Minus, out.Plus, out.Base, out.Repaired)
}

// TestStepCacheKeyFramesEdges is the regression for a step-key collision:
// a 3-node chain with latency-1 edges 0→1→2 and no floors once hashed to the
// same words as the edgeless block with floor 1 on every node, so the
// second replayed the chain's finishes (1, 3, 5) instead of its own
// (2, 3, 4).
func TestStepCacheKeyFramesEdges(t *testing.T) {
	m := machine.SingleUnit(4)
	chain := blockStepIn(m, [][]int{{-1, 1, -1}, {-1, -1, 1}, {-1, -1, -1}}, []int{0, 0, 0})
	floored := blockStepIn(m, [][]int{{-1, -1, -1}, {-1, -1, -1}, {-1, -1, -1}}, []int{1, 1, 1})
	sc := NewStepCache(StepCacheConfig{})
	defer sc.Release()
	var st Step
	if _, err := st.RunMemo(chain, sc); err != nil {
		t.Fatal(err)
	}
	before := sc.Counters()
	got, err := st.RunMemo(floored, sc)
	if err != nil {
		t.Fatal(err)
	}
	if c := sc.Counters(); c.Hits != before.Hits || c.Misses != before.Misses+1 {
		t.Fatalf("floored block after the chain: hits %d -> %d, misses %d -> %d; want one miss",
			before.Hits, c.Hits, before.Misses, c.Misses)
	}
	var ref Step
	want, err := ref.Run(floored)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := stepOutString(got), stepOutString(want); g != w {
		t.Fatalf("floored block via the cache: %s, want %s", g, w)
	}
}

// forwardLats enumerates every assignment of the given latency choices
// (−1 = no edge) to the forward pairs of n nodes, as lat[i][j] matrices.
func forwardLats(n int, choices []int) [][][]int {
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	cases := 1
	for range pairs {
		cases *= len(choices)
	}
	out := make([][][]int, cases)
	for ec := range out {
		lat := make([][]int, n)
		for i := range lat {
			lat[i] = make([]int, n)
			for j := range lat[i] {
				lat[i][j] = -1
			}
		}
		for k, c := 0, ec; k < len(pairs); k, c = k+1, c/len(choices) {
			lat[pairs[k][0]][pairs[k][1]] = choices[c%len(choices)]
		}
		out[ec] = lat
	}
	return out
}

// keyOracle records step outcomes by key and fails on the first key shared
// by two inputs with different outcomes.
type keyOracle struct {
	st     Step
	outs   map[memo.Key]string
	tags   map[memo.Key]string
	inputs int
}

func (o *keyOracle) check(t *testing.T, in *StepIn, tag string) {
	t.Helper()
	key := o.st.stepKey(in)
	// An edge between carried nodes may run from a later block into an
	// earlier one, which Lookahead rejects up front (graph.CheckBlockOrder);
	// on window 1 the replay then deadlocks, and that error is the outcome.
	var got string
	if out, err := o.st.Run(in); err != nil {
		got = "error: " + err.Error()
	} else {
		got = stepOutString(out)
	}
	o.inputs++
	if want, ok := o.outs[key]; ok && want != got {
		t.Fatalf("step key collision: %s -> %s, but %s -> %s", o.tags[key], want, tag, got)
	}
	o.outs[key], o.tags[key] = got, tag
}

// TestStepCacheKeyExhaustive enumerates small StepIns exhaustively and
// requires inputs that share a step key to share a Step.Run outcome. This
// guards the key's framing as a whole, not one colliding pair. The inputs
// are:
//   - every block of up to 3 new nodes merged into an empty suffix, each
//     forward pair with no edge or an edge of latency 0, 1 or 2, each node
//     with release floor 0, 1 or 2;
//   - every merge of 1 or 2 carried nodes with 1 or 2 new ones (at most 3
//     nodes), each forward pair with no edge or an edge of latency 0 or 1,
//     each carried node of a block one or two behind the new one with
//     deadline 1–3 and finish 1–3, on windows 1 and 2 — at two absolute
//     block positions, which share keys, so the relative block numbering
//     is checked too. Window 1 makes every inversion unrealizable, so the
//     pinned re-merge (which reads the finishes) and the block-major static
//     order both reach the outcome.
func TestStepCacheKeyExhaustive(t *testing.T) {
	m := machine.SingleUnit(2)
	o := &keyOracle{outs: map[memo.Key]string{}, tags: map[memo.Key]string{}}
	for n := 1; n <= 3; n++ {
		floorCases := 1
		for i := 0; i < n; i++ {
			floorCases *= 3
		}
		for _, lat := range forwardLats(n, []int{-1, 0, 1, 2}) {
			for fc := 0; fc < floorCases; fc++ {
				floors := make([]int, n)
				for i, c := 0, fc; i < n; i, c = i+1, c/3 {
					floors[i] = c % 3
				}
				o.check(t, blockStepIn(m, lat, floors), fmt.Sprintf("edges %v floors %v", lat, floors))
			}
		}
	}
	if want := 3 + 4*9 + 64*27; o.inputs != want {
		t.Fatalf("enumerated %d empty-suffix inputs, want %d", o.inputs, want)
	}

	// Each carried node takes one of 2 (behind) × 3 (deadline) × 3 (finish)
	// states.
	const oldStates = 18
	carried := 0
	for old := 1; old <= 2; old++ {
		for n := old + 1; n <= 3; n++ {
			stateCases := 1
			for i := 0; i < old; i++ {
				stateCases *= oldStates
			}
			for _, lat := range forwardLats(n, []int{-1, 0, 1}) {
				for sc := 0; sc < stateCases; sc++ {
					behind := make([]int, n)
					dOld := make([]int, old)
					fOld := make([]int, old)
					oldMakespan := 0
					for i, c := 0, sc; i < old; i, c = i+1, c/oldStates {
						state := c % oldStates
						behind[i] = 1 + state%2
						dOld[i] = 1 + state/2%3
						fOld[i] = 1 + state/6
						oldMakespan = max(oldMakespan, fOld[i])
					}
					for _, w := range []int{1, 2} {
						for _, b := range []int{2, 7} {
							in := carriedStepIn(machine.SingleUnit(w), lat, make([]int, n), behind, b,
								append([]int(nil), dOld...), append([]int(nil), fOld...), oldMakespan)
							o.check(t, in, fmt.Sprintf("W=%d block %d edges %v behind %v dOld %v fOld %v",
								w, b, lat, behind, dOld, fOld))
							carried++
						}
					}
				}
			}
		}
	}
	if want := 4 * (3*oldStates + 27*oldStates + 27*oldStates*oldStates); carried != want {
		t.Fatalf("enumerated %d carried inputs, want %d", carried, want)
	}
}
