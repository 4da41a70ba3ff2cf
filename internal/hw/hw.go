// Package hw simulates the hardware instruction-lookahead model of Sarkar &
// Simons (SPAA '96, §2.3): a sliding window over the dynamic instruction
// stream holds W consecutive instructions; any instruction in the window
// whose data dependences are satisfied may issue, earlier-positioned ready
// instructions issue before later ones (the Ordering Constraint), and the
// window advances only when its first instruction has issued.
//
// The simulator is the ground truth for all experiments: schedulers emit
// static per-block instruction orders, and this package measures the dynamic
// completion time those orders achieve on a machine with lookahead W —
// including the cross-block overlap that anticipatory scheduling targets,
// and optional branch misprediction rollback.
package hw

import (
	"fmt"
	"sync"

	"aisched/internal/faultinject"
	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
)

// simScratch pools the simulator's per-call working buffers (permutation
// check, dynamic stream, position index, finish times, unit clocks) so
// repeated simulations — the experiment sweeps run thousands — stay
// allocation-light. issued and the Result escape to the caller and are
// always freshly allocated.
type simScratch struct {
	seen     []bool
	stream   []instance
	pos      []int // flat [node*iters+iter] position index
	finish   []int
	unitFree []int
	// pending mirrors issued: bit i set ⇔ stream position i has not issued.
	// The window scans (issue pass, no-progress pass, head advance, occupancy)
	// run word-parallel over it instead of walking issued linearly.
	pending graph.Bitset
}

var simPool = sync.Pool{New: func() any { return new(simScratch) }}

// Options control simulation details.
type Options struct {
	// Speculate: when true, loop-carried edges whose source is a
	// branch-class node (control dependences into the next iteration) are
	// ignored — the hardware predicts the branch and eagerly executes
	// next-iteration instructions, with safe rollback on mispredict. When
	// false, every instruction waits for the previous iteration's branch.
	Speculate bool
	// MispredictEvery injects one branch misprediction every k-th branch
	// instance (0 = never). On a mispredict, instructions issued after the
	// branch in stream order are rolled back and the stream stalls for
	// Penalty cycles after the branch completes.
	MispredictEvery int
	// Penalty is the rollback/refill cost of a misprediction in cycles.
	Penalty int
	// Tracer, when non-nil, receives cycle-level events: every issue (with
	// idle-slot fill attribution), every issue-phase stall cycle with a
	// StallReason, window head/occupancy changes, and rollbacks. Tracing
	// never changes simulation results; a nil Tracer costs nothing on the
	// hot path.
	Tracer obs.Tracer
}

// instance is one dynamic instruction: a node of the body graph in a
// specific iteration.
type instance struct {
	node graph.NodeID
	iter int
}

// Result reports one simulation.
type Result struct {
	// Completion is the cycle at which the last instruction finishes.
	Completion int
	// Issued[i] is the issue cycle of stream position i.
	Issued []int
	// Rollbacks counts injected mispredictions.
	Rollbacks int
}

// SimulateTrace executes a single pass over an acyclic trace graph whose
// static instruction order is `order` (the concatenated per-block orders the
// compiler emitted) on machine m. Only distance-0 edges constrain execution.
func SimulateTrace(g *graph.Graph, m *machine.Machine, order []graph.NodeID) (*Result, error) {
	return simulate(g, m, order, 1, Options{Speculate: true})
}

// SimulateTraceT is SimulateTrace with cycle-level tracing: issue events
// with idle-slot fill attribution, per-cycle stall reasons, window
// head/occupancy changes. A nil tracer is equivalent to SimulateTrace.
func SimulateTraceT(g *graph.Graph, m *machine.Machine, order []graph.NodeID, tr obs.Tracer) (*Result, error) {
	return simulate(g, m, order, 1, Options{Speculate: true, Tracer: tr})
}

// SimulateLoop executes iters iterations of a loop body graph whose
// per-iteration static order is `order`. An edge (u, v) with distance d
// constrains instance (v, k) by instance (u, k−d); instances with k−d < 0
// are unconstrained (the loop prologue is assumed complete, as in the
// paper's Figure 3 where the software-pipelined store's producer ran in the
// previous iteration).
func SimulateLoop(g *graph.Graph, m *machine.Machine, order []graph.NodeID, iters int, opt Options) (*Result, error) {
	return simulate(g, m, order, iters, opt)
}

// SteadyState estimates the asymptotic cycles-per-iteration of a loop under
// the dynamic window model by simulating enough iterations for the pattern
// to settle and differencing two long prefixes.
func SteadyState(g *graph.Graph, m *machine.Machine, order []graph.NodeID, opt Options) (float64, error) {
	const warm, span = 16, 48
	r1, err := SimulateLoop(g, m, order, warm, opt)
	if err != nil {
		return 0, err
	}
	r2, err := SimulateLoop(g, m, order, warm+span, opt)
	if err != nil {
		return 0, err
	}
	return float64(r2.Completion-r1.Completion) / span, nil
}

func simulate(g *graph.Graph, m *machine.Machine, order []graph.NodeID, iters int, opt Options) (*Result, error) {
	n := g.Len()
	if len(order) != n {
		return nil, fmt.Errorf("hw: order has %d entries for %d nodes", len(order), n)
	}
	st := simPool.Get().(*simScratch)
	defer simPool.Put(st)
	if cap(st.seen) < n {
		st.seen = make([]bool, n)
	}
	seen := st.seen[:n]
	for i := range seen {
		seen[i] = false
	}
	for _, id := range order {
		if id < 0 || int(id) >= n || seen[id] {
			return nil, fmt.Errorf("hw: order is not a permutation")
		}
		seen[id] = true
	}
	if iters < 1 {
		return nil, fmt.Errorf("hw: iters = %d < 1", iters)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}

	// Build the dynamic stream and a flat position index pos[node*iters+iter].
	if cap(st.stream) < n*iters {
		st.stream = make([]instance, 0, n*iters)
	}
	stream := st.stream[:0]
	if cap(st.pos) < n*iters {
		st.pos = make([]int, n*iters)
	}
	pos := st.pos[:n*iters]
	for k := 0; k < iters; k++ {
		for _, id := range order {
			pos[int(id)*iters+k] = len(stream)
			stream = append(stream, instance{node: id, iter: k})
		}
	}
	st.stream = stream
	total := len(stream)
	issued := make([]int, total)
	if cap(st.finish) < total {
		st.finish = make([]int, total)
	}
	finish := st.finish[:total]
	for i := range issued {
		issued[i] = -1
		finish[i] = -1
	}
	words := (total + 63) / 64
	if cap(st.pending) < words {
		st.pending = make(graph.Bitset, words)
	}
	pending := st.pending[:words]
	for i := range pending {
		pending[i] = 0
	}
	pending.SetRange(0, total)

	w := m.Window
	totalUnits := m.TotalUnits()
	if cap(st.unitFree) < totalUnits {
		st.unitFree = make([]int, totalUnits)
	}
	unitFree := st.unitFree[:totalUnits]
	for i := range unitFree {
		unitFree[i] = 0
	}
	rollbacks := 0
	nextMispredict := opt.MispredictEvery // countdown in branch instances

	head := 0
	done := 0
	// stallUntil blocks all issue before the given cycle (mispredict refill).
	stallUntil := 0
	tr := opt.Tracer
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassStart, Pass: obs.PassSimulate,
			Block: -1, Node: graph.None, N: total})
	}
	// emitWindow reports window head/occupancy whenever either changes.
	lastHead, lastOcc := -1, -1
	emitWindow := func(t int) {
		inWindow := head + w
		if inWindow > total {
			inWindow = total
		}
		occ := pending.CountRange(head, inWindow)
		if head != lastHead || occ != lastOcc {
			tr.Emit(obs.Event{Kind: obs.KindWindow, Cycle: t, From: head, N: occ,
				Block: -1, Node: graph.None})
			lastHead, lastOcc = head, occ
		}
	}
	for t := 0; done < total; t++ {
		if h := faultinject.SimStep; h != nil {
			h()
		}
		if t < stallUntil {
			if tr != nil {
				for c := t; c < stallUntil; c++ {
					tr.Emit(obs.Event{Kind: obs.KindStall, Cycle: c,
						Reason: obs.RollbackRefill, Block: -1, Node: graph.None})
				}
			}
			t = stallUntil - 1
			continue
		}
		if tr != nil {
			emitWindow(t)
		}
		progress := false
		inWindow := head + w
		if inWindow > total {
			inWindow = total
		}
		for i := pending.NextSet(head); i >= 0 && i < inWindow; i = pending.NextSet(i + 1) {
			ins := stream[i]
			if !ready(g, m, opt, pos, iters, finish, ins, t) {
				continue
			}
			base, count := unitRange(m, machine.UnitClass(g.Node(ins.node).Class))
			if count == 0 {
				return nil, fmt.Errorf("hw: node %d has class %d with no units",
					ins.node, g.Node(ins.node).Class)
			}
			unit := -1
			for u := base; u < base+count; u++ {
				if unitFree[u] <= t {
					unit = u
					break
				}
			}
			if unit < 0 {
				continue
			}
			if tr != nil {
				// Fill attribution: issuing past an earlier unissued
				// instruction means this instruction fills an idle slot the
				// effective head left behind; it is a cross-block fill when
				// the overtaken instruction belongs to a different basic
				// block or iteration — the anticipatory overlap the paper's
				// schedules engineer.
				nd := g.Node(ins.node)
				fill, cross := false, false
				if j := pending.NextSet(head); j >= 0 && j < i {
					over := stream[j]
					fill = true
					cross = g.Node(over.node).Block != nd.Block || over.iter != ins.iter
				}
				tr.Emit(obs.Event{Kind: obs.KindIssue, Cycle: t, Pos: i,
					Node: ins.node, Label: nd.Label, Block: nd.Block,
					Iter: ins.iter, Unit: unit, N: nd.Exec, Fill: fill, Cross: cross})
			}
			issued[i] = t
			pending.Clear(i)
			finish[i] = t + g.Node(ins.node).Exec
			unitFree[unit] = finish[i]
			done++
			progress = true
			// Branch misprediction injection: roll back everything issued
			// after this branch in stream order and stall.
			if opt.MispredictEvery > 0 && g.Node(ins.node).Class == int(machine.ClassBranch) {
				nextMispredict--
				if nextMispredict <= 0 {
					nextMispredict = opt.MispredictEvery
					rollbacks++
					squashed := 0
					for j := i + 1; j < total; j++ {
						if issued[j] >= 0 {
							issued[j] = -1
							pending.Set(j)
							finish[j] = -1
							done--
							squashed++
						}
					}
					// All units refill after the branch resolves.
					stallUntil = finish[i] + opt.Penalty
					for u := range unitFree {
						if unitFree[u] < stallUntil {
							unitFree[u] = stallUntil
						}
					}
					if tr != nil {
						tr.Emit(obs.Event{Kind: obs.KindRollback, Cycle: t, Pos: i,
							Node: ins.node, Label: g.Node(ins.node).Label,
							Block: g.Node(ins.node).Block, N: squashed, To: stallUntil})
					}
				}
			}
		}
		// Advance the window head past the issued prefix.
		if h := pending.NextSet(head); h >= 0 {
			head = h
		} else {
			head = total
		}
		if tr != nil {
			emitWindow(t)
		}
		if !progress {
			// Jump to the next time anything can change.
			next := -1
			for i := pending.NextSet(head); i >= 0 && i < inWindow; i = pending.NextSet(i + 1) {
				cand := earliestReady(g, m, opt, pos, iters, finish, stream[i])
				base, count := unitRange(m, machine.UnitClass(g.Node(stream[i].node).Class))
				uf := -1
				for u := base; u < base+count; u++ {
					if uf == -1 || unitFree[u] < uf {
						uf = unitFree[u]
					}
				}
				if uf > cand {
					cand = uf
				}
				if next == -1 || cand < next {
					next = cand
				}
			}
			if next >= never/2 {
				// Every window-resident instruction waits on a producer that
				// is beyond the window: the stream order deadlocks the
				// machine (a consumer precedes its producer by ≥ W).
				return nil, fmt.Errorf("hw: stream deadlock at cycle %d (head %d, window %d)", t, head, w)
			}
			if next <= t {
				next = t + 1
			}
			if tr != nil {
				// Attribute every stalled cycle in [t, next). The reason can
				// change inside the range (a producer completing makes a
				// window instruction data-ready but its unit stays busy), so
				// classify per cycle.
				for c := t; c < next; c++ {
					tr.Emit(obs.Event{Kind: obs.KindStall, Cycle: c, Block: -1,
						Node: graph.None,
						Reason: classifyStall(g, m, opt, pos, iters, finish, stream, issued,
							unitFree, head, inWindow, total, w, c)})
				}
			}
			t = next - 1
		}
	}
	completion := 0
	for _, f := range finish {
		if f > completion {
			completion = f
		}
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassEnd, Pass: obs.PassSimulate,
			Block: -1, Node: graph.None, N: completion})
	}
	return &Result{Completion: completion, Issued: issued, Rollbacks: rollbacks}, nil
}

// classifyStall attributes one issue-phase stall cycle to a StallReason.
// Precedence: UnitBusy (a window-resident instruction is data-ready but its
// class's units are all occupied) over WindowFull (nothing in the window can
// issue, yet an instruction just beyond it is ready with a free unit — the
// lookahead size W is the binding constraint) over HeadBlocked (the window
// has already drained instructions past the head out of order and can no
// longer slide) over DepWait (plain dependence wait). RollbackRefill cycles
// are attributed at the emission site.
func classifyStall(g *graph.Graph, m *machine.Machine, opt Options, pos []int,
	iters int, finish []int, stream []instance, issued, unitFree []int,
	head, inWindow, total, w, t int) obs.StallReason {
	for i := head; i < inWindow; i++ {
		if issued[i] >= 0 {
			continue
		}
		if earliestReady(g, m, opt, pos, iters, finish, stream[i]) <= t {
			return obs.UnitBusy
		}
	}
	if inWindow-head == w {
		for j := inWindow; j < total; j++ {
			if earliestReady(g, m, opt, pos, iters, finish, stream[j]) > t {
				continue
			}
			base, count := unitRange(m, machine.UnitClass(g.Node(stream[j].node).Class))
			for u := base; u < base+count; u++ {
				if unitFree[u] <= t {
					return obs.WindowFull
				}
			}
		}
	}
	for i := head + 1; i < inWindow; i++ {
		if issued[i] >= 0 {
			return obs.HeadBlocked
		}
	}
	return obs.DepWait
}

// honored reports whether the simulator enforces edge e for this run.
func honored(g *graph.Graph, opt Options, e graph.Edge) bool {
	if e.Distance == 0 {
		return true
	}
	if opt.Speculate && g.Node(e.Src).Class == int(machine.ClassBranch) {
		return false // predicted branch: next iteration proceeds eagerly
	}
	return true
}

// ready reports whether instance ins can issue at cycle t.
func ready(g *graph.Graph, m *machine.Machine, opt Options, pos []int, iters int, finish []int, ins instance, t int) bool {
	return earliestReady(g, m, opt, pos, iters, finish, ins) <= t
}

// never marks an instance whose producer has not issued yet.
const never = 1 << 30

// earliestReady returns the earliest cycle at which ins's dependences allow
// issue, or never if a producer has not issued yet.
func earliestReady(g *graph.Graph, m *machine.Machine, opt Options, pos []int, iters int, finish []int, ins instance) int {
	at := 0
	for _, e := range g.In(ins.node) {
		if !honored(g, opt, e) {
			continue
		}
		k := ins.iter - e.Distance
		if k < 0 {
			continue // prologue instance: already complete
		}
		p := pos[int(e.Src)*iters+k]
		if finish[p] < 0 {
			return never
		}
		if r := finish[p] + e.Latency; r > at {
			at = r
		}
	}
	return at
}

func unitRange(m *machine.Machine, c machine.UnitClass) (base, count int) {
	if c < 0 {
		return 0, 0 // no unit runs a negative class
	}
	if m.SingleUnitOnly() {
		return 0, 1
	}
	for cls := 0; cls < int(c) && cls < len(m.Units); cls++ {
		base += m.Units[cls]
	}
	if int(c) < len(m.Units) {
		return base, m.Units[c]
	}
	return base, 0
}
