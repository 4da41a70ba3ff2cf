package hw

import (
	"fmt"

	"aisched/internal/faultinject"
	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
)

// Kernel is the window machine of Definition 2.3 over a flat stream — the
// one replay loop every simulation in the repository runs on. Position i of
// the stream has an execution time, a unit class, a release floor (the
// earliest cycle it may issue, 0 for none) and its producers: positions
// whose finish plus latency it waits for. Run issues in window order, gives
// each instruction the first free unit of its class, advances the window
// past the issued prefix and jumps to the next event when nothing can issue.
//
// A Kernel is caller-owned scratch: after warm-up, building and replaying a
// stream allocates nothing, and a fresh Kernel's first replay of a small
// stream on a small machine allocates only the stream itself. It is not
// safe for concurrent use, and must not be copied after use.
type Kernel struct {
	pos  []slot
	prod []dep

	unitFree []int
	// pending: bit i set ⇔ position i has not issued. The window scans run
	// word-parallel over it.
	pending graph.Bitset
	// Inline backing for pending and unitFree on streams of up to 256
	// positions and machines of up to 4 units.
	pendingBuf [4]uint64
	unitBuf    [4]int

	// Set only by this package's simulations: the stream is order repeated
	// per iteration over g (tracer events name nodes, blocks and
	// iterations), and misprediction injection.
	g                 *graph.Graph
	order             []graph.NodeID
	tr                obs.Tracer
	mispredictEvery   int
	penalty           int
	rollbacks         int
	lastHead, lastOcc int
}

// slot is one stream position: its input (exec, class, release floor,
// producers prod[lo:hi]), its class's unit range, and its replay.
type slot struct {
	exec, class, rel     int
	lo, hi               int
	base, count          int
	issued, unit, finish int
	at                   int // LoadView: the position of view node i
}

type dep struct{ pos, lat int }

// never marks a position whose producer has not issued yet.
const never = 1 << 30

// Truncate cuts the stream to its first n positions.
func (k *Kernel) Truncate(n int) {
	k.pos = k.pos[:n]
	k.prod = k.prod[:0]
	if n > 0 {
		k.prod = k.prod[:k.pos[n-1].hi]
	}
}

// Add appends a position with no producers; Dep adds them.
func (k *Kernel) Add(exec, class, release int) {
	k.pos = append(k.pos, slot{exec: exec, class: class, rel: release, lo: len(k.prod), hi: len(k.prod)})
}

// Dep makes position p, with latency lat, a producer of the last position.
func (k *Kernel) Dep(p, lat int) {
	k.prod = append(k.prod, dep{p, lat})
	k.pos[len(k.pos)-1].hi++
}

// Issued returns position i's issue cycle in the last Run.
func (k *Kernel) Issued(i int) int { return k.pos[i].issued }

// Unit returns position i's global unit in the last Run.
func (k *Kernel) Unit(i int) int { return k.pos[i].unit }

// LoadView replaces the stream with order, a permutation of view's nodes:
// position i is node order[i] with its view exec time and class, release
// floor rel[order[i]] (rel may be nil) and its view in-edges as producers.
func (k *Kernel) LoadView(view graph.AdjView, order []graph.NodeID, rel []int) {
	n := len(order)
	k.pos = grow(k.pos, n)
	for i, v := range order {
		k.pos[v].at = i
	}
	for i, v := range order {
		r := 0
		if rel != nil {
			r = rel[v]
		}
		p := &k.pos[i]
		p.exec, p.class, p.rel, p.hi = int(view.Exec[v]), int(view.Class[v]), r, 0
	}
	// Transpose the out-edges: count each consumer's producers into hi,
	// turn the counts into running ends, then place each edge by moving lo
	// from the consumer's end down to its start.
	for _, d := range view.Dst[:view.Off[n]] {
		k.pos[k.pos[d].at].hi++
	}
	end := 0
	for i := range k.pos {
		end += k.pos[i].hi
		k.pos[i].lo, k.pos[i].hi = end, end
	}
	k.prod = grow(k.prod, end)
	for u := 0; u < n; u++ {
		for e := view.Off[u]; e < view.Off[u+1]; e++ {
			c := &k.pos[k.pos[view.Dst[e]].at]
			c.lo--
			k.prod[c.lo] = dep{k.pos[u].at, int(view.Lat[e])}
		}
	}
}

// Run replays the stream on machine m and returns its completion, the
// cycle the last instruction finishes. A stream whose every window-resident
// instruction waits on a producer beyond the window deadlocks the machine
// and is an error, as is an instruction whose class has no unit.
//
// Replaying a prefix-closed stream (every producer of a position precedes
// it) and then extending it replays each prefix as a complete stream: later
// positions never enter the replay of an earlier one.
func (k *Kernel) Run(m *machine.Machine) (int, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	n := len(k.pos)
	for i := range k.pos {
		p := &k.pos[i]
		if p.base, p.count = m.UnitRange(machine.UnitClass(p.class)); p.count == 0 {
			return 0, fmt.Errorf("hw: stream position %d has class %d with no units", i, p.class)
		}
		p.issued, p.unit, p.finish = -1, -1, -1
	}
	k.pending = growInline(k.pending, k.pendingBuf[:], (n+63)/64)
	pending := k.pending
	clear(pending)
	pending.SetRange(0, n)
	k.unitFree = growInline(k.unitFree, k.unitBuf[:], m.TotalUnits())
	unitFree := k.unitFree
	clear(unitFree)

	w := m.Window
	tr := k.tr
	k.rollbacks = 0
	nextMispredict := k.mispredictEvery // countdown in branch instances
	head, done := 0, 0
	// stallUntil blocks all issue before the given cycle (mispredict refill).
	stallUntil := 0
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassStart, Pass: obs.PassSimulate,
			Block: -1, Node: graph.None, N: n})
		k.lastHead, k.lastOcc = -1, -1
	}
	for t := 0; done < n; t++ {
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
			k.emitWindow(t, head, w)
		}
		progress := false
		inWindow := min(head+w, n)
		for i := pending.NextSet(head); i >= 0 && i < inWindow; i = pending.NextSet(i + 1) {
			if k.earliest(i) > t {
				continue
			}
			p := &k.pos[i]
			unit := -1
			for u := p.base; u < p.base+p.count; u++ {
				if unitFree[u] <= t {
					unit = u
					break
				}
			}
			if unit < 0 {
				continue
			}
			if tr != nil {
				k.emitIssue(t, i, head, unit)
			}
			p.issued, p.unit, p.finish = t, unit, t+p.exec
			pending.Clear(i)
			unitFree[unit] = p.finish
			done++
			progress = true
			// Branch misprediction injection: roll back everything issued
			// after this branch in stream order and stall.
			if k.mispredictEvery > 0 && p.class == int(machine.ClassBranch) {
				if nextMispredict--; nextMispredict <= 0 {
					nextMispredict = k.mispredictEvery
					done -= k.rollback(t, i, &stallUntil)
				}
			}
		}
		// Advance the window head past the issued prefix.
		if h := pending.NextSet(head); h >= 0 {
			head = h
		} else {
			head = n
		}
		if tr != nil {
			k.emitWindow(t, head, w)
		}
		if progress {
			continue
		}
		// Jump to the next time anything can change.
		next := -1
		for i := pending.NextSet(head); i >= 0 && i < inWindow; i = pending.NextSet(i + 1) {
			cand := k.earliest(i)
			p := &k.pos[i]
			uf := unitFree[p.base]
			for u := p.base + 1; u < p.base+p.count; u++ {
				uf = min(uf, unitFree[u])
			}
			cand = max(cand, uf)
			if next == -1 || cand < next {
				next = cand
			}
		}
		if next >= never/2 {
			// Every window-resident instruction waits on a producer that is
			// beyond the window: the stream order deadlocks the machine (a
			// consumer precedes its producer by ≥ W).
			return 0, fmt.Errorf("hw: stream deadlock at cycle %d (head %d, window %d)", t, head, w)
		}
		next = max(next, t+1)
		if tr != nil {
			// Attribute every stalled cycle in [t, next). The reason can
			// change inside the range (a producer completing makes a window
			// instruction data-ready but its unit stays busy), so classify
			// per cycle.
			for c := t; c < next; c++ {
				tr.Emit(obs.Event{Kind: obs.KindStall, Cycle: c, Block: -1,
					Node: graph.None, Reason: k.classifyStall(head, inWindow, w, c)})
			}
		}
		t = next - 1
	}
	completion := 0
	for i := range k.pos {
		completion = max(completion, k.pos[i].finish)
	}
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindPassEnd, Pass: obs.PassSimulate,
			Block: -1, Node: graph.None, N: completion})
	}
	return completion, nil
}

// earliest returns the earliest cycle position i's release floor and
// producers allow it to issue, or never while a producer is unissued.
func (k *Kernel) earliest(i int) int {
	p := &k.pos[i]
	at := p.rel
	for _, d := range k.prod[p.lo:p.hi] {
		f := k.pos[d.pos].finish
		if f < 0 {
			return never
		}
		at = max(at, f+d.lat)
	}
	return at
}

// rollback squashes every position issued after branch position i, stalls
// all units until the branch resolves plus the penalty, and returns the
// number of squashed positions.
func (k *Kernel) rollback(t, i int, stallUntil *int) int {
	k.rollbacks++
	squashed := 0
	for j := i + 1; j < len(k.pos); j++ {
		if p := &k.pos[j]; p.issued >= 0 {
			p.issued, p.unit, p.finish = -1, -1, -1
			k.pending.Set(j)
			squashed++
		}
	}
	// All units refill after the branch resolves.
	*stallUntil = k.pos[i].finish + k.penalty
	for u := range k.unitFree {
		k.unitFree[u] = max(k.unitFree[u], *stallUntil)
	}
	if k.tr != nil {
		v := k.node(i)
		k.tr.Emit(obs.Event{Kind: obs.KindRollback, Cycle: t, Pos: i, Node: v,
			Label: k.g.Node(v).Label, Block: k.g.Node(v).Block, N: squashed, To: *stallUntil})
	}
	return squashed
}

// node returns the graph node at stream position i (tracing only).
func (k *Kernel) node(i int) graph.NodeID { return k.order[i%len(k.order)] }

// emitWindow reports window head/occupancy whenever either changes.
func (k *Kernel) emitWindow(t, head, w int) {
	occ := k.pending.CountRange(head, min(head+w, len(k.pos)))
	if head != k.lastHead || occ != k.lastOcc {
		k.tr.Emit(obs.Event{Kind: obs.KindWindow, Cycle: t, From: head, N: occ,
			Block: -1, Node: graph.None})
		k.lastHead, k.lastOcc = head, occ
	}
}

// emitIssue reports position i issuing at cycle t on unit. Fill
// attribution: issuing past an earlier unissued instruction means this
// instruction fills an idle slot the effective head left behind; it is a
// cross-block fill when the overtaken instruction belongs to a different
// basic block or iteration — the anticipatory overlap the paper's schedules
// engineer.
func (k *Kernel) emitIssue(t, i, head, unit int) {
	v := k.node(i)
	nd := k.g.Node(v)
	per := len(k.order)
	fill, cross := false, false
	if j := k.pending.NextSet(head); j >= 0 && j < i {
		fill = true
		cross = k.g.Node(k.node(j)).Block != nd.Block || j/per != i/per
	}
	k.tr.Emit(obs.Event{Kind: obs.KindIssue, Cycle: t, Pos: i, Node: v, Label: nd.Label,
		Block: nd.Block, Iter: i / per, Unit: unit, N: nd.Exec, Fill: fill, Cross: cross})
}

// classifyStall attributes one issue-phase stall cycle to a StallReason.
// Precedence: UnitBusy (a window-resident instruction is data-ready but its
// class's units are all occupied) over WindowFull (nothing in the window can
// issue, yet an instruction just beyond it is ready with a free unit — the
// lookahead size W is the binding constraint) over HeadBlocked (the window
// has already drained instructions past the head out of order and can no
// longer slide) over DepWait (plain dependence wait). RollbackRefill cycles
// are attributed at the emission site.
func (k *Kernel) classifyStall(head, inWindow, w, t int) obs.StallReason {
	for i := head; i < inWindow; i++ {
		if k.pos[i].issued < 0 && k.earliest(i) <= t {
			return obs.UnitBusy
		}
	}
	if inWindow-head == w {
		for j := inWindow; j < len(k.pos); j++ {
			if k.earliest(j) > t {
				continue
			}
			p := &k.pos[j]
			for u := p.base; u < p.base+p.count; u++ {
				if k.unitFree[u] <= t {
					return obs.WindowFull
				}
			}
		}
	}
	for i := head + 1; i < inWindow; i++ {
		if k.pos[i].issued >= 0 {
			return obs.HeadBlocked
		}
	}
	return obs.DepWait
}

func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// growInline is grow that falls back to the inline buffer before
// allocating.
func growInline[T any](buf, inline []T, n int) []T {
	if cap(buf) < n && n <= len(inline) {
		return inline[:n]
	}
	return grow(buf, n)
}
