// Package obs is the observability layer of the repository: structured
// tracing for the scheduler passes (rank, Delay_Idle_Slots, Algorithm
// Lookahead's merge/delay/chop, the §5 loop candidates) and cycle-level
// event traces for the hardware lookahead-window simulator, plus a metrics
// registry with a JSON snapshot.
//
// The design goal is zero overhead when disabled: every producer takes an
// optional Tracer and guards each emission with a nil check, so the hot
// paths (the simulator inner loop, the rank packing pass) pay nothing when
// no tracer is installed. When a tracer is installed, the simulator switches
// to per-cycle fidelity: every stall cycle is attributed to exactly one
// StallReason, so the stall breakdown always sums to the total stall cycles.
//
// The concrete Recorder collects events in memory and can render them as
//
//   - a metrics Stats snapshot (counters and histograms, JSON-marshalable);
//   - Chrome trace-event JSON, loadable in Perfetto / chrome://tracing
//     (one microsecond per machine cycle);
//   - a plain-text per-unit timeline for terminals and tests.
package obs

import "aisched/internal/graph"

// Kind discriminates trace events.
type Kind uint8

const (
	// KindPassStart / KindPassEnd bracket one scheduler pass or simulator
	// run. Pass names the pass; on KindPassEnd, N is the result (makespan or
	// completion cycles).
	KindPassStart Kind = iota
	KindPassEnd
	// KindDeadlineTighten is one deadline demotion inside Move_Idle_Slot:
	// Node/Label identify the tail instruction, From→To the deadline change,
	// Cycle the idle-slot start being delayed.
	KindDeadlineTighten
	// KindSlotMove is one successful Move_Idle_Slot: Unit the functional
	// unit, From the old slot start, To the new start (−1 = eliminated).
	KindSlotMove
	// KindMergeLoosen is one deadline-loosening round of Algorithm
	// Lookahead's merge (paper Figure 7): Block the current block, N the
	// loosening round number (1-based).
	KindMergeLoosen
	// KindMerge reports a completed merge: Block the current block, From the
	// carried-suffix (old) size, To the block (new) size, N the merged
	// schedule's makespan.
	KindMerge
	// KindChop reports one chop (paper Figure 6): Block the current block,
	// From the committed-prefix size, To the carried-suffix size, N the time
	// base (chop position t_j + 1; 0 = nothing committed). Label "replay"
	// marks a chop replayed from the step cache, whose step emits no other
	// event.
	KindChop
	// KindIICandidate is one §5 loop-schedule candidate evaluation: Pass the
	// candidate kind ("base", "source", "sink", "trace"), Node/Label the
	// candidate instruction (graph.None for base/trace), N the candidate's
	// II, From its intra-iteration makespan.
	KindIICandidate
	// KindIssue is one dynamic instruction issue: Cycle the issue cycle, Pos
	// the stream position, Node/Label/Block the instruction, Iter the loop
	// iteration, Unit the functional unit, N the execution time. Fill marks
	// an out-of-order issue (the instruction overtook the window head, i.e.
	// it filled an idle slot the head left); Cross marks a fill from a
	// different basic block or iteration than the head's — the paper's
	// headline anticipatory effect, measured directly.
	KindIssue
	// KindStall is one cycle of the issue phase in which nothing issued:
	// Cycle the stalled cycle, Reason the attributed cause.
	KindStall
	// KindRollback is one injected branch misprediction: Cycle the issue
	// cycle of the mispredicted branch, Pos its stream position, N the
	// number of squashed (rolled-back) instructions, To the cycle at which
	// issue resumes.
	KindRollback
	// KindWindow reports a change of window state: Cycle the cycle, From the
	// window head (stream position), N the occupancy (window-resident
	// instructions not yet issued).
	KindWindow
	// KindCacheHit / KindCacheMiss report one schedule-cache lookup
	// (internal/memo): a hit returns a memoized schedule, a miss computes
	// and stores one.
	KindCacheHit
	KindCacheMiss
	// KindCacheEvict is one LRU eviction from the schedule cache.
	KindCacheEvict
	// KindCacheCoalesce is one deduplicated concurrent lookup: the request
	// arrived while another goroutine was already computing the same key and
	// waited for that in-flight result instead of recomputing.
	KindCacheCoalesce
	// KindCancel is one scheduling request abandoned by context
	// cancellation: the caller's context was done before or during the
	// request, and the request returned the context's error instead of a
	// schedule.
	KindCancel
	// KindDegrade is one budget-exhausted request served by the baseline
	// greedy list schedule instead of the anticipatory scheduler; Label
	// carries the exhaustion reason.
	KindDegrade
	// KindFault is one injected fault (internal/faultinject); Label names
	// the injection site. Only tests produce these.
	KindFault
	// KindMergePin is one window-realizability repair inside a lookahead
	// merge: replaying the first merge's static order on the window machine
	// did not issue every node at its predicted start, so the merge re-ran
	// with old deadlines pinned to carried finish times (and, if the replay
	// rejects that too, adopts the first merge's replayed execution). Block
	// the current block, N the rejected makespan.
	KindMergePin
	// KindStreamPush is one block accepted by the streaming scheduler:
	// Block the block index, From the carried-suffix size before the merge,
	// To the block's node count, N the suffix makespan after the chop (0
	// after a budget-degraded push, which finalizes the whole window).
	KindStreamPush
	// KindStreamEmit is one block finalized and emitted by the streaming
	// scheduler: Block the block index, N the emit lag in blocks (pushes
	// since the block arrived).
	KindStreamEmit
)

// String returns the stable event-kind name used in exports.
func (k Kind) String() string {
	switch k {
	case KindPassStart:
		return "pass-start"
	case KindPassEnd:
		return "pass-end"
	case KindDeadlineTighten:
		return "deadline-tighten"
	case KindSlotMove:
		return "slot-move"
	case KindMergeLoosen:
		return "merge-loosen"
	case KindMerge:
		return "merge"
	case KindChop:
		return "chop"
	case KindIICandidate:
		return "ii-candidate"
	case KindIssue:
		return "issue"
	case KindStall:
		return "stall"
	case KindRollback:
		return "rollback"
	case KindWindow:
		return "window"
	case KindCacheHit:
		return "cache-hit"
	case KindCacheMiss:
		return "cache-miss"
	case KindCacheEvict:
		return "cache-evict"
	case KindCacheCoalesce:
		return "cache-coalesce"
	case KindCancel:
		return "cancel"
	case KindDegrade:
		return "degrade"
	case KindFault:
		return "fault"
	case KindMergePin:
		return "merge-pin"
	case KindStreamPush:
		return "stream-push"
	case KindStreamEmit:
		return "stream-emit"
	}
	return "unknown"
}

// StallReason attributes one stall cycle of the simulator's issue phase.
// Classification precedence (first match wins):
//
//	RollbackRefill — the stream is frozen inside a misprediction penalty;
//	UnitBusy       — a window-resident instruction is data-ready but every
//	                 unit of its class is occupied;
//	WindowFull     — nothing in the window can issue, but an instruction
//	                 beyond the window is data-ready with a free unit: the
//	                 window size W is the binding constraint;
//	HeadBlocked    — nothing can issue and the window has already issued
//	                 instructions past the head out of order: the window
//	                 cannot slide because its first instruction is blocked
//	                 (the Ordering Constraint's cost);
//	DepWait        — plain data-dependence wait: nothing in or beyond the
//	                 window is ready.
type StallReason uint8

const (
	DepWait StallReason = iota
	WindowFull
	HeadBlocked
	UnitBusy
	RollbackRefill
	// NumStallReasons is the number of stall reasons (for histogram sizing).
	NumStallReasons
)

// String returns the stable reason name used in metrics and exports.
func (r StallReason) String() string {
	switch r {
	case DepWait:
		return "dep-wait"
	case WindowFull:
		return "window-full"
	case HeadBlocked:
		return "head-blocked"
	case UnitBusy:
		return "unit-busy"
	case RollbackRefill:
		return "rollback-refill"
	}
	return "unknown"
}

// Letter returns a one-character code for text timelines.
func (r StallReason) Letter() byte {
	switch r {
	case DepWait:
		return 'D'
	case WindowFull:
		return 'W'
	case HeadBlocked:
		return 'H'
	case UnitBusy:
		return 'U'
	case RollbackRefill:
		return 'R'
	}
	return '?'
}

// Event is one structured trace event. Fields are interpreted per Kind (see
// the Kind constants); unused fields are zero. Events are plain values so
// producers can construct them on the stack without allocation.
type Event struct {
	Kind   Kind
	Pass   string       // pass name (pass events) or candidate kind (KindIICandidate)
	Block  int          // basic-block index, or -1 when not applicable
	Node   graph.NodeID // subject node, or graph.None
	Label  string       // subject node's label (kept so renderers need no graph)
	Cycle  int          // machine cycle (simulator events) or slot time (pass events)
	Pos    int          // dynamic stream position
	Iter   int          // loop iteration of the dynamic instance
	Unit   int          // functional unit
	Reason StallReason  // stall attribution (KindStall)
	From   int          // generic "before" value (old deadline, head, sizes)
	To     int          // generic "after" value (new deadline, resume cycle)
	N      int          // generic magnitude (makespan, exec, count, II, occupancy)
	Fill   bool         // KindIssue: instruction overtook the window head
	Cross  bool         // KindIssue: fill crosses a block or iteration boundary
}

// Canonical pass names used in KindPassStart/KindPassEnd events.
const (
	PassSimulate       = "hw.simulate"
	PassRankMakespan   = "rank.Makespan"
	PassDelayIdleSlots = "idle.DelayIdleSlots"
	PassLookahead      = "core.Lookahead"
	PassLoop           = "loops.ScheduleLoop"
)

// Tracer receives trace events. Implementations must be safe for use from a
// single goroutine at a time per producer; the Recorder in this package is
// additionally safe for concurrent use. A nil Tracer means tracing is
// disabled — every producer in this repository checks for nil before
// constructing an Event, so disabled tracing costs one predictable branch.
type Tracer interface {
	Emit(Event)
}
