package aisched

// Streaming facade: schedule a trace block by block as it arrives, instead
// of materializing the whole dependence graph first. Each Push is one step
// of the walk ScheduleTrace runs per block (merge + Delay_Idle_Slots + chop)
// over only the carried suffix and the pushed block, so the first block's
// schedule is available after one push — O(block) time-to-first-schedule —
// and memory stays bounded by the suffix plus the lookahead window.
//
//	ss := aisched.NewStreamScheduler(m, aisched.StreamOptions{Lookahead: 2})
//	for _, b := range blocks {
//	    done, err := ss.Push(b) // zero or more finalized BlockResults
//	    ...
//	}
//	tail, err := ss.Flush()     // the carried suffix, finalized
//
// Lookahead 0 (the default) is fully online: every block is final the
// moment it is pushed. LookaheadUnbounded defers finality entirely to the
// chop rule, making the streamed output bit-identical to ScheduleTrace.
// Intermediate values bound both the emit lag and the carried state while
// keeping most of the cross-block anticipation (EXPERIMENTS.md S1).

import (
	"context"
	"errors"
	"sync"
	"time"

	"aisched/internal/core"
	"aisched/internal/graph"
	"aisched/internal/metrics"
	"aisched/internal/obs"
	"aisched/internal/sbudget"
	"aisched/internal/stream"
)

// Streaming type aliases.
type (
	// StreamBlock is one basic block fed to a StreamScheduler.
	StreamBlock = stream.Block
	// StreamNode is one instruction of a StreamBlock.
	StreamNode = stream.Node
	// StreamDep is a dependence edge into the block being pushed.
	StreamDep = stream.Dep
	// BlockResult is one finalized block: its static order and predicted
	// absolute placement.
	BlockResult = stream.BlockResult
)

// LookaheadUnbounded makes finality purely chop-driven: the streamed output
// is bit-identical to batch ScheduleTrace, at the cost of unbounded emit lag
// on adversarial traces.
const LookaheadUnbounded = stream.Unbounded

// ErrStreamClosed is returned by operations on a closed StreamScheduler.
var ErrStreamClosed = errors.New("aisched: stream scheduler closed")

// Streaming instruments, always on (see metrics.go).
var (
	mStreamPushNS = metrics.Default.NewHistogram("aisched_stream_push_ns",
		"StreamScheduler.Push latency (facade, nanoseconds)")
	mStreamEmitLag = metrics.Default.NewHistogram("aisched_stream_emit_lag_blocks",
		"pushes between a block's arrival and its finalization")
	mStreamSuffix = metrics.Default.NewGauge("aisched_stream_suffix_nodes",
		"carried (not yet final) instructions in the most recent stream push")
	mStreamBlocks = metrics.Default.NewCounter("aisched_stream_blocks_total",
		"blocks finalized by streaming schedulers")
)

// StreamOptions tunes a StreamScheduler.
type StreamOptions struct {
	// Lookahead is the semi-online lookahead k: a block is guaranteed final
	// at most k pushes after it arrives. 0 (the default) is fully online;
	// LookaheadUnbounded leaves finality to the chop rule (batch-identical
	// output). Negative values are treated as 0.
	Lookahead int
	// Budget bounds each push (PR 4 semantics): an exhausted push finalizes
	// the live window with the baseline critical-path schedule, tags those
	// BlockResults Degraded, and keeps streaming. The zero value is
	// unlimited.
	Budget Budget
	// Tracer, when non-nil, receives stream-push/stream-emit events plus the
	// per-merge events of the underlying engine.
	Tracer Tracer
	// OnResult, when non-nil, is invoked synchronously for every finalized
	// block — including those finalized by Close, which are otherwise
	// dropped. Results are also returned from Push/Flush either way.
	OnResult func(*BlockResult)
	// StepCacheCapacity is the structural step cache's fragment budget
	// (0 = default 4096; negative disables it). The step cache memoizes
	// whole push iterations keyed by structural hashes, so repeated
	// block shapes replay in O(block); results are bit-identical either
	// way. Close releases the cache's resident bytes.
	StepCacheCapacity int
}

// StreamScheduler schedules a trace incrementally. Safe for concurrent use;
// pushes are serialized.
type StreamScheduler struct {
	mu        sync.Mutex
	eng       *stream.Scheduler
	stepCache *core.StepCache // nil when step caching is disabled
	budget    Budget
	tracer    Tracer
	onResult  func(*BlockResult)
	closed    bool
}

// NewStreamScheduler returns a streaming scheduler for machine m.
func NewStreamScheduler(m *Machine, opt StreamOptions) *StreamScheduler {
	ss := &StreamScheduler{
		budget:   opt.Budget,
		tracer:   opt.Tracer,
		onResult: opt.OnResult,
	}
	if opt.StepCacheCapacity >= 0 {
		ss.stepCache = core.NewStepCache(core.StepCacheConfig{Capacity: opt.StepCacheCapacity})
	}
	ss.eng = stream.New(m, stream.Options{
		Lookahead: opt.Lookahead,
		Tracer:    opt.Tracer,
		StepCache: ss.stepCache,
	})
	return ss
}

// StepCacheCounters returns the structural step cache's activity counters
// (all zero when step caching is disabled).
func (ss *StreamScheduler) StepCacheCounters() CacheCounters {
	if ss.stepCache == nil {
		return CacheCounters{}
	}
	return ss.stepCache.Counters()
}

// Push feeds the next block and returns the blocks it finalized (often
// none, possibly several). An error poisons the stream — except budget
// exhaustion, which degrades the affected blocks and keeps the stream
// accepting (inspect BlockResult.Degraded).
func (ss *StreamScheduler) Push(b StreamBlock) ([]*BlockResult, error) {
	return ss.PushCtx(context.Background(), b)
}

// PushCtx is Push with cooperative cancellation: when ctx is cancelled the
// push aborts within one rank pass, the already-emitted prefix stands, and
// the stream is poisoned with the context's error.
func (ss *StreamScheduler) PushCtx(ctx context.Context, b StreamBlock) ([]*BlockResult, error) {
	defer observeRequest(mStreamPushNS, time.Now())
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil, ErrStreamClosed
	}
	bud := sbudget.New(ctx, ss.budget.WallClock, ss.budget.MaxRankPasses)
	res, err := ss.eng.Push(b, bud)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			mCancelled.Inc()
			ss.emit(obs.Event{Kind: obs.KindCancel, Label: err.Error(), Block: -1, Node: graph.None})
		}
		return nil, err
	}
	ss.deliver(res)
	mStreamSuffix.Set(int64(ss.eng.SuffixLen()))
	return res, nil
}

// Flush finalizes the carried suffix and returns every remaining block. The
// stream stays usable: later pushes start a fresh suffix placed after the
// flushed schedule.
func (ss *StreamScheduler) Flush() ([]*BlockResult, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil, ErrStreamClosed
	}
	res, err := ss.eng.Flush()
	if err != nil {
		return nil, err
	}
	ss.deliver(res)
	mStreamSuffix.Set(0)
	return res, nil
}

// Close flushes the carried suffix — delivering the final blocks to
// OnResult when set — and rejects all further operations.
func (ss *StreamScheduler) Close() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil
	}
	ss.closed = true
	if ss.stepCache != nil {
		// Return the cache's resident bytes to the process-wide gauge; the
		// engine is done with it (a closed stream never pushes again).
		defer ss.stepCache.Release()
	}
	if ss.eng.Err() != nil {
		return nil // already poisoned; nothing left to flush
	}
	res, err := ss.eng.Flush()
	if err != nil {
		return err
	}
	ss.deliver(res)
	mStreamSuffix.Set(0)
	return nil
}

// Makespan reports the predicted completion of everything pushed so far,
// including the carried suffix's tentative placement.
func (ss *StreamScheduler) Makespan() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.eng.Makespan()
}

// SuffixLen reports the number of carried (not yet final) instructions.
func (ss *StreamScheduler) SuffixLen() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.eng.SuffixLen()
}

// deliver records metrics for finalized blocks and forwards them to
// OnResult. Called with ss.mu held.
func (ss *StreamScheduler) deliver(res []*BlockResult) {
	for _, r := range res {
		mStreamBlocks.Inc()
		mStreamEmitLag.Observe(int64(r.Lag))
		if r.Degraded != "" {
			mDegraded.Inc()
			ss.emit(obs.Event{Kind: obs.KindDegrade, Label: r.Degraded, Block: r.Block, Node: graph.None})
		}
		if ss.onResult != nil {
			ss.onResult(r)
		}
	}
}

func (ss *StreamScheduler) emit(ev obs.Event) {
	if ss.tracer != nil {
		ss.tracer.Emit(ev)
	}
}

// TraceStreamBlocks splits a whole-trace dependence graph into the
// StreamBlock sequence that reproduces it when pushed in order — the bridge
// between the batch representation and the streaming API (used by the
// equivalence tests, the CLI's stream mode, and as a template for real
// producers). It requires node IDs grouped by block in nondecreasing block
// order (the layout deps.BuildTrace and the workload generator emit), so
// stream IDs coincide with graph node IDs. Loop-carried edges (distance >
// 0) are rejected: a streamed trace has no back edges.
//
// The second return value maps each StreamBlock index to the original block
// number in g (block numbers need not be dense).
func TraceStreamBlocks(g *Graph) ([]StreamBlock, []int, error) {
	n := g.Len()
	var blocks []StreamBlock
	var nums []int
	// Partition nodes into maximal runs of equal block number.
	for v := 0; v < n; {
		b := g.Node(NodeID(v)).Block
		if len(nums) > 0 && b <= nums[len(nums)-1] {
			return nil, nil, errors.New("aisched: TraceStreamBlocks requires node IDs grouped by nondecreasing block")
		}
		end := v
		var nodes []StreamNode
		for end < n && g.Node(NodeID(end)).Block == b {
			nd := g.Node(NodeID(end))
			nodes = append(nodes, StreamNode{Label: nd.Label, Exec: nd.Exec, Class: nd.Class})
			end++
		}
		blocks = append(blocks, StreamBlock{Nodes: nodes})
		nums = append(nums, b)
		v = end
	}
	// Route each edge to its destination's block.
	blockOf := make([]int, n) // node → StreamBlock index
	bi := 0
	for v := 0; v < n; v++ {
		if g.Node(NodeID(v)).Block != nums[bi] {
			bi++
		}
		blockOf[v] = bi
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Out(NodeID(v)) {
			if e.Distance != 0 {
				return nil, nil, errors.New("aisched: TraceStreamBlocks: loop-carried edge in trace graph")
			}
			db := blockOf[e.Dst]
			blk := &blocks[db]
			blk.Deps = append(blk.Deps, StreamDep{Src: e.Src, Dst: e.Dst, Latency: e.Latency})
		}
	}
	return blocks, nums, nil
}
