// Package stream is the incremental driver for Algorithm Lookahead: a trace
// is scheduled block by block as it arrives, instead of materialized up
// front. A push is one step of the batch walk over the live window — the
// carried suffix plus the pushed block — so the engine lives beside that
// walk as core.Stream; this package names it for callers (see core.Stream
// for the lookahead k and its finality rule).
package stream

import (
	"aisched/internal/core"
	"aisched/internal/machine"
)

// Unbounded disables force-finalization: only the chop rule commits
// instructions, and the streamed output is bit-identical to batch
// scheduling.
const Unbounded = core.Unbounded

type (
	// Node is one instruction of a pushed block.
	Node = core.StreamNode
	// Dep is one dependence edge into the block being pushed.
	Dep = core.StreamDep
	// Block is one basic block of the arriving trace.
	Block = core.StreamBlock
	// BlockResult is one finalized block.
	BlockResult = core.BlockResult
	// Options tunes a streaming scheduler.
	Options = core.StreamOptions
	// Scheduler is the incremental trace scheduler.
	Scheduler = core.Stream
)

// New returns an empty streaming scheduler for machine m.
func New(m *machine.Machine, opt Options) *Scheduler { return core.NewStream(m, opt) }
