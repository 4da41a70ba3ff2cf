// Package arena provides a typed bump allocator for the scheduling engine's
// scratch memory. The Rank Algorithm context re-derives its per-graph
// analysis (topological order, descendant closure, packing scratch) for every
// induced subgraph of Algorithm Lookahead's merge loop; carving those arrays
// out of one arena that is reset — not freed — between lookahead iterations
// turns dozens of per-block allocations into pointer bumps over memory that
// is recycled across requests by the batch worker pool.
//
// An Arena is not safe for concurrent use; it is owned by a single rank.Ctx
// (one per goroutine, pooled alongside it).
package arena

import "aisched/internal/graph"

// Slab is a growable bump allocator for values of type T. Alloc returns
// zeroed regions; Reset makes all previously allocated regions reusable
// without releasing their memory to the garbage collector.
type Slab[T any] struct {
	blocks [][]T
	cur    int // index of the block being bumped
	off    int // bump offset within blocks[cur]
}

// minBlock is the element count of the first block of a slab.
const minBlock = 64

// Alloc returns a zeroed []T of length n carved from the slab. The region is
// valid until the next Reset. Alloc(0) returns nil.
func (s *Slab[T]) Alloc(n int) []T {
	if n == 0 {
		return nil
	}
	for s.cur < len(s.blocks) {
		if b := s.blocks[s.cur]; s.off+n <= len(b) {
			out := b[s.off : s.off+n : s.off+n]
			s.off += n
			clear(out)
			return out
		}
		s.cur++
		s.off = 0
	}
	// Grow: each new block doubles the last capacity so a request-sized
	// working set settles into O(1) blocks.
	size := minBlock
	if k := len(s.blocks); k > 0 {
		size = 2 * len(s.blocks[k-1])
	}
	if size < n {
		size = n
	}
	s.blocks = append(s.blocks, make([]T, size))
	s.cur = len(s.blocks) - 1
	out := s.blocks[s.cur][:n:n]
	s.off = n
	return out
}

// Reset makes the slab's entire capacity available again. Previously
// returned regions must no longer be used.
func (s *Slab[T]) Reset() { s.cur, s.off = 0, 0 }

// Arena bundles the slabs the scheduling engine needs: plain ints
// (deadlines, ranks, positions), compact int32s (cached path lengths), node
// IDs (orders, lists, members), and bitset words (descendant closures,
// changed masks).
type Arena struct {
	Ints   Slab[int]
	Int32s Slab[int32]
	IDs    Slab[graph.NodeID]
	Words  Slab[uint64]
	Bools  Slab[bool]
}

// Reset resets every slab. All regions handed out since the previous Reset
// become invalid.
func (a *Arena) Reset() {
	a.Ints.Reset()
	a.Int32s.Reset()
	a.IDs.Reset()
	a.Words.Reset()
	a.Bools.Reset()
}

// Bitset returns a zeroed bitset able to hold n bits, carved from the word
// slab.
func (a *Arena) Bitset(n int) graph.Bitset {
	return graph.Bitset(a.Words.Alloc((n + 63) / 64))
}

// BitsetRows returns n zeroed n-bit bitsets carved from one word-slab
// region, the arena counterpart of the graph package's closure-row layout.
// The row headers are written into rows (grown only when its capacity is
// insufficient) so steady-state callers allocate nothing.
func (a *Arena) BitsetRows(rows []graph.Bitset, n int) []graph.Bitset {
	words := (n + 63) / 64
	backing := a.Words.Alloc(n * words)
	if cap(rows) < n {
		rows = make([]graph.Bitset, n)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = graph.Bitset(backing[i*words : (i+1)*words : (i+1)*words])
	}
	return rows
}
