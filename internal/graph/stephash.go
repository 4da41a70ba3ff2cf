package graph

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
)

// Hash128 is a 128-bit non-cryptographic content hash, the one key
// primitive of both result caches: the per-block step cache (internal/core)
// hashes each merge step's input with a Hasher, and the whole-result memo
// (internal/memo) keys each request with ContentHash. It costs one 64×64
// multiply per word, so the step key, rebuilt on every merge iteration,
// costs tens of nanoseconds and a request key a few microseconds.
//
// Soundness budget: the mixer below is a wyhash-style multiply-fold, whose
// output on distinct structured inputs is empirically indistinguishable from
// uniform (see TestHasherDistribution). At 128 bits, the birthday collision
// probability across even 2^32 distinct keys is ~2^-64 — negligible next to
// hardware fault rates — so either cache may return a stored value on key
// equality alone. What this gives up is resistance to collisions an
// adversary constructs: a caller who knows the mixer can build two different
// graphs with one ContentHash, which a cryptographic hash such as SHA-256
// would prevent, and through a shared Scheduler could make another caller
// receive the wrong schedule. Both caches are process-private: the step
// cache is keyed by the scheduler's own state, and a memo serves only the
// callers of its own Scheduler. A cache shared across trust boundaries (a
// multi-tenant scheduling daemon) would need a cryptographic key again.
type Hash128 struct {
	Lo, Hi uint64
}

// wyhash-style mixing constants (64-bit primes with good avalanche behavior).
const (
	hk0 = 0xa0761d6478bd642f
	hk1 = 0xe7037ed1a0b428db
	hk2 = 0x8ebc6af09c88c6e3
	hk3 = 0x589965cc75374cc3
)

// hmix folds a 128-bit product into 64 bits — the wyhash "mum" primitive.
func hmix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// Hasher is a streaming word hasher producing a Hash128. The zero value is
// ready to use; Reset reuses it without allocation. Words are absorbed into
// two alternating multiply-fold lanes, so a Hasher costs one 64×64 multiply
// per word and holds three words of state — it lives happily inside a
// per-scheduler scratch struct.
//
// Hasher is position-dependent (absorbing the same words in a different
// order yields a different sum) and length-extended (the word count is folded
// into the finalization), so callers need no explicit field separators as
// long as every encoding writes a deterministic word sequence.
type Hasher struct {
	a, b uint64
	n    uint64
}

// Reset returns the hasher to its initial state, optionally seeded: absorbing
// the same words after Reset(seed) always yields the same Sum.
func (h *Hasher) Reset(seed uint64) {
	h.a = seed ^ hk0
	h.b = seed ^ hk2
	h.n = 0
}

// Word absorbs one 64-bit word.
func (h *Hasher) Word(v uint64) {
	if h.n&1 == 0 {
		h.a = hmix(h.a^hk1, v^hk0)
	} else {
		h.b = hmix(h.b^hk3, v^hk2)
	}
	h.n++
}

// Int absorbs one signed integer (sign-extended, so -1 and ^uint64(0)>>1
// hash differently from their unsigned counterparts' bit patterns only via
// the caller's encoding discipline).
func (h *Hasher) Int(v int) { h.Word(uint64(int64(v))) }

// Sum finalizes the hash without disturbing the state: more words may be
// absorbed afterwards, and Sum called again. Both output words depend on
// both lanes and the word count, so prefixes never collide with their
// extensions.
func (h *Hasher) Sum() Hash128 {
	lo := hmix(h.a^hk2, h.b^h.n^hk1)
	hi := hmix(h.b^hk0, h.a^(h.n*hk3))
	return Hash128{Lo: lo, Hi: hi}
}

// contentSeed seeds ContentHash, disjoint from the step-key and
// speculation-state seeds (internal/core).
const contentSeed = 0x51e9cafe02

// edgeScratch pools ContentHash's per-node edge buffer, so a memo key
// allocates nothing once the pool is warm.
var edgeScratch = sync.Pool{New: func() any { return new([]Edge) }}

// ContentHash is the content address of one scheduling instance: g together
// with the machine parameters that affect scheduling, the per-class unit
// counts and the lookahead window W (machine.Machine's Units and Window;
// the machine name is deliberately left out). It is the result memo's key
// (internal/memo), so its contract is chosen for cache soundness:
//
//   - Two instances hash equal exactly when they describe the same
//     scheduling problem (up to the collision budget of Hash128): same node
//     count, per-node <exec, class, block> attributes, same dependence
//     edges with the same <latency, distance> labels, same unit counts and
//     window. Every scheduler in this repository is a deterministic
//     function of exactly these inputs.
//   - Node labels, edge insertion order and construction capacities are
//     canonicalized away: each node's out-edges are hashed sorted by
//     (destination, distance), a unique key because AddEdge keeps at most
//     one edge per pair. Rebuilding a block through another front-end path
//     still hits the cache.
//   - Node IDs are not canonicalized away. Program order is the
//     schedulers' tie-break, so two graphs that differ by a nontrivial ID
//     permutation are different instances that may legitimately get
//     different schedules. Nodes are hashed in ID order and edges name
//     their destination ID. See TestContentHashPermutationIsSound.
//
// Every list is framed (node count, unit count, per-node out-degree), so no
// two encodings absorb the same word sequence. Cyclic graphs hash like any
// other.
func (g *Graph) ContentHash(units []int, window int) Hash128 {
	var h Hasher
	h.Reset(contentSeed)
	n := g.Len()
	h.Int(n)
	h.Int(window)
	h.Int(len(units))
	for _, u := range units {
		h.Int(u)
	}
	buf := edgeScratch.Get().(*[]Edge)
	for id := 0; id < n; id++ {
		nd := &g.nodes[id]
		h.Int(nd.Exec)
		h.Int(nd.Class)
		h.Int(nd.Block)
		es := append((*buf)[:0], g.out[id]...)
		slices.SortFunc(es, func(a, b Edge) int {
			if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
				return c
			}
			return cmp.Compare(a.Distance, b.Distance)
		})
		h.Int(len(es))
		for _, e := range es {
			h.Int(int(e.Dst))
			h.Int(e.Latency)
			h.Int(e.Distance)
		}
		*buf = es
	}
	edgeScratch.Put(buf)
	return h.Sum()
}
