package graph

import "math/bits"

// Hash128 is a 128-bit non-cryptographic content hash, the key primitive of
// the per-block step cache (internal/core). It trades SHA-256's adversarial
// collision resistance for speed on the hot scheduling path: the step key is
// rebuilt on every merge iteration, so it must cost tens of nanoseconds, not
// the microsecond-scale canonicalize-and-SHA-256 walk of Fingerprint.
//
// Soundness budget: the mixer below is a wyhash-style multiply-fold, whose
// output on distinct structured inputs is empirically indistinguishable from
// uniform (see TestHasherDistribution). At 128 bits, the birthday collision
// probability across even 2^32 distinct step keys is ~2^-64 — negligible next
// to hardware fault rates — so the cache may return fragments on key equality
// alone, exactly as the memo layer does with Fingerprint. Unlike Fingerprint
// this hash is not safe against adversarially *constructed* collisions; the
// step cache is process-private and keyed by the scheduler's own state, so no
// adversary chooses its inputs.
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
