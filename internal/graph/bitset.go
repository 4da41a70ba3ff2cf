package graph

import "math/bits"

// Bitset is a fixed-capacity bitset used for transitive-closure rows.
type Bitset []uint64

// NewBitset returns a bitset able to hold n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Clear clears bit i.
func (b Bitset) Clear(i int) { b[i/64] &^= 1 << (uint(i) % 64) }

// Has reports whether bit i is set.
func (b Bitset) Has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// UnionWith ors o into b. Panics if o is longer than b.
func (b Bitset) UnionWith(o Bitset) {
	for i, w := range o {
		b[i] |= w
	}
}

// IntersectWith ands o into b.
func (b Bitset) IntersectWith(o Bitset) {
	for i := range b {
		if i < len(o) {
			b[i] &= o[i]
		} else {
			b[i] = 0
		}
	}
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bit is set.
func (b Bitset) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy of b.
func (b Bitset) Clone() Bitset {
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}

// ForEach calls f for every set bit in ascending order.
func (b Bitset) ForEach(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			i := bits.TrailingZeros64(w)
			f(wi*64 + i)
			w &= w - 1
		}
	}
}

// Word-parallel window kernels. These serve every consumer that tracks a
// busy/issued window over time or stream positions — the schedule idle-slot
// scans, the Delay_Idle_Slots unit timelines, and the hardware simulator's
// lookahead window — so each package stops keeping its own []bool copy of
// the same bookkeeping.

// NextSet returns the index of the first set bit ≥ from, or -1 when none.
func (b Bitset) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	wi := from / 64
	if wi >= len(b) {
		return -1
	}
	if w := b[wi] >> (uint(from) % 64); w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b); wi++ {
		if b[wi] != 0 {
			return wi*64 + bits.TrailingZeros64(b[wi])
		}
	}
	return -1
}

// NextClear returns the index of the first clear bit ≥ from. Bits beyond the
// bitset's capacity count as clear, so the result may be ≥ 64·len(b);
// callers bound the scan themselves.
func (b Bitset) NextClear(from int) int {
	if from < 0 {
		from = 0
	}
	wi := from / 64
	if wi >= len(b) {
		return from
	}
	if w := ^b[wi] >> (uint(from) % 64); w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b); wi++ {
		if w := ^b[wi]; w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return len(b) * 64
}

// SetRange sets every bit in [lo, hi) one word at a time.
func (b Bitset) SetRange(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(b)*64 {
		hi = len(b) * 64
	}
	if lo >= hi {
		return
	}
	loW, hiW := lo/64, (hi-1)/64
	loMask := ^uint64(0) << (uint(lo) % 64)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)%64)
	if loW == hiW {
		b[loW] |= loMask & hiMask
		return
	}
	b[loW] |= loMask
	for w := loW + 1; w < hiW; w++ {
		b[w] = ^uint64(0)
	}
	b[hiW] |= hiMask
}

// CountRange returns the number of set bits in [lo, hi).
func (b Bitset) CountRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > len(b)*64 {
		hi = len(b) * 64
	}
	if lo >= hi {
		return 0
	}
	loW, hiW := lo/64, (hi-1)/64
	loMask := ^uint64(0) << (uint(lo) % 64)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)%64)
	if loW == hiW {
		return bits.OnesCount64(b[loW] & loMask & hiMask)
	}
	n := bits.OnesCount64(b[loW]&loMask) + bits.OnesCount64(b[hiW]&hiMask)
	for w := loW + 1; w < hiW; w++ {
		n += bits.OnesCount64(b[w])
	}
	return n
}

// ZeroRange clears every bit in [lo, hi) one word at a time.
func (b Bitset) ZeroRange(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(b)*64 {
		hi = len(b) * 64
	}
	if lo >= hi {
		return
	}
	loW, hiW := lo/64, (hi-1)/64
	loMask := ^uint64(0) << (uint(lo) % 64)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)%64)
	if loW == hiW {
		b[loW] &^= loMask & hiMask
		return
	}
	b[loW] &^= loMask
	for w := loW + 1; w < hiW; w++ {
		b[w] = 0
	}
	b[hiW] &^= hiMask
}
