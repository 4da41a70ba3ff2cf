package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func sumWords(seed uint64, words []uint64) Hash128 {
	var h Hasher
	h.Reset(seed)
	for _, w := range words {
		h.Word(w)
	}
	return h.Sum()
}

func TestHasherDeterministic(t *testing.T) {
	words := []uint64{1, 2, 3, 0, ^uint64(0), 42}
	if sumWords(7, words) != sumWords(7, words) {
		t.Fatal("same seed and words produced different sums")
	}
	if sumWords(7, words) == sumWords(8, words) {
		t.Fatal("different seeds produced the same sum")
	}
}

func TestHasherOrderAndLengthSensitive(t *testing.T) {
	a := sumWords(0, []uint64{1, 2})
	b := sumWords(0, []uint64{2, 1})
	if a == b {
		t.Fatal("swapped words produced the same sum")
	}
	// A prefix must never collide with its extension (length folding).
	if sumWords(0, []uint64{1, 2}) == sumWords(0, []uint64{1, 2, 0}) {
		t.Fatal("zero-extension produced the same sum")
	}
	if sumWords(0, nil) == sumWords(0, []uint64{0}) {
		t.Fatal("empty input collides with a single zero word")
	}
}

func TestHasherSumIsNondestructive(t *testing.T) {
	var h Hasher
	h.Reset(3)
	h.Word(10)
	s1 := h.Sum()
	if s2 := h.Sum(); s1 != s2 {
		t.Fatal("Sum changed the state")
	}
	h.Word(11)
	if s3 := h.Sum(); s3 == s1 {
		t.Fatal("absorbing after Sum had no effect")
	}
}

// TestHasherDistribution feeds the hasher the kind of structured,
// low-entropy input the step key is built from (small ints, shared
// prefixes, single-field deltas) and checks for collisions and gross
// output bias. 128-bit uniform output makes any collision here a bug.
func TestHasherDistribution(t *testing.T) {
	seen := make(map[Hash128]bool)
	var buckets [64]int
	add := func(s Hash128) {
		if seen[s] {
			t.Fatalf("collision on structured input: %x/%x", s.Hi, s.Lo)
		}
		seen[s] = true
		buckets[s.Lo&63]++
	}
	// Single-field deltas over a common shape.
	base := []uint64{5, 3, 17, 0, 1, 2, 9}
	for pos := range base {
		for delta := uint64(1); delta <= 64; delta++ {
			w := append([]uint64(nil), base...)
			w[pos] += delta
			add(sumWords(1, w))
		}
	}
	// Random small-int sequences of varying length (step keys are short
	// runs of small numbers).
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		n := 1 + r.Intn(12)
		w := make([]uint64, n)
		for j := range w {
			w[j] = uint64(r.Intn(16))
		}
		// Dedup by content: identical sequences legitimately collide.
		key := sumWords(0xdead, w) // independent seed as content identity
		if seen[key] {
			continue
		}
		seen[key] = true
		buckets[sumWords(1, w).Lo&63]++
	}
	total := 0
	for _, c := range buckets {
		total += c
	}
	mean := float64(total) / 64
	for b, c := range buckets {
		if f := float64(c); f < mean/2 || f > mean*2 {
			t.Fatalf("bucket %d holds %d of %d (mean %.1f): output is biased", b, c, total, mean)
		}
	}
}

// hashSink keeps BenchmarkContentHash's calls from being optimized away.
var hashSink Hash128

// BenchmarkContentHash times the result memo's key, computed on every
// Scheduler request, hit or miss, on 48- and 192-node random graphs (each
// forward pair joined with probability 1/4). It must report 0 allocs/op.
func BenchmarkContentHash(b *testing.B) {
	for _, n := range []int{48, 192} {
		g := randomGraph(rand.New(rand.NewSource(int64(n))), n)
		units := []int{1, 1}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hashSink = g.ContentHash(units, 4)
			}
		})
	}
}
