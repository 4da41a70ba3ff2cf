package aisched

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"aisched/internal/workload"
)

// streamGoldenDigest and streamGoldenBudgetDigest pin the finite-lookahead
// stream output. Unlike LookaheadUnbounded, which must equal ScheduleTrace,
// a finite k has no second engine to compare against, so its schedules are
// pinned by hash: any change to the carried-suffix walk that moves a single
// finite-k placement, lag, degradation or makespan changes the digest. A
// deliberate schedule change must update both constants and say why.
const (
	streamGoldenDigest       = 0x603412714a0a3065
	streamGoldenBudgetDigest = 0x36016f0ed9b5ddc5
)

// streamGoldenSweep hashes every BlockResult field plus the stream's
// Makespan and SuffixLen after every push and flush over k ∈ {0,1,2,3}, four
// machines, two trace shapes, the step cache on and off, and two passes over
// the trace separated by a Flush (the second pass rebased to fresh stream
// IDs). It also returns how many results came back degraded.
func streamGoldenSweep(t *testing.T, budget Budget) (uint64, int) {
	t.Helper()
	machines := []*Machine{SingleUnit(2), SingleUnit(4), RS6000(4), Superscalar(2, 3)}
	configs := []workload.TraceConfig{workload.DefaultTrace(), workload.DenseTrace()}
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	degraded := 0
	for ci, cfg := range configs {
		for seed := int64(1); seed <= 20; seed++ {
			g, err := workload.Trace(rand.New(rand.NewSource(seed)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			blocks, _, err := TraceStreamBlocks(g)
			if err != nil {
				t.Fatal(err)
			}
			for mi, m := range machines {
				for k := 0; k <= 3; k++ {
					for _, capacity := range []int{0, -1} {
						tag := fmt.Sprintf("cfg %d seed %d machine %d k=%d cache %d", ci, seed, mi, k, capacity)
						ss := NewStreamScheduler(m, StreamOptions{Lookahead: k, StepCacheCapacity: capacity, Budget: budget})
						emit := func(res []*BlockResult) {
							for _, r := range res {
								word(r.Block)
								word(r.Lag)
								h.Write([]byte(r.Degraded))
								word(len(r.Order))
								for i, id := range r.Order {
									word(int(id))
									word(r.Start[i])
									word(r.Unit[i])
								}
								if r.Degraded != "" {
									degraded++
								}
							}
							word(ss.Makespan())
							word(ss.SuffixLen())
						}
						for pass := 0; pass < 2; pass++ {
							off := NodeID(pass * g.Len())
							for i, b := range blocks {
								nb := StreamBlock{Nodes: b.Nodes, Deps: make([]StreamDep, len(b.Deps))}
								for j, d := range b.Deps {
									nb.Deps[j] = StreamDep{Src: d.Src + off, Dst: d.Dst + off, Latency: d.Latency}
								}
								res, err := ss.Push(nb)
								if err != nil {
									t.Fatalf("%s pass %d push %d: %v", tag, pass, i, err)
								}
								emit(res)
							}
							res, err := ss.Flush()
							if err != nil {
								t.Fatalf("%s pass %d flush: %v", tag, pass, err)
							}
							emit(res)
						}
						ss.Close()
					}
				}
			}
		}
	}
	return h.Sum64(), degraded
}

// TestStreamFiniteLookaheadGolden pins finite-k stream output, unbudgeted
// and under a rank-pass budget tight enough to degrade some pushes.
func TestStreamFiniteLookaheadGolden(t *testing.T) {
	if got, _ := streamGoldenSweep(t, Budget{}); got != streamGoldenDigest {
		t.Errorf("finite-k stream digest %#x, golden %#x", got, uint64(streamGoldenDigest))
	}
	got, degraded := streamGoldenSweep(t, Budget{MaxRankPasses: 6})
	if degraded == 0 {
		t.Fatal("rank-pass budget degraded no push; the budget variant tests nothing")
	}
	if got != streamGoldenBudgetDigest {
		t.Errorf("budgeted finite-k stream digest %#x (%d degraded), golden %#x",
			got, degraded, uint64(streamGoldenBudgetDigest))
	}
}
