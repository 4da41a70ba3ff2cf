package memo

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
)

// key builds a Key pinned to shard `shard` (the shard index is the low 64
// bits of the fingerprint, masked), distinguished by serial.
func key(shard byte, serial int) Key {
	var k Key
	k.FP[0] = shard
	k.FP[8] = byte(serial)
	k.FP[9] = byte(serial >> 8)
	return k
}

func TestDoHitMiss(t *testing.T) {
	rec := obs.NewRecorder()
	c := New(Config{Tracer: rec})
	calls := 0
	compute := func() (any, error) { calls++; return "v", nil }

	v, hit, err := c.Do(key(0, 1), compute)
	if err != nil || hit || v != "v" || calls != 1 {
		t.Fatalf("first Do: v=%v hit=%v err=%v calls=%d", v, hit, err, calls)
	}
	v, hit, err = c.Do(key(0, 1), compute)
	if err != nil || !hit || v != "v" || calls != 1 {
		t.Fatalf("second Do: v=%v hit=%v err=%v calls=%d", v, hit, err, calls)
	}
	if got := c.Counters(); got.Hits != 1 || got.Misses != 1 || got.Evictions != 0 || got.Coalesced != 0 {
		t.Fatalf("counters = %+v", got)
	}
	// The tracer saw the same story as the counters.
	s := rec.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 1 || s.CacheEvictions != 0 || s.CacheCoalesced != 0 {
		t.Fatalf("obs stats = hits %d misses %d evicts %d coalesced %d",
			s.CacheHits, s.CacheMisses, s.CacheEvictions, s.CacheCoalesced)
	}
}

func TestLRUEviction(t *testing.T) {
	// Capacity 32 over 16 shards = 2 entries per shard. Pin three keys to
	// shard 5: inserting the third must evict the least recently used.
	c := New(Config{Capacity: 32, Shards: 16})
	mk := func(i int) Key { return key(5, i) }
	get := func(i int) (any, bool) {
		v, hit, err := c.Do(mk(i), func() (any, error) { return i, nil })
		if err != nil {
			t.Fatalf("Do(%d): %v", i, err)
		}
		return v, hit
	}

	get(1)
	get(2)
	// Touch 1 so 2 becomes the LRU victim.
	if _, hit := get(1); !hit {
		t.Fatal("key 1 should be resident")
	}
	get(3) // evicts 2
	if got := c.Counters().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, hit := get(1); !hit {
		t.Fatal("key 1 was evicted, want key 2")
	}
	if _, hit := get(2); hit {
		t.Fatal("key 2 should have been evicted")
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := New(Config{})
	const waiters = 8
	var calls atomic.Int64
	release := make(chan struct{})
	entered := make(chan struct{})
	k := key(3, 7)

	// Leader blocks inside compute until every follower has had a chance to
	// arrive and coalesce.
	go c.Do(k, func() (any, error) {
		calls.Add(1)
		close(entered)
		<-release
		return "shared", nil
	})
	<-entered

	// Followers must observe the in-flight computation. Poll the coalesced
	// counter so the release only happens after all of them are waiting.
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.Do(k, func() (any, error) {
				calls.Add(1)
				return "duplicate", nil
			})
			if err != nil || !hit || v != "shared" {
				t.Errorf("follower: v=%v hit=%v err=%v", v, hit, err)
			}
		}()
	}
	for c.Counters().Coalesced != waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	got := c.Counters()
	if got.Misses != 1 || got.Coalesced != waiters {
		t.Fatalf("counters = %+v", got)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(Config{})
	k := key(0, 9)
	boom := errors.New("boom")
	_, hit, err := c.Do(k, func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) || hit {
		t.Fatalf("failed Do: hit=%v err=%v", hit, err)
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached: len=%d", c.Len())
	}
	v, hit, err := c.Do(k, func() (any, error) { return 42, nil })
	if err != nil || hit || v != 42 {
		t.Fatalf("retry after error: v=%v hit=%v err=%v", v, hit, err)
	}
}

func TestErrorPropagatesToCoalescedWaiters(t *testing.T) {
	c := New(Config{})
	k := key(1, 1)
	boom := errors.New("boom")
	release := make(chan struct{})
	entered := make(chan struct{})
	go c.Do(k, func() (any, error) {
		close(entered)
		<-release
		return nil, boom
	})
	<-entered
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(k, func() (any, error) { return nil, nil })
		done <- err
	}()
	for c.Counters().Coalesced != 1 {
		runtime.Gosched()
	}
	close(release)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("waiter error = %v, want boom", err)
	}
}

func TestKeyForDistinguishesMachineAndKind(t *testing.T) {
	g := graph.New(2)
	a := g.AddUnit("a")
	b := g.AddUnit("b")
	g.MustEdge(a, b, 1, 0)

	m1 := machine.SingleUnit(4)
	m2 := machine.SingleUnit(5)     // different window
	m3 := machine.Superscalar(2, 4) // different unit counts
	m4 := machine.NewMachine("renamed", m1.Units, m1.Window)

	if KeyFor(g, m1, KindTrace) == KeyFor(g, m2, KindTrace) {
		t.Fatal("window must be part of the key")
	}
	if KeyFor(g, m1, KindTrace) == KeyFor(g, m3, KindTrace) {
		t.Fatal("unit counts must be part of the key")
	}
	if KeyFor(g, m1, KindTrace) != KeyFor(g, m4, KindTrace) {
		t.Fatal("machine name must NOT be part of the key")
	}
	if KeyFor(g, m1, KindTrace) == KeyFor(g, m1, KindBlock) {
		t.Fatal("kind must be part of the key")
	}
}

// TestCacheRaceHammer drives the cache from many goroutines over a small hot
// key set with a tight capacity, so hits, misses, coalesces, and evictions
// all interleave. Run under -race (make check does) to validate the locking.
func TestCacheRaceHammer(t *testing.T) {
	rec := obs.NewRecorder()
	c := New(Config{Capacity: 48, Shards: 16, Tracer: rec})
	const (
		workers = 8
		ops     = 400
		keys    = 96 // > capacity, forces steady eviction
	)
	var wg sync.WaitGroup
	var computes atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				id := r.Intn(keys)
				k := key(byte(id%251), id)
				v, _, err := c.Do(k, func() (any, error) {
					computes.Add(1)
					return fmt.Sprintf("val-%d", id), nil
				})
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				if v != fmt.Sprintf("val-%d", id) {
					t.Errorf("key %d returned %v", id, v)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()

	got := c.Counters()
	total := got.Hits + got.Misses + got.Coalesced
	if total != workers*ops {
		t.Fatalf("hits+misses+coalesced = %d, want %d", total, workers*ops)
	}
	if got.Misses != uint64(computes.Load()) {
		t.Fatalf("misses %d != computes %d", got.Misses, computes.Load())
	}
	if c.Len() > 48+16 { // per-shard rounding slack
		t.Fatalf("cache over budget: %d entries", c.Len())
	}
	s := rec.Stats()
	if uint64(s.CacheHits) != got.Hits || uint64(s.CacheMisses) != got.Misses ||
		uint64(s.CacheEvictions) != got.Evictions || uint64(s.CacheCoalesced) != got.Coalesced {
		t.Fatalf("obs stats diverge from counters: %+v vs %+v", s, got)
	}
}

// TestGetPutSameKeyRace refreshes one key with Put while other goroutines
// read it through Get and Do: a hit must read the entry's value under the
// shard lock, because a Put of a resident key overwrites it in place. Run
// under -race (make check does) to pin that.
func TestGetPutSameKeyRace(t *testing.T) {
	c := New(Config{})
	k := key(3, 1)
	c.Put(k, 0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				switch w % 3 {
				case 0:
					c.Put(k, i)
				case 1:
					if _, ok := c.Get(k); !ok {
						t.Error("resident key missed")
						return
					}
				default:
					if _, hit, err := c.Do(k, func() (any, error) { return -1, nil }); err != nil || !hit {
						t.Errorf("Do on a resident key: hit %v, err %v", hit, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
