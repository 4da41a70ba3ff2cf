package main

import (
	"fmt"

	"aisched"
	"aisched/internal/graph"
	"aisched/internal/hw"
	"aisched/internal/sched"
)

// streamCheck verifies a stream's finalized blocks as they arrive. It runs
// between pushes and allocates only when its ledgers grow, so the stream
// workload's allocation counts stay the scheduler's own.
//
// Each finalized block must list exactly its own nodes once, on valid units,
// with every dependence latency met and no unit running two instructions at
// once in the predicted absolute placement.
type streamCheck struct {
	in *inputs

	blockFirst []graph.NodeID // first stream ID of each pushed block
	blockSlot  []int32        // slot each pushed block came from
	blockLocal []int32        // block index within its source trace
	slotBase   []graph.NodeID // first stream ID of each slot

	start  []int // predicted absolute start by stream ID, -1 until final
	unit   []int
	exec   []int32
	static []graph.NodeID // emitted static order, laid out by stream ID
	busy   []uint64       // unit-cycle occupancy bitset

	finalized int
	d         digest   // output digest: block index and static order
	placed    []digest // per block: static order plus predicted placement
}

func newStreamCheck(in *inputs) *streamCheck {
	c := &streamCheck{in: in}
	id := graph.NodeID(0)
	for s, pi := range in.slots {
		c.slotBase = append(c.slotBase, id)
		for lb, b := range in.pool[pi] {
			c.blockFirst = append(c.blockFirst, id)
			c.blockSlot = append(c.blockSlot, int32(s))
			c.blockLocal = append(c.blockLocal, int32(lb))
			for _, nd := range b.Nodes {
				c.exec = append(c.exec, int32(max(nd.Exec, 1)))
			}
			id += graph.NodeID(len(b.Nodes))
		}
	}
	c.blockFirst = append(c.blockFirst, id)
	c.start = make([]int, id)
	c.unit = make([]int, id)
	c.static = make([]graph.NodeID, id)
	c.placed = make([]digest, c.pushes())
	c.reset()
	return c
}

// reset prepares the checker for another repetition.
func (c *streamCheck) reset() {
	for i := range c.start {
		c.start[i] = -1
	}
	clear(c.busy)
	c.finalized = 0
	c.d = newDigest()
}

// block returns pushed block bi with its dependences rebased to stream IDs,
// using buf's storage.
func (c *streamCheck) block(bi int, buf []aisched.StreamDep) aisched.StreamBlock {
	src := c.in.pool[c.in.slots[c.blockSlot[bi]]][c.blockLocal[bi]]
	base := c.slotBase[c.blockSlot[bi]]
	buf = buf[:0]
	for _, dp := range src.Deps {
		buf = append(buf, aisched.StreamDep{Src: dp.Src + base, Dst: dp.Dst + base, Latency: dp.Latency})
	}
	return aisched.StreamBlock{Nodes: src.Nodes, Deps: buf}
}

// pushes is the number of blocks one repetition pushes.
func (c *streamCheck) pushes() int { return len(c.blockFirst) - 1 }

// accept checks the blocks one push or flush finalized.
func (c *streamCheck) accept(res []*aisched.BlockResult) error {
	units := c.in.m.TotalUnits()
	for _, r := range res {
		if r.Block < 0 || r.Block >= c.pushes() {
			return fmt.Errorf("stream: finalized unknown block %d", r.Block)
		}
		if r.Degraded != "" {
			return fmt.Errorf("stream: block %d degraded: %s", r.Block, r.Degraded)
		}
		lo, hi := c.blockFirst[r.Block], c.blockFirst[r.Block+1]
		if len(r.Order) != int(hi-lo) || len(r.Start) != len(r.Order) || len(r.Unit) != len(r.Order) {
			return fmt.Errorf("stream: block %d lists %d of %d nodes", r.Block, len(r.Order), hi-lo)
		}
		c.d.add(r.Block)
		p := newDigest()
		for i, id := range r.Order {
			if id < lo || id >= hi || c.start[id] >= 0 {
				return fmt.Errorf("stream: block %d lists node %d out of place", r.Block, id)
			}
			if r.Start[i] < 0 || r.Unit[i] < 0 || r.Unit[i] >= units {
				return fmt.Errorf("stream: node %d placed at cycle %d on unit %d", id, r.Start[i], r.Unit[i])
			}
			c.start[id], c.unit[id] = r.Start[i], r.Unit[i]
			c.static[int(lo)+i] = id
			for t := r.Start[i]; t < r.Start[i]+int(c.exec[id]); t++ {
				if c.occupy(t*units + r.Unit[i]) {
					return fmt.Errorf("stream: unit %d runs two instructions at cycle %d", r.Unit[i], t)
				}
			}
			c.d.add(int(id))
			p.add(int(id))
			p.add(r.Start[i])
			p.add(r.Unit[i])
		}
		c.placed[r.Block] = p
		c.finalized++
	}
	// Dependences are checked once every block of the push is placed: a
	// dependence may join two blocks finalized by the same push.
	for _, r := range res {
		first := c.blockFirst[r.Block]
		src := c.in.pool[c.in.slots[c.blockSlot[r.Block]]][c.blockLocal[r.Block]]
		base := c.slotBase[c.blockSlot[r.Block]]
		for _, dp := range src.Deps {
			s, d := dp.Src+base, dp.Dst+base
			if c.start[s] < 0 && s < first {
				return fmt.Errorf("stream: block %d finalized before its predecessor %d", r.Block, s)
			}
			if c.start[s] >= 0 && c.start[d] < c.start[s]+int(c.exec[s])+dp.Latency {
				return fmt.Errorf("stream: dependence %d→%d latency %d violated", s, d, dp.Latency)
			}
		}
	}
	return nil
}

// occupy marks bit i of the occupancy set and reports whether it was set.
func (c *streamCheck) occupy(i int) bool {
	w := i / 64
	if w >= len(c.busy) {
		c.busy = append(c.busy, make([]uint64, max(w+1, 2*len(c.busy))-len(c.busy))...)
	}
	bit := uint64(1) << (i % 64)
	was := c.busy[w]&bit != 0
	c.busy[w] |= bit
	return was
}

// done checks that every pushed block was finalized.
func (c *streamCheck) done() error {
	if c.finalized != c.pushes() {
		return fmt.Errorf("stream: finalized %d of %d blocks", c.finalized, c.pushes())
	}
	return nil
}

// sampleSlot runs the sampled checks on the source trace g pushed as slot s:
// its predicted placement is a valid schedule of the trace, and its emitted
// static order is simulated against the rank-local baseline.
func (q *quality) sampleSlot(c *streamCheck, s int, g *graph.Graph, t *tracer) error {
	base := c.slotBase[s]
	sc := sched.New(g, c.in.m)
	order := make([]graph.NodeID, g.Len())
	for v := 0; v < g.Len(); v++ {
		sc.Start[v], sc.Unit[v] = c.start[int(base)+v], c.unit[int(base)+v]
		order[v] = c.static[int(base)+v] - base
	}
	sp := t.begin(spValidate)
	err := sc.Validate()
	t.end(sp)
	if err != nil {
		return fmt.Errorf("slot %d: %w", s, err)
	}
	sp = t.begin(spSimulate)
	sim, err := hw.SimulateTrace(g, c.in.m, order)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("slot %d: simulate: %w", s, err)
	}
	bcycles, err := baselineCycles(g, c.in.m, t)
	if err != nil {
		return fmt.Errorf("slot %d: %w", s, err)
	}
	q.simCycles += sim.Completion
	q.baseCycles += bcycles
	q.insts += g.Len()
	return nil
}
