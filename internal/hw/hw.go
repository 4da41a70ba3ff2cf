// Package hw simulates the hardware instruction-lookahead model of Sarkar &
// Simons (SPAA '96, §2.3): a sliding window over the dynamic instruction
// stream holds W consecutive instructions; any instruction in the window
// whose data dependences are satisfied may issue, earlier-positioned ready
// instructions issue before later ones (the Ordering Constraint), and the
// window advances only when its first instruction has issued.
//
// The simulator is the ground truth for all experiments: schedulers emit
// static per-block instruction orders, and this package measures the dynamic
// completion time those orders achieve on a machine with lookahead W —
// including the cross-block overlap that anticipatory scheduling targets,
// and optional branch misprediction rollback.
//
// Every window replay in the repository runs on one loop, Kernel: the
// simulations here build their dynamic stream for it, the exact solver
// (internal/opt) replays order prefixes on it, and the lookahead step
// (internal/core) checks its restricted-model predictions with it.
package hw

import (
	"fmt"
	"sync"

	"aisched/internal/graph"
	"aisched/internal/machine"
	"aisched/internal/obs"
)

// simScratch pools the simulations' per-call working buffers (permutation
// check, position index, replay kernel) so repeated simulations — the
// experiment sweeps run thousands — stay allocation-light. The Result and
// its Issued slice escape to the caller and are always freshly allocated.
type simScratch struct {
	seen []bool
	pos  []int // flat [node*iters+iter] position index
	k    Kernel
}

var simPool = sync.Pool{New: func() any { return new(simScratch) }}

// Options control simulation details.
type Options struct {
	// Speculate: when true, loop-carried edges whose source is a
	// branch-class node (control dependences into the next iteration) are
	// ignored — the hardware predicts the branch and eagerly executes
	// next-iteration instructions, with safe rollback on mispredict. When
	// false, every instruction waits for the previous iteration's branch.
	Speculate bool
	// MispredictEvery injects one branch misprediction every k-th branch
	// instance (0 = never). On a mispredict, instructions issued after the
	// branch in stream order are rolled back and the stream stalls for
	// Penalty cycles after the branch completes.
	MispredictEvery int
	// Penalty is the rollback/refill cost of a misprediction in cycles.
	Penalty int
	// Tracer, when non-nil, receives cycle-level events: every issue (with
	// idle-slot fill attribution), every issue-phase stall cycle with a
	// StallReason, window head/occupancy changes, and rollbacks. Tracing
	// never changes simulation results; a nil Tracer costs nothing on the
	// hot path.
	Tracer obs.Tracer
}

// Result reports one simulation.
type Result struct {
	// Completion is the cycle at which the last instruction finishes.
	Completion int
	// Issued[i] is the issue cycle of stream position i.
	Issued []int
	// Rollbacks counts injected mispredictions.
	Rollbacks int
}

// SimulateTrace executes a single pass over an acyclic trace graph whose
// static instruction order is `order` (the concatenated per-block orders the
// compiler emitted) on machine m. Only distance-0 edges constrain execution.
func SimulateTrace(g *graph.Graph, m *machine.Machine, order []graph.NodeID) (*Result, error) {
	return simulate(g, m, order, 1, Options{Speculate: true})
}

// SimulateLoop executes iters iterations of a loop body graph whose
// per-iteration static order is `order`. An edge (u, v) with distance d
// constrains instance (v, k) by instance (u, k−d); instances with k−d < 0
// are unconstrained (the loop prologue is assumed complete, as in the
// paper's Figure 3 where the software-pipelined store's producer ran in the
// previous iteration).
func SimulateLoop(g *graph.Graph, m *machine.Machine, order []graph.NodeID, iters int, opt Options) (*Result, error) {
	return simulate(g, m, order, iters, opt)
}

// SteadyState estimates the asymptotic cycles-per-iteration of a loop under
// the dynamic window model by simulating enough iterations for the pattern
// to settle and differencing two long prefixes. The shorter run is a replay
// of a prefix of the longer run's stream.
func SteadyState(g *graph.Graph, m *machine.Machine, order []graph.NodeID, opt Options) (float64, error) {
	const warm, span = 16, 48
	st := simPool.Get().(*simScratch)
	defer st.release()
	if err := st.load(g, order, warm+span, opt); err != nil {
		return 0, err
	}
	st.extend(g, order, warm+span, 0, warm, opt)
	c1, err := st.k.Run(m)
	if err != nil {
		return 0, err
	}
	st.extend(g, order, warm+span, warm, warm+span, opt)
	c2, err := st.k.Run(m)
	if err != nil {
		return 0, err
	}
	return float64(c2-c1) / span, nil
}

func simulate(g *graph.Graph, m *machine.Machine, order []graph.NodeID, iters int, opt Options) (*Result, error) {
	st := simPool.Get().(*simScratch)
	defer st.release()
	if err := st.load(g, order, iters, opt); err != nil {
		return nil, err
	}
	st.extend(g, order, iters, 0, iters, opt)
	completion, err := st.k.Run(m)
	if err != nil {
		return nil, err
	}
	issued := make([]int, len(st.k.pos))
	for i := range issued {
		issued[i] = st.k.Issued(i)
	}
	return &Result{Completion: completion, Issued: issued, Rollbacks: st.k.rollbacks}, nil
}

// load checks that order is a permutation of g's nodes, indexes the
// dynamic stream of iters iterations — position k·n+i is instance
// (order[i], k) — and empties the kernel for extend.
func (st *simScratch) load(g *graph.Graph, order []graph.NodeID, iters int, opt Options) error {
	n := g.Len()
	if len(order) != n {
		return fmt.Errorf("hw: order has %d entries for %d nodes", len(order), n)
	}
	st.seen = grow(st.seen, n)
	clear(st.seen)
	for _, id := range order {
		if id < 0 || int(id) >= n || st.seen[id] {
			return fmt.Errorf("hw: order is not a permutation")
		}
		st.seen[id] = true
	}
	if iters < 1 {
		return fmt.Errorf("hw: iters = %d < 1", iters)
	}
	st.pos = grow(st.pos, n*iters)
	for k := 0; k < iters; k++ {
		for i, id := range order {
			st.pos[int(id)*iters+k] = k*n + i
		}
	}
	k := &st.k
	k.Truncate(0)
	k.g, k.order = g, order
	k.tr, k.mispredictEvery, k.penalty = opt.Tracer, opt.MispredictEvery, opt.Penalty
	return nil
}

// extend appends iterations [from, to) of the indexed stream to the
// kernel. An edge (u, v) with distance d makes instance (u, k−d) a producer
// of (v, k); instances with k−d < 0 are unconstrained (prologue).
func (st *simScratch) extend(g *graph.Graph, order []graph.NodeID, iters, from, to int, opt Options) {
	for k := from; k < to; k++ {
		for _, v := range order {
			nd := g.Node(v)
			st.k.Add(nd.Exec, nd.Class, 0)
			for _, e := range g.In(v) {
				if p := k - e.Distance; p >= 0 && honored(g, opt, e) {
					st.k.Dep(st.pos[int(e.Src)*iters+p], e.Latency)
				}
			}
		}
	}
}

// release drops the caller's graph and tracer and returns st to the pool.
func (st *simScratch) release() {
	st.k.g, st.k.order, st.k.tr = nil, nil, nil
	simPool.Put(st)
}

// honored reports whether the simulator enforces edge e for this run.
func honored(g *graph.Graph, opt Options, e graph.Edge) bool {
	if e.Distance == 0 {
		return true
	}
	if opt.Speculate && g.Node(e.Src).Class == int(machine.ClassBranch) {
		return false // predicted branch: next iteration proceeds eagerly
	}
	return true
}
