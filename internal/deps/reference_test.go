package deps

// The dependence-graph builder as it stood before the per-instruction
// register facts: every instruction pair re-reads Defs/Uses, base
// registers are classified through maps, and edges are appended one at a
// time. It is kept, test-only, as the reference the builder must match
// edge for edge and in order (TestDifferentialBuildMatchesReference,
// FuzzBuildGraphs), the way rank keeps ReferenceCompute.

import (
	"aisched/internal/graph"
	"aisched/internal/isa"
)

// referenceBuildBlock constructs the dependence graph of a single basic block. Every
// node's Block field is set to blockIndex.
func referenceBuildBlock(instrs []isa.Instr, blockIndex int) *graph.Graph {
	g := graph.New(len(instrs))
	refAddBlockNodes(g, instrs, blockIndex)
	refAddIntraEdges(g, instrs, 0)
	return g
}

// referenceBuildTrace constructs the dependence graph of a trace: blocks laid out
// consecutively, with register and memory dependences tracked across block
// boundaries (the cross-block edges that make anticipatory scheduling
// worthwhile) and control dependences into each block's terminating branch.
func referenceBuildTrace(blocks [][]isa.Instr) *graph.Graph {
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	g := graph.New(total)
	var all []isa.Instr
	for bi, b := range blocks {
		refAddBlockNodes(g, b, bi)
		all = append(all, b...)
	}
	refAddIntraEdges(g, all, 0)
	// Control: branches additionally order block prefixes — an instruction
	// in a later block is control dependent on the previous block's branch.
	// These are real dependences only when the hardware cannot speculate;
	// the paper's model lets the window run ahead under branch prediction,
	// so cross-block control edges are intentionally omitted here and
	// handled by the simulator's speculation switch.
	return g
}

// referenceBuildLoop constructs the dependence graph of a single-basic-block loop
// body: the intra-iteration edges of BuildBlock plus distance-1 loop-carried
// register, memory, and control dependences. The carried control edges run
// from the block's terminating branch to every instruction of the next
// iteration with <0,1>, matching the paper's Figure 3.
func referenceBuildLoop(instrs []isa.Instr) *graph.Graph {
	g := referenceBuildBlock(instrs, 0)
	n := len(instrs)

	// Carried register dependences: a value defined in iteration k and used
	// in iteration k+1 before any redefinition; plus carried anti/output
	// dependences to keep the register file consistent across iterations.
	for r := isa.Reg(0); r.Valid(); r++ {
		lastDef, defs := -1, []int{}
		for i, in := range instrs {
			for _, d := range in.Defs() {
				if d == r {
					lastDef = i
					defs = append(defs, i)
				}
			}
		}
		if lastDef < 0 {
			continue
		}
		firstDef := defs[0]
		for i, in := range instrs {
			// Carried RAW: use of r at i reads iteration k's lastDef when no
			// def of r precedes i within the iteration.
			uses := false
			for _, u := range in.Uses() {
				if u == r {
					uses = true
				}
			}
			if uses && !refDefinedBefore(instrs, r, i) {
				g.MustEdge(graph.NodeID(lastDef), graph.NodeID(i), instrs[lastDef].Latency(), 1)
			}
			// Carried WAR: the next iteration's first def of r must wait for
			// iteration k's last use when that use is not already protected
			// by an intra-iteration def in between.
			if uses && i >= firstDef {
				g.MustEdge(graph.NodeID(i), graph.NodeID(firstDef), 0, 1)
			}
			_ = i
		}
		// Carried WAW: last def of r → next iteration's first def.
		if len(defs) > 0 && lastDef != firstDef {
			g.MustEdge(graph.NodeID(lastDef), graph.NodeID(firstDef), 0, 1)
		} else if lastDef == firstDef {
			g.MustEdge(graph.NodeID(lastDef), graph.NodeID(firstDef), 0, 1) // self
		}
	}

	// Carried memory dependences (conservative, same disambiguation as the
	// intra-block pass but across the iteration boundary).
	memInfo := refAnalyzeBases(instrs)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := instrs[i], instrs[j]
			if !a.WritesMem() && !b.WritesMem() {
				continue
			}
			if !(a.ReadsMem() || a.WritesMem()) || !(b.ReadsMem() || b.WritesMem()) {
				continue
			}
			if refMayAlias(a, b, memInfo) {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), refMemLatency(instrs[i]), 1)
			}
		}
	}

	// Carried control: the back branch precedes the next iteration.
	br := -1
	for i, in := range instrs {
		if in.IsBranch() {
			br = i
		}
	}
	if br >= 0 {
		for i := 0; i < n; i++ {
			g.MustEdge(graph.NodeID(br), graph.NodeID(i), 0, 1)
		}
	}
	return g
}

func refAddBlockNodes(g *graph.Graph, instrs []isa.Instr, blockIndex int) {
	for _, in := range instrs {
		g.AddNode(in.Op.String(), in.Exec(), int(in.Class()), blockIndex)
	}
}

// refAddIntraEdges adds distance-0 edges for the instruction sequence starting
// at node offset base.
func refAddIntraEdges(g *graph.Graph, instrs []isa.Instr, base int) {
	n := len(instrs)
	info := refAnalyzeBases(instrs)
	for j := 0; j < n; j++ {
		bj := instrs[j]
		for i := j - 1; i >= 0; i-- {
			bi := instrs[i]
			lat, dep := refRegDep(bi, bj)
			if dep {
				g.MustEdge(graph.NodeID(base+i), graph.NodeID(base+j), lat, 0)
			}
			// Memory dependences.
			if (bi.WritesMem() && (bj.ReadsMem() || bj.WritesMem()) ||
				bj.WritesMem() && bi.ReadsMem()) && refMayAlias(bi, bj, info) {
				g.MustEdge(graph.NodeID(base+i), graph.NodeID(base+j), refMemLatency(bi), 0)
			}
		}
		// Control: every earlier instruction in the same block precedes its
		// branch (the paper's control-dependence edges into BT); a branch
		// precedes everything after it in the sequence.
		if bj.IsBranch() {
			for i := 0; i < j; i++ {
				if g.Node(graph.NodeID(base+i)).Block == g.Node(graph.NodeID(base+j)).Block {
					g.MustEdge(graph.NodeID(base+i), graph.NodeID(base+j), 0, 0)
				}
			}
		}
		if j > 0 && instrs[j-1].IsBranch() &&
			g.Node(graph.NodeID(base+j-1)).Block == g.Node(graph.NodeID(base+j)).Block {
			g.MustEdge(graph.NodeID(base+j-1), graph.NodeID(base+j), 0, 0)
		}
	}
}

// refRegDep reports whether b depends on a through a register, with the
// latency to honor (producer latency for RAW, 0 for WAR/WAW).
func refRegDep(a, b isa.Instr) (int, bool) {
	for _, d := range a.Defs() {
		for _, u := range b.Uses() {
			if d == u {
				return a.Latency(), true // RAW
			}
		}
		for _, d2 := range b.Defs() {
			if d == d2 {
				return 0, true // WAW
			}
		}
	}
	for _, u := range a.Uses() {
		for _, d := range b.Defs() {
			if u == d {
				return 0, true // WAR
			}
		}
	}
	return 0, false
}

// refBaseInfo classifies base registers for the distinct-base disambiguation
// rule. A base register is TRUSTED to name a distinct object only when the
// scope never redefines it (an externally managed array base, like the
// paper's Figure 3 x/y pointers — self-updates by LOADU/STOREU preserve the
// object) or defines it exactly once by a LI whose constant is recorded.
// Registers holding computed addresses (defined by arithmetic) are never
// trusted: two different registers can hold the same address.
type refBaseInfo struct {
	trusted map[isa.Reg]bool
	liConst map[isa.Reg]int64
}

func refAnalyzeBases(instrs []isa.Instr) refBaseInfo {
	info := refBaseInfo{trusted: map[isa.Reg]bool{}, liConst: map[isa.Reg]int64{}}
	defs := map[isa.Reg][]isa.Instr{}
	for _, in := range instrs {
		for _, d := range in.Defs() {
			// Update-form self-increments keep the base within its object.
			if (in.Op == isa.LOADU || in.Op == isa.STOREU) && d == in.Base {
				continue
			}
			defs[d] = append(defs[d], in)
		}
	}
	for r := isa.Reg(0); r.Valid(); r++ {
		ds := defs[r]
		switch {
		case len(ds) == 0:
			info.trusted[r] = true // externally managed (Figure 3 style)
		case len(ds) == 1 && ds[0].Op == isa.LI:
			info.trusted[r] = true
			info.liConst[r] = ds[0].Imm
		}
	}
	return info
}

// refMayAlias is the conservative base+offset disambiguator: two memory
// references are disjoint when they use the same base register with
// different offsets (and neither updates the base), or when they use
// distinct TRUSTED base registers (see refBaseInfo) — distinct array objects,
// assuming the source program has no out-of-bounds accesses. Everything
// else may alias.
func refMayAlias(a, b isa.Instr, info refBaseInfo) bool {
	if a.Base == isa.NoReg || b.Base == isa.NoReg {
		return true
	}
	// Same base, different constant offsets: disjoint — but only when the
	// base is trusted (never redefined in scope), otherwise the register may
	// hold different addresses at the two accesses.
	if a.Base == b.Base && a.Imm != b.Imm && info.trusted[a.Base] &&
		a.Op != isa.LOADU && a.Op != isa.STOREU &&
		b.Op != isa.LOADU && b.Op != isa.STOREU {
		return false
	}
	if a.Base != b.Base && info.trusted[a.Base] && info.trusted[b.Base] {
		ca, okA := info.liConst[a.Base]
		cb, okB := info.liConst[b.Base]
		if okA && okB && ca == cb {
			return true // same object loaded into two registers
		}
		return false
	}
	return true
}

// refMemLatency: a store's value is visible immediately (latency 0); a load
// feeding through memory is treated like its register latency.
func refMemLatency(producer isa.Instr) int {
	if producer.WritesMem() {
		return 0
	}
	return producer.Latency()
}

// refDefinedBefore reports whether register r is defined by any instruction
// strictly before index i.
func refDefinedBefore(instrs []isa.Instr, r isa.Reg, i int) bool {
	for k := 0; k < i; k++ {
		for _, d := range instrs[k].Defs() {
			if d == r {
				return true
			}
		}
	}
	return false
}
