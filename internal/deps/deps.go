// Package deps builds dependence graphs (internal/graph) from machine
// instructions (internal/isa): register true/anti/output dependences with
// producer latencies, conservative memory dependences with a base+offset
// disambiguator, control dependences into block-terminating branches, and —
// for loops — distance-1 loop-carried dependences including the carried
// control edges from the back branch (the paper's Figure 3 edge set).
//
// Each build reads every instruction's operands once (fact) and classifies
// base registers in fixed arrays. It then walks its edge rules twice: the
// first walk only counts each node's degrees, so the graph's adjacency
// lists are reserved before the second walk adds the same edges, in the
// same order, through graph.AddEdge.
package deps

import (
	"aisched/internal/graph"
	"aisched/internal/isa"
)

// numRegs sizes the per-register arrays: general then condition registers.
const numRegs = isa.NumGPR + isa.NumCR

// badDef is the register-mask bit of a def that names no real register
// (an unvalidated NoReg Dst). Every real register has a bit below it.
const badDef = uint64(1) << 63

// The real registers' bits must stay below badDef.
const _ = uint64(1) << (63 - numRegs)

func regBit(r isa.Reg) uint64 {
	if r.Valid() {
		return 1 << uint(r)
	}
	return badDef
}

// BuildBlock constructs the dependence graph of a single basic block. Every
// node's Block field is set to blockIndex.
func BuildBlock(instrs []isa.Instr, blockIndex int) *graph.Graph {
	b := newBuilder(len(instrs))
	b.addBlock(instrs, blockIndex)
	b.build(false)
	return b.g
}

// BuildTrace constructs the dependence graph of a trace: blocks laid out
// consecutively, with register and memory dependences tracked across block
// boundaries (the cross-block edges that make anticipatory scheduling
// worthwhile) and control dependences into each block's terminating branch.
//
// Control: branches could additionally order block prefixes — an
// instruction in a later block control dependent on the previous block's
// branch. These are real dependences only when the hardware cannot
// speculate; the paper's model lets the window run ahead under branch
// prediction, so cross-block control edges are intentionally omitted here
// and handled by the simulator's speculation switch.
func BuildTrace(blocks [][]isa.Instr) *graph.Graph {
	total := 0
	for _, bs := range blocks {
		total += len(bs)
	}
	b := newBuilder(total)
	for bi, bs := range blocks {
		b.addBlock(bs, bi)
	}
	b.build(false)
	return b.g
}

// BuildLoop constructs the dependence graph of a single-basic-block loop
// body: the intra-iteration edges of BuildBlock plus distance-1 loop-carried
// register, memory, and control dependences. The carried control edges run
// from the block's terminating branch to every instruction of the next
// iteration with <0,1>, matching the paper's Figure 3.
func BuildLoop(instrs []isa.Instr) *graph.Graph {
	b := newBuilder(len(instrs))
	b.addBlock(instrs, 0)
	b.build(true)
	return b.g
}

// fact is what the edge rules read of one instruction, computed once per
// build.
type fact struct {
	defs, uses [2]isa.Reg // isa.Instr.Operands: defs[:nd], uses[:nu]
	nd, nu     int
	// defMask and useMask have a bit per register in defs and uses, so a
	// pair that shares no register is ruled out without a walk.
	defMask, useMask uint64
	lat              int // producer latency (isa.Instr.Latency)
	block            int
	base             isa.Reg
	imm              int64
	li               bool // LI: its def is a recorded constant
	reads            bool // loads from memory
	writes           bool // stores to memory
	update           bool // LOADU/STOREU: also writes its base
	branch           bool
}

type builder struct {
	g     *graph.Graph
	facts []fact
	// trusted and liConst classify base registers for mayAlias. A base
	// register is TRUSTED to name a distinct object only when the scope
	// never redefines it (an externally managed array base, like the
	// paper's Figure 3 x/y pointers — self-updates by LOADU/STOREU
	// preserve the object) or defines it exactly once by a LI, whose
	// constant hasLI/liConst record. Registers holding computed addresses
	// (defined by arithmetic) are never trusted: two different registers
	// can hold the same address.
	trusted [numRegs]bool
	hasLI   [numRegs]bool
	liConst [numRegs]int64
	// deg is non-nil during the counting walk: each node's out-degree at
	// [v], its in-degree at [Len()+v].
	deg []int
}

func newBuilder(n int) *builder {
	return &builder{g: graph.New(n), facts: make([]fact, 0, n)}
}

// addBlock appends a block's nodes and facts.
func (b *builder) addBlock(instrs []isa.Instr, blockIndex int) {
	for _, in := range instrs {
		b.g.AddNode(in.Op.String(), in.Exec(), int(in.Class()), blockIndex)
		f := fact{
			lat: in.Latency(), block: blockIndex, base: in.Base, imm: in.Imm, li: in.Op == isa.LI,
			reads: in.ReadsMem(), writes: in.WritesMem(),
			update: in.Op == isa.LOADU || in.Op == isa.STOREU, branch: in.IsBranch(),
		}
		f.defs, f.nd, f.uses, f.nu = in.Operands()
		for _, d := range f.defs[:f.nd] {
			f.defMask |= regBit(d)
		}
		for _, u := range f.uses[:f.nu] {
			f.useMask |= regBit(u)
		}
		b.facts = append(b.facts, f)
	}
}

// build classifies the base registers, counts every node's degrees,
// reserves the adjacency lists, and adds the edges.
func (b *builder) build(loop bool) {
	b.analyzeBases()
	n := len(b.facts)
	b.deg = make([]int, 2*n)
	b.edges(loop)
	b.g.ReserveEdges(b.deg[:n], b.deg[n:])
	b.deg = nil
	b.edges(loop)
}

// edge counts (src, dst) during the counting walk and adds it otherwise.
func (b *builder) edge(src, dst, latency, distance int) {
	if b.deg != nil {
		b.deg[src]++
		b.deg[len(b.facts)+dst]++
		return
	}
	b.g.MustEdge(graph.NodeID(src), graph.NodeID(dst), latency, distance)
}

// edges walks every edge rule in the order the graph receives its edges:
// the distance-0 edges, then for a loop the carried register, memory and
// control edges.
func (b *builder) edges(loop bool) {
	b.intraEdges()
	if loop {
		b.carriedEdges()
	}
}

// intraEdges adds the distance-0 edges. For each instruction j: the
// register and memory dependences on every earlier instruction, nearest
// first; if j is a branch, the control edges from every earlier
// instruction of its block (the paper's control-dependence edges into BT);
// and if the instruction before j is a branch of j's block, the edge from
// that branch to j — a mid-block branch precedes the next instruction only.
func (b *builder) intraEdges() {
	fs := b.facts
	for j := range fs {
		fj := &fs[j]
		for i := j - 1; i >= 0; i-- {
			fi := &fs[i]
			if lat, dep := regDep(fi, fj); dep {
				b.edge(i, j, lat, 0)
			}
			if (fi.writes && (fj.reads || fj.writes) || fj.writes && fi.reads) && b.mayAlias(fi, fj) {
				b.edge(i, j, memLatency(fi), 0)
			}
		}
		if fj.branch {
			for i := 0; i < j; i++ {
				if fs[i].block == fj.block {
					b.edge(i, j, 0, 0)
				}
			}
		}
		if j > 0 && fs[j-1].branch && fs[j-1].block == fj.block {
			b.edge(j-1, j, 0, 0)
		}
	}
}

// carriedEdges adds the distance-1 edges of a loop body.
func (b *builder) carriedEdges() {
	fs := b.facts
	n := len(fs)

	// Carried register dependences: a value defined in iteration k and used
	// in iteration k+1 before any redefinition; plus carried anti/output
	// dependences to keep the register file consistent across iterations.
	var firstDef, lastDef [numRegs]int
	for r := range firstDef {
		firstDef[r], lastDef[r] = -1, -1
	}
	for i := range fs {
		for _, d := range fs[i].defs[:fs[i].nd] {
			if d.Valid() {
				if firstDef[d] < 0 {
					firstDef[d] = i
				}
				lastDef[d] = i
			}
		}
	}
	for r := isa.Reg(0); r < numRegs; r++ {
		first, last := firstDef[r], lastDef[r]
		if last < 0 {
			continue
		}
		for i := range fs {
			if fs[i].useMask&regBit(r) == 0 {
				continue
			}
			// Carried RAW: a use of r at i reads iteration k's last def
			// when no def of r precedes i within the iteration.
			if first >= i {
				b.edge(last, i, fs[last].lat, 1)
			}
			// Carried WAR: the next iteration's first def of r must wait
			// for iteration k's uses from the first def on.
			if i >= first {
				b.edge(i, first, 0, 1)
			}
		}
		// Carried WAW: last def of r → next iteration's first def (a self
		// edge when r has one def).
		b.edge(last, first, 0, 1)
	}

	// Carried memory dependences (conservative, same disambiguation as the
	// intra-block pass but across the iteration boundary).
	for i := range fs {
		fi := &fs[i]
		if !fi.reads && !fi.writes {
			continue
		}
		for j := range fs {
			fj := &fs[j]
			if !fj.reads && !fj.writes || !fi.writes && !fj.writes {
				continue
			}
			if b.mayAlias(fi, fj) {
				b.edge(i, j, memLatency(fi), 1)
			}
		}
	}

	// Carried control: the back branch precedes the next iteration.
	br := -1
	for i := range fs {
		if fs[i].branch {
			br = i
		}
	}
	if br >= 0 {
		for i := 0; i < n; i++ {
			b.edge(br, i, 0, 1)
		}
	}
}

// regDep reports whether b depends on a through a register, with the
// latency to honor (producer latency for RAW, 0 for WAR/WAW). It walks a's
// defs in order and answers on the first one that b reads (RAW) or writes
// (WAW), so for LOADU a WAW on its Dst comes before a RAW on its base.
// Registers are compared as values: a def may be NoReg. The masks only
// rule out pairs that share no register; they never pick the answer.
func regDep(a, b *fact) (int, bool) {
	if a.defMask&(b.useMask|b.defMask) == 0 && a.useMask&b.defMask == 0 {
		return 0, false
	}
	for _, d := range a.defs[:a.nd] {
		for _, u := range b.uses[:b.nu] {
			if d == u {
				return a.lat, true // RAW
			}
		}
		for _, d2 := range b.defs[:b.nd] {
			if d == d2 {
				return 0, true // WAW
			}
		}
	}
	for _, u := range a.uses[:a.nu] {
		for _, d := range b.defs[:b.nd] {
			if u == d {
				return 0, true // WAR
			}
		}
	}
	return 0, false
}

// analyzeBases fills trusted, hasLI and liConst (see builder).
func (b *builder) analyzeBases() {
	var ndefs [numRegs]int
	var liDef [numRegs]bool
	for i := range b.facts {
		f := &b.facts[i]
		for _, d := range f.defs[:f.nd] {
			// Update-form self-increments keep the base within its object.
			if f.update && d == f.base || !d.Valid() {
				continue
			}
			if ndefs[d] == 0 {
				liDef[d] = f.li
				b.liConst[d] = f.imm
			}
			ndefs[d]++
		}
	}
	for r := range ndefs {
		b.hasLI[r] = ndefs[r] == 1 && liDef[r]
		b.trusted[r] = ndefs[r] == 0 || b.hasLI[r]
	}
}

func (b *builder) isTrusted(r isa.Reg) bool { return r.Valid() && b.trusted[r] }

// mayAlias is the conservative base+offset disambiguator: two memory
// references are disjoint when they use the same base register with
// different offsets (and neither updates the base), or when they use
// distinct TRUSTED base registers (see builder) — distinct array objects,
// assuming the source program has no out-of-bounds accesses. Everything
// else may alias.
func (b *builder) mayAlias(x, y *fact) bool {
	if x.base == isa.NoReg || y.base == isa.NoReg {
		return true
	}
	// Same base, different constant offsets: disjoint — but only when the
	// base is trusted (never redefined in scope), otherwise the register may
	// hold different addresses at the two accesses.
	if x.base == y.base && x.imm != y.imm && b.isTrusted(x.base) && !x.update && !y.update {
		return false
	}
	if x.base != y.base && b.isTrusted(x.base) && b.isTrusted(y.base) {
		// Same object loaded into two registers.
		return b.hasLI[x.base] && b.hasLI[y.base] && b.liConst[x.base] == b.liConst[y.base]
	}
	return true
}

// memLatency: a store's value is visible immediately (latency 0); a load
// feeding through memory is treated like its register latency.
func memLatency(producer *fact) int {
	if producer.writes {
		return 0
	}
	return producer.lat
}
