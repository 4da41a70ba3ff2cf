// Package regren implements a register-renaming pass over straight-line
// instruction sequences: every definition is given a fresh register (while
// the register file lasts) and subsequent uses are rewritten, eliminating
// the anti (WAR) and output (WAW) dependences that would otherwise
// serialize the schedule. This is the compile-time analogue of the
// renaming that out-of-order hardware performs, and the mechanism the
// paper's §6 related work (Hennessy–Gross pipeline hazards,
// Gibbons–Muchnick register reuse edges) treats as a first-class
// scheduling obstacle.
//
// The pass is conservative: registers that are live into or out of the
// block (read before any definition, or defined and never provably dead)
// keep their final architectural homes via a copy-free "last def writes the
// original register" policy, so the renamed block is observationally
// equivalent for any consumer of the block's live-out registers.
package regren

import (
	"aisched/internal/isa"
)

// Rename rewrites a basic block so each register definition targets a
// fresh register, reusing the free registers of the file. The last
// definition of each original register keeps the original name (preserving
// live-out values); earlier definitions move to scratch registers. When the
// register file is exhausted, remaining definitions keep their original
// registers (graceful degradation: the pass only removes the false
// dependences it has room for).
//
// Scratch registers are chosen among those the BLOCK does not reference;
// when the block is part of a larger program, a register unreferenced here
// may still be live across the block — use RenameBlocks, which reserves
// every register the whole program touches.
func Rename(instrs []isa.Instr) []isa.Instr {
	return renameWith(instrs, referenced(instrs))
}

// RenameBlocks renames every block of a program, treating all registers
// referenced anywhere in the program as reserved (they may be live across
// block boundaries) so scratch registers never clobber a live value.
func RenameBlocks(blocks []isa.Block) []isa.Block {
	reserved := map[isa.Reg]bool{}
	for _, b := range blocks {
		for r := range referenced(b.Instrs) {
			reserved[r] = true
		}
	}
	out := make([]isa.Block, len(blocks))
	for i, b := range blocks {
		out[i] = isa.Block{Label: b.Label, Instrs: renameWith(b.Instrs, reserved)}
	}
	return out
}

// referenced collects every register an instruction sequence touches.
func referenced(instrs []isa.Instr) map[isa.Reg]bool {
	used := map[isa.Reg]bool{}
	for _, in := range instrs {
		defs, nd, uses, nu := in.Operands()
		for _, r := range defs[:nd] {
			used[r] = true
		}
		for _, r := range uses[:nu] {
			used[r] = true
		}
		if in.Base.Valid() {
			used[in.Base] = true
		}
	}
	return used
}

func renameWith(instrs []isa.Instr, reserved map[isa.Reg]bool) []isa.Instr {
	out := make([]isa.Instr, len(instrs))
	copy(out, instrs)

	var free []isa.Reg
	for i := 0; i < isa.NumGPR; i++ {
		if !reserved[isa.GPR(i)] {
			free = append(free, isa.GPR(i))
		}
	}

	// lastDef[r] = index of the final definition of r in the block.
	lastDef := map[isa.Reg]int{}
	for i, in := range instrs {
		defs, nd, _, _ := in.Operands()
		for _, d := range defs[:nd] {
			lastDef[d] = i
		}
	}

	// current[r] = the register currently holding the value of original r.
	current := map[isa.Reg]isa.Reg{}
	mapUse := func(r isa.Reg) isa.Reg {
		if r.IsCR() || !r.Valid() {
			return r
		}
		if c, ok := current[r]; ok {
			return c
		}
		return r
	}
	for i := range out {
		in := &out[i]
		// Rewrite uses first (they read the pre-instruction mapping).
		in.SrcA = mapUse(in.SrcA)
		in.SrcB = mapUse(in.SrcB)
		// Base is both a use and possibly a def (update forms); the update
		// forms increment the base in place, so renaming the base would
		// change the addressing of later accesses — keep bases pinned and
		// only rewrite pure-use bases through the map.
		if in.Base.Valid() && in.Op != isa.LOADU && in.Op != isa.STOREU {
			in.Base = mapUse(in.Base)
		}
		// Rewrite the primary destination.
		d := primaryDst(*in)
		if d.Valid() && !d.IsCR() {
			if lastDef[d] == i {
				// Final def: restore the architectural register.
				current[d] = d
			} else if len(free) > 0 {
				fresh := free[0]
				free = free[1:]
				current[d] = fresh
				setPrimaryDst(in, fresh)
			} else {
				current[d] = d // out of scratch registers: keep as-is
			}
		}
	}
	return out
}

// primaryDst returns the register the instruction's Dst field defines
// (NoReg for stores/branches; the update-form base is handled separately
// and never renamed).
func primaryDst(in isa.Instr) isa.Reg {
	switch in.Op {
	case isa.LI, isa.MOV, isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.SHL, isa.SHR, isa.ADDI, isa.SUBI, isa.MUL, isa.DIV,
		isa.LOAD, isa.LOADU:
		return in.Dst
	}
	return isa.NoReg
}

func setPrimaryDst(in *isa.Instr, r isa.Reg) { in.Dst = r }

// FalseDeps counts the anti (WAR) and output (WAW) register dependences in
// a block — the quantity renaming exists to reduce.
func FalseDeps(instrs []isa.Instr) int {
	count := 0
	for j := 1; j < len(instrs); j++ {
		for i := 0; i < j; i++ {
			if isFalseDep(instrs[i], instrs[j]) {
				count++
			}
		}
	}
	return count
}

// isFalseDep reports whether b has a WAW or WAR dependence on a and no RAW
// one: unlike the dependence builder's first-match rule, any RAW dominates.
func isFalseDep(a, b isa.Instr) bool {
	ad, nad, au, nau := a.Operands()
	bd, nbd, bu, nbu := b.Operands()
	aDefs, aUses, bDefs, bUses := ad[:nad], au[:nau], bd[:nbd], bu[:nbu]
	for _, d := range aDefs {
		for _, u := range bUses {
			if d == u {
				return false // true dependence dominates
			}
		}
	}
	for _, d := range aDefs {
		for _, d2 := range bDefs {
			if d == d2 {
				return true // WAW
			}
		}
	}
	for _, u := range aUses {
		for _, d := range bDefs {
			if u == d {
				return true // WAR
			}
		}
	}
	return false
}
