// Package isa defines the RISC-like target instruction set used by the
// compiler pipeline and the worked examples — modeled on the RS/6000-style
// instructions of the paper's Figure 3 (L4AU, ST4U, C4, M, BT): loads and
// stores with optional base-register update, fixed-point ALU operations,
// multiply/divide on a separate unit class, compares into condition
// registers, and conditional branches.
//
// The latency model follows the paper's conventions: an instruction's
// latency is the number of cycles that must elapse between its completion
// and a dependent instruction's start (0 for simple ALU results forwarded
// immediately, 1 for loads and compares, 4 for multiply — "these latencies
// do not correspond to any specific implementation").
package isa

import (
	"fmt"
	"strings"

	"aisched/internal/machine"
)

// Opcode enumerates the instruction set.
type Opcode int

// The instruction set. LOADU/STOREU are the "with update" forms (L4AU/ST4U
// in the paper) that also write the base register.
const (
	NOP    Opcode = iota
	LI            // li rd, imm
	MOV           // mov rd, ra
	ADD           // add rd, ra, rb
	SUB           // sub rd, ra, rb
	AND           // and rd, ra, rb
	OR            // or rd, ra, rb
	XOR           // xor rd, ra, rb
	SHL           // shl rd, ra, rb
	SHR           // shr rd, ra, rb
	ADDI          // addi rd, ra, imm
	SUBI          // subi rd, ra, imm
	MUL           // mul rd, ra, rb (float/multiply unit)
	DIV           // div rd, ra, rb (float/multiply unit, multi-cycle)
	LOAD          // load rd, off(rb)
	LOADU         // loadu rd, off(rb) — also rb += off
	STORE         // store rs, off(rb)
	STOREU        // storeu rs, off(rb) — also rb += off
	CMP           // cmp crd, ra, rb
	CMPI          // cmpi crd, ra, imm
	BT            // bt cr, target — branch if true
	BF            // bf cr, target — branch if false
	B             // b target — unconditional
	numOpcodes
)

var opNames = [...]string{
	NOP: "nop", LI: "li", MOV: "mov", ADD: "add", SUB: "sub", AND: "and",
	OR: "or", XOR: "xor", SHL: "shl", SHR: "shr", ADDI: "addi", SUBI: "subi",
	MUL: "mul", DIV: "div", LOAD: "load", LOADU: "loadu", STORE: "store",
	STOREU: "storeu", CMP: "cmp", CMPI: "cmpi", BT: "bt", BF: "bf", B: "b",
}

func (o Opcode) String() string {
	if o >= 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Reg identifies a register: general registers r0..r31 and condition
// registers cr0..cr7.
type Reg int

// NumGPR and NumCR size the register files.
const (
	NumGPR = 32
	NumCR  = 8
	// NoReg marks an absent register operand.
	NoReg Reg = -1
)

// GPR returns the i-th general register.
func GPR(i int) Reg { return Reg(i) }

// CR returns the i-th condition register.
func CR(i int) Reg { return Reg(NumGPR + i) }

// IsCR reports whether r is a condition register.
func (r Reg) IsCR() bool { return r >= NumGPR && r < NumGPR+NumCR }

// Valid reports whether r names a real register.
func (r Reg) Valid() bool { return r >= 0 && r < NumGPR+NumCR }

func (r Reg) String() string {
	switch {
	case !r.Valid():
		return "r?"
	case r.IsCR():
		return fmt.Sprintf("cr%d", int(r)-NumGPR)
	default:
		return fmt.Sprintf("r%d", int(r))
	}
}

// CondCode selects the comparison a CMP/CMPI evaluates into its condition
// register.
type CondCode int

// Condition codes. The zero value NE ("result is nonzero") matches the
// common `cmpi crX, r, 0` idiom of the paper's Figure 3.
const (
	NE CondCode = iota // a != b
	EQ                 // a == b
	LT                 // a < b
	LE                 // a <= b
	GT                 // a > b
	GE                 // a >= b
)

var condNames = [...]string{NE: "ne", EQ: "eq", LT: "lt", LE: "le", GT: "gt", GE: "ge"}

func (c CondCode) String() string {
	if c >= 0 && int(c) < len(condNames) {
		return condNames[c]
	}
	return "cc?"
}

// Eval applies the condition to two values.
func (c CondCode) Eval(a, b int64) bool {
	switch c {
	case EQ:
		return a == b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	default:
		return a != b
	}
}

// Instr is one machine instruction.
type Instr struct {
	Op Opcode
	// Dst is the primary destination (NoReg when none).
	Dst Reg
	// SrcA, SrcB are register sources (NoReg when unused).
	SrcA, SrcB Reg
	// Imm is the immediate / memory offset.
	Imm int64
	// Base is the memory base register for LOAD*/STORE*.
	Base Reg
	// Target is the branch target label.
	Target string
	// Cond is the comparison evaluated by CMP/CMPI (NE by default).
	Cond CondCode
	// Comment is carried verbatim into the printed assembly.
	Comment string
}

// Operands returns the registers the instruction writes, defs[:nd], and
// reads, uses[:nu], in the order Defs and Uses list them, without
// allocating. This is the one opcode → operand table. A def is reported as
// encoded, so an unvalidated Dst may be NoReg; a use is always a real
// register.
func (in Instr) Operands() (defs [2]Reg, nd int, uses [2]Reg, nu int) {
	switch in.Op {
	case LI, MOV, ADD, SUB, AND, OR, XOR, SHL, SHR, ADDI, SUBI, MUL, DIV, LOAD, LOADU, CMP, CMPI:
		defs[nd] = in.Dst
		nd++
	}
	if in.Op == LOADU || in.Op == STOREU {
		defs[nd] = in.Base
		nd++
	}
	use := func(r Reg) {
		if r.Valid() {
			uses[nu] = r
			nu++
		}
	}
	switch in.Op {
	case MOV, ADDI, SUBI, CMPI:
		use(in.SrcA)
	case ADD, SUB, AND, OR, XOR, SHL, SHR, MUL, DIV, CMP:
		use(in.SrcA)
		use(in.SrcB)
	case LOAD, LOADU:
		use(in.Base)
	case STORE, STOREU:
		use(in.SrcA)
		use(in.Base)
	case BT, BF:
		use(in.SrcA) // condition register
	}
	return defs, nd, uses, nu
}

// Defs returns the registers written by the instruction (nil when none).
func (in Instr) Defs() []Reg {
	defs, nd, _, _ := in.Operands()
	return append([]Reg(nil), defs[:nd]...)
}

// Uses returns the registers read by the instruction (nil when none).
func (in Instr) Uses() []Reg {
	_, _, uses, nu := in.Operands()
	return append([]Reg(nil), uses[:nu]...)
}

// ReadsMem reports whether the instruction loads from memory.
func (in Instr) ReadsMem() bool { return in.Op == LOAD || in.Op == LOADU }

// WritesMem reports whether the instruction stores to memory.
func (in Instr) WritesMem() bool { return in.Op == STORE || in.Op == STOREU }

// IsBranch reports whether the instruction transfers control.
func (in Instr) IsBranch() bool { return in.Op == BT || in.Op == BF || in.Op == B }

// Latency returns the result latency in cycles (extra cycles between this
// instruction's completion and a dependent start).
func (in Instr) Latency() int {
	switch in.Op {
	case LOAD, LOADU, CMP, CMPI:
		return 1
	case MUL:
		return 4
	case DIV:
		return 6
	default:
		return 0
	}
}

// Exec returns the execution time in cycles (functional-unit occupancy).
func (in Instr) Exec() int {
	if in.Op == DIV {
		return 4
	}
	return 1
}

// Class returns the functional-unit class.
func (in Instr) Class() machine.UnitClass {
	switch in.Op {
	case MUL, DIV:
		return machine.ClassFloat
	case BT, BF, B:
		return machine.ClassBranch
	default:
		return machine.ClassFixed
	}
}

// Mnemonic renders the instruction as one line of assembly (no label).
func (in Instr) Mnemonic() string {
	var s string
	switch in.Op {
	case NOP:
		s = "nop"
	case LI:
		s = fmt.Sprintf("li %s, %d", in.Dst, in.Imm)
	case MOV:
		s = fmt.Sprintf("mov %s, %s", in.Dst, in.SrcA)
	case ADDI, SUBI:
		s = fmt.Sprintf("%s %s, %s, %d", in.Op, in.Dst, in.SrcA, in.Imm)
	case ADD, SUB, AND, OR, XOR, SHL, SHR, MUL, DIV:
		s = fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.SrcA, in.SrcB)
	case LOAD, LOADU:
		s = fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Dst, in.Imm, in.Base)
	case STORE, STOREU:
		s = fmt.Sprintf("%s %s, %d(%s)", in.Op, in.SrcA, in.Imm, in.Base)
	case CMP:
		s = fmt.Sprintf("cmp%s %s, %s, %s", condSuffix(in.Cond), in.Dst, in.SrcA, in.SrcB)
	case CMPI:
		s = fmt.Sprintf("cmpi%s %s, %s, %d", condSuffix(in.Cond), in.Dst, in.SrcA, in.Imm)
	case BT, BF:
		s = fmt.Sprintf("%s %s, %s", in.Op, in.SrcA, in.Target)
	case B:
		s = fmt.Sprintf("b %s", in.Target)
	default:
		s = in.Op.String()
	}
	if in.Comment != "" {
		s += " ; " + in.Comment
	}
	return s
}

func (in Instr) String() string { return in.Mnemonic() }

// Validate checks operand sanity for the opcode.
func (in Instr) Validate() error {
	check := func(r Reg, what string, wantCR bool) error {
		if !r.Valid() {
			return fmt.Errorf("isa: %s: invalid %s register", in.Op, what)
		}
		if r.IsCR() != wantCR {
			return fmt.Errorf("isa: %s: %s register %s has wrong file", in.Op, what, r)
		}
		return nil
	}
	switch in.Op {
	case NOP, B:
		return nil
	case LI:
		return check(in.Dst, "dst", false)
	case MOV, ADDI, SUBI:
		if err := check(in.Dst, "dst", false); err != nil {
			return err
		}
		return check(in.SrcA, "src", false)
	case ADD, SUB, AND, OR, XOR, SHL, SHR, MUL, DIV:
		if err := check(in.Dst, "dst", false); err != nil {
			return err
		}
		if err := check(in.SrcA, "srcA", false); err != nil {
			return err
		}
		return check(in.SrcB, "srcB", false)
	case LOAD, LOADU:
		if err := check(in.Dst, "dst", false); err != nil {
			return err
		}
		return check(in.Base, "base", false)
	case STORE, STOREU:
		if err := check(in.SrcA, "src", false); err != nil {
			return err
		}
		return check(in.Base, "base", false)
	case CMP:
		if err := check(in.Dst, "cr", true); err != nil {
			return err
		}
		if err := check(in.SrcA, "srcA", false); err != nil {
			return err
		}
		return check(in.SrcB, "srcB", false)
	case CMPI:
		if err := check(in.Dst, "cr", true); err != nil {
			return err
		}
		return check(in.SrcA, "src", false)
	case BT, BF:
		if in.Target == "" {
			return fmt.Errorf("isa: %s without target", in.Op)
		}
		return check(in.SrcA, "cr", true)
	}
	return fmt.Errorf("isa: unknown opcode %d", in.Op)
}

// Format renders a sequence of instructions as assembly text.
func Format(instrs []Instr) string {
	var b strings.Builder
	for _, in := range instrs {
		b.WriteString("\t")
		b.WriteString(in.Mnemonic())
		b.WriteString("\n")
	}
	return b.String()
}

// condSuffix renders the condition code for the assembly form: empty for
// the default NE, ".cc" otherwise (e.g. "cmp.lt cr0, r1, r2").
func condSuffix(c CondCode) string {
	if c == NE {
		return ""
	}
	return "." + c.String()
}
