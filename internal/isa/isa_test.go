package isa

import (
	"strings"
	"testing"

	"aisched/internal/machine"
)

func TestRegNaming(t *testing.T) {
	if GPR(6).String() != "r6" {
		t.Fatalf("GPR(6) = %s", GPR(6))
	}
	if CR(1).String() != "cr1" {
		t.Fatalf("CR(1) = %s", CR(1))
	}
	if !CR(0).IsCR() || GPR(0).IsCR() {
		t.Fatal("IsCR wrong")
	}
	if NoReg.Valid() {
		t.Fatal("NoReg should be invalid")
	}
}

func TestDefsUses(t *testing.T) {
	cases := []struct {
		in   Instr
		defs []Reg
		uses []Reg
	}{
		{Instr{Op: ADD, Dst: GPR(3), SrcA: GPR(1), SrcB: GPR(2)}, []Reg{GPR(3)}, []Reg{GPR(1), GPR(2)}},
		{Instr{Op: LOAD, Dst: GPR(6), Base: GPR(7), Imm: 4}, []Reg{GPR(6)}, []Reg{GPR(7)}},
		{Instr{Op: LOADU, Dst: GPR(6), Base: GPR(7), Imm: 4}, []Reg{GPR(6), GPR(7)}, []Reg{GPR(7)}},
		{Instr{Op: STORE, SrcA: GPR(0), Base: GPR(5), Imm: 4}, nil, []Reg{GPR(0), GPR(5)}},
		{Instr{Op: STOREU, SrcA: GPR(0), Base: GPR(5), Imm: 4}, []Reg{GPR(5)}, []Reg{GPR(0), GPR(5)}},
		{Instr{Op: CMPI, Dst: CR(1), SrcA: GPR(6)}, []Reg{CR(1)}, []Reg{GPR(6)}},
		{Instr{Op: BT, SrcA: CR(1), Target: "L"}, nil, []Reg{CR(1)}},
		{Instr{Op: B, Target: "L"}, nil, nil},
		{Instr{Op: NOP}, nil, nil},
	}
	for _, c := range cases {
		if got := c.in.Defs(); !sameRegs(got, c.defs) {
			t.Errorf("%s: Defs = %v, want %v", c.in, got, c.defs)
		}
		if got := c.in.Uses(); !sameRegs(got, c.uses) {
			t.Errorf("%s: Uses = %v, want %v", c.in, got, c.uses)
		}
	}
}

func TestOperandsMatchDefsUsesWithoutAllocating(t *testing.T) {
	// An unvalidated NoReg Dst is still a def; a NoReg source is no use.
	in := Instr{Op: LOADU, Dst: NoReg, SrcA: NoReg, Base: GPR(7)}
	defs, nd, uses, nu := in.Operands()
	if !sameRegs(defs[:nd], []Reg{NoReg, GPR(7)}) || !sameRegs(uses[:nu], []Reg{GPR(7)}) {
		t.Fatalf("Operands = %v, %v; want [r? r7], [r7]", defs[:nd], uses[:nu])
	}
	if !sameRegs(in.Defs(), defs[:nd]) || !sameRegs(in.Uses(), uses[:nu]) {
		t.Fatalf("Defs/Uses = %v/%v, Operands %v/%v", in.Defs(), in.Uses(), defs[:nd], uses[:nu])
	}
	if (Instr{Op: NOP}).Defs() != nil || (Instr{Op: NOP}).Uses() != nil {
		t.Fatal("Defs/Uses of a NOP are not nil")
	}
	if a := testing.AllocsPerRun(100, func() { in.Operands() }); a != 0 {
		t.Fatalf("Operands allocates %v times", a)
	}
}

func sameRegs(a, b []Reg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLatencyClassExec(t *testing.T) {
	if (Instr{Op: LOAD}).Latency() != 1 || (Instr{Op: MUL}).Latency() != 4 || (Instr{Op: ADD}).Latency() != 0 {
		t.Fatal("latency table wrong")
	}
	if (Instr{Op: DIV}).Exec() != 4 || (Instr{Op: ADD}).Exec() != 1 {
		t.Fatal("exec table wrong")
	}
	if (Instr{Op: MUL}).Class() != machine.ClassFloat {
		t.Fatal("MUL class wrong")
	}
	if (Instr{Op: BT}).Class() != machine.ClassBranch {
		t.Fatal("BT class wrong")
	}
	if (Instr{Op: LOAD}).Class() != machine.ClassFixed {
		t.Fatal("LOAD class wrong")
	}
}

func TestMemPredicates(t *testing.T) {
	if !(Instr{Op: LOADU}).ReadsMem() || (Instr{Op: LOADU}).WritesMem() {
		t.Fatal("LOADU predicates wrong")
	}
	if !(Instr{Op: STORE}).WritesMem() || (Instr{Op: STORE}).ReadsMem() {
		t.Fatal("STORE predicates wrong")
	}
	if !(Instr{Op: BT}).IsBranch() || (Instr{Op: ADD}).IsBranch() {
		t.Fatal("IsBranch wrong")
	}
}

func TestParseFigure3Assembly(t *testing.T) {
	src := `
CL.18:
	loadu  r6, 4(r7)   ; load x[i] into r6, update index
	storeu r0, 4(r5)   ; store r0 into y[i-1], update index
	cmpi   cr1, r6, 0  ; compare x[i] with 0
	mul    r0, r6, r0  ; y[i] = y[i-1] * x[i]
	bt     cr1, CL.1   ; exit if x[i] == 0
`
	blocks, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Fatalf("got %d blocks, want 1", len(blocks))
	}
	b := blocks[0]
	if b.Label != "CL.18" {
		t.Fatalf("label = %q", b.Label)
	}
	wantOps := []Opcode{LOADU, STOREU, CMPI, MUL, BT}
	if len(b.Instrs) != len(wantOps) {
		t.Fatalf("got %d instrs", len(b.Instrs))
	}
	for i, op := range wantOps {
		if b.Instrs[i].Op != op {
			t.Fatalf("instr %d = %s, want %s", i, b.Instrs[i].Op, op)
		}
	}
	if b.Instrs[0].Dst != GPR(6) || b.Instrs[0].Base != GPR(7) || b.Instrs[0].Imm != 4 {
		t.Fatalf("loadu parsed wrong: %+v", b.Instrs[0])
	}
	if b.Instrs[4].SrcA != CR(1) || b.Instrs[4].Target != "CL.1" {
		t.Fatalf("bt parsed wrong: %+v", b.Instrs[4])
	}
}

func TestParseRoundTrip(t *testing.T) {
	lines := []string{
		"nop",
		"li r3, 42",
		"mov r4, r3",
		"add r5, r3, r4",
		"addi r5, r5, -8",
		"mul r0, r6, r0",
		"div r9, r5, r3",
		"load r6, 4(r7)",
		"loadu r6, 4(r7)",
		"store r0, 4(r5)",
		"storeu r0, 4(r5)",
		"cmp cr2, r1, r2",
		"cmp.lt cr2, r1, r2",
		"cmpi.eq cr1, r6, 0",
		"cmpi.ge cr3, r2, -5",
		"cmpi cr1, r6, 0",
		"bt cr1, CL.1",
		"bf cr1, CL.2",
		"b CL.18",
	}
	for _, line := range lines {
		in, err := ParseInstr(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		again, err := ParseInstr(in.Mnemonic())
		if err != nil {
			t.Fatalf("round trip %q -> %q: %v", line, in.Mnemonic(), err)
		}
		if again.Op != in.Op || again.Dst != in.Dst || again.SrcA != in.SrcA ||
			again.SrcB != in.SrcB || again.Imm != in.Imm || again.Base != in.Base ||
			again.Target != in.Target || again.Cond != in.Cond {
			t.Fatalf("round trip mismatch: %q vs %q", in.Mnemonic(), again.Mnemonic())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frobnicate r1",
		"add r1, r2",
		"add r1, r2, r3, r4",
		"li r99, 1",
		"li cr1, 1",
		"cmp r1, r2, r3",
		"bt r1, L",
		"load r1, r2",
		"load r1, 4(cr1)",
		"li r1, xyz",
	}
	for _, line := range bad {
		if _, err := ParseInstr(line); err == nil {
			t.Errorf("%q: parse succeeded, want error", line)
		}
	}
}

func TestParseSplitsBlocksAtBranches(t *testing.T) {
	src := `
	li r1, 1
	b L2
	li r2, 2
L2:
	li r3, 3
`
	blocks, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(blocks))
	}
	if blocks[0].Label != "entry" || len(blocks[0].Instrs) != 2 {
		t.Fatalf("entry block wrong: %+v", blocks[0])
	}
	if blocks[2].Label != "L2" {
		t.Fatalf("third block label = %q", blocks[2].Label)
	}
}

func TestFormatContainsAllInstrs(t *testing.T) {
	ins := []Instr{
		{Op: LI, Dst: GPR(1), Imm: 7},
		{Op: ADD, Dst: GPR(2), SrcA: GPR(1), SrcB: GPR(1)},
	}
	out := Format(ins)
	if !strings.Contains(out, "li r1, 7") || !strings.Contains(out, "add r2, r1, r1") {
		t.Fatalf("Format output:\n%s", out)
	}
}

func TestValidateRejectsWrongRegisterFiles(t *testing.T) {
	bad := []Instr{
		{Op: ADD, Dst: CR(1), SrcA: GPR(1), SrcB: GPR(2)},
		{Op: CMP, Dst: GPR(1), SrcA: GPR(1), SrcB: GPR(2)},
		{Op: BT, SrcA: GPR(1), Target: "L"},
		{Op: BT, SrcA: CR(1)}, // missing target
		{Op: LOAD, Dst: GPR(1), Base: NoReg},
	}
	for _, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("%+v validated, want error", in)
		}
	}
}
