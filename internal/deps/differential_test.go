package deps

import (
	"fmt"
	"math/rand"
	"testing"

	"aisched/internal/cfg"
	"aisched/internal/graph"
	"aisched/internal/isa"
	"aisched/internal/minic"
	"aisched/internal/workload"
)

// sameGraph reports the first difference between two graphs: node table,
// then every node's Out and In lists element by element, in order.
func sameGraph(got, want *graph.Graph) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d nodes, want %d", got.Len(), want.Len())
	}
	for v := 0; v < want.Len(); v++ {
		id := graph.NodeID(v)
		if g, w := got.Node(id), want.Node(id); g != w {
			return fmt.Errorf("node %d = %+v, want %+v", v, g, w)
		}
		for _, dir := range []struct {
			name      string
			got, want []graph.Edge
		}{{"Out", got.Out(id), want.Out(id)}, {"In", got.In(id), want.In(id)}} {
			if len(dir.got) != len(dir.want) {
				return fmt.Errorf("node %d: %s = %v, want %v", v, dir.name, dir.got, dir.want)
			}
			for k := range dir.want {
				if dir.got[k] != dir.want[k] {
					return fmt.Errorf("node %d: %s[%d] = %+v, want %+v", v, dir.name, k, dir.got[k], dir.want[k])
				}
			}
		}
	}
	return nil
}

// checkAll compares BuildBlock, BuildTrace and BuildLoop with the
// reference on one instruction sequence split into blocks.
func checkAll(t *testing.T, name string, blocks [][]isa.Instr) {
	t.Helper()
	if err := sameGraph(BuildTrace(blocks), referenceBuildTrace(blocks)); err != nil {
		t.Fatalf("%s: BuildTrace: %v\n%s", name, err, listing(blocks))
	}
	var all []isa.Instr
	for _, b := range blocks {
		all = append(all, b...)
	}
	if err := sameGraph(BuildBlock(all, 3), referenceBuildBlock(all, 3)); err != nil {
		t.Fatalf("%s: BuildBlock: %v\n%s", name, err, listing(blocks))
	}
	if err := sameGraph(BuildLoop(all), referenceBuildLoop(all)); err != nil {
		t.Fatalf("%s: BuildLoop: %v\n%s", name, err, listing(blocks))
	}
}

func listing(blocks [][]isa.Instr) string {
	s := ""
	for bi, b := range blocks {
		s += fmt.Sprintf("block %d:\n", bi)
		for _, in := range b {
			s += fmt.Sprintf("\t%v\n", in)
		}
	}
	return s
}

// compiledCorpus compiles random mini-C programs the way the compile-c
// benchmark does and returns their selected traces and single-block loop
// bodies.
func compiledCorpus(t testing.TB, programs int) (traces [][][]isa.Instr, loopBodies [][]isa.Instr) {
	t.Helper()
	r := rand.New(rand.NewSource(1 << 24))
	for p := 0; p < programs; p++ {
		c, err := minic.Compile(workload.RandomProgram(r, 6))
		if err != nil {
			t.Fatal(err)
		}
		cg, err := cfg.FromCompiled(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range cg.SelectTraces() {
			var blocks [][]isa.Instr
			for _, bi := range tr {
				if bs := cg.Blocks[bi].Instrs; len(bs) > 0 {
					blocks = append(blocks, bs)
				}
			}
			traces = append(traces, blocks)
		}
		for _, l := range c.Loops {
			if body := c.Body(l); body != nil {
				loopBodies = append(loopBodies, body)
			}
		}
	}
	return traces, loopBodies
}

// randomReg draws a register operand: mostly a few general registers (so
// instructions collide), sometimes a condition register, NoReg, or an
// out-of-range value an unvalidated instruction may carry.
func randomReg(x byte) isa.Reg {
	switch x % 8 {
	case 0:
		return isa.NoReg
	case 1:
		return isa.CR(int(x/8) % 3)
	case 2:
		return []isa.Reg{-2, isa.NumGPR + isa.NumCR, 99}[int(x/8)%3]
	default:
		return isa.GPR(int(x/8) % 6)
	}
}

// decodeBlocks turns bytes into blocks, six bytes an instruction: opcode,
// Dst, SrcA, SrcB, Base, and a byte for the offset and for whether the
// instruction ends its block. Branches may land mid-block.
func decodeBlocks(data []byte) [][]isa.Instr {
	var blocks [][]isa.Instr
	var cur []isa.Instr
	for len(data) >= 6 {
		x := data[:6]
		data = data[6:]
		cur = append(cur, isa.Instr{
			Op:  isa.Opcode(int(x[0]) % int(isa.B+1)),
			Dst: randomReg(x[1]), SrcA: randomReg(x[2]), SrcB: randomReg(x[3]), Base: randomReg(x[4]),
			Imm: int64(x[5]&3) * 4,
		})
		if x[5]&0x80 != 0 {
			blocks = append(blocks, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		blocks = append(blocks, cur)
	}
	return blocks
}

func randomBlocks(r *rand.Rand) [][]isa.Instr {
	data := make([]byte, 6*(1+r.Intn(24)))
	r.Read(data)
	for k := 5; k < len(data); k += 6 {
		data[k] &^= 0x80
		if r.Intn(5) == 0 {
			data[k] |= 0x80
		}
	}
	return decodeBlocks(data)
}

func TestDifferentialBuildMatchesReference(t *testing.T) {
	programs := 400
	if testing.Short() {
		programs = 60
	}
	traces, loopBodies := compiledCorpus(t, programs)
	for i, blocks := range traces {
		if err := sameGraph(BuildTrace(blocks), referenceBuildTrace(blocks)); err != nil {
			t.Fatalf("trace %d: %v\n%s", i, err, listing(blocks))
		}
	}
	for i, body := range loopBodies {
		if err := sameGraph(BuildLoop(body), referenceBuildLoop(body)); err != nil {
			t.Fatalf("loop %d: %v\n%s", i, err, listing([][]isa.Instr{body}))
		}
	}
	if len(traces) == 0 || len(loopBodies) == 0 {
		t.Fatalf("corpus has %d traces and %d loop bodies", len(traces), len(loopBodies))
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		checkAll(t, fmt.Sprintf("random %d", i), randomBlocks(r))
	}
}

func FuzzBuildGraphs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		byte(isa.LOADU), 8 * 2, 0, 0, 8 * 3, 1,
		byte(isa.STOREU), 0, 8 * 1, 0, 8 * 3, 0x81,
		byte(isa.CMPI), 1, 8 * 2, 0, 0, 0,
		byte(isa.BT), 0, 1, 0, 0, 0,
		byte(isa.MUL), 8 * 1, 8 * 2, 8 * 1, 0, 0,
	})
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		data := make([]byte, 6*(1+r.Intn(16)))
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 6*64 {
			data = data[:6*64]
		}
		checkAll(t, "fuzz", decodeBlocks(data))
	})
}

// A mid-block branch orders the instruction right after it, not the rest
// of its block; the block's instructions before a branch all precede it.
func TestMidBlockBranchOrdersNextInstructionOnly(t *testing.T) {
	ins := []isa.Instr{
		{Op: isa.LI, Dst: isa.GPR(1), Imm: 1},
		{Op: isa.B, SrcA: isa.NoReg, SrcB: isa.NoReg, Base: isa.NoReg},
		{Op: isa.LI, Dst: isa.GPR(2), Imm: 2},
		{Op: isa.LI, Dst: isa.GPR(3), Imm: 3},
	}
	g := BuildBlock(ins, 0)
	if _, ok := edgeLat(g, 0, 1, 0); !ok {
		t.Error("missing control edge 0→1 into the branch")
	}
	if _, ok := edgeLat(g, 1, 2, 0); !ok {
		t.Error("missing edge from the branch to the next instruction")
	}
	if _, ok := edgeLat(g, 1, 3, 0); ok {
		t.Error("edge from the branch to a later instruction beyond the next")
	}
	if err := sameGraph(g, referenceBuildBlock(ins, 0)); err != nil {
		t.Fatal(err)
	}
}

// compiledTrace returns a compiled trace cut to exactly n instructions,
// keeping its block boundaries.
func compiledTrace(t testing.TB, n int) [][]isa.Instr {
	t.Helper()
	src := `
int a; int b; int c; int i;
int u[32]; int v[32];
a = 1; b = 2; c = 3; i = 4;
`
	for k := 0; k < 8; k++ {
		src += `
u[i] = (a + b) * c;
if (a < 5) { b = v[i] - a; } else { c = u[a] + 2; }
v[b] = (c - a) + (b * 3);
a = (a + c) - u[b];
`
	}
	c, err := minic.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]isa.Instr
	for _, b := range c.TraceBlocks() {
		if n == 0 {
			break
		}
		if len(b) > n {
			b = b[:n]
		}
		out = append(out, b)
		n -= len(b)
	}
	if n > 0 {
		t.Fatalf("compiled trace is %d instructions short", n)
	}
	return out
}

func TestBuildTraceAllocsConstant(t *testing.T) {
	small, large := compiledTrace(t, 8), compiledTrace(t, 64)
	as := testing.AllocsPerRun(20, func() { BuildTrace(small) })
	al := testing.AllocsPerRun(20, func() { BuildTrace(large) })
	if as != al {
		t.Fatalf("BuildTrace allocates %v times on 8 nodes and %v on 64; want the same", as, al)
	}
}

func BenchmarkBuildTrace(b *testing.B) {
	blocks := compiledTrace(b, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildTrace(blocks)
	}
}

func BenchmarkBuildLoop(b *testing.B) {
	_, bodies := compiledCorpus(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			BuildLoop(body)
		}
	}
}
