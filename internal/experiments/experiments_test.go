package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestE1Passes(t *testing.T) {
	r, err := E1()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("E1 failed:\n%s", r)
	}
}

func TestE2Passes(t *testing.T) {
	r, err := E2()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("E2 failed:\n%s", r)
	}
}

func TestE3Passes(t *testing.T) {
	r, err := E3()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("E3 failed:\n%s", r)
	}
}

func TestE4Passes(t *testing.T) {
	r, err := E4()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("E4 failed:\n%s", r)
	}
}

func TestT1ShapeHolds(t *testing.T) {
	r, err := T1(7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("T1 failed:\n%s", r)
	}
	if len(r.Table.Rows) != 6 {
		t.Fatalf("T1 rows = %d, want 6 schedulers", len(r.Table.Rows))
	}
}

func TestT2AblationNeverHelps(t *testing.T) {
	r, err := T2(7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("T2 failed:\n%s", r)
	}
}

func TestT3LoopShape(t *testing.T) {
	r, err := T3(7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("T3 failed:\n%s", r)
	}
}

func TestT4OptimalityRates(t *testing.T) {
	r, err := T4(7, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("T4 failed:\n%s", r)
	}
}

// TestT4OracleTablePinned pins the README's reproduction table: T4 at seed
// 1996 over 100 instances. A PASS alone would let a silent change in an
// oracle's answers through, so every row is compared exactly.
func TestT4OracleTablePinned(t *testing.T) {
	r, err := T4(1996, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"rank = optimal (block)", "100/100", "0"},
		{"lookahead = optimal (trace)", "100/100", "0"},
		{"general case = optimal (loop II)", "99/100", "1"},
	}
	if !r.Passed || !reflect.DeepEqual(r.Table.Rows, want) {
		t.Fatalf("T4 table changed, want rows %q:\n%s", want, r)
	}
}

func TestT5GeneralMachines(t *testing.T) {
	r, err := T5(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("T5 failed:\n%s", r)
	}
}

func TestT7GapRecovery(t *testing.T) {
	r, err := T7(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("T7 failed:\n%s", r)
	}
	if len(r.Table.Rows) != 4 {
		t.Fatalf("T7 rows = %d, want 4 window sizes", len(r.Table.Rows))
	}
}

func TestA1RenamingHelps(t *testing.T) {
	r, err := A1(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("A1 failed:\n%s", r)
	}
}

func TestResultStringRendersStatus(t *testing.T) {
	r, err := E1()
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	if !strings.Contains(s, "E1") || !strings.Contains(s, "PASS") {
		t.Fatalf("Result string:\n%s", s)
	}
}

func TestT3bMultiBlockLoops(t *testing.T) {
	r, err := T3b(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("T3b failed:\n%s", r)
	}
}

func TestA2UnrollSweep(t *testing.T) {
	r, err := A2(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("A2 failed:\n%s", r)
	}
}

func TestO1Passes(t *testing.T) {
	r, err := O1()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("O1 failed:\n%s", r)
	}
	if !strings.Contains(r.Table.String(), "cross-blk fills") {
		t.Fatalf("O1 table lacks the fill columns:\n%s", r)
	}
}

func TestP3SpeculativeParallel(t *testing.T) {
	r, err := P3(1996, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed {
		t.Fatalf("P3 failed:\n%s", r)
	}
	if !strings.Contains(r.Table.String(), "verified") {
		t.Fatalf("P3 table lacks the verification column:\n%s", r)
	}
}
