// Package machine describes target machine models for the schedulers and the
// hardware lookahead simulator: functional-unit classes and counts, and the
// lookahead window size W from Sarkar & Simons (SPAA '96, §2.3).
//
// The paper's optimality results hold for the restricted model (a single
// functional unit, unit execution times, 0/1 latencies); the general model
// (§4.2) allows multiple typed units, multi-cycle instructions, and longer
// latencies, for which the same algorithms are used as heuristics.
package machine

import "fmt"

// UnitClass identifies a functional-unit class (e.g. fixed point, floating
// point, branch). Class 0 is the default class used by untyped workloads.
type UnitClass int

// Well-known unit classes used by the RISC-like ISA in internal/isa.
const (
	ClassFixed  UnitClass = 0 // integer ALU, loads/stores, compares
	ClassFloat  UnitClass = 1 // multiply/divide and floating point
	ClassBranch UnitClass = 2 // branch unit
)

// Machine is a target description. The zero value is not useful; use one of
// the presets or NewMachine.
type Machine struct {
	// Name identifies the model in reports.
	Name string
	// Units[c] is the number of functional units of class c. A class with
	// zero entries cannot execute any instruction of that class.
	Units []int
	// Window is the hardware lookahead window size W (≥ 1). W = 1 means no
	// lookahead: strictly in-order issue of the static instruction stream.
	Window int
}

// NewMachine builds a machine with the given per-class unit counts and
// window size. Window values < 1 are clamped to 1.
func NewMachine(name string, units []int, window int) *Machine {
	if window < 1 {
		window = 1
	}
	u := append([]int(nil), units...)
	if len(u) == 0 {
		u = []int{1}
	}
	return &Machine{Name: name, Units: u, Window: window}
}

// SingleUnit returns the restricted model of the paper's optimality results:
// one functional unit that executes every class, window W.
//
// For scheduling purposes a single-unit machine ignores unit classes: every
// instruction competes for the same unit.
func SingleUnit(w int) *Machine {
	m := NewMachine(fmt.Sprintf("single-unit/W=%d", w), []int{1}, w)
	return m
}

// RS6000 returns an RS/6000-flavoured model as used for the paper's Figure 3
// target instructions: one fixed-point unit, one float/multiply unit, one
// branch unit, window W. (The paper notes its latencies "do not correspond
// to any specific implementation"; neither do these unit counts — they are
// the minimal multi-unit machine that exercises the assigned-processor
// heuristics of §4.2.)
func RS6000(w int) *Machine {
	return NewMachine(fmt.Sprintf("rs6000-like/W=%d", w), []int{1, 1, 1}, w)
}

// Superscalar returns a k-wide single-class machine with window W, used in
// the multi-functional-unit experiments.
func Superscalar(k, w int) *Machine {
	if k < 1 {
		k = 1
	}
	return NewMachine(fmt.Sprintf("superscalar-%dw/W=%d", k, w), []int{k}, w)
}

// SingleUnitOnly reports whether the machine has exactly one functional unit
// in total, i.e. whether the paper's restricted model applies (resource-wise).
func (m *Machine) SingleUnitOnly() bool {
	total := 0
	for _, u := range m.Units {
		total += u
	}
	return total == 1
}

// TotalUnits returns the total number of functional units.
func (m *Machine) TotalUnits() int {
	total := 0
	for _, u := range m.Units {
		total += u
	}
	return total
}

// UnitRange returns the global index of the first unit that executes class
// c and how many units do (global indices run across all classes, in class
// order). On a single-unit machine every class maps to the one unit. A
// negative class, or one the machine has no entry for, has no units.
func (m *Machine) UnitRange(c UnitClass) (base, count int) {
	if c < 0 {
		return 0, 0
	}
	if m.SingleUnitOnly() {
		return 0, 1
	}
	for cls := 0; cls < int(c) && cls < len(m.Units); cls++ {
		base += m.Units[cls]
	}
	if int(c) < len(m.Units) {
		return base, m.Units[c]
	}
	return base, 0
}

// UnitsFor returns how many units can execute class c (see UnitRange).
func (m *Machine) UnitsFor(c UnitClass) int {
	_, count := m.UnitRange(c)
	return count
}

// WithWindow returns a copy of m with a different window size.
func (m *Machine) WithWindow(w int) *Machine {
	if w < 1 {
		w = 1
	}
	n := NewMachine(m.Name, m.Units, w)
	return n
}

// Validate checks internal consistency.
func (m *Machine) Validate() error {
	if m.Window < 1 {
		return fmt.Errorf("machine %q: window %d < 1", m.Name, m.Window)
	}
	if len(m.Units) == 0 {
		return fmt.Errorf("machine %q: no unit classes", m.Name)
	}
	total := 0
	for c, u := range m.Units {
		if u < 0 {
			return fmt.Errorf("machine %q: class %d has negative unit count", m.Name, c)
		}
		total += u
	}
	if total == 0 {
		return fmt.Errorf("machine %q: zero functional units", m.Name)
	}
	return nil
}

func (m *Machine) String() string {
	return fmt.Sprintf("%s(units=%v, W=%d)", m.Name, m.Units, m.Window)
}
