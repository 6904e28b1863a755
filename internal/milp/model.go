// Package milp is a self-contained Mixed Integer Linear Programming solver:
// a two-phase primal simplex over a condensed tableau (the nonbasic columns
// only; a basic column is its row's unit vector and is left implicit) for the
// root relaxation and depth-first branch-and-bound over binary variables
// with dual re-solve of children (each child starts from its parent's
// optimal tableau and runs the dual simplex), a greedy and a fix-and-solve
// rounding heuristic, warm-start incumbent seeding, and a wall-clock budget
// that returns the best incumbent found (the contract 3σSched relies on:
// "query the solver for the best solution found within a configurable
// fraction of its scheduling interval", §4.3.6 of the paper).
//
// The paper's 3Sigma implementation links an external commercial MILP
// solver; this package is the from-scratch substitution (see DESIGN.md §3).
//
// Models are maximization problems over non-negative variables with
// less-or-equal row constraints:
//
//	max  c·x + const
//	s.t. A·x <= b        (each row sparse)
//	     x   >= 0
//	     x_j ∈ {0,1}     for j marked binary
//
// Binary variables must be bounded above by some constraint row (in the
// scheduling encoding every indicator appears in a "at most one option"
// demand row, which provides that bound).
package milp

import (
	"fmt"
	"math"
)

// VarKind distinguishes continuous from binary variables.
type VarKind uint8

const (
	// Continuous variables range over [0, +inf).
	Continuous VarKind = iota
	// Binary variables must take value 0 or 1 in an integral solution.
	Binary
)

// Model is a MILP instance under construction. The zero value is an empty
// model ready for use. Models are not safe for concurrent mutation.
//
// Rows are stored flat, in the layout the solver walks: row r's entries are
// idx[lo:hi] and coef[lo:hi] with hi = rowEnd[r] and lo = rowEnd[r-1] (0 for
// the first row), its right-hand side is rhs[r]. A model that is regenerated
// every scheduling cycle is Reset and refilled in place, so a steady-state
// build allocates nothing.
type Model struct {
	kinds    []VarKind
	obj      []float64
	objConst float64

	rowEnd []int
	idx    []int
	coef   []float64
	rhs    []float64

	// Debug names: the literal passed to AddVar/AddLE when there was one,
	// otherwise whatever Namer makes of the index when somebody asks.
	varNames []string
	rowNames []string
	Namer    Namer // optional; Reset keeps it
}

// Namer produces the debug names of a model built without literal ones. The
// scheduler regenerates its model every cycle and nothing on that path reads
// a name, so it hands over a Namer (its logical key per variable and row)
// instead of formatting a string per AddVar/AddLE.
type Namer interface {
	VarName(v int) string
	RowName(r int) string
}

// Reset empties the model, keeping its storage and its Namer.
func (m *Model) Reset() {
	m.kinds, m.obj, m.objConst = m.kinds[:0], m.obj[:0], 0
	m.rowEnd, m.idx, m.coef, m.rhs = m.rowEnd[:0], m.idx[:0], m.coef[:0], m.rhs[:0]
	m.varNames, m.rowNames = m.varNames[:0], m.rowNames[:0]
}

// Row is one sparse constraint: Sum(Coef[i] * x[Idx[i]]) <= RHS.
type Row struct {
	Name string
	Idx  []int
	Coef []float64
	RHS  float64
}

// AddVar adds a variable with the given kind, objective coefficient and
// debug name ("" leaves the name to the model's Namer), returning its index.
func (m *Model) AddVar(kind VarKind, objCoef float64, name string) int {
	m.varNames = append(m.varNames, name)
	m.kinds = append(m.kinds, kind)
	m.obj = append(m.obj, objCoef)
	return len(m.obj) - 1
}

// ObjCoef returns the objective coefficient of variable v.
func (m *Model) ObjCoef(v int) float64 { return m.obj[v] }

// AddObjConst adds a constant term to the objective (used when fixing
// variables during branch-and-bound substitution).
func (m *Model) AddObjConst(c float64) { m.objConst += c }

// AddLE adds the sparse constraint Sum(coefs·x[idx]) <= rhs and returns the
// row index. idx and coef must have equal length and are copied; entries with
// zero coefficients are dropped (the paper's "internal pruning of generated
// MILP expressions ... eliminating terms with zero constant", §4.3.6). name
// "" leaves the row's name to the model's Namer.
func (m *Model) AddLE(name string, idx []int, coef []float64, rhs float64) int {
	if len(idx) != len(coef) {
		panic(fmt.Sprintf("milp: row %q: len(idx)=%d len(coef)=%d", name, len(idx), len(coef)))
	}
	for i, id := range idx {
		if coef[i] == 0 {
			continue
		}
		if id < 0 || id >= len(m.obj) {
			panic(fmt.Sprintf("milp: row %q references unknown var %d", name, id))
		}
		m.idx = append(m.idx, id)
		m.coef = append(m.coef, coef[i])
	}
	m.rowNames = append(m.rowNames, name)
	m.rowEnd = append(m.rowEnd, len(m.idx))
	m.rhs = append(m.rhs, rhs)
	return len(m.rhs) - 1
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.obj) }

// NumRows returns the number of constraints.
func (m *Model) NumRows() int { return len(m.rhs) }

// NumBinary returns the number of binary variables.
func (m *Model) NumBinary() int {
	n := 0
	for _, k := range m.kinds {
		if k == Binary {
			n++
		}
	}
	return n
}

// VarName returns the debug name of variable v.
func (m *Model) VarName(v int) string {
	if n := m.varNames[v]; n != "" || m.Namer == nil {
		return n
	}
	return m.Namer.VarName(v)
}

// RowName returns the debug name of row r.
func (m *Model) RowName(r int) string {
	if n := m.rowNames[r]; n != "" || m.Namer == nil {
		return n
	}
	return m.Namer.RowName(r)
}

// Kind returns the kind of variable v.
func (m *Model) Kind(v int) VarKind { return m.kinds[v] }

// RowEntries returns row r's column indices, coefficients and right-hand
// side. The slices are the model's own storage: read-only, and valid until
// the model's next Reset.
func (m *Model) RowEntries(r int) (idx []int, coef []float64, rhs float64) {
	lo, hi := 0, m.rowEnd[r]
	if r > 0 {
		lo = m.rowEnd[r-1]
	}
	return m.idx[lo:hi:hi], m.coef[lo:hi:hi], m.rhs[r]
}

// Rows returns the model's constraint rows, names included, as a freshly
// built slice whose Idx/Coef alias the model's storage: read-only (for
// invariant checkers and tests; the solver walks the flat arrays).
func (m *Model) Rows() []Row {
	rows := make([]Row, len(m.rhs))
	for r := range rows {
		rows[r].Name = m.RowName(r)
		rows[r].Idx, rows[r].Coef, rows[r].RHS = m.RowEntries(r)
	}
	return rows
}

// Objective evaluates the objective at x (which must have NumVars entries).
func (m *Model) Objective(x []float64) float64 {
	s := m.objConst
	for i, c := range m.obj {
		if c != 0 {
			s += c * x[i]
		}
	}
	return s
}

// Feasible reports whether x satisfies all constraints within tol and, for
// binary variables, integrality within tol.
func (m *Model) Feasible(x []float64, tol float64) bool {
	if len(x) != len(m.obj) {
		return false
	}
	for i, v := range x {
		if v < -tol {
			return false
		}
		if m.kinds[i] == Binary {
			if math.Abs(v-math.Round(v)) > tol || math.Round(v) > 1 {
				return false
			}
		}
	}
	lo := 0
	for r, hi := range m.rowEnd {
		lhs := 0.0
		for k := lo; k < hi; k++ {
			lhs += m.coef[k] * x[m.idx[k]]
		}
		if lhs > m.rhs[r]+tol {
			return false
		}
		lo = hi
	}
	return true
}

// EqualBitwise compares two models field by field — names (literal or through
// the namer), kinds, objective bits, constants, and every row's name, pattern,
// coefficient bits, and RHS bits — returning "" when identical or a
// description of the first mismatch.
func EqualBitwise(a, b *Model) string {
	if len(a.obj) != len(b.obj) {
		return fmt.Sprintf("var count %d != %d", len(a.obj), len(b.obj))
	}
	if math.Float64bits(a.objConst) != math.Float64bits(b.objConst) {
		return fmt.Sprintf("objConst %v != %v", a.objConst, b.objConst)
	}
	for v := range a.obj {
		name := a.VarName(v)
		if bn := b.VarName(v); name != bn {
			return fmt.Sprintf("var %d name %q != %q", v, name, bn)
		}
		if a.kinds[v] != b.kinds[v] {
			return fmt.Sprintf("var %d (%s) kind mismatch", v, name)
		}
		if math.Float64bits(a.obj[v]) != math.Float64bits(b.obj[v]) {
			return fmt.Sprintf("var %d (%s) obj %v != %v", v, name, a.obj[v], b.obj[v])
		}
	}
	if len(a.rhs) != len(b.rhs) {
		return fmt.Sprintf("row count %d != %d", len(a.rhs), len(b.rhs))
	}
	for r := range a.rhs {
		name := a.RowName(r)
		if bn := b.RowName(r); name != bn {
			return fmt.Sprintf("row %d name %q != %q", r, name, bn)
		}
		aIdx, aCoef, aRHS := a.RowEntries(r)
		bIdx, bCoef, bRHS := b.RowEntries(r)
		if math.Float64bits(aRHS) != math.Float64bits(bRHS) {
			return fmt.Sprintf("row %d (%s) rhs %v != %v", r, name, aRHS, bRHS)
		}
		if len(aIdx) != len(bIdx) {
			return fmt.Sprintf("row %d (%s) nnz %d != %d", r, name, len(aIdx), len(bIdx))
		}
		for k := range aIdx {
			if aIdx[k] != bIdx[k] {
				return fmt.Sprintf("row %d (%s) idx[%d] %d != %d", r, name, k, aIdx[k], bIdx[k])
			}
			if math.Float64bits(aCoef[k]) != math.Float64bits(bCoef[k]) {
				return fmt.Sprintf("row %d (%s) coef[%d] %v != %v", r, name, k, aCoef[k], bCoef[k])
			}
		}
	}
	return ""
}

// Delta is the cycle-over-cycle comparison of the incremental re-solve path
// (DESIGN.md §12). same reports whether cur has prev's structure — variable
// count and kinds, row count, every row's sparsity pattern; when it has,
// cols and rows count the objective coefficients, and the rows (coefficients
// or right-hand side), whose bits differ. Names are not compared.
func Delta(prev, cur *Model) (same bool, rows, cols int) {
	if len(prev.obj) != len(cur.obj) || len(prev.rhs) != len(cur.rhs) || len(prev.idx) != len(cur.idx) {
		return false, 0, 0
	}
	for v, k := range cur.kinds {
		if prev.kinds[v] != k {
			return false, 0, 0
		}
		if math.Float64bits(prev.obj[v]) != math.Float64bits(cur.obj[v]) {
			cols++
		}
	}
	lo := 0
	for r, hi := range cur.rowEnd {
		if prev.rowEnd[r] != hi {
			return false, 0, 0
		}
		changed := math.Float64bits(prev.rhs[r]) != math.Float64bits(cur.rhs[r])
		for k := lo; k < hi; k++ {
			if prev.idx[k] != cur.idx[k] {
				return false, 0, 0
			}
			if math.Float64bits(prev.coef[k]) != math.Float64bits(cur.coef[k]) {
				changed = true
			}
		}
		if changed {
			rows++
		}
		lo = hi
	}
	return true, rows, cols
}

// Stats describes the size of a model (exposed for the Fig. 12 scalability
// analysis of constraint/variable growth).
type Stats struct {
	Vars, Binaries, Rows, Nonzeros int
}

// Stats returns size statistics for the model.
func (m *Model) Stats() Stats {
	return Stats{Vars: m.NumVars(), Binaries: m.NumBinary(), Rows: m.NumRows(), Nonzeros: len(m.idx)}
}
