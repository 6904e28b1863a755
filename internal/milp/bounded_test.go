package milp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file holds the bounded-variable simplex to two things it can be
// checked against on small models: exhaustive enumeration of the binaries,
// and the same LP with every bound kept as a tableau row.

// decodeBounded turns fuzz bytes into a small model and a fixing vector:
//
//	data[0]  1 + data[0]%10 binaries, then data[1]%4 continuous variables
//	per variable  an objective byte, int8/8
//	per binary    a bound byte — a one-entry row c·x ≤ c·u, c = 1 + b%8/8,
//	              u ∈ {1, 0.5, 1.5, 1.75, 2, 2.5, 3, 3.5} by b/8%8 — and a
//	              fixing byte
//	              (%4: 0 or 1 fixes it there, else it is free)
//	per continuous  a cap byte: x ≤ (1 + b%8)/2
//	then rows while bytes last (at most 32): a header byte (1 + h%8
//	entries), per entry a variable byte (mod the variable count) and a
//	coefficient byte (int8/8), and a rhs byte (int8/4), of either sign.
//
// Every value is a multiple of 1/32, so a 0/1 assignment's row activities
// are exact and every row either holds or fails by at least 1/32, and a
// coefficient halves exactly (rowFormTwin). Every variable is bounded, so
// every LP is; a binary's may reach 2 and beyond, where the search must
// still branch (TestBinaryAtTwoIsBranchedOn).
func decodeBounded(data []byte) (*Model, []int8, bool) {
	if len(data) < 2 {
		return nil, nil, false
	}
	nb, nc := 1+int(data[0])%10, int(data[1])%4
	n := nb + nc
	data = data[2:]
	if len(data) < n+2*nb+nc {
		return nil, nil, false
	}
	var m Model
	for v := 0; v < n; v++ {
		kind := Binary
		if v >= nb {
			kind = Continuous
		}
		m.AddVar(kind, float64(int8(data[v]))/8, "")
	}
	data = data[n:]
	fixed := freeFixing(n)
	for v := 0; v < nb; v++ {
		b := data[2*v]
		c, u := 1+float64(b%8)/8, []float64{1, 0.5, 1.5, 1.75, 2, 2.5, 3, 3.5}[b/8%8]
		m.AddLE("bound", []int{v}, []float64{c}, c*u)
		if f := data[2*v+1] % 4; f < 2 {
			fixed[v] = int8(f)
		}
	}
	data = data[2*nb:]
	for v := nb; v < n; v++ {
		m.AddLE("cap", []int{v}, []float64{1}, float64(1+data[0]%8)/2)
		data = data[1:]
	}
	for rows := 0; rows < 32 && len(data) > 0; rows++ {
		k := 1 + int(data[0]%8)
		if len(data) < 2+2*k {
			break
		}
		idx, coef := make([]int, k), make([]float64, k)
		for e := range idx {
			idx[e], coef[e] = int(data[1+2*e])%n, float64(int8(data[2+2*e]))/8
		}
		m.AddLE("r", idx, coef, float64(int8(data[1+2*k]))/4)
		data = data[2+2*k:]
	}
	return &m, fixed, true
}

// encodeBounded is decodeBounded's inverse on the models the trace tests
// draw, rounded onto its grid: binaries first, each with the bound byte of
// c = 1, u = 1 and the given fixing. It panics on a model that does not
// fit (more than 10 binaries, 3 continuous variables or 8 entries a row).
func encodeBounded(m *Model, fixed []int8) []byte {
	q := func(x, scale float64) byte {
		return byte(int8(max(-128, min(127, math.Round(x*scale)))))
	}
	var bins, conts []int
	for v, k := range m.kinds {
		if k == Binary {
			bins = append(bins, v)
		} else {
			conts = append(conts, v)
		}
	}
	if len(bins) < 1 || len(bins) > 10 || len(conts) > 3 {
		panic(fmt.Sprintf("encodeBounded: %d binaries, %d continuous", len(bins), len(conts)))
	}
	order := append(bins, conts...)
	pos := make([]int, len(order))
	for p, v := range order {
		pos[v] = p
	}
	data := []byte{byte(len(bins) - 1), byte(len(conts))}
	for _, v := range order {
		data = append(data, q(m.obj[v], 8))
	}
	for _, v := range bins {
		f := byte(2)
		if fixed != nil && fixed[v] >= 0 {
			f = byte(fixed[v])
		}
		data = append(data, 0, f)
	}
	for range conts {
		data = append(data, 7) // x ≤ 4
	}
	for r := 0; r < m.NumRows() && r < 32; r++ {
		idx, coef, rhs := m.RowEntries(r)
		if len(idx) > 8 {
			panic(fmt.Sprintf("encodeBounded: row %d has %d entries", r, len(idx)))
		}
		data = append(data, byte(len(idx)-1))
		for e, v := range idx {
			data = append(data, byte(pos[v]), q(coef[e], 8))
		}
		data = append(data, q(rhs, 4))
	}
	return data
}

// rowFormTwin returns m with every entry written as two halves on the same
// variable: the same rows, but none is ever left with one free entry, so
// newNodeLP turns none into a bound and the twin's LP is m's with every
// bound kept as a tableau row.
func rowFormTwin(m *Model) *Model {
	var tw Model
	for v := range m.obj {
		tw.AddVar(m.kinds[v], m.obj[v], "")
	}
	for r := 0; r < m.NumRows(); r++ {
		idx, coef, rhs := m.RowEntries(r)
		var i2 []int
		var c2 []float64
		for e, v := range idx {
			i2, c2 = append(i2, v, v), append(c2, coef[e]/2, coef[e]/2)
		}
		tw.AddLE("", i2, c2, rhs)
	}
	return &tw
}

// enumerate returns the best objective over every 0/1 assignment of m's
// binaries — the continuous variables, if any, set by the LP with every
// binary fixed — and whether any assignment is feasible.
func enumerate(m *Model) (float64, bool) {
	var bins []int
	for v, k := range m.kinds {
		if k == Binary {
			bins = append(bins, v)
		}
	}
	best, found := math.Inf(-1), false
	ar := &lpArena{}
	for mask := 0; mask < 1<<len(bins); mask++ {
		fixed := freeFixing(m.NumVars())
		for i, v := range bins {
			fixed[v] = int8(mask >> i & 1)
		}
		x := make([]float64, m.NumVars())
		if len(bins) < m.NumVars() {
			res, _, err := solveRelaxationOpt(ar, m, fixed, nil, false)
			if err != nil {
				continue
			}
			copy(x, res.x)
		}
		for _, v := range bins {
			x[v] = float64(fixed[v])
		}
		if m.Feasible(x, feasTol) {
			best, found = math.Max(best, m.Objective(x)), true
		}
	}
	return best, found
}

// checkBounded runs FuzzBoundedLP's checks on one model and fixing: the
// node relaxation under the fixing and the root relaxation both match the
// row-form twin's (the same verdict, optima within 1e-7), the root re-solved
// from its own basis lands on its optimum again, and Solve's status and
// objective are enumeration's. "" when every check holds.
func checkBounded(m *Model, fixed []int8) string {
	tw := rowFormTwin(m)
	for _, fx := range [][]int8{freeFixing(m.NumVars()), fixed} {
		res, c, err := solveRelaxation(m, fx)
		tres, tc, terr := solveRelaxation(tw, fx)
		if err != terr {
			return fmt.Sprintf("fixing %v: bounded LP %v, row form %v", fx, err, terr)
		}
		if err != nil {
			continue
		}
		if got, want := res.obj+c, tres.obj+tc; math.Abs(got-want) > 1e-7*math.Max(1, math.Abs(want)) {
			return fmt.Sprintf("fixing %v: bounded LP optimum %v, row form %v", fx, got, want)
		}
	}
	ar := &lpArena{}
	free := freeFixing(m.NumVars())
	if root, c, err := solveRelaxationOpt(ar, m, free, nil, true); err == nil {
		basis := append([]int(nil), root.basis...)
		warm, wc, werr := solveRelaxationOpt(ar, m, free, basis, false)
		if werr != nil || math.Abs(warm.obj+wc-(root.obj+c)) > 1e-7*math.Max(1, math.Abs(root.obj+c)) {
			return fmt.Sprintf("root %v, re-solved from its basis %v: %v", root.obj+c, warm.obj+wc, werr)
		}
	}
	best, found := enumerate(m)
	sol := Solve(m, Options{})
	switch {
	case !found && sol.Status != Infeasible:
		return fmt.Sprintf("no assignment is feasible, Solve says %v (%v)", sol.Status, sol.Objective)
	case found && sol.Status != Optimal:
		return fmt.Sprintf("enumeration finds %v, Solve says %v", best, sol.Status)
	case found && math.Abs(sol.Objective-best) > 1e-6*math.Max(1, math.Abs(best)):
		return fmt.Sprintf("enumeration finds %v, Solve %v", best, sol.Objective)
	}
	return ""
}

// TestBinaryAtTwoIsBranchedOn: rows that let a binary reach 2 (x ≤ 2.5 and
// x ≤ 2, so neither becomes its bound) put the LP optimum at x = 2, which
// is no binary value. The search must branch on it, not take it for an
// integral point that then fails Feasible and leaves Solve without an
// incumbent: Infeasible, where x = y = 1 is worth 30.
func TestBinaryAtTwoIsBranchedOn(t *testing.T) {
	var m Model
	x := m.AddVar(Binary, 6, "x")
	y := m.AddVar(Binary, 24, "y")
	m.AddLE("r", []int{x}, []float64{1}, 2.5)
	m.AddLE("r", []int{x}, []float64{1}, 2)
	m.AddLE("r", []int{y}, []float64{1}, 1)
	if best, ok := enumerate(&m); !ok || best != 30 {
		t.Fatalf("enumeration finds %v (feasible %v), want 30", best, ok)
	}
	if d := checkBounded(&m, freeFixing(m.NumVars())); d != "" {
		t.Fatal(d)
	}
}

// boundedSeeds are the fuzz corpus: small draws of the six trace tests'
// generators, each under its test's seed, on decodeBounded's grid.
func boundedSeeds() [][]byte {
	dive := preemptShaped(rand.New(rand.NewSource(7103)), 3, 2, 1, 2, true)
	diveFix := freeFixing(dive.NumVars())
	diveFix[0], diveFix[3] = 1, 0
	sched := &Model{}
	for _, u := range []float64{6, 4, 3, 5} {
		sched.AddVar(Binary, u, "I") // two one-option jobs, one with two
	}
	p := sched.AddVar(Binary, -2, "P") // a running preemptible job
	sched.AddLE("demand", []int{0}, []float64{1}, 1)
	sched.AddLE("demand", []int{1}, []float64{1}, 1)
	sched.AddLE("demand", []int{2, 3}, []float64{1, 1}, 1)
	sched.AddLE("cap", []int{0, 1, 2, p}, []float64{2, 3, 2, -3}, 2)
	sched.AddLE("cap", []int{3, p}, []float64{4, -3}, 1)
	sched.AddLE("ub_P", []int{p}, []float64{1}, 1)
	bounded := rand.New(rand.NewSource(7112))
	return [][]byte{
		encodeBounded(preemptShaped(rand.New(rand.NewSource(7101)), 2, 2, 1, 2, false), nil),
		encodeBounded(preemptShaped(rand.New(rand.NewSource(7102)), 2, 2, 1, 2, true), nil),
		encodeBounded(dive, diveFix),
		encodeBounded(withBoundedBinaries(bounded, preemptShaped(bounded, 2, 2, 1, 2, false)), nil),
		encodeBounded(mixedModel(rand.New(rand.NewSource(7105)), 1, 3), nil),
		encodeBounded(sched, nil),
	}
}

// FuzzBoundedLP: on small models with ≤ 10 binaries and up to 3 continuous
// variables — one-entry rows bounding binaries above and below 1, rows of
// either sign, fixings — the bounded-variable simplex's relaxations equal
// the row form's, and Solve equals exhaustive enumeration (checkBounded).
func FuzzBoundedLP(f *testing.F) {
	for _, s := range boundedSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, fixed, ok := decodeBounded(data)
		if !ok {
			return
		}
		if d := checkBounded(m, fixed); d != "" {
			t.Fatal(d)
		}
	})
}
