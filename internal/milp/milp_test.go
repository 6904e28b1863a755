package milp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLPSimpleMax(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> x=4, y=0, obj=12.
	var m Model
	x := m.AddVar(Continuous, 3, "x")
	y := m.AddVar(Continuous, 2, "y")
	m.AddLE("c1", []int{x, y}, []float64{1, 1}, 4)
	m.AddLE("c2", []int{x, y}, []float64{1, 3}, 6)
	sol := Solve(&m, Options{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Objective, 12, 1e-6) {
		t.Fatalf("objective = %v, want 12", sol.Objective)
	}
	if !almostEq(sol.Value(x), 4, 1e-6) || !almostEq(sol.Value(y), 0, 1e-6) {
		t.Fatalf("x=%v y=%v, want 4,0", sol.Value(x), sol.Value(y))
	}
}

func TestLPDegenerateVertex(t *testing.T) {
	// max x + y s.t. x <= 2, y <= 2, x + y <= 4 (redundant at optimum).
	var m Model
	x := m.AddVar(Continuous, 1, "x")
	y := m.AddVar(Continuous, 1, "y")
	m.AddLE("cx", []int{x}, []float64{1}, 2)
	m.AddLE("cy", []int{y}, []float64{1}, 2)
	m.AddLE("cxy", []int{x, y}, []float64{1, 1}, 4)
	sol := Solve(&m, Options{})
	if sol.Status != Optimal || !almostEq(sol.Objective, 4, 1e-6) {
		t.Fatalf("got %v obj=%v, want optimal obj=4", sol.Status, sol.Objective)
	}
}

func TestLPNegativeRHSFeasible(t *testing.T) {
	// max -x s.t. -x <= -3 (i.e. x >= 3) and x <= 5 -> x=3, obj=-3.
	var m Model
	x := m.AddVar(Continuous, -1, "x")
	m.AddLE("lb", []int{x}, []float64{-1}, -3)
	m.AddLE("ub", []int{x}, []float64{1}, 5)
	sol := Solve(&m, Options{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Value(x), 3, 1e-6) {
		t.Fatalf("x = %v, want 3", sol.Value(x))
	}
}

func TestLPInfeasible(t *testing.T) {
	// x >= 3 and x <= 2 is infeasible.
	var m Model
	x := m.AddVar(Continuous, 1, "x")
	m.AddLE("lb", []int{x}, []float64{-1}, -3)
	m.AddLE("ub", []int{x}, []float64{1}, 2)
	sol := Solve(&m, Options{})
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestMILPKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary.
	// Best: a + c (weight 5, value 17) vs b + c (6, 20) -> b+c wins.
	var m Model
	a := m.AddVar(Binary, 10, "a")
	b := m.AddVar(Binary, 13, "b")
	c := m.AddVar(Binary, 7, "c")
	m.AddLE("w", []int{a, b, c}, []float64{3, 4, 2}, 6)
	// Bound rows so each binary is capped by a constraint.
	for _, v := range []int{a, b, c} {
		m.AddLE("ub", []int{v}, []float64{1}, 1)
	}
	sol := Solve(&m, Options{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Objective, 20, 1e-6) {
		t.Fatalf("objective = %v, want 20", sol.Objective)
	}
	if sol.Value(b) != 1 || sol.Value(c) != 1 || sol.Value(a) != 0 {
		t.Fatalf("solution = %v, want b=c=1,a=0", sol.X)
	}
}

func TestMILPAtMostOneRows(t *testing.T) {
	// Two jobs, two options each (like a tiny scheduling instance); shared
	// capacity 1 in slot 0 forces one job to defer.
	var m Model
	j1now := m.AddVar(Binary, 10, "j1@0")
	j1lat := m.AddVar(Binary, 8, "j1@1")
	j2now := m.AddVar(Binary, 9, "j2@0")
	j2lat := m.AddVar(Binary, 3, "j2@1")
	m.AddLE("d1", []int{j1now, j1lat}, []float64{1, 1}, 1)
	m.AddLE("d2", []int{j2now, j2lat}, []float64{1, 1}, 1)
	m.AddLE("cap0", []int{j1now, j2now}, []float64{1, 1}, 1)
	m.AddLE("cap1", []int{j1lat, j2lat}, []float64{1, 1}, 1)
	sol := Solve(&m, Options{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Objective, 17, 1e-6) { // j2 now (9) + j1 deferred (8)
		t.Fatalf("objective = %v, want 17", sol.Objective)
	}
	if sol.Value(j2now) != 1 || sol.Value(j1lat) != 1 {
		t.Fatalf("solution = %v, want j2@0 and j1@1", sol.X)
	}
}

func TestMILPPreemptionCredit(t *testing.T) {
	// A running job r occupies the single slot; placing p requires paying
	// preemption cost 2 but gains 10: net 8 > 0, so preempt.
	var m Model
	p := m.AddVar(Binary, 10, "place")
	r := m.AddVar(Binary, -2, "preempt")
	m.AddLE("dp", []int{p}, []float64{1}, 1)
	m.AddLE("dr", []int{r}, []float64{1}, 1)
	// Capacity 1, running job consumes 1 unless preempted (credit +1):
	// p - r <= 0.
	m.AddLE("cap", []int{p, r}, []float64{1, -1}, 0)
	sol := Solve(&m, Options{})
	if sol.Status != Optimal || !almostEq(sol.Objective, 8, 1e-6) {
		t.Fatalf("got %v obj=%v, want optimal obj=8", sol.Status, sol.Objective)
	}
	if sol.Value(p) != 1 || sol.Value(r) != 1 {
		t.Fatalf("p=%v r=%v, want both 1", sol.Value(p), sol.Value(r))
	}
}

func TestMILPSeedUsedWhenBudgetExhausted(t *testing.T) {
	var m Model
	a := m.AddVar(Binary, 5, "a")
	b := m.AddVar(Binary, 4, "b")
	m.AddLE("d", []int{a, b}, []float64{1, 1}, 1)
	seed := []float64{0, 1}
	sol := Solve(&m, Options{Seed: seed, MaxNodes: 1})
	// One node: the seed is the first incumbent, and the answer is at least
	// as good as it.
	if !sol.SeedUsed || sol.X == nil {
		t.Fatalf("expected seed incumbent, got %+v", sol)
	}
	if sol.Objective < 4-1e-9 {
		t.Fatalf("objective = %v, worse than the seed's 4", sol.Objective)
	}
}

func TestMILPInfeasibleSeedIgnored(t *testing.T) {
	var m Model
	a := m.AddVar(Binary, 5, "a")
	b := m.AddVar(Binary, 4, "b")
	m.AddLE("d", []int{a, b}, []float64{1, 1}, 1)
	sol := Solve(&m, Options{Seed: []float64{1, 1}})
	if sol.Status != Optimal || !almostEq(sol.Objective, 5, 1e-6) {
		t.Fatalf("got %v obj=%v, want optimal obj=5", sol.Status, sol.Objective)
	}
}

func TestMILPEmptyModel(t *testing.T) {
	var m Model
	m.AddObjConst(7)
	sol := Solve(&m, Options{})
	if sol.Status != Optimal || sol.Objective != 7 {
		t.Fatalf("got %v obj=%v, want optimal obj=7", sol.Status, sol.Objective)
	}
}

func TestMILPZeroCoefficientPruned(t *testing.T) {
	var m Model
	x := m.AddVar(Continuous, 1, "x")
	y := m.AddVar(Continuous, 1, "y")
	m.AddLE("c", []int{x, y}, []float64{1, 0}, 2)
	m.AddLE("cy", []int{y}, []float64{1}, 1)
	if got := m.Stats().Nonzeros; got != 2 {
		t.Fatalf("nonzeros = %d, want 2 (zero coef pruned)", got)
	}
	sol := Solve(&m, Options{})
	if sol.Status != Optimal || !almostEq(sol.Objective, 3, 1e-6) {
		t.Fatalf("got %v obj=%v, want optimal obj=3", sol.Status, sol.Objective)
	}
}

// TestMILPRandomAgainstBruteForce cross-checks the solver on random small
// all-binary packing instances against exhaustive enumeration.
func TestMILPRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		nv := 3 + rng.Intn(8) // up to 10 binaries
		nr := 2 + rng.Intn(5)
		var m Model
		for v := 0; v < nv; v++ {
			m.AddVar(Binary, float64(rng.Intn(20))-2, "v")
		}
		// Upper-bound rows keep every binary constrained.
		for v := 0; v < nv; v++ {
			m.AddLE("ub", []int{v}, []float64{1}, 1)
		}
		for r := 0; r < nr; r++ {
			idx := []int{}
			coef := []float64{}
			for v := 0; v < nv; v++ {
				if rng.Float64() < 0.6 {
					idx = append(idx, v)
					coef = append(coef, float64(1+rng.Intn(5)))
				}
			}
			if len(idx) == 0 {
				continue
			}
			m.AddLE("cap", idx, coef, float64(1+rng.Intn(8)))
		}
		sol := Solve(&m, Options{})
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		// Brute force.
		best := math.Inf(-1)
		x := make([]float64, nv)
		for mask := 0; mask < 1<<nv; mask++ {
			for v := 0; v < nv; v++ {
				x[v] = float64((mask >> v) & 1)
			}
			if m.Feasible(x, 1e-9) {
				if obj := m.Objective(x); obj > best {
					best = obj
				}
			}
		}
		if !almostEq(sol.Objective, best, 1e-6) {
			t.Fatalf("trial %d: solver=%v brute=%v", trial, sol.Objective, best)
		}
		if !m.Feasible(sol.X, 1e-6) {
			t.Fatalf("trial %d: solver returned infeasible point %v", trial, sol.X)
		}
	}
}

func TestSolutionStatusString(t *testing.T) {
	cases := map[Status]string{Optimal: "optimal", Feasible: "feasible", Infeasible: "infeasible", NoSolution: "no-solution"}
	//lint:allow detrange independent per-entry assertions; order immaterial
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

func BenchmarkMILPSchedulingShape(b *testing.B) {
	// A scheduling-shaped instance: 40 jobs × 12 options, 8 partitions × 6
	// slots capacity rows. Representative of one 3σSched cycle.
	rng := rand.New(rand.NewSource(7))
	build := func() *Model {
		var m Model
		const jobs, opts = 40, 12
		const parts, slots = 8, 6
		for j := 0; j < jobs; j++ {
			idx := make([]int, opts)
			coef := make([]float64, opts)
			for o := 0; o < opts; o++ {
				v := m.AddVar(Binary, 1+rng.Float64()*10, "I")
				idx[o] = v
				coef[o] = 1
			}
			m.AddLE("demand", idx, coef, 1)
		}
		for p := 0; p < parts; p++ {
			for s := 0; s < slots; s++ {
				idx := []int{}
				coef := []float64{}
				for v := 0; v < m.NumVars(); v++ {
					if rng.Float64() < 0.25 {
						idx = append(idx, v)
						coef = append(coef, 1+rng.Float64()*4)
					}
				}
				m.AddLE("cap", idx, coef, 24)
			}
		}
		return &m
	}
	mdl := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := Solve(mdl, Options{})
		if sol.X == nil {
			b.Fatal("no solution")
		}
	}
}

// TestResetLeavesNothingStale: a model is reused by Reset from cycle to
// cycle; a shorter model built after a longer one must show no row, variable
// or name of the longer one — to the accessors and to the solver.
func TestResetLeavesNothingStale(t *testing.T) {
	var m Model
	for v := 0; v < 6; v++ {
		m.AddVar(Binary, float64(10+v), "old")
	}
	m.AddLE("old-a", []int{0, 1, 2, 3, 4, 5}, []float64{1, 1, 1, 1, 1, 1}, 1)
	m.AddLE("old-b", []int{4, 5}, []float64{3, 3}, 2)
	m.AddObjConst(7)

	m.Reset()
	if m.NumVars() != 0 || m.NumRows() != 0 || m.Stats() != (Stats{}) || len(m.Rows()) != 0 {
		t.Fatalf("after Reset: %+v, %d rows", m.Stats(), len(m.Rows()))
	}
	x := m.AddVar(Binary, 2, "x")
	y := m.AddVar(Continuous, 1, "") // unnamed, no namer
	m.AddLE("cap", []int{x, y}, []float64{1, 1}, 1.5)

	var fresh Model
	fresh.AddVar(Binary, 2, "x")
	fresh.AddVar(Continuous, 1, "")
	fresh.AddLE("cap", []int{0, 1}, []float64{1, 1}, 1.5)
	if diff := EqualBitwise(&m, &fresh); diff != "" {
		t.Fatalf("reused model differs from a fresh one: %s", diff)
	}
	if m.VarName(y) != "" || m.RowName(0) != "cap" {
		t.Errorf("names after Reset: var %q row %q", m.VarName(y), m.RowName(0))
	}
	if got, want := m.Stats(), (Stats{Vars: 2, Binaries: 1, Rows: 1, Nonzeros: 2}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	if m.Objective([]float64{1, 0.5}) != 2.5 {
		t.Errorf("objective %v: the old constant survived Reset", m.Objective([]float64{1, 0.5}))
	}
	got, want := Solve(&m, Options{}), Solve(&fresh, Options{})
	if got.Status != Optimal || got.Objective != want.Objective || got.X[0] != want.X[0] || got.X[1] != want.X[1] {
		t.Errorf("solve on the reused model: %+v, on a fresh one: %+v", got, want)
	}
	// A row may not reach a variable that only the previous model had.
	defer func() {
		if recover() == nil {
			t.Error("AddLE accepted a variable index left over from before Reset")
		}
	}()
	m.AddLE("stale", []int{5}, []float64{1}, 1)
}

// namerFunc names everything by index, for the on-demand side of names.
type namerFunc struct{}

func (namerFunc) VarName(v int) string { return fmt.Sprintf("v%d", v) }
func (namerFunc) RowName(r int) string { return fmt.Sprintf("r%d", r) }

// TestAddLEPruningFlat: zero coefficients are dropped as rows are appended to
// the flat storage, so row boundaries, Stats and every reader see only the
// nonzeros; literal names win over the namer, which Reset keeps.
func TestAddLEPruningFlat(t *testing.T) {
	var m Model
	m.Namer = namerFunc{}
	for v := 0; v < 4; v++ {
		m.AddVar(Continuous, 1, "")
	}
	m.AddLE("", []int{0, 1, 2, 3}, []float64{1, 0, 2, 0}, 4)
	m.AddLE("lit", []int{0, 1}, []float64{0, 0}, 1) // prunes to an empty row
	m.AddLE("", []int{3}, []float64{5}, 10)
	if got := m.Stats().Nonzeros; got != 3 {
		t.Fatalf("nonzeros = %d, want 3", got)
	}
	wantIdx := [][]int{{0, 2}, {}, {3}}
	wantCoef := [][]float64{{1, 2}, {}, {5}}
	rows := m.Rows()
	for r := range wantIdx {
		idx, coef, _ := m.RowEntries(r)
		if len(idx) != len(wantIdx[r]) || len(rows[r].Idx) != len(wantIdx[r]) {
			t.Fatalf("row %d: %v / %v, want %v", r, idx, rows[r].Idx, wantIdx[r])
		}
		for k := range idx {
			if idx[k] != wantIdx[r][k] || coef[k] != wantCoef[r][k] {
				t.Errorf("row %d entry %d: (%d, %v), want (%d, %v)", r, k, idx[k], coef[k], wantIdx[r][k], wantCoef[r][k])
			}
		}
	}
	if rows[0].Name != "r0" || rows[1].Name != "lit" || m.VarName(2) != "v2" {
		t.Errorf("names: rows %q %q, var %q", rows[0].Name, rows[1].Name, m.VarName(2))
	}
	if !m.Feasible([]float64{2, 100, 1, 2}, 1e-9) || m.Feasible([]float64{2, 0, 1.5, 0}, 1e-9) {
		t.Error("Feasible must ignore the pruned entries and honour the kept ones")
	}
	m.Reset()
	m.AddVar(Binary, 1, "")
	if m.VarName(0) != "v0" {
		t.Errorf("namer lost across Reset: %q", m.VarName(0))
	}
	defer func() {
		if recover() == nil {
			t.Error("AddLE accepted an unknown variable")
		}
	}()
	m.AddLE("bad", []int{1}, []float64{1}, 1)
}
