package milp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// This file is the kernel-vs-reference differential: the production simplex
// (a condensed tableau of nonbasic columns, indexed pivot rows, fixings
// scattered straight into the tableau) against refLP (the full tableau,
// full-row pivots, packed substituted rows) on scheduling-shaped LPs — node
// relaxations solved cold, and branch-and-bound children re-solved from
// their parent's tableau. The two must agree decision for decision — pivot
// trace, basis, iteration and crash-pivot counts — and value for value (==
// on x and the objective), which is what lets every schedule digest and
// solver counter survive a kernel change unmoved.

// diffCoverage counts the solver paths a differential run went through, so
// each test can assert it exercised what it claims to.
type diffCoverage struct {
	lps, phase1, infeasible, warmTaken, warmReverted, fixedOut int
}

// diffRelax solves one node relaxation with both implementations and fails
// the test on any difference. It returns the production result.
func diffRelax(t *testing.T, tag string, m *Model, fixed []int8, warm []int, cov *diffCoverage) (lpResult, error) {
	t.Helper()
	want, wantConst, wantTrace, wantErr := refRelaxation(m, fixed, warm)

	var got lpResult
	var gotTrace []pivotRec
	ar := &lpArena{}
	lp, gotConst, gotErr := newNodeLP(ar, m, fixed)
	if gotErr == nil {
		lp.trace, lp.warm, lp.wantBasis = &gotTrace, warm, true
		got, gotErr = lp.solve(0)
	}

	cov.lps++
	if d := diffRuns(lpRun{got, gotErr, gotTrace, got.basis, gotConst},
		lpRun{want, wantErr, wantTrace, want.basis, wantConst}); d != "" {
		t.Fatalf("%s: %s", tag, d)
	}
	if gotErr != nil {
		if gotErr == ErrInfeasible {
			cov.infeasible++
		}
		return got, gotErr
	}
	if lp.nArt > 0 {
		cov.phase1++
	}
	for _, f := range fixed {
		if f >= 0 {
			cov.fixedOut++
			break
		}
	}
	if lp.nArt == 0 && hasStructural(warm, lp.n) {
		// A structural column is never in the slack basis the LP starts
		// from, so the restore had a pivot to force: zero crash pivots
		// means it forced them, found a negative rhs and reverted.
		if got.warmed > 0 {
			cov.warmTaken++
		} else {
			cov.warmReverted++
		}
	}
	return got, nil
}

// lpRun is one LP solve as the differentials compare it: the result, the
// error, the pivots, the final basis and the objective constant.
type lpRun struct {
	res      lpResult
	err      error
	trace    []pivotRec
	basis    []int
	objConst float64
}

// diffRuns names the first difference between a production run and the
// reference's ("" when there is none): the verdict, every pivot, the
// iteration and crash-pivot counts, the basis, and — for a solved LP — the
// objective constant, the objective and x, all compared with ==.
func diffRuns(got, want lpRun) string {
	if got.err != want.err {
		return fmt.Sprintf("error %v, reference %v", got.err, want.err)
	}
	if len(got.trace) != len(want.trace) {
		return fmt.Sprintf("%d pivots, reference %d", len(got.trace), len(want.trace))
	}
	for i := range got.trace {
		if got.trace[i] != want.trace[i] {
			return fmt.Sprintf("pivot %d is (enter %d, leave %d), reference (enter %d, leave %d)", i,
				got.trace[i].enter, got.trace[i].leave, want.trace[i].enter, want.trace[i].leave)
		}
	}
	if got.res.iters != want.res.iters || got.res.warmed != want.res.warmed {
		return fmt.Sprintf("iters/warmed %d/%d, reference %d/%d", got.res.iters, got.res.warmed, want.res.iters, want.res.warmed)
	}
	if !slices.Equal(got.basis, want.basis) {
		return fmt.Sprintf("basis %v, reference %v", got.basis, want.basis)
	}
	if got.err != nil {
		return ""
	}
	if got.objConst != want.objConst {
		return fmt.Sprintf("objective constant %v, reference %v", got.objConst, want.objConst)
	}
	if got.res.obj != want.res.obj {
		return fmt.Sprintf("objective %v, reference %v", got.res.obj, want.res.obj)
	}
	if len(got.res.x) != len(want.res.x) {
		return fmt.Sprintf("|x| %d, reference %d", len(got.res.x), len(want.res.x))
	}
	for v := range got.res.x {
		if got.res.x[v] != want.res.x[v] {
			return fmt.Sprintf("x[%d] = %v, reference %v", v, got.res.x[v], want.res.x[v])
		}
	}
	return ""
}

func hasStructural(basis []int, n int) bool {
	for _, b := range basis {
		if b >= 0 && b < n {
			return true
		}
	}
	return false
}

// preemptShaped is schedShapedModel plus what makes the scheduler's LPs hard
// for a simplex: preemption credits (negative objective, negative capacity
// coefficients, so fixing placements can push a row's rhs below zero) and,
// when mustRun is set, "this job runs somewhere" rows −Σx ≤ −1, each added
// twice so phase 1 meets redundant rows — the first pair 17 rows apart, where
// the rhs perturbation repeats and the two tie exactly.
func preemptShaped(rng *rand.Rand, jobs, opts, parts, slots int, mustRun bool) *Model {
	base := schedShapedModel(rng, jobs, opts, parts, slots)
	// The credits are appended to rows that already exist, which the flat
	// row storage cannot do in place: edit a copy of the rows (Rows() caps
	// each slice, so append reallocates) and assemble the model at the end.
	rows := base.Rows()
	nRows := len(rows)
	var credits []float64 // objective coefficient per preemption variable
	nVars := base.NumVars()
	for p := 0; p < 1+rng.Intn(3); p++ {
		pv := nVars
		nVars++
		credits = append(credits, -(0.5 + 4*rng.Float64()))
		credit := 1 + 4*rng.Float64()
		for ri := jobs; ri < nRows; ri++ {
			if rng.Float64() < 0.3 {
				r := &rows[ri]
				r.Idx, r.Coef = append(r.Idx, pv), append(r.Coef, -credit)
			}
		}
		rows = append(rows, Row{Name: "ub", Idx: []int{pv}, Coef: []float64{1}, RHS: 1})
	}
	if mustRun {
		neg := make([]float64, opts)
		for o := range neg {
			neg[o] = -1
		}
		must := func(j int) { rows = append(rows, Row{Name: "must", Idx: rows[j].Idx, Coef: neg, RHS: -1}) }
		must(0)
		for k := 0; k < 16; k++ {
			rows = append(rows, Row{Name: "ub", Idx: []int{k % nVars}, Coef: []float64{1}, RHS: 1})
		}
		must(0)
		for j := 2; j < jobs; j += 2 {
			must(j)
			must(j)
		}
	}
	m := &Model{}
	for v := 0; v < base.NumVars(); v++ {
		m.AddVar(base.kinds[v], base.obj[v], base.VarName(v))
	}
	for _, c := range credits {
		m.AddVar(Binary, c, "P")
	}
	for _, r := range rows {
		m.AddLE(r.Name, r.Idx, r.Coef, r.RHS)
	}
	return m
}

// withRHS returns a copy of m whose capacity rows' right-hand sides are
// scaled by f (the at-most-one and bound rows keep theirs).
func withRHS(m *Model, f float64) *Model {
	cp := *m
	cp.rhs = append([]float64(nil), m.rhs...)
	for r := range cp.rhs {
		if m.RowName(r) == "cap" {
			cp.rhs[r] *= f
		}
	}
	return &cp
}

// TestSparseDensePivotsIdentical is the root-LP arm: the kernel that walks
// the pivot row's sparse index against the dense full-row reference on 220
// seeded scheduling-shaped models, each solved cold, then warm from its own
// optimal basis after the capacities moved a little (the restore holds) and
// a lot (the restored basis is infeasible and the restore reverts).
func TestSparseDensePivotsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7101))
	var cov diffCoverage
	for trial := 0; trial < 220; trial++ {
		m := preemptShaped(rng, 2+rng.Intn(12), 1+rng.Intn(5), 1+rng.Intn(6), 1+rng.Intn(5), false)
		free := freeFixing(m.NumVars())
		cold, err := diffRelax(t, "cold", m, free, nil, &cov)
		if err != nil {
			t.Fatalf("trial %d: bounded feasible model failed: %v", trial, err)
		}
		diffRelax(t, "warm, same model", m, free, cold.basis, &cov)
		diffRelax(t, "warm, capacities nudged", withRHS(m, 0.9+0.2*rng.Float64()), free, cold.basis, &cov)
		diffRelax(t, "warm, capacities cut", withRHS(m, 0.2), free, cold.basis, &cov)
	}
	if cov.warmTaken == 0 || cov.warmReverted == 0 {
		t.Fatalf("coverage: %+v — want restores both taken and reverted", cov)
	}
}

// TestSparseDensePivotsIdenticalNegativeRHS is the phase-1 arm: >= rows from
// negative right-hand sides, duplicated so that every model carries
// redundant ones, on scheduling-shaped models and on unstructured continuous
// LPs (where infeasible draws are common).
func TestSparseDensePivotsIdenticalNegativeRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(7102))
	var cov diffCoverage
	for trial := 0; trial < 60; trial++ {
		m := preemptShaped(rng, 2+rng.Intn(10), 1+rng.Intn(4), 1+rng.Intn(5), 1+rng.Intn(4), true)
		diffRelax(t, "must-run", m, freeFixing(m.NumVars()), nil, &cov)
	}
	for trial := 0; trial < 60; trial++ {
		var m Model
		n := 3 + rng.Intn(6)
		for v := 0; v < n; v++ {
			m.AddVar(Continuous, rng.Float64()*5-1, "x")
		}
		for r := 0; r < 2+rng.Intn(5); r++ {
			var idx []int
			var coef []float64
			for v := 0; v < n; v++ {
				if rng.Float64() < 0.6 {
					idx = append(idx, v)
					coef = append(coef, rng.Float64()*4-1)
				}
			}
			if len(idx) == 0 {
				continue
			}
			rhs := rng.Float64()*10 - 3 // some negative
			m.AddLE("r", idx, coef, rhs)
			if rng.Float64() < 0.3 {
				m.AddLE("r", idx, coef, rhs)
			}
		}
		diffRelax(t, "continuous", &m, freeFixing(n), nil, &cov)
	}
	if cov.phase1 == 0 || cov.infeasible == 0 {
		t.Fatalf("coverage: %+v — want phase 1 and infeasible LPs", cov)
	}
}

// TestSparseSolveMatchesDenseSolve is the branch-and-bound arm: it walks the
// node sequence of a dive — solve, fix the most fractional binary, solve
// again — so the two implementations meet what Solve feeds them below the
// root: columns fixed out, rows folded into their rhs or dropped, and
// placements fixed to 1 past a capacity that only a preemption credit can
// pay for (negative rhs, phase 1).
func TestSparseSolveMatchesDenseSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7103))
	var cov diffCoverage
	for trial := 0; trial < 40; trial++ {
		m := preemptShaped(rng, 3+rng.Intn(10), 2+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4), trial%4 == 0)
		fixed := freeFixing(m.NumVars())
		for depth := 0; depth < 40; depth++ {
			res, err := diffRelax(t, "dive", m, fixed, nil, &cov)
			if err != nil {
				break
			}
			for v, val := range fixed {
				if val >= 0 {
					res.x[v] = float64(val)
				}
			}
			v := mostFractionalBinary(m, res.x, 1e-6)
			if v < 0 {
				// Integral: keep diving by forcing a placement the LP left out.
				for v = 0; v < m.NumVars() && fixed[v] >= 0; v++ {
				}
				if v == m.NumVars() {
					break
				}
			}
			fixed[v] = int8(1 - depth%3/2) // mostly up, as the solver dives
		}
	}
	if cov.fixedOut == 0 || cov.phase1 == 0 || cov.infeasible == 0 {
		t.Fatalf("coverage: %+v — want fixed-out columns, phase 1 and infeasible nodes", cov)
	}
}

// childCoverage counts what a child-path differential went through.
type childCoverage struct {
	children, infeasible int
	branch               [2]int // children per branch value
	pivotedOut           int    // children whose fixed variable left the basis
}

func (c *childCoverage) add(o childCoverage) {
	c.children += o.children
	c.infeasible += o.infeasible
	c.branch[0] += o.branch[0]
	c.branch[1] += o.branch[1]
	c.pivotedOut += o.pivotedOut
}

// checkChildTraces solves m under opts and replays every child the search
// re-solves from its parent's tableau through the reference: a copy of the
// parent's full tableau runs refLP.solveChild. A parent solved cold — the
// root, or a cold fallback — gets a reference solved cold from its fixings.
// The two must agree per diffRuns, and a fixed variable that left the basis
// must leave its slot all zero. It returns the solve, the coverage and the
// first disagreement.
func checkChildTraces(m *Model, opts Options) (Solution, childCoverage, error) {
	var cov childCoverage
	var first error
	type refNode struct {
		lp       *refLP
		objConst float64
	}
	refs := map[int]refNode{} // by expansion number
	var trace []pivotRec
	ar := &lpArena{trace: &trace}
	ar.onChild = func(nd *bbNode, seq int, res lpResult, objC float64, err error) {
		defer func() { trace = trace[:0] }()
		fail := func(format string, args ...any) {
			if first == nil {
				first = fmt.Errorf("child %d at depth %d fixing x%d=%d: %s", seq, nd.depth, nd.v, nd.branch, fmt.Sprintf(format, args...))
			}
		}
		cov.children++
		cov.branch[nd.branch]++
		parent, ok := refs[nd.parent]
		if !ok {
			fixed := append([]int8(nil), nd.fixed...)
			fixed[nd.v] = -1
			var warm []int
			if nd.parent == 1 {
				warm = opts.WarmBasis
			}
			lp, c, err := refNodeLP(m, fixed)
			if err == nil {
				_, err = lp.solve(warm)
			}
			if err != nil {
				fail("reference parent: %v", err)
				return
			}
			parent = refNode{lp, c}
			refs[nd.parent] = parent
		}
		ref := parent.lp.clone()
		want, wantErr := ref.solveChild(nd.v, float64(nd.branch))
		wantC := parent.objConst
		if nd.branch == 1 {
			wantC += m.obj[nd.v]
		}
		refs[seq] = refNode{ref, wantC}
		lp := &ar.child
		if d := diffRuns(lpRun{res, err, trace, lp.basis, objC}, lpRun{want, wantErr, ref.trace, ref.basis, wantC}); d != "" {
			fail("%s", d)
		}
		if err == ErrInfeasible {
			cov.infeasible++
		}
		if q := lp.posOf[nd.v]; q >= 0 {
			cov.pivotedOut++
			for i := 0; i < lp.m; i++ {
				if a := lp.row(i)[q]; a != 0 {
					fail("the fixed variable's slot holds %v in row %d", a, i)
				}
			}
		}
	}
	sol := solveIn(ar, m, opts)
	return sol, cov, first
}

// TestWarmChildPivotsIdentical is the children's arm: every child Solve
// re-solves from its parent's tableau — by the fixed variable's pivot-out,
// the dual simplex and the primal clean-up — replayed on the full tableau, on
// scheduling-shaped models with preemption credits and must-run rows, at the
// default IntTol and at 1e-9.
func TestWarmChildPivotsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7110))
	var total childCoverage
	for trial := 0; trial < 80; trial++ {
		m := preemptShaped(rng, 3+rng.Intn(12), 2+rng.Intn(4), 1+rng.Intn(5), 1+rng.Intn(5), trial%4 == 0)
		for _, opts := range []Options{{MaxNodes: 64}, {MaxNodes: 64, IntTol: 1e-9}} {
			_, cov, err := checkChildTraces(m, opts)
			if err != nil {
				t.Fatalf("trial %d, IntTol %g: %v", trial, opts.IntTol, err)
			}
			total.add(cov)
		}
	}
	t.Logf("%+v", total)
	if total.children < 1000 || total.infeasible == 0 || total.branch[0] == 0 || total.branch[1] == 0 || total.pivotedOut == 0 {
		t.Fatalf("coverage: %+v — want many children of both branches, infeasible ones, fixed variables pivoted out", total)
	}
}

// TestSparseMixedModelWithContinuous covers the exact-shares shape —
// binaries linked to continuous allocation variables, the models
// roundFixAndSolve re-solves with every binary fixed — under every fixing of
// the binaries.
func TestSparseMixedModelWithContinuous(t *testing.T) {
	rng := rand.New(rand.NewSource(7105))
	var cov diffCoverage
	for trial := 0; trial < 12; trial++ {
		m := mixedModel(rng, 2+rng.Intn(3), 2+rng.Intn(3))
		var bins []int
		for v, k := range m.kinds {
			if k == Binary {
				bins = append(bins, v)
			}
		}
		combos := 1
		for range bins {
			combos *= 3
		}
		for c := 0; c < combos; c++ {
			fixed := freeFixing(m.NumVars())
			for i, k := 0, c; i < len(bins); i, k = i+1, k/3 {
				fixed[bins[i]] = int8(k%3) - 1
			}
			diffRelax(t, "mixed", m, fixed, nil, &cov)
		}
	}
	if cov.fixedOut == 0 {
		t.Fatalf("coverage: %+v", cov)
	}
}

// mixedModel builds an exact-shares-shaped instance: per group one binary
// gang indicator linked to per-partition continuous allocations.
func mixedModel(rng *rand.Rand, groups, parts int) *Model {
	var m Model
	for g := 0; g < groups; g++ {
		I := m.AddVar(Binary, 1+rng.Float64()*9, "I")
		m.AddLE("demand", []int{I}, []float64{1}, 1)
		idx := []int{I}
		coef := []float64{1 + rng.Float64()*3}
		for p := 0; p < parts; p++ {
			a := m.AddVar(Continuous, 0, "a")
			idx = append(idx, a)
			coef = append(coef, -1)
			m.AddLE("cap", []int{a}, []float64{1}, 0.5+rng.Float64()*2)
		}
		m.AddLE("link", idx, coef, 0)
	}
	return &m
}

// A node relaxation allocates what it returns and nothing else: x, plus the
// captured basis at the root. A 48-node Solve adds its incumbent.
func TestNodeRelaxationAllocs(t *testing.T) {
	m := schedShapedModel(rand.New(rand.NewSource(12)), 17, 5, 21, 5)
	fixed := freeFixing(m.NumVars())
	ar := &lpArena{}
	for _, c := range []struct {
		name      string
		wantBasis bool
		max       float64
	}{{"node", false, 1}, {"root", true, 2}} {
		got := testing.AllocsPerRun(50, func() {
			if _, _, err := solveRelaxationOpt(ar, m, fixed, nil, c.wantBasis); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s relaxation: %v allocations, want <= %v", c.name, got, c.max)
		}
	}
}

func TestSolveAllocs(t *testing.T) {
	m := schedShapedModel(rand.New(rand.NewSource(12)), 17, 5, 21, 5)
	nodes := 0
	ar := &lpArena{} // not the pool's: the race detector makes sync.Pool drop arenas at random
	got := testing.AllocsPerRun(20, func() {
		nodes = solveIn(ar, m, Options{MaxNodes: 48}).Nodes
	})
	if nodes != 48 {
		t.Fatalf("explored %d nodes, want the full budget of 48", nodes)
	}
	// One x per node, the root basis, the incumbent.
	if max := float64(nodes + 2); got > max {
		t.Errorf("48-node Solve: %v allocations, want <= %v", got, max)
	}
}
