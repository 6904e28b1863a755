package milp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// childCheck is what checkChildren compared.
type childCheck struct {
	children, infeasible int
	worst                float64 // largest |warm − cold| objective gap relative to max(1, |cold|)
}

// checkChildren solves m under opts and holds every child the search
// re-solves from its parent's tableau to a cold solve of the same fixings:
// the same infeasibility verdict, objectives within 1e-7·max(1, |obj|), and
// an x (fixings patched in) that satisfies every row of m within feasTol.
// It returns the solve, what it compared, and the first disagreement.
func checkChildren(m *Model, opts Options) (Solution, childCheck, error) {
	var cc childCheck
	var first error
	ar, cold := &lpArena{}, &lpArena{}
	ar.onChild = func(nd *bbNode, _ int, res lpResult, objC float64, err error) {
		cc.children++
		fail := func(format string, args ...any) {
			if first == nil {
				first = fmt.Errorf("child at depth %d fixing x%d=%d: %s", nd.depth, nd.v, nd.branch, fmt.Sprintf(format, args...))
			}
		}
		cres, cobjC, cerr := solveRelaxationOpt(cold, m, nd.fixed, nil, false)
		if err != nil || cerr != nil {
			if err != ErrInfeasible || cerr != ErrInfeasible {
				fail("warm %v, cold %v", err, cerr)
			}
			cc.infeasible++
			return
		}
		w, c := res.obj+objC, cres.obj+cobjC
		gap := math.Abs(w-c) / math.Max(1, math.Abs(c))
		cc.worst = math.Max(cc.worst, gap)
		if gap > 1e-7 {
			fail("objective %v warm, %v cold", w, c)
		}
		x := append([]float64(nil), res.x...)
		for v, f := range nd.fixed {
			if f >= 0 {
				x[v] = float64(f)
			}
		}
		if r := violatedRow(m, x, feasTol); r != "" {
			fail("x violates %s", r)
		}
	}
	sol := solveIn(ar, m, opts)
	return sol, cc, first
}

// violatedRow names the first bound or row of m's relaxation that x breaks
// by more than tol ("" when none does).
func violatedRow(m *Model, x []float64, tol float64) string {
	for v, xv := range x {
		if xv < -tol {
			return fmt.Sprintf("x%d >= 0 (x%d = %g)", v, v, xv)
		}
	}
	for r := range m.rhs {
		idx, coef, rhs := m.RowEntries(r)
		lhs := 0.0
		for k, v := range idx {
			lhs += coef[k] * x[v]
		}
		if lhs > rhs+tol {
			return fmt.Sprintf("row %d (%g > %g)", r, lhs, rhs)
		}
	}
	return ""
}

// TestWarmChildrenMatchCold: on 250 scheduling-shaped draws — packing
// models, preemption credits, must-run rows whose phase 1 the root needs and
// the children do not, and exact-shares models with continuous variables —,
// each searched at the default IntTol and at 1e-9, every child re-solved
// from its parent's tableau agrees with a cold solve of its fixings, and
// none falls back to a cold solve.
func TestWarmChildrenMatchCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7107))
	var total childCheck
	for trial := 0; trial < 250; trial++ {
		var m *Model
		switch trial % 5 {
		case 0, 1:
			m = preemptShaped(rng, 3+rng.Intn(12), 2+rng.Intn(4), 1+rng.Intn(5), 1+rng.Intn(5), false)
		case 2:
			m = preemptShaped(rng, 3+rng.Intn(10), 2+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4), true)
		case 3:
			m = mixedModel(rng, 2+rng.Intn(5), 2+rng.Intn(3))
		default:
			m = randPacking(rng, 3+rng.Intn(8), 2+rng.Intn(4), 2+rng.Intn(6))
		}
		// IntTol 1e-9 also branches on binaries within feasTol of integral.
		for _, opts := range []Options{{MaxNodes: 64}, {MaxNodes: 64, IntTol: 1e-9}} {
			sol, cc, err := checkChildren(m, opts)
			if err != nil {
				t.Fatalf("trial %d, IntTol %g: %v", trial, opts.IntTol, err)
			}
			if sol.ColdFallbacks != 0 {
				t.Errorf("trial %d, IntTol %g: %d children fell back to a cold solve", trial, opts.IntTol, sol.ColdFallbacks)
			}
			total.children += cc.children
			total.infeasible += cc.infeasible
			total.worst = math.Max(total.worst, cc.worst)
		}
	}
	t.Logf("%d children, %d infeasible, worst objective gap %.3g", total.children, total.infeasible, total.worst)
	if total.children < 1000 || total.infeasible == 0 {
		t.Fatalf("coverage: %+v — want many children, infeasible ones among them", total)
	}
}

// TestFixBasicWithinFeasTol: with an IntTol below feasTol the search can
// branch on a binary within feasTol of integral, and fixing it can leave its
// row infeasible by less than feasTol. A cold solve keeps such a child, so
// the warm re-solve must not prune it: it leaves the verdict to the cold
// solve, as dualSimplex does.
func TestFixBasicWithinFeasTol(t *testing.T) {
	var m Model
	v := m.AddVar(Binary, -1, "v")
	m.AddLE("v >= 5e-7", []int{v}, []float64{-1}, -5e-7)
	ar := &lpArena{}
	res, objC, err := solveRelaxationOpt(ar, &m, freeFixing(1), nil, false)
	if err != nil || res.x[v] <= 1e-9 || res.x[v] >= feasTol {
		t.Fatalf("parent LP: v = %v (%v), want within (1e-9, feasTol)", res.x[v], err)
	}
	ar.saveSlot(0, 1, &ar.lp, objC)
	child := &bbNode{fixed: []int8{0}, depth: 1, v: v, branch: 0, parent: 1}
	if _, _, err := ar.solveChild(&m, child); err != errColdStart {
		t.Errorf("warm re-solve of v = 0: %v, want %v", err, errColdStart)
	}
	if _, _, err := solveRelaxationOpt(ar, &m, child.fixed, nil, false); err != nil {
		t.Errorf("cold solve of v = 0: %v, want feasible within feasTol", err)
	}
}

// TestColdFallback: a child whose parent's tableau is gone from its slot is
// solved cold and counted, and the search still reaches the same optimum.
func TestColdFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7108))
	fellBack := 0
	for trial := 0; trial < 20; trial++ {
		m := preemptShaped(rng, 4+rng.Intn(8), 2+rng.Intn(3), 1+rng.Intn(4), 1+rng.Intn(4), false)
		want := solveIn(&lpArena{}, m, Options{})
		ar := &lpArena{}
		ar.onChild = func(*bbNode, int, lpResult, float64, error) {
			for i := range ar.slots {
				ar.slots[i].tag = -1 // every saved tableau lost
			}
		}
		got := solveIn(ar, m, Options{})
		fellBack += got.ColdFallbacks
		if got.Status != want.Status || math.Abs(got.Objective-want.Objective) > 1e-6*math.Max(1, math.Abs(want.Objective)) {
			t.Fatalf("trial %d: %v %v with lost tableaus, %v %v without", trial, got.Status, got.Objective, want.Status, want.Objective)
		}
	}
	if fellBack == 0 {
		t.Fatal("no child fell back: the test lost no tableau a child needed")
	}
}

// TestSlotsDoNotOutliveSolve: an arena reused for another model — as the
// pool reuses them — solves it exactly as a fresh arena does, although the
// previous Solve's saved tableaus carry tags the new search hands out again
// (a parent always overwrites its slot before its children look).
func TestSlotsDoNotOutliveSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7109))
	ar := &lpArena{}
	for trial := 0; trial < 20; trial++ {
		m := preemptShaped(rng, 3+rng.Intn(10), 2+rng.Intn(3), 1+rng.Intn(4), 1+rng.Intn(4), trial%3 == 0)
		got, want := solveIn(ar, m, Options{MaxNodes: 32}), solveIn(&lpArena{}, m, Options{MaxNodes: 32})
		if diff := sameSolution(&got, &want); diff != "" || got.ColdFallbacks != want.ColdFallbacks {
			t.Fatalf("trial %d: reused arena differs from a fresh one in %s", trial, diff)
		}
	}
}

// TestSlotStoresNonbasicColumnsOnly: after a Solve that branches, every
// saved tableau holds its m rows of w = cols − m nonbasic columns plus the
// rhs and nothing else, and its column maps are mutual inverses: posOf sends
// each stored variable to its position and each basic one to -1, colVar
// sends each position back.
func TestSlotStoresNonbasicColumnsOnly(t *testing.T) {
	m := schedShapedModel(rand.New(rand.NewSource(12)), 17, 5, 21, 5)
	ar := &lpArena{}
	if sol := solveIn(ar, m, Options{MaxNodes: 48}); sol.Nodes < 2 {
		t.Fatalf("%d nodes: the search did not branch", sol.Nodes)
	}
	tagged := 0
	for d := range ar.slots {
		s := &ar.slots[d]
		if s.tag < 0 {
			continue
		}
		tagged++
		lp := &s.lp
		if lp.w != lp.cols-lp.m || len(lp.tab) != lp.m*(lp.w+1) {
			t.Fatalf("slot %d: %d cells, w = %d, want m × (cols−m+1) = %d × %d", d, len(lp.tab), lp.w, lp.m, lp.cols-lp.m+1)
		}
		if len(lp.colVar) != lp.w+1 || lp.colVar[lp.w] != lp.cols || len(lp.posOf) != lp.cols {
			t.Fatalf("slot %d: |colVar| %d (rhs at %d), |posOf| %d", d, len(lp.colVar), lp.colVar[len(lp.colVar)-1], len(lp.posOf))
		}
		for q, v := range lp.colVar[:lp.w] {
			if lp.posOf[v] != q {
				t.Fatalf("slot %d: colVar[%d] = %d but posOf[%d] = %d", d, q, v, v, lp.posOf[v])
			}
		}
		basic := 0
		for v, q := range lp.posOf {
			if q < 0 {
				basic++
			} else if lp.colVar[q] != v {
				t.Fatalf("slot %d: posOf[%d] = %d but colVar[%d] = %d", d, v, q, q, lp.colVar[q])
			}
		}
		for i, b := range lp.basis {
			if lp.posOf[b] != -1 {
				t.Fatalf("slot %d: row %d's basic variable %d is stored at %d", d, i, b, lp.posOf[b])
			}
		}
		if basic != lp.m {
			t.Fatalf("slot %d: %d variables unstored, want the %d basic ones", d, basic, lp.m)
		}
	}
	if tagged == 0 {
		t.Fatal("no saved tableau left to inspect")
	}
}

// TestStallDetectorCountsOnlyStalls: iterate hands pricing to Bland's rule
// after 4(m+8) pivots that did not raise the objective. On a Klee–Minty cube
// every vertex is nondegenerate, so every pivot raises it and Bland's rule
// must never take over: Devex walks the d = 16 cube in 169 pivots. When the
// detector read the objective with the wrong sign it counted every improving
// pivot as a stall, Bland's rule took over at pivot 97, and the same LP took
// 1157.
func TestStallDetectorCountsOnlyStalls(t *testing.T) {
	const d = 16
	var m Model
	for j := 0; j < d; j++ {
		m.AddVar(Continuous, math.Pow(2, float64(d-1-j)), "x")
	}
	for i := 0; i < d; i++ {
		var idx []int
		var coef []float64
		for j := 0; j < i; j++ {
			idx, coef = append(idx, j), append(coef, math.Pow(2, float64(i-j+1)))
		}
		m.AddLE("km", append(idx, i), append(coef, 1), math.Pow(5, float64(i+1)))
	}
	res, _, err := solveRelaxation(&m, freeFixing(d))
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Pow(5, d); math.Abs(res.obj-want) > 1e-6*want {
		t.Fatalf("objective %v, want 5^%d = %v", res.obj, d, want)
	}
	if res.iters > 2*4*(d+8) {
		t.Errorf("%d iterations: Bland's rule took over a search that never stalled", res.iters)
	}
}

// solveRelaxation solves m's relaxation under fixed on an arena of its own,
// so nothing else reuses the storage behind the result.
func solveRelaxation(m *Model, fixed []int8) (lpResult, float64, error) {
	return solveRelaxationOpt(&lpArena{}, m, fixed, nil, false)
}
