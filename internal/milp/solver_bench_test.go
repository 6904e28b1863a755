package milp

import (
	"math"
	"math/rand"
	"testing"
)

// schedShapedModel builds a scheduler-shaped instance at a given size: jobs
// × opts binaries with demand rows, single one-option jobs (one binary, a
// one-entry demand row), and running preemptible jobs (a binary P with a
// negative objective, a one-entry ub_P row P ≤ 1, and a negative credit in
// the capacity rows of its partition up to the slot it would run to), plus
// partition × slot capacity rows in which each option appears only from its
// start slot on — the sparsity pattern milpbuild.go generates. With single
// = running = 0 it draws nothing for either, so a caller's model does not
// depend on them.
func schedShapedModel(rng *rand.Rand, jobs, opts, parts, slots, single, running int) *Model {
	var m Model
	type opt struct {
		v    int
		part int
		slot int
	}
	var options []opt
	for j := 0; j < jobs; j++ {
		idx := make([]int, opts)
		coef := make([]float64, opts)
		for o := 0; o < opts; o++ {
			v := m.AddVar(Binary, 1+rng.Float64()*10, "I")
			idx[o] = v
			coef[o] = 1
			options = append(options, opt{v: v, part: rng.Intn(parts), slot: o % slots})
		}
		m.AddLE("demand", idx, coef, 1)
	}
	for j := 0; j < single; j++ {
		v := m.AddVar(Binary, 1+rng.Float64()*10, "I")
		options = append(options, opt{v: v, part: rng.Intn(parts), slot: 0})
		m.AddLE("demand", []int{v}, []float64{1}, 1)
	}
	type run struct {
		p, part, end int
	}
	var runs []run
	for j := 0; j < running; j++ {
		p := m.AddVar(Binary, -(0.5 + 4*rng.Float64()), "P")
		runs = append(runs, run{p, rng.Intn(parts), 1 + rng.Intn(slots)})
	}
	for p := 0; p < parts; p++ {
		for s := 0; s < slots; s++ {
			var idx []int
			var coef []float64
			for _, o := range options {
				if o.part != p || s < o.slot {
					continue
				}
				idx = append(idx, o.v)
				coef = append(coef, 1+rng.Float64()*4)
			}
			if len(idx) == 0 {
				continue
			}
			for _, r := range runs {
				if r.part == p && s < r.end {
					idx = append(idx, r.p)
					coef = append(coef, -(1 + rng.Float64()*4))
				}
			}
			m.AddLE("cap", idx, coef, 4+rng.Float64()*20)
		}
	}
	for _, r := range runs {
		m.AddLE("ub_P", []int{r.p}, []float64{1}, 1)
	}
	return &m
}

// freeFixing returns the all-free fixing vector of a root relaxation.
func freeFixing(n int) []int8 {
	fixed := make([]int8, n)
	for i := range fixed {
		fixed[i] = -1
	}
	return fixed
}

// BenchmarkNodeLP is one node relaxation — assembly into the arena's
// tableau plus the simplex — at about the largest model size the bench
// workloads reach (77 variables × 106 rows: 8 five-option jobs, 12
// one-option jobs, 25 running preemptible ones). Its 37 one-entry demand
// and ub_P rows and 4 one-entry cap rows leave the tableau as 39 bounds.
func BenchmarkNodeLP(b *testing.B) {
	m := schedShapedModel(rand.New(rand.NewSource(12)), 8, 5, 13, 5, 12, 25)
	if m.NumVars() != 77 || m.NumRows() != 106 {
		b.Fatalf("model is %d × %d, want 77 × 106", m.NumVars(), m.NumRows())
	}
	lp, _, err := newNodeLP(&lpArena{}, m, freeFixing(m.NumVars()))
	if err != nil {
		b.Fatal(err)
	}
	if lp.m != 65 || lp.nBound != 39 {
		b.Fatalf("root LP has %d rows and %d bounds, want 65 and 39", lp.m, lp.nBound)
	}
	fixed := freeFixing(m.NumVars())
	ar := &lpArena{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := solveRelaxationOpt(ar, m, fixed, nil, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmChild is one branch-and-bound child on the same model: the
// 1-branch of the root's most fractional binary, re-solved from the root's
// saved tableau — slot copy, fixBasic, dual simplex, clean-up — with no
// incumbent to cut it off. Bytes per op are the tableau bytes the slot copy
// moves.
func BenchmarkWarmChild(b *testing.B) {
	m := schedShapedModel(rand.New(rand.NewSource(12)), 8, 5, 13, 5, 12, 25)
	ar := &lpArena{}
	root, objC, err := solveRelaxationOpt(ar, m, freeFixing(m.NumVars()), nil, false)
	if err != nil {
		b.Fatal(err)
	}
	v := mostFractionalBinary(m, root.x, 1e-6)
	if v < 0 {
		b.Fatal("root relaxation is integral: nothing to branch on")
	}
	ar.saveSlot(0, 1, &ar.lp, objC)
	child := ar.node(m.NumVars(), freeFixing(m.NumVars()), v, 1, math.Inf(1), 1, 1)
	b.SetBytes(int64(8 * len(ar.slots[0].lp.tab)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ar.solveChild(m, child, math.Inf(-1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveSchedulingCycle is the end-to-end hot path as 3σSched
// invokes it: node-budgeted anytime solve on a cycle-sized model in the row
// mix of an average sim-e2e model (76 variables × 78 rows: 46 cap, 14
// demand of which 10 one-option, 18 ub_P).
func BenchmarkSolveSchedulingCycle(b *testing.B) {
	m := schedShapedModel(rand.New(rand.NewSource(17)), 4, 12, 8, 6, 10, 18)
	if m.NumVars() != 76 || m.NumRows() != 78 {
		b.Fatalf("model is %d × %d, want 76 × 78", m.NumVars(), m.NumRows())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := Solve(m, Options{MaxNodes: 48})
		if sol.X == nil {
			b.Fatal("no solution")
		}
	}
}
