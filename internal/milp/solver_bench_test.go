package milp

import (
	"math"
	"math/rand"
	"testing"
)

// schedShapedModel builds a scheduler-shaped instance at a given size: jobs
// × options binaries with demand rows, plus partition × slot capacity rows
// in which each option appears only from its start slot on — the sparsity
// pattern milpbuild.go generates.
func schedShapedModel(rng *rand.Rand, jobs, opts, parts, slots int) *Model {
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
			if len(idx) > 0 {
				m.AddLE("cap", idx, coef, 4+rng.Float64()*20)
			}
		}
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
// tableau plus the simplex — at the largest model size the bench workloads
// reach (85 variables × 108 rows).
func BenchmarkNodeLP(b *testing.B) {
	m := schedShapedModel(rand.New(rand.NewSource(12)), 17, 5, 21, 5)
	if m.NumVars() != 85 || m.NumRows() != 108 {
		b.Fatalf("model is %d × %d, want 85 × 108", m.NumVars(), m.NumRows())
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
	m := schedShapedModel(rand.New(rand.NewSource(12)), 17, 5, 21, 5)
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
// invokes it: node-budgeted anytime solve on a cycle-sized model.
func BenchmarkSolveSchedulingCycle(b *testing.B) {
	m := schedShapedModel(rand.New(rand.NewSource(17)), 48, 12, 8, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := Solve(m, Options{MaxNodes: 48})
		if sol.X == nil {
			b.Fatal("no solution")
		}
	}
}
