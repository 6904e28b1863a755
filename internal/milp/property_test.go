package milp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randPacking builds a random scheduling-shaped packing instance: binaries
// with positive utilities, "at most one per group" rows, and capacity rows.
func randPacking(rng *rand.Rand, groups, perGroup, capRows int) *Model {
	var m Model
	for g := 0; g < groups; g++ {
		idx := make([]int, perGroup)
		coef := make([]float64, perGroup)
		for o := 0; o < perGroup; o++ {
			idx[o] = m.AddVar(Binary, 0.5+rng.Float64()*9.5, "I")
			coef[o] = 1
		}
		m.AddLE("demand", idx, coef, 1)
	}
	for c := 0; c < capRows; c++ {
		var idx []int
		var coef []float64
		for v := 0; v < m.NumVars(); v++ {
			if rng.Float64() < 0.4 {
				idx = append(idx, v)
				coef = append(coef, 0.5+rng.Float64()*3.5)
			}
		}
		if len(idx) > 0 {
			m.AddLE("cap", idx, coef, 2+rng.Float64()*8)
		}
	}
	return &m
}

// TestPropertySolutionsAlwaysFeasible: whatever the budget, any returned
// solution satisfies every constraint and integrality.
func TestPropertySolutionsAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 40; trial++ {
		m := randPacking(rng, 2+rng.Intn(6), 1+rng.Intn(4), 1+rng.Intn(6))
		sol := Solve(m, Options{MaxNodes: 1 + rng.Intn(50)})
		if sol.X == nil {
			continue // budget too small to find anything: allowed
		}
		if !m.Feasible(sol.X, 1e-6) {
			t.Fatalf("trial %d: infeasible solution returned: %v", trial, sol.X)
		}
		if got := m.Objective(sol.X); math.Abs(got-sol.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective mismatch %v vs %v", trial, got, sol.Objective)
		}
	}
}

// TestPropertyBoundDominatesIncumbent: the reported bound is always an
// upper bound on the incumbent objective.
func TestPropertyBoundDominatesIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		m := randPacking(rng, 3+rng.Intn(5), 2, 2+rng.Intn(4))
		sol := Solve(m, Options{MaxNodes: 5})
		if sol.X != nil && sol.Bound < sol.Objective-1e-6 {
			t.Fatalf("trial %d: bound %v below incumbent %v", trial, sol.Bound, sol.Objective)
		}
	}
}

// greedySeed switches variables on in index order while the model stays
// feasible: a feasible, usually suboptimal, warm-start incumbent.
func greedySeed(m *Model) []float64 {
	seed := make([]float64, m.NumVars())
	for v := range seed {
		seed[v] = 1
		if !m.Feasible(seed, 1e-9) {
			seed[v] = 0
		}
	}
	return seed
}

// TestPropertyDeterministicWithoutDeadline: the node cap is the solver's
// only limit and Solve reads no clock, so a Solution is a pure function of
// the model and the options — every field of it, down to the basis it hands
// the next cycle. Each model is solved twice under a node cap that ends some
// of the searches and with a warm-start seed; the two Solutions must be
// deeply equal.
func TestPropertyDeterministicWithoutDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	var models []*Model
	for i := 0; i < 20; i++ {
		models = append(models,
			randPacking(rng, 3+rng.Intn(6), 2+rng.Intn(3), 2+rng.Intn(5)),
			schedShapedModel(rng, 6+rng.Intn(12), 3, 4, 3, 0, 0),
			mixedModel(rng, 2+rng.Intn(3), 2+rng.Intn(2)))
	}
	var capped, seeded int
	for i, m := range models {
		opts := Options{MaxNodes: 8, Seed: greedySeed(m)}
		a, b := Solve(m, opts), Solve(m, opts)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("model %d: two solves with identical options differ:\n%+v\n%+v", i, a, b)
		}
		if a.Stopped == StopNodes {
			capped++
		}
		if a.SeedUsed {
			seeded++
		}
	}
	if capped == 0 || seeded == 0 {
		t.Fatalf("coverage: %d of %d solves node-capped, %d seeded; want some of each", capped, len(models), seeded)
	}
}

// TestPropertyMoreBudgetNeverWorse: increasing the node budget never
// decreases the incumbent objective (same instance, warm logic aside).
func TestPropertyMoreBudgetNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 15; trial++ {
		m := randPacking(rng, 4+rng.Intn(4), 2, 3)
		small := Solve(m, Options{MaxNodes: 2})
		big := Solve(m, Options{MaxNodes: 256})
		if small.X != nil && big.X != nil && big.Objective < small.Objective-1e-9 {
			t.Fatalf("trial %d: more budget got worse: %v -> %v", trial, small.Objective, big.Objective)
		}
	}
}

// TestPropertyLPOptimumDominatesRandomFeasiblePoints uses quick.Check to
// confirm LP optimality against randomly sampled feasible points.
func TestPropertyLPOptimumDominatesRandomFeasiblePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	var m Model
	n := 6
	for v := 0; v < n; v++ {
		m.AddVar(Continuous, 1+rng.Float64()*5, "x")
	}
	for r := 0; r < 4; r++ {
		var idx []int
		var coef []float64
		for v := 0; v < n; v++ {
			idx = append(idx, v)
			coef = append(coef, 0.2+rng.Float64()*2)
		}
		m.AddLE("c", idx, coef, 5+rng.Float64()*5)
	}
	sol := Solve(&m, Options{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	err := quick.Check(func(raw [6]float64) bool {
		x := make([]float64, n)
		for i, v := range raw {
			x[i] = math.Abs(math.Mod(v, 4))
		}
		if !m.Feasible(x, 1e-9) {
			return true // only feasible points must be dominated
		}
		return m.Objective(x) <= sol.Objective+1e-6
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

// TestSeedRespectedUnderBudget: with a one-node budget a feasible seed is
// kept, and the answer is never worse than it.
func TestSeedRespectedUnderBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	for trial := 0; trial < 20; trial++ {
		m := randPacking(rng, 4, 2, 3)
		seed := greedySeed(m)
		sol := Solve(m, Options{MaxNodes: 1, Seed: seed})
		if sol.X == nil {
			t.Fatalf("trial %d: feasible seed dropped", trial)
		}
		if sol.Objective < m.Objective(seed)-1e-9 {
			t.Fatalf("trial %d: result worse than seed", trial)
		}
	}
}
