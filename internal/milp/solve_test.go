package milp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// sameSolution reports the first field in which two solves differ, "" when
// they are identical down to the bits of every assignment.
func sameSolution(a, b *Solution) string {
	switch {
	case a.Status != b.Status:
		return "status"
	case a.Objective != b.Objective:
		return "objective"
	case a.Nodes != b.Nodes || a.LPIters != b.LPIters:
		return "nodes/iters"
	case a.Bound != b.Bound:
		return "bound"
	case len(a.X) != len(b.X):
		return "solution presence"
	}
	for v := range a.X {
		if math.Float64bits(a.X[v]) != math.Float64bits(b.X[v]) {
			return "assignment"
		}
	}
	return ""
}

// solveInParallel solves every model once on its own, then all of them at
// once from several goroutines per model — the way shard domains call Solve
// — and demands the sequential answer from every call: the pooled arenas and
// their recycled branch-and-bound scratch must never leak between solves.
// scripts/ci.sh runs this under the race detector.
func solveInParallel(t *testing.T, models []*Model, opts Options) {
	t.Helper()
	want := make([]Solution, len(models))
	for i, m := range models {
		want[i] = Solve(m, opts)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		for i, m := range models {
			wg.Add(1)
			go func(i int, m *Model) {
				defer wg.Done()
				got := Solve(m, opts)
				if diff := sameSolution(&got, &want[i]); diff != "" {
					t.Errorf("model %d: concurrent solve differs from sequential in %s", i, diff)
				}
			}(i, m)
		}
	}
	wg.Wait()
}

// TestSolveParallelDeterministic: concurrent solves of randomized
// scheduler-shaped models return the same objective AND the same chosen
// assignments as solving them one at a time.
func TestSolveParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9001))
	models := make([]*Model, 50)
	for i := range models {
		models[i] = randPacking(rng, 3+rng.Intn(8), 2+rng.Intn(4), 2+rng.Intn(7))
	}
	solveInParallel(t, models, Options{MaxNodes: 128})
}

// TestSolveParallelMixedModels covers the same for mixed binary + continuous
// (exact-shares-shaped) models, whose rounding heuristic solves a second
// relaxation inside the node's arena.
func TestSolveParallelMixedModels(t *testing.T) {
	rng := rand.New(rand.NewSource(9002))
	models := make([]*Model, 15)
	for i := range models {
		models[i] = mixedModel(rng, 2+rng.Intn(4), 2+rng.Intn(3))
	}
	solveInParallel(t, models, Options{MaxNodes: 128})
}

// TestSolveBoundIncludesPendingNodeAtDeadline reproduces the timeout audit:
// when the deadline expires right after a node is popped (here: an
// already-expired deadline with a seeded incumbent), the reported Bound must
// still dominate that popped-but-unexpanded node's subtree — it must not
// collapse to the incumbent objective just because the heap drained.
func TestSolveBoundIncludesPendingNodeAtDeadline(t *testing.T) {
	var m Model
	a := m.AddVar(Binary, 5, "a")
	b := m.AddVar(Binary, 4, "b")
	m.AddLE("d", []int{a, b}, []float64{1, 1}, 1)
	seed := []float64{0, 1} // feasible, objective 4; optimum is 5
	sol := Solve(&m, Options{Seed: seed, Deadline: time.Now().Add(-time.Second)})
	if sol.Status != Feasible {
		t.Fatalf("status = %v, want feasible (budget-truncated)", sol.Status)
	}
	if sol.Objective != 4 {
		t.Fatalf("objective = %v, want seed's 4", sol.Objective)
	}
	// The root node was popped but never expanded; its (infinite) parent
	// bound must flow into Bound rather than being dropped with the
	// drained heap.
	if sol.Bound < 5 {
		t.Fatalf("Bound = %v: pending node's bound was dropped at expiry", sol.Bound)
	}
}

// TestStopReason: Solution.Stopped says why the search ended — it ran out of
// open nodes (proved), of node budget, or of time.
func TestStopReason(t *testing.T) {
	m := schedShapedModel(rand.New(rand.NewSource(12)), 17, 5, 21, 5)
	for _, c := range []struct {
		opts   Options
		want   StopReason
		proved bool
	}{
		{Options{}, StopNone, true},
		{Options{MaxNodes: 1}, StopNodes, false},
		{Options{Deadline: time.Now().Add(-time.Second)}, StopDeadline, false},
	} {
		sol := Solve(m, c.opts)
		if proved := sol.Status == Optimal || sol.Status == Infeasible; sol.Stopped != c.want || proved != c.proved {
			t.Errorf("%+v: stopped %d with status %v, want stopped %d", c.opts, sol.Stopped, sol.Status, c.want)
		}
	}
}

// TestSparsePropertyFeasible reruns the core feasibility property on
// scheduling-shaped models — thin constraint matrices of up to a few hundred
// columns, which randPacking's small dense draws never reach and on which the
// indexed pivot skips most of every row.
func TestSparsePropertyFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7104))
	for trial := 0; trial < 30; trial++ {
		m := preemptShaped(rng, 4+rng.Intn(30), 2+rng.Intn(8), 2+rng.Intn(7), 2+rng.Intn(5), false)
		sol := Solve(m, Options{MaxNodes: 1 + rng.Intn(50)})
		if sol.X == nil {
			continue
		}
		if !m.Feasible(sol.X, 1e-6) {
			t.Fatalf("trial %d: infeasible solution returned", trial)
		}
		if got := m.Objective(sol.X); math.Abs(got-sol.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective mismatch %v vs %v", trial, got, sol.Objective)
		}
	}
}
