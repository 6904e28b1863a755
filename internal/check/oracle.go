package check

import (
	"fmt"
	"math"
	"strings"

	"threesigma/internal/milp"
	"threesigma/internal/stats"
)

// This file is the differential solver oracle: seeded random MILP instances
// spanning the same structural shapes 3σSched's buildModel emits — binary
// placement indicators under at-most-one demand rows, capacity rows over
// (partition, slot) cells, optional continuous ExactShares allocation
// variables with gang-size link rows, and optional preemption credits with
// negative objective and negative capacity coefficients.
//
// Each instance is checked three ways. The cold solve must return a real
// incumbent (feasible, integral, objective consistent). A re-solve warmed
// with that run's root basis — the exact feed 3σSched's incremental path
// uses across cycles — may take a different simplex path but must reach the
// same optimum. And where the instance is all-binary and small enough, an
// exhaustive enumeration of every at-most-one choice gives the true optimum,
// a reference that shares no code with the solver: Optimal must mean that
// optimum, and a budget-truncated Feasible must bracket it between its
// incumbent and its bound. Solves are node-budget bounded with no deadline,
// so they are deterministic.

// OracleOptions configures RunOracle.
type OracleOptions struct {
	Models   int   // number of random instances (default 200)
	Seed     int64 // generator seed (default 1)
	MaxNodes int   // branch-and-bound budget per solve (default 64)
}

// GenModel builds one random scheduling-shaped MILP from rng. The instance
// is always bounded (every binary sits in an at-most-one row, every
// continuous allocation variable in a capacity row), but may be infeasible
// in degenerate draws — the oracle only requires all solver configurations
// to agree, including on infeasibility.
func GenModel(rng stats.Rand) *milp.Model {
	m := &milp.Model{}
	nParts := 2 + rng.Intn(3) // 2–4 partitions
	nSlots := 1 + rng.Intn(4) // 1–4 plan-ahead slots
	nJobs := 3 + rng.Intn(8)  // 3–10 jobs
	exact := rng.Float64() < 0.4

	capacity := make([][]float64, nParts)
	for p := range capacity {
		capacity[p] = make([]float64, nSlots)
		for k := range capacity[p] {
			capacity[p][k] = 2 + 10*rng.Float64()
		}
	}
	// Sparse capacity-row accumulators, one per (partition, slot) cell.
	type term struct {
		idx  int
		coef float64
	}
	capRows := make([][][]term, nParts)
	for p := range capRows {
		capRows[p] = make([][]term, nSlots)
	}

	for j := 0; j < nJobs; j++ {
		tasks := 1 + rng.Intn(6)
		nOpts := 1 + rng.Intn(4)
		demIdx := make([]int, 0, nOpts)
		demCoef := make([]float64, 0, nOpts)
		for o := 0; o < nOpts; o++ {
			k0 := rng.Intn(nSlots)
			iv := m.AddVar(milp.Binary, 0.5+10*rng.Float64(), fmt.Sprintf("I[j%d,o%d]", j, o))
			demIdx = append(demIdx, iv)
			demCoef = append(demCoef, 1)
			// Survival-curve consumption: monotone non-increasing from 1.
			rc := 1.0
			for k := k0; k < nSlots; k++ {
				if exact {
					// ExactShares: continuous per-partition allocation
					// variables for the start slot, linked to the gang size;
					// later slots decay the indicator's own consumption.
					if k == k0 {
						lIdx := []int{iv}
						lCoef := []float64{float64(tasks)}
						for p := 0; p < nParts; p++ {
							av := m.AddVar(milp.Continuous, 0, fmt.Sprintf("a[j%d,o%d,p%d]", j, o, p))
							lIdx = append(lIdx, av)
							lCoef = append(lCoef, -1)
							capRows[p][k] = append(capRows[p][k], term{av, rc})
						}
						m.AddLE(fmt.Sprintf("link[j%d,o%d]", j, o), lIdx, lCoef, 0)
					} else {
						p := rng.Intn(nParts)
						capRows[p][k] = append(capRows[p][k], term{iv, float64(tasks) * rc})
					}
				} else {
					// Fixed proportional shares across a random partition subset.
					for p := 0; p < nParts; p++ {
						if rng.Float64() < 0.7 {
							share := float64(tasks) * (0.2 + 0.8*rng.Float64())
							capRows[p][k] = append(capRows[p][k], term{iv, share * rc})
						}
					}
				}
				rc *= 0.4 + 0.6*rng.Float64()
			}
		}
		m.AddLE(fmt.Sprintf("dem[j%d]", j), demIdx, demCoef, 1)
	}

	// Preemption credits: negative objective, capacity returned (negative
	// coefficient) in every slot, bounded by its own at-most-one row.
	if rng.Float64() < 0.5 {
		nPre := 1 + rng.Intn(3)
		for i := 0; i < nPre; i++ {
			p := rng.Intn(nParts)
			credit := 1 + 4*rng.Float64()
			pv := m.AddVar(milp.Binary, -(0.5 + 4*rng.Float64()), fmt.Sprintf("P[%d]", i))
			for k := 0; k < nSlots; k++ {
				capRows[p][k] = append(capRows[p][k], term{pv, -credit})
			}
			m.AddLE(fmt.Sprintf("ub[P%d]", i), []int{pv}, []float64{1}, 1)
		}
	}

	for p := 0; p < nParts; p++ {
		for k := 0; k < nSlots; k++ {
			if len(capRows[p][k]) == 0 {
				continue
			}
			idx := make([]int, len(capRows[p][k]))
			coef := make([]float64, len(capRows[p][k]))
			for i, t := range capRows[p][k] {
				idx[i], coef[i] = t.idx, t.coef
			}
			m.AddLE(fmt.Sprintf("cap[p%d,t%d]", p, k), idx, coef, capacity[p][k])
		}
	}
	return m
}

// Outcome is what the cold reference solve of one oracle instance returned.
type Outcome struct {
	Status    milp.Status
	Objective float64
}

// RunOracle generates opt.Models seeded instances and checks the solver on
// each. It returns the reference outcome of every instance it solved, and an
// error naming the first failure, or nil when every instance passes.
func RunOracle(opt OracleOptions) ([]Outcome, error) {
	if opt.Models <= 0 {
		opt.Models = 200
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.MaxNodes <= 0 {
		opt.MaxNodes = 64
	}
	// stats.NewRand wraps the same PRNG stream rand.New(rand.NewSource)
	// produced, so the pinned-seed model corpus is unchanged.
	rng := stats.NewRand(opt.Seed)
	outs := make([]Outcome, 0, opt.Models)
	for i := 0; i < opt.Models; i++ {
		m := GenModel(rng)

		ref := milp.Solve(m, milp.Options{MaxNodes: opt.MaxNodes})
		outs = append(outs, Outcome{ref.Status, ref.Objective})
		if err := checkIncumbent(m, &ref); err != nil {
			return outs, fmt.Errorf("model %d: %v", i, err)
		}

		// Warm-basis differential: re-solving with the reference run's root
		// basis may change the simplex path but never the answer. When the
		// cold reference proved optimality the warm solve must reach the
		// same optimum.
		if len(ref.RootBasis) > 0 {
			warm := milp.Solve(m, milp.Options{MaxNodes: opt.MaxNodes, WarmBasis: ref.RootBasis})
			if err := checkIncumbent(m, &warm); err != nil {
				return outs, fmt.Errorf("model %d (warm): %v", i, err)
			}
			if ref.Status == milp.Optimal {
				if warm.Status != milp.Optimal {
					return outs, fmt.Errorf("model %d (warm): status %v, cold reference Optimal", i, warm.Status)
				}
				if !approxEq(warm.Objective, ref.Objective, 1e-6*math.Max(1, math.Abs(ref.Objective))) {
					return outs, fmt.Errorf("model %d (warm): objective %g, cold reference %g", i, warm.Objective, ref.Objective)
				}
			}
		}

		// Exhaustive differential against the enumerated optimum.
		if best, feasible, ok := enumerate(m, enumLimit); ok {
			if err := checkAgainstOptimum(&ref, best, feasible); err != nil {
				return outs, fmt.Errorf("model %d (exhaustive): %v", i, err)
			}
		}
	}
	return outs, nil
}

// enumLimit caps the exhaustive arm's search space per instance.
const enumLimit = 200000

// checkAgainstOptimum holds a solve to the enumerated truth: opt is the best
// objective over every integral point (meaningful when feasible).
func checkAgainstOptimum(s *milp.Solution, opt float64, feasible bool) error {
	tol := 1e-6 * math.Max(1, math.Abs(opt))
	switch s.Status {
	case milp.Optimal:
		if !feasible {
			return fmt.Errorf("status Optimal (objective %g) but no integral point is feasible", s.Objective)
		}
		if !approxEq(s.Objective, opt, tol) {
			return fmt.Errorf("status Optimal with objective %g, enumerated optimum %g", s.Objective, opt)
		}
	case milp.Feasible:
		if !feasible {
			return fmt.Errorf("status Feasible (objective %g) but no integral point is feasible", s.Objective)
		}
		if s.Objective > opt+tol || opt > s.Bound+tol {
			return fmt.Errorf("status Feasible: objective %g, enumerated optimum %g, bound %g do not nest",
				s.Objective, opt, s.Bound)
		}
	case milp.Infeasible:
		if feasible {
			return fmt.Errorf("status Infeasible but enumeration found objective %g", opt)
		}
	}
	return nil
}

// enumerate computes the optimum of an all-binary GenModel draw by brute
// force over its at-most-one structure: every variable sits in exactly one
// Σx ≤ 1 row (a demand row or a credit bound), so an integral point is one
// choice — a member or none — per such row. ok is false when the model has
// continuous variables or more than limit combinations; otherwise feasible
// reports whether any combination satisfies every row (within the solver's
// own 1e-6 feasibility tolerance) and best is the largest objective among
// those that do.
func enumerate(m *milp.Model, limit int) (best float64, feasible, ok bool) {
	n := m.NumVars()
	rows := m.Rows()
	group := make([]int, n) // variable → index into groups, -1 unassigned
	for v := range group {
		if m.Kind(v) != milp.Binary {
			return 0, false, false
		}
		group[v] = -1
	}
	var groups [][]int
	combos := 1
	for _, r := range rows {
		if !atMostOne(r) {
			continue
		}
		for _, v := range r.Idx {
			if group[v] >= 0 {
				return 0, false, false // two at-most-one rows share a variable
			}
			group[v] = len(groups)
		}
		groups = append(groups, r.Idx)
		if combos *= len(r.Idx) + 1; combos > limit {
			return 0, false, false
		}
	}
	for _, g := range group {
		if g < 0 {
			return 0, false, false
		}
	}
	// Column index, so a choice updates only the rows it touches.
	type entry struct {
		row  int
		coef float64
	}
	cols := make([][]entry, n)
	for ri, r := range rows {
		for k, v := range r.Idx {
			cols[v] = append(cols[v], entry{ri, r.Coef[k]})
		}
	}
	x := make([]float64, n)
	lhs := make([]float64, len(rows))
	best = math.Inf(-1)
	var walk func(g int)
	walk = func(g int) {
		if g == len(groups) {
			for ri, r := range rows {
				if lhs[ri] > r.RHS+1e-6 {
					return
				}
			}
			feasible = true
			if obj := m.Objective(x); obj > best {
				best = obj
			}
			return
		}
		walk(g + 1) // choose none
		for _, v := range groups[g] {
			x[v] = 1
			for _, e := range cols[v] {
				lhs[e.row] += e.coef
			}
			walk(g + 1)
			x[v] = 0
			for _, e := range cols[v] {
				lhs[e.row] -= e.coef
			}
		}
	}
	walk(0)
	return best, feasible, true
}

// atMostOne reports whether r is one of GenModel's Σx ≤ 1 rows: a job's
// demand row or a preemption credit's bound.
func atMostOne(r milp.Row) bool {
	return strings.HasPrefix(r.Name, "dem[") || strings.HasPrefix(r.Name, "ub[")
}

// checkIncumbent asserts that a claimed solution actually is one: feasible,
// integral on binaries, and with a consistent objective value.
func checkIncumbent(m *milp.Model, s *milp.Solution) error {
	switch s.Status {
	case milp.Optimal, milp.Feasible:
	default:
		return nil // no incumbent claimed
	}
	if len(s.X) != m.NumVars() {
		return fmt.Errorf("incumbent has %d vars, model %d", len(s.X), m.NumVars())
	}
	if !m.Feasible(s.X, 1e-6) {
		return fmt.Errorf("status %v but incumbent violates constraints", s.Status)
	}
	for v, x := range s.X {
		//lint:allow floateq Solution contracts binaries to be exact 0/1 (snapped by Solve); the oracle verifies that bitwise
		if m.Kind(v) == milp.Binary && x != 0 && x != 1 {
			return fmt.Errorf("binary %s = %g in incumbent", m.VarName(v), x)
		}
	}
	if obj := m.Objective(s.X); !approxEq(obj, s.Objective, 1e-6*math.Max(1, math.Abs(obj))) {
		return fmt.Errorf("reported objective %g, recomputed %g", s.Objective, obj)
	}
	return nil
}
