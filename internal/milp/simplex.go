package milp

import (
	"errors"
	"math"
)

// LP solution statuses.
var (
	// ErrInfeasible reports that the LP has no feasible point.
	ErrInfeasible = errors.New("milp: infeasible")
	// ErrUnbounded reports that the LP objective is unbounded above.
	ErrUnbounded = errors.New("milp: unbounded")
	// ErrIterLimit reports that the simplex hit its iteration cap without
	// converging (numerically pathological input).
	ErrIterLimit = errors.New("milp: simplex iteration limit")
)

const (
	pivTol  = 1e-9 // minimum pivot magnitude
	zeroTol = 1e-9 // optimality tolerance: reduced costs (primal), rhs values (dual)
	feasTol = 1e-6 // feasibility tolerance (must exceed total RHS perturbation)
	perturb = 1e-8 // anti-degeneracy RHS perturbation unit
)

// lpResult is the outcome of one LP relaxation solve.
type lpResult struct {
	x     []float64 // structural variable values
	obj   float64   // objective value (max form, includes no constant)
	iters int
	// basis is the optimal basis (basis[i] = column basic in row i, slacks
	// at n+i), captured only when the caller requested it (root LPs, so the
	// scheduler can warm-start the next cycle).
	basis []int
	// warmed counts the crash pivots applied from a warm-basis hint.
	warmed int
}

// pivotRec records one simplex pivot (tests compare traces against the
// full-row reference kernel).
type pivotRec struct {
	enter, leave int
}

// simplexLP is a two-phase primal simplex over a condensed row-major
// tableau for
//
//	max c·x  s.t.  A·x <= b (b of any sign), x >= 0.
//
// Rows with negative rhs are negated into >= rows, given a surplus column
// and an artificial; phase 1 drives artificials to zero.
//
// A basic variable's column is the unit column of its row and carries no
// information, so the tableau stores only the w = cols − m nonbasic columns
// and the rhs: position q of a row holds variable colVar[q], the rhs sits at
// position w, and posOf maps a variable back to its position (-1 while it is
// basic). A pivot hands the entering variable's slot to the leaving one.
// Variables keep their indices everywhere else — the reduced costs, the
// costs, the basis — and every loop whose outcome depends on order walks
// them in variable order.
//
// Scheduler tableaus are overwhelmingly zero — each placement indicator
// appears in one demand row and a handful of capacity rows — so a pivot
// collects the pivot row's nonzero positions once, while scaling it, and
// every row update walks that list instead of the whole row. Each stored
// entry is the expression the plain full-tableau pivot computes on the same
// operands (a skipped exact zero leaves t − f·0 = t), so the pivot sequence
// is that kernel's; reference_test.go keeps it and kernel_test.go compares
// the two trace for trace (DESIGN.md §6).
type simplexLP struct {
	m, n    int // constraint rows, structural columns
	cols    int // total columns incl. slack/surplus + artificials
	nArt    int
	w       int       // stored (nonbasic) columns per row, cols − m; position w is the rhs
	stride  int       // w+1
	tab     []float64 // m × stride, row-major
	colVar  []int     // colVar[q] = variable stored at position q; colVar[w] = cols, the rhs
	posOf   []int     // posOf[v] = v's position, -1 while v is basic
	zrow    []float64 // reduced costs by variable, length cols+1 (last is the objective c_B·β)
	basis   []int     // basis[i] = variable basic in row i
	cost    []float64 // phase-2 cost per column (structural only nonzero)
	artCol0 int       // first artificial column index
	iters   int
	trace   *[]pivotRec // optional pivot trace (tests)
	ar      *lpArena    // scratch backing for everything here

	// The pivot row's nonzero positions (rhs included) and their scaled
	// values, refilled by every pivot; capacity stride.
	nz  []int32
	nzv []float64

	// warm, when non-nil, is a previous optimum's basis used to crash-start
	// phase 2; wantBasis asks solve to capture the optimal basis into the
	// result. Both are set by solveRelaxationOpt for root relaxations.
	warm      []int
	wantBasis bool
}

// row returns tableau row i, rhs included.
func (lp *simplexLP) row(i int) []float64 {
	return lp.tab[i*lp.stride : (i+1)*lp.stride : (i+1)*lp.stride]
}

// indexColumns rebuilds posOf from the basis and colVar.
func (lp *simplexLP) indexColumns() {
	for _, b := range lp.basis {
		lp.posOf[b] = -1
	}
	for q, v := range lp.colVar[:lp.w] {
		lp.posOf[v] = q
	}
}

// solve runs both phases and returns the optimal structural solution. The
// returned x (and basis) are freshly allocated and safe to retain.
func (lp *simplexLP) solve(maxIter int) (lpResult, error) {
	if maxIter <= 0 {
		maxIter = 200 * (lp.m + lp.n + 10)
	}
	if lp.nArt > 0 {
		// Phase 1: maximize -(sum of artificials).
		p1 := growz(&lp.ar.p1, lp.cols)
		for j := lp.artCol0; j < lp.cols; j++ {
			p1[j] = -1
		}
		lp.initZ(p1)
		if err := lp.iterate(maxIter, lp.cols); err != nil {
			if errors.Is(err, ErrUnbounded) {
				// Phase-1 objective is bounded by construction; treat as numeric trouble.
				return lpResult{}, ErrIterLimit
			}
			return lpResult{}, err
		}
		// The phase-1 optimum zrow[rhs] is minus the artificials' sum.
		if -lp.zrow[lp.cols] > 1e-6 {
			return lpResult{}, ErrInfeasible
		}
		lp.purgeArtificials()
	}
	// Phase 2 on the real objective; artificials may not enter. A warm basis
	// is restored before the reduced costs are priced (initZ prices whatever
	// basis the restore left behind).
	warmed := 0
	if lp.nArt == 0 && len(lp.warm) > 0 {
		warmed = lp.restore(lp.warm)
	}
	lp.initZ(lp.cost)
	if err := lp.iterate(maxIter, lp.artCol0); err != nil {
		return lpResult{}, err
	}
	res := lp.result()
	res.warmed = warmed
	if lp.wantBasis {
		res.basis = append([]int(nil), lp.basis...)
	}
	return res, nil
}

// result reads the optimal structural solution off the tableau into a
// freshly allocated x.
func (lp *simplexLP) result() lpResult {
	x := make([]float64, lp.n)
	for i, b := range lp.basis {
		if b < lp.n {
			x[b] = lp.tab[i*lp.stride+lp.w]
		}
	}
	obj := 0.0
	for j := 0; j < lp.n; j++ {
		obj += lp.cost[j] * x[j]
	}
	return lpResult{x: x, obj: obj, iters: lp.iters}
}

// restoreTol is the minimum forced-pivot magnitude of a warm-basis restore.
// Stricter than pivTol: a forced pivot skips the ratio test, so a small
// element would amplify rounding error with no feasibility backstop.
const restoreTol = 1e-7

// restore reconstructs a previous optimum's basis *set* before phase 2
// begins (the warm start of the incremental re-solve path, DESIGN.md §12).
// Unlike a ratio-test crash — which rebuilds a feasible basis but generally
// not the optimal one, leaving the subsequent Devex pass to re-derive the
// optimum from scratch — restore pivots every desired column in by force.
// When the model barely moved since the basis was optimal (a quiet cycle's
// time-shifted re-solve), the restored basis is optimal or a pivot or two
// away, and iterate terminates almost immediately.
//
// Forced pivots ignore feasibility, so the tableau and basis are snapshotted
// first and the whole restore is reverted if any RHS entry comes out
// negative (the previous basis is primal-infeasible for the new values) —
// the solve then proceeds cold from the slack basis it started with.
// Fully deterministic: columns enter in ascending index order, the pivot row
// maximizes |element| with lowest-index tie-break, and the feasibility
// verdict is a pure function of the (tableau, warm) pair.
func (lp *simplexLP) restore(warm []int) int {
	desired := growz(&lp.ar.desired, lp.cols)
	cnt := 0
	for _, v := range warm {
		// Structural and slack columns only; artificial entries (redundant
		// rows neutralized by a previous phase 1) are ignored.
		if v >= 0 && v < lp.artCol0 && !desired[v] {
			desired[v] = true
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	save := grow(&lp.ar.save, len(lp.tab))
	copy(save, lp.tab)
	saveIdx := grow(&lp.ar.saveIdx, lp.m+lp.stride) // basis, then colVar
	copy(saveIdx, lp.basis)
	copy(saveIdx[lp.m:], lp.colVar)
	pivots := 0
	for j := 0; j < lp.artCol0; j++ {
		q := lp.posOf[j]
		if !desired[j] || q < 0 {
			continue // not wanted, or basic already
		}
		leave := -1
		best := restoreTol
		for i := 0; i < lp.m; i++ {
			if desired[lp.basis[i]] {
				continue // never evict a column the warm basis keeps
			}
			if a := math.Abs(lp.tab[i*lp.stride+q]); a > best {
				best, leave = a, i
			}
		}
		if leave < 0 {
			continue // singular against the remaining rows: leave it out
		}
		lp.forcePivot(leave, j, 1)
		pivots++
	}
	for i := 0; i < lp.m; i++ {
		if lp.tab[i*lp.stride+lp.w] < -feasTol {
			// The restored basis is infeasible for this cycle's values:
			// revert to the pristine slack basis and solve cold.
			copy(lp.tab, save)
			copy(lp.basis, saveIdx)
			copy(lp.colVar, saveIdx[lp.m:])
			lp.indexColumns()
			return 0
		}
	}
	lp.iters += pivots
	return pivots
}

// forcePivot performs a Gauss-Jordan pivot on (row r, variable e) over the
// constraint rows and returns the pivot row's nonzero positions and their
// scaled values, for pivot to finish the reduced-cost row with. restore
// calls it directly: it runs before initZ prices the basis, so there is no
// zrow to maintain yet.
//
// The leaving variable takes e's slot. Its column, implicit while it was
// basic, is unit in row r and zero elsewhere — except after fixBasic zeroed
// it, which passes unit 0 — so the slot is loaded with unit before the pivot
// row is scaled and with 0 before each other row is eliminated: it comes out
// as the full tableau's leaving column, unit·inv in row r and 0 − f·inv in
// row i.
func (lp *simplexLP) forcePivot(r, e int, unit float64) ([]int32, []float64) {
	p := lp.posOf[e]
	row := lp.row(r)
	inv := 1 / row[p]
	row[p] = unit
	nz, nzv := lp.nz[:len(row)], lp.nzv[:len(row)]
	k := 0
	for q, v := range row {
		if v == 0 {
			continue
		}
		v *= inv
		row[q] = v
		nz[k], nzv[k] = int32(q), v
		k++
	}
	nz, nzv = nz[:k], nzv[:k]
	for i := 0; i < lp.m; i++ {
		f := lp.tab[i*lp.stride+p]
		if f == 0 || i == r {
			continue
		}
		ti := lp.row(i)
		ti[p] = 0
		for k, q := range nz {
			ti[q] -= f * nzv[k]
		}
	}
	b := lp.basis[r]
	lp.basis[r] = e
	lp.colVar[p], lp.posOf[b], lp.posOf[e] = b, p, -1
	return nz, nzv
}

// pivot is forcePivot plus the reduced-cost row update.
func (lp *simplexLP) pivot(r, e int, unit float64) ([]int32, []float64) {
	if lp.trace != nil {
		*lp.trace = append(*lp.trace, pivotRec{e, r})
	}
	nz, nzv := lp.forcePivot(r, e, unit)
	if f := lp.zrow[e]; f != 0 {
		for k, q := range nz {
			lp.zrow[lp.colVar[q]] -= f * nzv[k]
		}
		lp.zrow[e] = 0
	}
	return nz, nzv
}

// initZ recomputes the reduced-cost row for the given column costs by
// pricing out the current basis: z_j = c_B·T_j − c_j.
func (lp *simplexLP) initZ(c []float64) {
	lp.zrow = grow(&lp.ar.zrow, lp.cols+1)
	for j := 0; j < lp.cols; j++ {
		lp.zrow[j] = -c[j]
	}
	lp.zrow[lp.cols] = 0
	for i, b := range lp.basis {
		cb := c[b]
		if cb == 0 {
			continue
		}
		lp.zrow[b] += cb // the basic column's implicit 1
		for q, v := range lp.row(i) {
			if v != 0 {
				lp.zrow[lp.colVar[q]] += cb * v
			}
		}
	}
}

// iterate runs primal simplex pivots until optimality. Columns with index
// >= colLimit are barred from entering (used to freeze artificials in
// phase 2). Devex pricing (a steepest-edge approximation) with a Bland
// fallback for anti-cycling.
func (lp *simplexLP) iterate(maxIter, colLimit int) error {
	noImprove := 0
	lastObj := math.Inf(-1)
	// Devex reference weights.
	wt := grow(&lp.ar.wt, lp.cols)
	for j := range wt {
		wt[j] = 1
	}
	for it := 0; it < maxIter; it++ {
		lp.iters++
		bland := noImprove > 4*(lp.m+8)
		enter := -1
		if bland {
			for j := 0; j < colLimit; j++ {
				if lp.zrow[j] < -zeroTol {
					enter = j
					break
				}
			}
		} else {
			best := 0.0
			for j, d := range lp.zrow[:colLimit] {
				if d >= -zeroTol {
					continue
				}
				score := d * d / wt[j]
				if score > best {
					best = score
					enter = j
				}
			}
		}
		if enter < 0 {
			return nil // optimal
		}
		// Ratio test; ties broken on the larger pivot element for numeric
		// stability (or smallest basis index under Bland's rule).
		pe := lp.posOf[enter]
		leave := -1
		bestRatio := math.Inf(1)
		bestPiv := 0.0
		for i := 0; i < lp.m; i++ {
			a := lp.tab[i*lp.stride+pe]
			if a <= pivTol {
				continue
			}
			ratio := lp.tab[i*lp.stride+lp.w] / a
			switch {
			case ratio < bestRatio-1e-12:
				bestRatio, bestPiv, leave = ratio, a, i
			case ratio < bestRatio+1e-12 && leave >= 0:
				if bland {
					if lp.basis[i] < lp.basis[leave] {
						bestRatio, bestPiv, leave = ratio, a, i
					}
				} else if a > bestPiv {
					bestRatio, bestPiv, leave = ratio, a, i
				}
			}
		}
		if leave < 0 {
			return ErrUnbounded
		}
		oldBasic := lp.basis[leave]
		pivVal := lp.tab[leave*lp.stride+pe]
		nz, nzv := lp.pivot(leave, enter, 1)
		// Devex weight update using the normalized pivot row, whose nonzeros
		// now include the leaving variable (in the entering one's slot) and
		// skip the barred columns and the rhs. Each weight is its own max, so
		// the order of nz does not matter.
		we := wt[enter]
		maxW := 1.0
		for k, q := range nz {
			j := lp.colVar[q]
			if j >= colLimit {
				continue
			}
			if t := nzv[k] * nzv[k] * we; t > wt[j] {
				wt[j] = t
				if t > maxW {
					maxW = t
				}
			}
		}
		if lw := math.Max(we/(pivVal*pivVal), 1); lw > wt[oldBasic] {
			wt[oldBasic] = lw
		}
		if maxW > 1e10 { // reference framework degraded: reset
			for j := range wt {
				wt[j] = 1
			}
		}
		// A pivot that raised the objective is progress; only a run of
		// 4(m+8) pivots that did not hands pricing to Bland's rule.
		if obj := lp.zrow[lp.cols]; obj > lastObj+1e-10 {
			lastObj = obj
			noImprove = 0
		} else {
			noImprove++
		}
	}
	return ErrIterLimit
}

// purgeArtificials pivots any artificial still basic (at value ~0) out of
// the basis where possible; rows where no pivot exists are redundant and
// are zeroed so they cannot affect phase 2.
func (lp *simplexLP) purgeArtificials() {
	for i := 0; i < lp.m; i++ {
		if lp.basis[i] < lp.artCol0 {
			continue
		}
		row := lp.row(i)
		done := false
		for j := 0; j < lp.artCol0 && !done; j++ {
			if q := lp.posOf[j]; q >= 0 && math.Abs(row[q]) > pivTol {
				lp.pivot(i, j, 1)
				done = true
			}
		}
		if !done {
			// Redundant row: neutralize it (its artificial stays basic).
			clear(row)
		}
	}
}
