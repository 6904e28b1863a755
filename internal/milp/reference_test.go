package milp

import (
	"errors"
	"math"
)

// refLP is the reference the production simplex is held to: the same
// two-phase primal simplex, with the same child re-solve, over the full
// tableau — every column stored, basic ones included, indexed by variable —
// assembled from packed substituted rows and pivoted the plain way: every
// row operation walks all cols+1 entries, zero or not. It shares nothing
// with simplexLP but the tolerances, the errors and the result type, so a
// differential run catches a slip in the condensed layout (a slot handed to
// the wrong variable, a lost unit column), in the indexed kernel (a nonzero
// left off the list, a stale list) and in the scatter-into-tableau node
// assembly alike.
type refLP struct {
	m, n, cols, nArt, artCol0 int

	tab   [][]float64 // m rows × (cols+1); last column is rhs
	zrow  []float64
	basis []int
	cost  []float64
	iters int
	trace []pivotRec
}

// refRelaxation substitutes the fixings the way the solver did before the
// tableau was filled directly — one packed Row per surviving model row —
// and solves the result with refLP. The basis is always captured.
func refRelaxation(m *Model, fixed []int8, warm []int) (lpResult, float64, []pivotRec, error) {
	lp, objConst, err := refNodeLP(m, fixed)
	if err != nil {
		return lpResult{}, 0, nil, err
	}
	res, err := lp.solve(warm)
	return res, objConst, lp.trace, err
}

// refNodeLP assembles refRelaxation's LP without solving it.
func refNodeLP(m *Model, fixed []int8) (*refLP, float64, error) {
	c := append([]float64(nil), m.obj...)
	objConst := m.objConst
	for v, val := range fixed {
		if val < 0 {
			continue
		}
		if val == 1 {
			objConst += c[v]
		}
		c[v] = 0
	}
	var rows []Row
	for ri, r := range m.Rows() {
		rhs := r.RHS
		var idx []int
		var coef []float64
		for k, id := range r.Idx {
			if val := fixed[id]; val >= 0 {
				if val == 1 {
					rhs -= r.Coef[k]
				}
				continue
			}
			idx, coef = append(idx, id), append(coef, r.Coef[k])
		}
		if len(idx) == 0 {
			if rhs < -feasTol {
				return nil, 0, ErrInfeasible
			}
			continue
		}
		// The anti-degeneracy perturbation relaxes the model row.
		rows = append(rows, Row{RHS: rhs + perturb*float64(1+ri%17), Idx: idx, Coef: coef})
	}
	return newRefLP(c, rows), objConst, nil
}

func newRefLP(c []float64, rows []Row) *refLP {
	m, n := len(rows), len(c)
	lp := &refLP{m: m, n: n}
	for _, r := range rows {
		if r.RHS < 0 {
			lp.nArt++
		}
	}
	lp.cols = n + m + lp.nArt
	lp.artCol0 = n + m
	lp.tab = make([][]float64, m)
	lp.basis = make([]int, m)
	lp.cost = make([]float64, lp.cols)
	copy(lp.cost, c)
	art := lp.artCol0
	for i, r := range rows {
		row := make([]float64, lp.cols+1)
		neg := r.RHS < 0
		sign := 1.0
		if neg {
			sign = -1
		}
		for k, id := range r.Idx {
			row[id] += sign * r.Coef[k]
		}
		row[lp.cols] = sign * r.RHS
		if neg {
			row[n+i] = -1
			row[art] = 1
			lp.basis[i] = art
			art++
		} else {
			row[n+i] = 1
			lp.basis[i] = n + i
		}
		lp.tab[i] = row
	}
	return lp
}

func (lp *refLP) solve(warm []int) (lpResult, error) {
	maxIter := 200 * (lp.m + lp.n + 10)
	if lp.nArt > 0 {
		p1 := make([]float64, lp.cols)
		for j := lp.artCol0; j < lp.cols; j++ {
			p1[j] = -1
		}
		lp.initZ(p1)
		if err := lp.iterate(maxIter, lp.cols); err != nil {
			if errors.Is(err, ErrUnbounded) {
				return lpResult{}, ErrIterLimit
			}
			return lpResult{}, err
		}
		if -lp.zrow[lp.cols] > 1e-6 {
			return lpResult{}, ErrInfeasible
		}
		lp.purgeArtificials()
	}
	warmed := 0
	if lp.nArt == 0 && len(warm) > 0 {
		warmed = lp.restore(warm)
	}
	lp.initZ(lp.cost)
	if err := lp.iterate(maxIter, lp.artCol0); err != nil {
		return lpResult{}, err
	}
	res := lp.result()
	res.warmed = warmed
	return res, nil
}

// result reads the structural solution and the basis off the tableau.
func (lp *refLP) result() lpResult {
	x := make([]float64, lp.n)
	for i, b := range lp.basis {
		if b < lp.n {
			x[b] = lp.tab[i][lp.cols]
		}
	}
	obj := 0.0
	for j := 0; j < lp.n; j++ {
		obj += lp.cost[j] * x[j]
	}
	return lpResult{x: x, obj: obj, iters: lp.iters, basis: append([]int(nil), lp.basis...)}
}

func (lp *refLP) restore(warm []int) int {
	desired := make([]bool, lp.cols)
	cnt := 0
	for _, v := range warm {
		if v >= 0 && v < lp.artCol0 && !desired[v] {
			desired[v] = true
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	save := make([][]float64, lp.m)
	for i, row := range lp.tab {
		save[i] = append([]float64(nil), row...)
	}
	saveBasis := append([]int(nil), lp.basis...)
	basic := make([]bool, lp.cols)
	for _, b := range lp.basis {
		basic[b] = true
	}
	pivots := 0
	for j := 0; j < lp.artCol0; j++ {
		if !desired[j] || basic[j] {
			continue
		}
		leave := -1
		best := restoreTol
		for i := 0; i < lp.m; i++ {
			if desired[lp.basis[i]] {
				continue
			}
			if a := math.Abs(lp.tab[i][j]); a > best {
				best, leave = a, i
			}
		}
		if leave < 0 {
			continue
		}
		basic[lp.basis[leave]] = false
		lp.rowOps(leave, j)
		basic[j] = true
		pivots++
	}
	for i := 0; i < lp.m; i++ {
		if lp.tab[i][lp.cols] < -feasTol {
			lp.tab, lp.basis = save, saveBasis
			return 0
		}
	}
	lp.iters += pivots
	return pivots
}

// rowOps is the full-row Gauss-Jordan step on the constraint rows.
func (lp *refLP) rowOps(r, e int) {
	row := lp.tab[r]
	inv := 1 / row[e]
	for j := 0; j <= lp.cols; j++ {
		row[j] *= inv
	}
	row[e] = 1
	for i := 0; i < lp.m; i++ {
		if i == r {
			continue
		}
		ti := lp.tab[i]
		f := ti[e]
		if f == 0 {
			continue
		}
		for j := 0; j <= lp.cols; j++ {
			ti[j] -= f * row[j]
		}
		ti[e] = 0
	}
	lp.basis[r] = e
}

func (lp *refLP) pivot(r, e int) {
	lp.trace = append(lp.trace, pivotRec{e, r})
	lp.rowOps(r, e)
	if f := lp.zrow[e]; f != 0 {
		row := lp.tab[r]
		for j := 0; j <= lp.cols; j++ {
			lp.zrow[j] -= f * row[j]
		}
		lp.zrow[e] = 0
	}
}

func (lp *refLP) initZ(c []float64) {
	lp.zrow = make([]float64, lp.cols+1)
	for j := 0; j < lp.cols; j++ {
		lp.zrow[j] = -c[j]
	}
	for i, b := range lp.basis {
		cb := c[b]
		if cb == 0 {
			continue
		}
		for j, v := range lp.tab[i] {
			lp.zrow[j] += cb * v
		}
	}
}

func (lp *refLP) iterate(maxIter, colLimit int) error {
	noImprove := 0
	lastObj := math.Inf(-1)
	w := make([]float64, lp.cols)
	for j := range w {
		w[j] = 1
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
			for j := 0; j < colLimit; j++ {
				d := lp.zrow[j]
				if d >= -zeroTol {
					continue
				}
				if score := d * d / w[j]; score > best {
					best, enter = score, j
				}
			}
		}
		if enter < 0 {
			return nil
		}
		leave := -1
		bestRatio := math.Inf(1)
		bestPiv := 0.0
		for i := 0; i < lp.m; i++ {
			a := lp.tab[i][enter]
			if a <= pivTol {
				continue
			}
			ratio := lp.tab[i][lp.cols] / a
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
		pivVal := lp.tab[leave][enter]
		lp.pivot(leave, enter)
		we := w[enter]
		row := lp.tab[leave]
		maxW := 1.0
		for j := 0; j < colLimit; j++ {
			if j == enter || row[j] == 0 {
				continue
			}
			if t := row[j] * row[j] * we; t > w[j] {
				w[j] = t
				if t > maxW {
					maxW = t
				}
			}
		}
		if lw := math.Max(we/(pivVal*pivVal), 1); lw > w[oldBasic] {
			w[oldBasic] = lw
		}
		if maxW > 1e10 {
			for j := range w {
				w[j] = 1
			}
		}
		if obj := lp.zrow[lp.cols]; obj > lastObj+1e-10 {
			lastObj = obj
			noImprove = 0
		} else {
			noImprove++
		}
	}
	return ErrIterLimit
}

func (lp *refLP) purgeArtificials() {
	for i := 0; i < lp.m; i++ {
		if lp.basis[i] < lp.artCol0 {
			continue
		}
		row := lp.tab[i]
		done := false
		for j := 0; j < lp.artCol0 && !done; j++ {
			if math.Abs(row[j]) > pivTol {
				lp.pivot(i, j)
				done = true
			}
		}
		if !done {
			for j := range row {
				row[j] = 0
			}
			row[lp.basis[i]] = 1
		}
	}
}

// clone returns a deep copy of lp with a fresh iteration count and trace: a
// child's starting point, which leaves the parent's tableau intact for the
// sibling.
func (lp *refLP) clone() *refLP {
	cp := *lp
	cp.tab = make([][]float64, lp.m)
	for i, row := range lp.tab {
		cp.tab[i] = append([]float64(nil), row...)
	}
	cp.zrow = append([]float64(nil), lp.zrow...)
	cp.basis = append([]int(nil), lp.basis...)
	cp.cost = append([]float64(nil), lp.cost...)
	cp.iters, cp.trace = 0, nil
	return &cp
}

// solveChild is lpArena.solveChild's sequence on the full tableau: lp is the
// parent's optimal tableau, which it turns into the child's with v = val.
func (lp *refLP) solveChild(v int, val float64) (lpResult, error) {
	err := lp.fixBasic(v, val)
	if err == nil {
		err = lp.dualSimplex(4 * (lp.m + 8))
	}
	if err == nil && lp.iterate(200*(lp.m+lp.n+10), lp.artCol0) != nil {
		err = errColdStart
	}
	if err != nil {
		return lpResult{iters: lp.iters}, err
	}
	return lp.result(), nil
}

// fixBasic, dualSimplex and dualEnter are dual.go's child re-solve as it
// read on the full tableau: v's unit column is zeroed in place, the dual
// ratio test walks the whole row, and every pivot is the full-row one.
func (lp *refLP) fixBasic(v int, val float64) error {
	r := -1
	for i, b := range lp.basis {
		if b == v {
			r = i
			break
		}
	}
	if r < 0 {
		return errColdStart
	}
	row := lp.tab[r]
	row[lp.cols] -= val
	lp.zrow[lp.cols] -= lp.cost[v] * val
	lp.cost[v] = 0
	row[v] = 0
	s := 1.0
	if row[lp.cols] < 0 {
		s = -1
	}
	lp.iters++
	e := lp.dualEnter(r, s)
	if e < 0 {
		if math.Abs(row[lp.cols]) <= feasTol {
			return errColdStart
		}
		return ErrInfeasible
	}
	lp.pivot(r, e)
	return nil
}

func (lp *refLP) dualSimplex(maxIter int) error {
	for it := 0; ; it++ {
		leave, worst := -1, -zeroTol
		for i := 0; i < lp.m; i++ {
			if b := lp.tab[i][lp.cols]; b < worst {
				leave, worst = i, b
			}
		}
		if leave < 0 {
			return nil
		}
		if it == maxIter {
			return errColdStart
		}
		lp.iters++
		e := lp.dualEnter(leave, -1)
		if e < 0 {
			if worst < -feasTol {
				return ErrInfeasible
			}
			return errColdStart
		}
		lp.pivot(leave, e)
	}
}

func (lp *refLP) dualEnter(r int, s float64) int {
	enter := -1
	best, bestPiv := math.Inf(1), 0.0
	for j, a := range lp.tab[r][:lp.artCol0] {
		a *= s
		if a <= pivTol {
			continue
		}
		ratio := math.Max(lp.zrow[j], 0) / a
		switch {
		case ratio < best-1e-12:
			best, bestPiv, enter = ratio, a, j
		case ratio < best+1e-12 && a > bestPiv:
			best, bestPiv, enter = ratio, a, j
		}
	}
	return enter
}
