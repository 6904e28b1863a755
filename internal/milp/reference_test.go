package milp

import (
	"errors"
	"math"
	"slices"
)

// refLP is the reference the production simplex is held to: the same
// two-phase bounded-variable primal simplex, with the same child re-solve,
// over the full tableau — every column stored, basic ones included, indexed
// by variable — assembled from packed substituted rows and pivoted the plain
// way: every row operation walks all cols+1 entries, zero or not, and a
// bound flip or row complement walks the whole column or row. It shares
// nothing with simplexLP but the tolerances, the errors and the result
// type, so a differential run catches a slip in the condensed layout (a
// slot handed to the wrong variable, a lost unit column), in the indexed
// kernel (a nonzero left off the list, a stale list), in the bound logic (a
// complement flag lost in a copy, a bound missed by a ratio test) and in
// the scatter-into-tableau node assembly alike.
type refLP struct {
	m, n, cols, nArt, artCol0 int

	tab   [][]float64 // m rows × (cols+1); last column is rhs
	zrow  []float64
	basis []int
	cost  []float64
	ub    []float64 // per column, +Inf where there is no bound
	flip  []bool    // complemented: the tableau holds ub − x in x's place
	iters int
	trace []pivotRec
}

// refRelaxation substitutes the fixings the way the solver did before the
// tableau was filled directly — one packed Row per surviving model row, a
// one-entry row on a binary turned into its bound by newNodeLP's rule — and
// solves the result with refLP. The basis is always captured.
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
	ub := make([]float64, len(c))
	for v := range ub {
		ub[v] = math.Inf(1)
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
		rhs += perturb * float64(1+ri%17)
		if len(idx) == 1 && m.Kind(idx[0]) == Binary && coef[0] > 0 && rhs/coef[0] >= 1 {
			ub[idx[0]] = math.Min(ub[idx[0]], rhs/coef[0])
			continue
		}
		rows = append(rows, Row{RHS: rhs, Idx: idx, Coef: coef})
	}
	return newRefLP(c, ub, rows), objConst, nil
}

func newRefLP(c, ub []float64, rows []Row) *refLP {
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
	lp.ub = make([]float64, lp.cols)
	for j := range lp.ub {
		lp.ub[j] = math.Inf(1)
	}
	copy(lp.ub, ub)
	lp.flip = make([]bool, lp.cols)
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

// result reads the structural solution and the basis — then ^v for each
// nonbasic v at its bound — off the tableau.
func (lp *refLP) result() lpResult {
	x := make([]float64, lp.n)
	for i, b := range lp.basis {
		if b < lp.n {
			x[b] = lp.tab[i][lp.cols]
		}
	}
	basis := append([]int(nil), lp.basis...)
	for v := 0; v < lp.n; v++ {
		if lp.flip[v] {
			x[v] = lp.ub[v] - x[v]
			if !slices.Contains(lp.basis, v) {
				basis = append(basis, ^v)
			}
		}
	}
	obj := 0.0
	for j := 0; j < lp.n; j++ {
		obj += lp.cost[j] * x[j]
	}
	return lpResult{x: x, obj: obj, iters: lp.iters, basis: basis}
}

func (lp *refLP) restore(warm []int) int {
	desired := make([]bool, lp.cols)
	cnt := 0
	for _, v := range warm {
		if v >= 0 && v < lp.artCol0 && !desired[v] {
			desired[v] = true
			cnt++
		} else if v < 0 {
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
	for _, e := range warm {
		if v := ^e; e < 0 && v < lp.n && !basic[v] && !lp.flip[v] && lp.ub[v] < math.Inf(1) {
			lp.flipColumn(v)
			pivots++
		}
	}
	for i := 0; i < lp.m; i++ {
		if b := lp.tab[i][lp.cols]; b < -feasTol || b > lp.ub[lp.basis[i]]+feasTol {
			lp.tab, lp.basis = save, saveBasis
			lp.flip = make([]bool, lp.cols)
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

// flipColumn moves nonbasic v to its other bound: its column changes sign
// and each row's rhs drops by the entry times the bound.
func (lp *refLP) flipColumn(v int) {
	u := lp.ub[v]
	for _, row := range lp.tab {
		if a := row[v]; a != 0 {
			row[lp.cols] -= a * u
			row[v] = -a
		}
	}
	lp.flip[v] = !lp.flip[v]
}

// complementRow makes row i's basic variable its complement: every entry
// but the basic column's unit changes sign, and the rhs becomes the bound
// less the old one.
func (lp *refLP) complementRow(i int) {
	lp.trace = append(lp.trace, pivotRec{-1, i})
	row := lp.tab[i]
	b := lp.basis[i]
	for j := 0; j < lp.cols; j++ {
		if j != b && row[j] != 0 {
			row[j] = -row[j]
		}
	}
	row[lp.cols] = lp.ub[b] - row[lp.cols]
	lp.flip[b] = !lp.flip[b]
}

func (lp *refLP) initZ(c []float64) {
	lp.zrow = make([]float64, lp.cols+1)
	for j := 0; j < lp.cols; j++ {
		lp.zrow[j] = -c[j]
	}
	for v := 0; v < lp.n; v++ {
		if lp.flip[v] {
			lp.zrow[v] = c[v]
			lp.zrow[lp.cols] += c[v] * lp.ub[v]
		}
	}
	for i, b := range lp.basis {
		cb := c[b]
		if lp.flip[b] {
			cb = -cb
		}
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
		leave, toBound := -1, false
		bestRatio := math.Inf(1)
		bestPiv := 0.0
		for i := 0; i < lp.m; i++ {
			a := lp.tab[i][enter]
			var ratio float64
			up := false
			switch {
			case a > pivTol:
				ratio = lp.tab[i][lp.cols] / a
			case a < -pivTol && lp.ub[lp.basis[i]] < math.Inf(1):
				a = -a
				ratio = (lp.ub[lp.basis[i]] - lp.tab[i][lp.cols]) / a
				up = true
			default:
				continue
			}
			switch {
			case ratio < bestRatio-1e-12:
				bestRatio, bestPiv, leave, toBound = ratio, a, i, up
			case ratio < bestRatio+1e-12 && leave >= 0:
				if bland {
					if lp.basis[i] < lp.basis[leave] {
						bestRatio, bestPiv, leave, toBound = ratio, a, i, up
					}
				} else if a > bestPiv {
					bestRatio, bestPiv, leave, toBound = ratio, a, i, up
				}
			}
		}
		if u := lp.ub[enter]; u < bestRatio+1e-12 {
			lp.trace = append(lp.trace, pivotRec{enter, -1})
			lp.flipColumn(enter)
			lp.zrow[lp.cols] -= lp.zrow[enter] * u
			lp.zrow[enter] = -lp.zrow[enter]
			if obj := lp.zrow[lp.cols]; obj > lastObj+1e-10 {
				lastObj = obj
				noImprove = 0
			} else {
				noImprove++
			}
			continue
		}
		if leave < 0 {
			return ErrUnbounded
		}
		if toBound {
			lp.complementRow(leave)
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
	cp.ub = append([]float64(nil), lp.ub...)
	cp.flip = append([]bool(nil), lp.flip...)
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
// ratio test walks the whole row, and every pivot is the full-row one. A
// nonbasic v is substituted out of every row at its fixed value.
func (lp *refLP) fixBasic(v int, val float64) error {
	t := val
	if lp.flip[v] {
		t = lp.ub[v] - val
	}
	lp.flip[v] = false
	r := slices.Index(lp.basis, v)
	if r < 0 {
		lp.iters++
		lp.trace = append(lp.trace, pivotRec{v, -1})
		for _, row := range lp.tab {
			if a := row[v]; a != 0 {
				row[lp.cols] -= a * t
				row[v] = 0
			}
		}
		lp.zrow[lp.cols] = lp.zrow[lp.cols] - lp.zrow[v]*t - lp.cost[v]*val
		lp.zrow[v], lp.cost[v] = 0, 0
		return nil
	}
	row := lp.tab[r]
	row[lp.cols] -= t
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
		leave, worst, up := -1, zeroTol, false
		for i := 0; i < lp.m; i++ {
			b := lp.tab[i][lp.cols]
			if -b > worst {
				leave, worst, up = i, -b, false
			} else if over := b - lp.ub[lp.basis[i]]; over > worst {
				leave, worst, up = i, over, true
			}
		}
		if leave < 0 {
			return nil
		}
		if it == maxIter {
			return errColdStart
		}
		lp.iters++
		if up {
			lp.complementRow(leave)
		}
		e := lp.dualEnter(leave, -1)
		if e < 0 {
			if worst > feasTol {
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
