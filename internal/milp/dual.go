package milp

import (
	"errors"
	"math"
	"math/bits"
)

// This file re-solves branch-and-bound children from their parent's optimal
// tableau (DESIGN.md §6). A child differs from its parent by one binary
// fixed at 0 or 1. In the parent's tableau that binary is basic in some row,
// so fixing it changes that row's rhs and nothing else, and the parent's
// reduced costs stay dual feasible. The child therefore needs no phase 1
// and no rebuild from the model: one dual pivot takes the binary out of the
// basis, and the dual simplex repairs whatever rhs values went negative or
// above their bounds. A binary branched on while nonbasic (at a fractional
// upper bound) is substituted at its value in every row instead.

// errColdStart reports that a child cannot be re-solved from its parent's
// tableau: the slot holds another node's, or the dual simplex hit its
// iteration cap or ran into numeric trouble. The child is then solved cold
// and Solution.ColdFallbacks counts it.
var errColdStart = errors.New("milp: child needs a cold solve")

// errCutoff reports that a child's LP bound fell to the cutoff before its
// re-solve finished: the child cannot beat the incumbent, and solveIn prunes
// it as it prunes a child whose optimum came out at or below the cutoff.
// Solution.Cutoffs counts it.
var errCutoff = errors.New("milp: child cut off at the incumbent")

// cutoffMargin, relative to max(1, |cutoff|), is how far a child's bound
// must fall below the cutoff to stop its re-solve. Reduced costs are
// nonnegative only to within zeroTol and the optimum solveIn compares is
// summed from x, not read off the tableau, so a bound exactly at the cutoff
// is left to the full solve.
const cutoffMargin = 1e-9

// lpSlot is one saved optimal tableau. Slot d holds the tableau of the last
// node at depth d that branched, tagged with that node's expansion number.
// Under the deepest-first heap order, a node popped at depth d is a child
// of the node in slot d−1: every node expanded after its parent is in the
// parent's subtree until both children have been popped. The tag is checked
// anyway.
type lpSlot struct {
	tag      int // expansion number of the node saved here; -1 when empty or taken
	lp       simplexLP
	objConst float64
}

// saveSlot keeps lp, the optimal tableau of the node expanded as number tag
// at depth d, for that node's children. A warm child's tableau is its own
// storage and is handed over; a cold one lives in the arena's scratch,
// which the next cold solve overwrites, so it is copied.
func (ar *lpArena) saveSlot(d, tag int, lp *simplexLP, objConst float64) {
	for len(ar.slots) <= d {
		ar.slots = append(ar.slots, lpSlot{tag: -1})
	}
	s := &ar.slots[d]
	s.tag, s.objConst = tag, objConst
	if lp == &ar.child {
		s.lp, ar.child = ar.child, s.lp
		return
	}
	s.lp.copyFrom(lp)
}

// solveChild re-solves nd's relaxation from its parent's tableau in slot
// nd.depth−1 and returns it like solveRelaxationOpt does, except that the
// result's x is the arena's (ar.childX), valid until the next child. The LP
// it leaves in ar.child is nd's optimal tableau, for saveSlot. errColdStart
// asks for a cold solve; the iterations spent before it are in the result.
//
// cutoff is the objective solveIn prunes at (gapTerm). The child's bound is
// priced on the parent's tableau before the child gets a copy of it, and
// again before each dual pivot; once it falls to the cutoff less
// cutoffMargin the re-solve stops with errCutoff (DESIGN.md §6). Before
// there is an incumbent gapTerm is NaN, to which no bound falls.
func (ar *lpArena) solveChild(m *Model, nd *bbNode, cutoff float64) (lpResult, float64, error) {
	d := nd.depth - 1
	if d >= len(ar.slots) || ar.slots[d].tag != nd.parent {
		return lpResult{}, 0, errColdStart
	}
	s := &ar.slots[d]
	r := s.lp.basicRow(nd.v)
	val := float64(nd.branch)
	objConst := s.objConst
	if nd.branch == 1 {
		objConst += m.obj[nd.v]
	}
	lim := cutoff - cutoffMargin*math.Max(1, math.Abs(cutoff))
	e, z, err := s.lp.priceFix(r, nd.v, val)
	if err == nil && z+objConst <= lim {
		err = errCutoff
	}
	if err != nil {
		// Decided by the pivot-out alone, which counts as fixBasic's
		// iteration: the tableau is neither copied nor taken.
		return lpResult{iters: 1}, 0, err
	}
	lp := &ar.child
	if nd.branch == 0 {
		// nodeHeap pops the 0-branch after its sibling, so it is the slot's
		// last user: it takes the tableau instead of copying it.
		s.lp, *lp = *lp, s.lp
		s.tag = -1
	} else {
		lp.copyFrom(&s.lp)
	}
	lp.iters, lp.trace = 0, ar.trace
	lp.nz, lp.nzv = grow(&ar.nz, lp.stride), grow(&ar.nzv, lp.stride)
	lp.fixBasic(r, e, nd.v, val)
	err = lp.dualSimplex(4*(lp.m+8), objConst, lim)
	if err == nil && lp.iterate(200*(lp.m+lp.n+10), lp.artCol0) != nil {
		err = errColdStart // unbounded or stalled: numeric trouble
	}
	if err != nil {
		return lpResult{iters: lp.iters}, 0, err
	}
	return lp.result(grow(&ar.childX, lp.n)), objConst, nil
}

// copyFrom makes lp a copy of src (shape, tableau and its column maps,
// basis, reduced costs, costs, bounds and complement flags) in lp's own
// storage, which grows only.
func (lp *simplexLP) copyFrom(src *simplexLP) {
	tab, colVar, posOf, basis, zrow, cost := lp.tab, lp.colVar, lp.posOf, lp.basis, lp.zrow, lp.cost
	ub, flip := lp.ub, lp.flip
	src.ar.work += len(src.tab)
	*lp = *src
	lp.tab = append(tab[:0], src.tab...)
	lp.colVar = append(colVar[:0], src.colVar...)
	lp.posOf = append(posOf[:0], src.posOf...)
	lp.basis = append(basis[:0], src.basis...)
	lp.zrow = append(zrow[:0], src.zrow...)
	lp.cost = append(cost[:0], src.cost...)
	lp.ub = append(ub[:0], src.ub...)
	lp.flip = append(flip[:0], src.flip...)
}

// basicRow returns the row in which v is basic, -1 when v is nonbasic.
func (lp *simplexLP) basicRow(v int) int {
	for i, b := range lp.basis {
		if b == v {
			return i
		}
	}
	return -1
}

// priceFix prices fixBasic's pivot-out without changing lp: v, basic in row
// r of an optimal tableau, is fixed at val. v's column is the unit column of
// r, so substituting v = val changes only that row's rhs, to β_r − t with
// t = val (t = u − val when v is complemented, as the row then holds
// u − v), and drops the column. Row r is then left without a basic
// variable; the dual ratio test over the row picks the column e that
// replaces v, among those whose entry has the sign of β_r − t (so that
// column's value comes out nonnegative). z is the objective zrow[cols] the
// pivot leaves, computed with pivot's own arithmetic so that fixBasic
// leaves exactly z: as every reduced cost stays nonnegative, z bounds the
// child's LP optimum.
//
// r < 0 prices the fixing of a nonbasic v (e = −1): its column times t
// leaves every rhs, and z is the objective less d_v·t.
//
// ErrInfeasible when there is no entering column: the row then keeps v's
// value away from val for every x ≥ 0. When it keeps it away by no more
// than feasTol — possible only with an IntTol below feasTol — the cold solve
// judges (errColdStart), as in dualSimplex.
//
// Only the row's rhs, the objective and v's cost change before the ratio
// test, and dualEnter reads none of them, so pricing on the parent's saved
// tableau gives the verdict and e the child's copy would give.
func (lp *simplexLP) priceFix(r, v int, val float64) (e int, z float64, err error) {
	t := lp.fixValue(v, val)
	if r < 0 {
		return -1, lp.zrow[lp.cols] - lp.zrow[v]*t - lp.cost[v]*val, nil
	}
	row := lp.row(r)
	b := row[lp.w] - t
	z = lp.zrow[lp.cols] - lp.cost[v]*val
	s := 1.0
	if b < 0 {
		s = -1
	}
	if e = lp.dualEnter(r, s); e < 0 {
		if math.Abs(b) <= feasTol {
			return -1, 0, errColdStart // infeasible only within tolerance: let the cold solve judge
		}
		return -1, 0, ErrInfeasible
	}
	// pivot's reduced-cost update at the rhs position: forcePivot scales a
	// nonzero rhs by 1/a, and a nonzero reduced cost f of e subtracts f times
	// that.
	if f := lp.zrow[e]; f != 0 && b != 0 {
		z -= f * (b * (1 / row[lp.posOf[e]]))
	}
	return e, z, nil
}

// fixValue is the value the tableau's variable in v's place takes when v
// is fixed at val: val, or u − val when v is complemented.
func (lp *simplexLP) fixValue(v int, val float64) float64 {
	if lp.flip[v] {
		return lp.ub[v] - val
	}
	return val
}

// fixBasic carries out the fixing priceFix priced: v, basic in row r, is
// fixed at val and column e replaces it; with r < 0, v is nonbasic and is
// substituted out of every row. It counts one iteration.
func (lp *simplexLP) fixBasic(r, e, v int, val float64) {
	t := lp.fixValue(v, val)
	lp.flip[v] = false
	lp.iters++
	if r < 0 {
		if lp.trace != nil {
			*lp.trace = append(*lp.trace, pivotRec{v, -1})
		}
		q := lp.posOf[v]
		for i := 0; i < lp.m; i++ {
			row := lp.tab[i*lp.stride : (i+1)*lp.stride]
			if a := row[q]; a != 0 {
				row[lp.w] -= a * t
				row[q] = 0
			}
		}
		lp.ar.work += lp.m
		lp.zrow[lp.cols] = lp.zrow[lp.cols] - lp.zrow[v]*t - lp.cost[v]*val
		lp.zrow[v], lp.cost[v] = 0, 0
		return
	}
	row := lp.row(r)
	row[lp.w] -= t
	lp.zrow[lp.cols] -= lp.cost[v] * val
	lp.cost[v] = 0
	// v's dropped column has no nonzero left: the slot it takes over from
	// e comes out all zero.
	lp.pivot(r, e, 0)
}

// dualSimplex restores primal feasibility of a dual-feasible tableau: the
// row whose basic variable lies farthest outside its bounds leaves — one
// above its bound has its row complemented first, so that it leaves at 0
// like one below zero — and dualEnter picks the column that enters. When
// the leaving row has no entering column its equation has no solution
// within the bounds (ErrInfeasible). After maxIter pivots it gives up
// (errColdStart). Before each pivot, and before it returns an optimum, it
// holds the objective — an upper bound on the LP's optimum, which each dual
// pivot lowers — plus objConst to lim: at or below it, errCutoff.
func (lp *simplexLP) dualSimplex(maxIter int, objConst, lim float64) error {
	for it := 0; ; it++ {
		if lp.zrow[lp.cols]+objConst <= lim {
			return errCutoff
		}
		leave, worst, up := -1, zeroTol, false
		for i := 0; i < lp.m; i++ {
			b := lp.tab[i*lp.stride+lp.w]
			if -b > worst {
				leave, worst, up = i, -b, false
			} else if lp.nBound > 0 {
				if over := b - lp.ub[lp.basis[i]]; over > worst {
					leave, worst, up = i, over, true
				}
			}
		}
		lp.ar.work += lp.m
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
			return errColdStart // infeasible only within tolerance: let the cold solve judge
		}
		lp.pivot(leave, e, 1)
	}
}

// dualEnter is the dual ratio test on row r: among the non-artificial
// columns whose entry has sign s, the one with the smallest reduced cost per
// unit of entry, so that pivoting it in keeps every reduced cost
// nonnegative. Ties go to the larger entry, then to the lower column. -1
// when no entry has sign s.
//
// The tie window moves with the best ratio, so the candidates must be taken
// in variable order: the scan of the stored positions marks them in a bitset
// over the variables, whose set bits are then walked in order.
func (lp *simplexLP) dualEnter(r int, s float64) int {
	row := lp.row(r)
	lp.ar.work += lp.w
	cand := growz(&lp.ar.cand, (lp.artCol0+63)/64)
	for q, a := range row[:lp.w] {
		if j := lp.colVar[q]; a*s > pivTol && j < lp.artCol0 {
			cand[j/64] |= 1 << (j % 64)
		}
	}
	enter := -1
	best, bestPiv := math.Inf(1), 0.0
	for k, word := range cand {
		for ; word != 0; word &= word - 1 {
			j := 64*k + bits.TrailingZeros64(word)
			a := row[lp.posOf[j]] * s
			ratio := math.Max(lp.zrow[j], 0) / a
			switch {
			case ratio < best-1e-12:
				best, bestPiv, enter = ratio, a, j
			case ratio < best+1e-12 && a > bestPiv:
				best, bestPiv, enter = ratio, a, j
			}
		}
	}
	return enter
}
