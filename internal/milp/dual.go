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
// basis, and the dual simplex repairs whatever rhs values went negative.

// errColdStart reports that a child cannot be re-solved from its parent's
// tableau: the slot holds another node's, or the dual simplex hit its
// iteration cap or ran into numeric trouble. The child is then solved cold
// and Solution.ColdFallbacks counts it.
var errColdStart = errors.New("milp: child needs a cold solve")

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
func (ar *lpArena) solveChild(m *Model, nd *bbNode) (lpResult, float64, error) {
	d := nd.depth - 1
	if d >= len(ar.slots) || ar.slots[d].tag != nd.parent {
		return lpResult{}, 0, errColdStart
	}
	s := &ar.slots[d]
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
	objConst := s.objConst
	if nd.branch == 1 {
		objConst += m.obj[nd.v]
	}
	err := lp.fixBasic(nd.v, float64(nd.branch))
	if err == nil {
		err = lp.dualSimplex(4 * (lp.m + 8))
	}
	if err == nil && lp.iterate(200*(lp.m+lp.n+10), lp.artCol0) != nil {
		err = errColdStart // unbounded or stalled: numeric trouble
	}
	if err != nil {
		return lpResult{iters: lp.iters}, 0, err
	}
	return lp.result(grow(&ar.childX, lp.n)), objConst, nil
}

// copyFrom makes lp a copy of src (shape, tableau and its column maps,
// basis, reduced costs, costs) in lp's own storage, which grows only.
func (lp *simplexLP) copyFrom(src *simplexLP) {
	tab, colVar, posOf, basis, zrow, cost := lp.tab, lp.colVar, lp.posOf, lp.basis, lp.zrow, lp.cost
	*lp = *src
	lp.tab = append(tab[:0], src.tab...)
	lp.colVar = append(colVar[:0], src.colVar...)
	lp.posOf = append(posOf[:0], src.posOf...)
	lp.basis = append(basis[:0], src.basis...)
	lp.zrow = append(zrow[:0], src.zrow...)
	lp.cost = append(cost[:0], src.cost...)
}

// fixBasic fixes the basic variable v at val in an optimal tableau. v's
// column is the unit column of its row r, so substituting v = val changes
// only that row's rhs, to β_r − val, and drops the column. Row r is then left
// without a basic variable; the dual ratio test over the row picks the
// column that replaces v, among those whose entry has the sign of β_r − val
// (so that column's value comes out nonnegative). ErrInfeasible when there
// is no such column: the row then keeps v's value away from val for every
// x ≥ 0. When it keeps it away by no more than feasTol — possible only with
// an IntTol below feasTol — the cold solve judges (errColdStart), as in
// dualSimplex.
func (lp *simplexLP) fixBasic(v int, val float64) error {
	r := -1
	for i, b := range lp.basis {
		if b == v {
			r = i
			break
		}
	}
	if r < 0 {
		return errColdStart // a fractional variable is basic; this is not its parent's tableau
	}
	row := lp.row(r)
	row[lp.w] -= val
	lp.zrow[lp.cols] -= lp.cost[v] * val
	lp.cost[v] = 0
	s := 1.0
	if row[lp.w] < 0 {
		s = -1
	}
	lp.iters++
	e := lp.dualEnter(r, s)
	if e < 0 {
		if math.Abs(row[lp.w]) <= feasTol {
			return errColdStart // infeasible only within tolerance: let the cold solve judge
		}
		return ErrInfeasible
	}
	// v's dropped column has no nonzero left: the slot it takes over from
	// e comes out all zero.
	lp.pivot(r, e, 0)
	return nil
}

// dualSimplex restores primal feasibility of a dual-feasible tableau: the
// row with the most negative rhs leaves, and dualEnter picks the column that
// enters. When the leaving row has no entering column its equation has no
// solution with x ≥ 0 (ErrInfeasible). After maxIter pivots it gives up
// (errColdStart).
func (lp *simplexLP) dualSimplex(maxIter int) error {
	for it := 0; ; it++ {
		leave, worst := -1, -zeroTol
		for i := 0; i < lp.m; i++ {
			if b := lp.tab[i*lp.stride+lp.w]; b < worst {
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
