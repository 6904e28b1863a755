package core

import (
	"fmt"
	"math"

	"threesigma/internal/dist"
	"threesigma/internal/job"
	"threesigma/internal/simulator"
)

// This file implements the Config.Checks runtime invariant assertions: the
// correctness obligations of the predict→schedule pipeline that are cheap
// enough to verify on the hot path but would otherwise fail silently (a
// negative capacity coefficient or a torn allocation changes scheduling
// outcomes without crashing anything). A violation panics with a diagnostic
// message; the flag is a debug/test aid, enabled by the sim/serverd tests
// and the correctness suite in internal/check.

// checkFailf reports an invariant violation.
func checkFailf(format string, args ...any) {
	panic("core: invariant violation: " + fmt.Sprintf(format, args...))
}

// checkOption asserts the Eq. 3 obligations of one generated option: shares
// are a non-negative proportional split that conserves gang size, and the
// survival curve is a monotone non-increasing probability starting at 1.
func (s *Scheduler) checkOption(o *option) {
	sum := 0.0
	for p, sh := range o.shares {
		if !(sh >= 0) { // also catches NaN
			checkFailf("job %d slot %d: negative share %g in partition %d (capacity clamp failed)",
				o.j.ID, o.slot, sh, p)
		}
		sum += sh
	}
	if diff := sum - float64(o.j.Tasks); diff > 1e-6 || diff < -1e-6 {
		checkFailf("job %d slot %d: shares sum to %g, want gang size %d",
			o.j.ID, o.slot, sum, o.j.Tasks)
	}
	prev := 1.0
	for k, c := range o.rc {
		if !(c >= 0 && c <= prev+1e-12) {
			checkFailf("job %d slot %d: consumption curve not a monotone survival: rc[%d]=%g after %g",
				o.j.ID, o.slot, k, c, prev)
		}
		prev = c
	}
	//lint:allow floateq the builder seeds rc[0] with the exact constant 1; any other bit pattern is the violation
	if len(o.rc) > 0 && o.rc[0] != 1 {
		checkFailf("job %d slot %d: rc[0]=%g, want 1 (option consumes its full gang at start)",
			o.j.ID, o.slot, o.rc[0])
	}
}

// checkMemo asserts cross-cycle memo coherence for one job: the page must
// have been built from the job's current distribution version, its
// survival curves must span the full plan-ahead window (a stale or
// truncated curve would be copied into option consumption coefficients),
// and each Eq. 1 grid it holds must be, bit for bit, the one its space
// class's distribution ods[space] gives afresh (nil: a space this cycle
// does not use).
func (s *Scheduler) checkMemo(id job.ID, pg *memoPage, ver uint64, ods [2]dist.Distribution) {
	if pg.ver != ver {
		checkFailf("job %d: memo page version %d, distribution version %d", id, pg.ver, ver)
	}
	for space, surv := range pg.surv {
		if surv != nil && len(surv) != s.cfg.Slots {
			checkFailf("job %d space %d: memoized survival curve has %d samples, want %d slots",
				id, space, len(surv), s.cfg.Slots)
		}
	}
	for space, od := range ods {
		if od == nil {
			continue
		}
		if err := pg.grid[space].Check(od); err != nil {
			checkFailf("job %d space %d: %v", id, space, err)
		}
	}
}

// checkCapacityRows asserts that every capacity-row coefficient attached to
// a placement variable (option indicator or exact-shares allocation var) is
// non-negative; only preemption credits may appear with negative sign.
func (b *builder) checkCapacityRows() {
	for r, key := range b.cur.rowKeys {
		if key.class != keyRowCap {
			continue
		}
		idx, coef, _ := b.model.RowEntries(r)
		for k, id := range idx {
			if b.cur.varKeys[id].class == keyVarP {
				if coef[k] > 0 {
					checkFailf("row %s: preemption credit %s has positive coefficient %g",
						b.model.RowName(r), b.model.VarName(id), coef[k])
				}
				continue
			}
			if !(coef[k] >= 0) { // also catches NaN
				checkFailf("row %s: placement var %s has negative coefficient %g",
					b.model.RowName(r), b.model.VarName(id), coef[k])
			}
		}
	}
}

// checkFinite walks the finished model for a number that is not one: the
// cycle's scratch is NaN-poisoned under Checks (see buildScratch), so a
// coefficient, right-hand side or objective term computed from something
// this cycle never wrote shows up here.
func (b *builder) checkFinite() {
	m := b.model
	check := func(what string, name func(int) string, i int, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			checkFailf("%s %s is %g", what, name(i), x)
		}
	}
	for v := 0; v < m.NumVars(); v++ {
		check("objective coefficient of", m.VarName, v, m.ObjCoef(v))
	}
	for r := 0; r < m.NumRows(); r++ {
		_, coef, rhs := m.RowEntries(r)
		check("right-hand side of row", m.RowName, r, rhs)
		for _, c := range coef {
			check("a coefficient of row", m.RowName, r, c)
		}
	}
}

// checkAlloc asserts gang-size conservation of a realized allocation: it
// draws exactly the job's gang from the free pool, never more than any
// partition has.
func (s *Scheduler) checkAlloc(o *option, alloc, free simulator.Alloc) {
	total := 0
	for p, n := range alloc {
		if n < 0 {
			checkFailf("job %d: negative allocation %d in partition %d", o.j.ID, n, p)
		}
		if n > free[p] {
			checkFailf("job %d: allocation %d exceeds %d free nodes in partition %d",
				o.j.ID, n, free[p], p)
		}
		total += n
	}
	if total != o.j.Tasks {
		checkFailf("job %d: allocation totals %d nodes, want gang size %d", o.j.ID, total, o.j.Tasks)
	}
}
