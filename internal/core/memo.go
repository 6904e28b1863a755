package core

import (
	"threesigma/internal/dist"
	"threesigma/internal/job"
)

// buildMemo caches the model-builder terms that are stable across scheduling
// cycles. Deferral options (start slot >= 1) sit on an absolute time grid
// (multiples of SlotDur), so their expected utility and their survival-based
// expected-consumption coefficients are identical from one cycle to the next
// as long as the job's runtime distribution has not changed; only slot-0
// options depend on `now`. Each job's page carries the distribution version
// it was built from — a predictor update bumps the version and the page is
// discarded on next access, and job completion drops it outright.
type buildMemo struct {
	jobs map[job.ID]*memoPage
}

// slotTerm is one cached term of an absolute grid slot. The per-slot terms of
// a page live in rings of Slots entries indexed by grid slot mod Slots: a
// cycle asks only for the Slots−1 slots after its own and time does not run
// backwards, so a slot's entry is overwritten (by the slot one window later)
// only once nobody can ask for it again. A job that stays pending or running
// for hours therefore holds one window of terms, not one per elapsed slot.
type slotTerm struct {
	grid int64 // absolute slot index: time / SlotDur
	val  float64
	ok   bool
}

// memoPage is one job's cached terms.
type memoPage struct {
	ver uint64
	// eu[space] holds, per grid slot, the raw expected utility of starting
	// there in that space class (before the earlier-is-better bonus, which
	// depends on the cycle-relative slot index).
	eu [2][]slotTerm
	// surv[space] is the space class's survival curve sampled on the slot
	// grid: surv[dk] = P(runtime > dk·SlotDur). Serves every grid-aligned
	// option of the job, since a start at slot k consumes capacity in slot
	// k2 with probability surv[k2−k]. nil until first used.
	surv [2][]float64
	// run holds, per grid slot, the unconditional survival numerator of the
	// Eq. 2 update while the job is *running*: S(slot time − start). It
	// belongs to one run — runStart and runOnPref identify it, and a
	// preemption and restart, which changes both, empties it; the
	// conditional denominator S(now − start) depends on `now` and is
	// recomputed every cycle (one evaluation instead of one per slot).
	run       []slotTerm
	runStart  uint64 // math.Float64bits of the run's start time
	runOnPref bool   // run placed entirely on preferred resources
	// grid[space] is the space class's Eq. 1 integration grid, its CDF
	// taken once per upper limit: the slot-0 integral of every cycle and
	// the grid-slot integrals read it, and while the limit stays the
	// distribution's maximum (no horizon, or one that does not bind) it is
	// never taken again.
	grid [2]job.Grid
	// slow is the job's distribution stretched by its off-preferred
	// slowdown (runtimeFactor), util its utility curve — an
	// administrator's UtilityFn or the built-in one, adaptive over-estimate
	// test included: functions of the job and its distribution alone. nil
	// until first used.
	slow dist.Distribution
	util job.Utility
}

func newBuildMemo() *buildMemo {
	return &buildMemo{jobs: make(map[job.ID]*memoPage)}
}

// forJob returns the job's memo page for the given distribution version,
// discarding any page built from an older distribution.
func (m *buildMemo) forJob(id job.ID, ver uint64) *memoPage {
	pg := m.jobs[id]
	if pg == nil || pg.ver != ver {
		pg = &memoPage{ver: ver}
		m.jobs[id] = pg
	}
	return pg
}

// drop forgets a job's page (completion, abandonment, or resubmission).
func (m *buildMemo) drop(id job.ID) {
	delete(m.jobs, id)
}

// cached returns grid slot grid's term from the ring (made on first use),
// computing and storing it on a miss, and counts the hit or the miss.
func (b *builder) cached(ring *[]slotTerm, grid int64, compute func() float64) float64 {
	if *ring == nil {
		*ring = make([]slotTerm, b.s.cfg.Slots)
	}
	e := &(*ring)[uint64(grid)%uint64(len(*ring))]
	if e.ok && e.grid == grid {
		b.cacheHits++
	} else {
		*e = slotTerm{grid, compute(), true}
		b.cacheMisses++
	}
	return e.val
}

// scaled returns d stretched by factor, d being the distribution the page
// was built from and factor either 1 or the job's runtimeFactor.
func (pg *memoPage) scaled(d dist.Distribution, factor float64) dist.Distribution {
	if factor <= 1 {
		return d
	}
	if pg.slow == nil {
		pg.slow = dist.NewScaled(d, factor)
	}
	return pg.slow
}
