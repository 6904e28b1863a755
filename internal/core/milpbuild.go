package core

import (
	"fmt"
	"math"
	"slices"

	"threesigma/internal/dist"
	"threesigma/internal/job"
	"threesigma/internal/milp"
	"threesigma/internal/simulator"
)

// option is one placement choice (space class × start slot) for a pending
// job, with its expected utility and expected resource consumption curve.
type option struct {
	j      *job.Job
	space  int8
	slot   int
	start  float64 // absolute start time
	util   float64
	varIdx int
	// shares is the per-partition node demand of this option (proportional
	// split over the allowed partitions). In ExactShares mode it is only
	// used for warm-start seeding and allocation fallback.
	shares []float64
	// rc[k] is the option's survival probability at the start of slot
	// slot+k (rc[0] == 1): expected resource consumption per Eq. 3.
	rc []float64
	// allowed lists the partitions this option may draw nodes from.
	allowed []int
	// allocVars are the continuous per-partition allocation variables of
	// the ExactShares formulation (parallel to allowed; nil otherwise).
	allocVars []int
}

// preemptVar is the indicator for preempting one running job (§4.3.5).
type preemptVar struct {
	r      *simulator.RunningJob
	varIdx int
	// surv[s] is the job's residual survival at slot s (capacity credit).
	surv []float64
}

// Logical identities for the incremental re-solve path (DESIGN.md §12).
// Every variable and row the builder emits carries a modelKey naming what it
// *means* — "the indicator of job 7 starting in space 1 at slot 3" — rather
// than where it landed. Two cycles whose key sequences match, kind for kind
// and row pattern for row pattern, have structurally identical models: the
// previous root basis fits the new model, and if the numbers match too the
// previous solution is the answer. Unused fields stay zero, keeping keys
// comparable with ==.
const (
	keyVarI      uint8 = iota // option indicator I[j,s,t]
	keyVarA                   // ExactShares allocation a[j,s,t,p]
	keyVarP                   // preemption indicator P[j]
	keyRowUbP                 // preemption upper bound ub_P[j]
	keyRowLink                // ExactShares gang link link[j,s,t]
	keyRowDemand              // at-most-one-option demand[j]
	keyRowCap                 // capacity cap[p,t]
)

type modelKey struct {
	class uint8
	job   job.ID
	space int8
	slot  int16
	part  int32
}

// keyName renders the key's debug name, matching the historical formats
// byte-for-byte (names feed EqualBitwise and the model dumps of the
// correctness suite).
func keyName(k modelKey) string {
	switch k.class {
	case keyVarI:
		return fmt.Sprintf("I[j%d,s%d,t%d]", k.job, k.space, k.slot)
	case keyVarA:
		return fmt.Sprintf("a[j%d,s%d,t%d,p%d]", k.job, k.space, k.slot, k.part)
	case keyVarP:
		return fmt.Sprintf("P[j%d]", k.job)
	case keyRowUbP:
		return fmt.Sprintf("ub_P[j%d]", k.job)
	case keyRowLink:
		return fmt.Sprintf("link[j%d,s%d,t%d]", k.job, k.space, k.slot)
	case keyRowDemand:
		return fmt.Sprintf("demand[j%d]", k.job)
	default:
		return fmt.Sprintf("cap[p%d,t%d]", k.part, k.slot)
	}
}

// buildRec is one cycle's model: the MILP itself, in the flat rows the
// solver reads, next to the logical key of each of its variables and rows.
// The scheduler double-buffers two (incState.prev/spare): a build resets the
// spare and writes straight into it, compare holds it against the previous
// cycle's, and the two swap — nothing is copied. The rec is also its model's
// milp.Namer, so nobody formats a debug name unless somebody asks.
type buildRec struct {
	varKeys []modelKey
	rowKeys []modelKey
	model   milp.Model
}

func (r *buildRec) reset() {
	r.varKeys, r.rowKeys = r.varKeys[:0], r.rowKeys[:0]
	r.model.Reset()
	r.model.Namer = r
}

// VarName and RowName implement milp.Namer.
func (r *buildRec) VarName(v int) string { return keyName(r.varKeys[v]) }
func (r *buildRec) RowName(i int) string { return keyName(r.rowKeys[i]) }

// builder is one cycle's MILP and the option bookkeeping needed to interpret
// its solution.
//
// Lifetime: a scheduler has one builder (Scheduler.bld) and reuses it and its
// storage for every cycle. A builder, its options, preempts and jobs, every
// slice they hold, and its model are valid until the same scheduler's next
// build, and no longer; what a cycle hands the engine (the Decision's starts,
// their Allocs, its preemptions) is allocated afresh.
type builder struct {
	s        *Scheduler
	model    *milp.Model // &cur.model
	cur      *buildRec
	jobs     []*job.Job
	options  []option
	preempts []preemptVar
	buildScratch

	quiet     bool // the snapshot and per-job state are the previous cycle's; only time moved
	stable    bool // quiet, and the model has the previous cycle's keys, kinds and sparsity
	warmOK    bool // previous root basis may seed this cycle's root LP
	unchanged bool // stable, and every number is bitwise the previous cycle's

	// Counters accumulated locally and flushed into Stats under the stats
	// lock once per build (Stats() may be polled concurrently).
	cacheHits   int
	cacheMisses int
	rowsChanged int // stable cycles: rows whose coefficients or RHS moved
	colsChanged int // stable cycles: objective coefficients that moved
}

// addVar adds a variable to the cycle's model and returns its index.
func (b *builder) addVar(key modelKey, kind milp.VarKind, obj float64) int {
	b.cur.varKeys = append(b.cur.varKeys, key)
	return b.cur.model.AddVar(kind, obj, "")
}

// addRow adds the sparse constraint Sum(coef·x[idx]) <= rhs to the cycle's
// model (AddLE copies idx and coef, dropping zero coefficients).
func (b *builder) addRow(key modelKey, idx []int, coef []float64, rhs float64) {
	b.cur.rowKeys = append(b.cur.rowKeys, key)
	b.cur.model.AddLE("", idx, coef, rhs)
}

// compare holds the finished model against the previous cycle's, in one pass,
// and retires it into incState for the next cycle to be held against. On a
// quiet cycle: warmOK when the variable and row counts match (the previous
// root basis is then a usable crash start — a stale one costs pivots, never
// correctness); stable when key sequences, kinds and sparsity match too
// (Stats.PatchedCycles, otherwise RebuildFallbacks); unchanged when so does
// every number — the solver is a deterministic function of the model and its
// warm inputs, so Cycle answers with the previous solution without solving.
func (b *builder) compare() {
	inc := &b.s.inc
	cur, prev := b.cur, inc.prev
	if b.quiet { // a quiet cycle has a previous one
		b.warmOK = len(prev.varKeys) == len(cur.varKeys) && len(prev.rowKeys) == len(cur.rowKeys)
		if b.warmOK && slices.Equal(prev.varKeys, cur.varKeys) && slices.Equal(prev.rowKeys, cur.rowKeys) {
			b.stable, b.rowsChanged, b.colsChanged = milp.Delta(&prev.model, &cur.model)
			b.unchanged = b.stable && b.rowsChanged == 0 && b.colsChanged == 0
		}
	}
	inc.prev, inc.spare = cur, prev
}

// buildModel translates the cluster state into the cycle's MILP (§4.3.1
// steps 1–4).
func (s *Scheduler) buildModel(st *simulator.State) *builder {
	cfg := &s.cfg
	b := &s.bld
	*b = builder{s: s, jobs: b.jobs[:0], options: b.options[:0], preempts: b.preempts[:0], buildScratch: b.buildScratch}
	b.f64.reset(cfg.Checks, math.NaN())
	b.ints.reset(cfg.Checks, -1)
	now := st.Now
	// Quantized model-evaluation clock (Config.SolveQuantum): every value
	// below derives from this `now`, so cycles within one quantum that saw
	// no event record bitwise-identical models — the precondition for the
	// solution-reuse fast path in Cycle.
	if q := cfg.SolveQuantum; q > 0 {
		now = math.Floor(now/q) * q
	}
	nParts := len(st.Cluster.Partitions)
	slots := cfg.Slots

	// A cycle is quiet when the snapshot shows what the last build's did
	// (the same free and partition vectors, pending and running jobs — only
	// time advanced) and no scheduler-side per-job state moved (re-estimate,
	// abandonment, removal). Quiet cycles are the warm-start and
	// solution-reuse candidates. The dirty flag is cleared *before*
	// generation: an abandonment fired during this build dirties the next
	// cycle, and this cycle's own structural drift is caught by compare.
	b.quiet = s.inc.prev != nil && !s.inc.jobsDirty && s.inc.fp.same(st)
	if !b.quiet {
		s.inc.fp.capture(st)
	}
	s.inc.jobsDirty = false
	if s.inc.spare == nil {
		s.inc.spare = &buildRec{}
	}
	b.cur, b.model = s.inc.spare, &s.inc.spare.model
	b.cur.reset()

	// Slot start times are anchored to an *absolute* grid (slot 0 = now,
	// later slots at multiples of SlotDur in wall-clock time). Anchoring at
	// `now` instead would shift every deferred plan's start a little later
	// each cycle, eroding its expected utility until the scheduler
	// needlessly preempts; on the absolute grid a plan like "start when
	// the running job's distribution max passes" stays put.
	times := b.f64.take(slots)
	offsets := b.f64.take(slots) // times[k] − now
	times[0], offsets[0] = now, 0
	// grid0 is the absolute slot index of the grid slot at or before now;
	// computing each slot time as (grid0+k)·SlotDur (rather than
	// base + k·SlotDur) makes the same grid slot produce the bitwise-same
	// start time in every cycle, which is what lets the memo below reuse
	// expected-utility terms across cycles.
	grid0 := int64(math.Floor(now / cfg.SlotDur))
	for k := 1; k < slots; k++ {
		times[k] = float64(grid0+int64(k)) * cfg.SlotDur
		offsets[k] = times[k] - now
	}

	// Expected available capacity per (partition, slot), partition p's slots
	// at capacity[p*slots:]: cluster capacity minus the running jobs'
	// expected residual consumption (§3.2).
	// st.Cluster is the engine's *effective* (down-adjusted) shape, so under
	// fault injection the Eq. 3 capacity rows and the preferred-partition
	// feasibility check below track the live node count, not the
	// provisioned ideal.
	capacity := b.f64.take(nParts * slots)
	for p := 0; p < nParts; p++ {
		row := capacity[p*slots : (p+1)*slots]
		for k := range row {
			row[k] = float64(st.Cluster.Partitions[p])
		}
	}
	// runSurv holds the running jobs' residual survival curves, job i's at
	// runSurv[i*slots:].
	runSurv := b.f64.take(len(st.Running) * slots)
	for i, r := range st.Running {
		surv := runSurv[i*slots : (i+1)*slots]
		s.runningSurvCurve(r, now, times, grid0, surv, b)
		for p, n := range r.Alloc {
			if n == 0 {
				continue // subtracting 0·surv, a +0, changes no capacity's bits
			}
			for k := 0; k < slots; k++ {
				capacity[p*slots+k] -= float64(n) * surv[k]
			}
		}
	}

	// Preemption indicators for running best-effort jobs (§4.3.5).
	if cfg.Policy.Preemption {
		for i, r := range st.Running {
			if r.Job.Class != job.BestEffort {
				continue
			}
			elapsed := r.Elapsed(now)
			cost := beWeight * float64(r.Job.Tasks) * (preemptBase + elapsed/beDecayWindow)
			v := b.addVar(modelKey{class: keyVarP, job: r.Job.ID}, milp.Binary, -cost)
			b.addRow(modelKey{class: keyRowUbP, job: r.Job.ID}, []int{v}, []float64{1}, 1)
			b.preempts = append(b.preempts, preemptVar{r: r, varIdx: v, surv: runSurv[i*slots : (i+1)*slots]})
		}
	}

	// Option generation reasons about the capacity that *could* be made
	// available, including by preempting running best-effort jobs; the
	// capacity rows below still charge actual expected capacity, with the
	// preemption credits as indicator-gated terms.
	relaxedCap := capacity
	if len(b.preempts) > 0 {
		relaxedCap = b.f64.take(nParts * slots)
		copy(relaxedCap, capacity)
		for i := range b.preempts {
			pv := &b.preempts[i]
			for p, n := range pv.r.Alloc {
				if n == 0 {
					continue
				}
				for k := 0; k < slots; k++ {
					relaxedCap[p*slots+k] += float64(n) * pv.surv[k]
				}
			}
		}
	}

	allParts := b.ints.take(nParts)
	for p := range allParts {
		allParts[p] = p
	}

	// Placement options for the selected pending jobs.
	b.jobs = s.selectPending(st.Pending, now)
	for _, j := range b.jobs {
		d := s.distFor(j)
		memo := s.memo.forJob(j.ID, s.distVer[j.ID])
		// The utility curve is a function of the job and its distribution,
		// so it stays on the page.
		if memo.util == nil {
			memo.util = s.utilityFor(j, d)
		}
		util := memo.util
		type spaceChoice struct {
			space  int8
			factor float64
		}
		spaces := make([]spaceChoice, 0, 2) // stays on the stack
		constrained := len(j.Preferred) > 0 && len(j.Preferred) < nParts
		if constrained {
			// Preferred spread at full speed; whole-cluster spread pays
			// the slowdown.
			prefNodes := 0
			for _, p := range j.Preferred {
				if p >= 0 && p < nParts {
					prefNodes += st.Cluster.Partitions[p]
				}
			}
			if prefNodes >= j.Tasks {
				spaces = append(spaces, spaceChoice{spacePref, 1})
			}
			spaces = append(spaces, spaceChoice{spaceAny, runtimeFactor(j)})
		} else {
			spaces = append(spaces, spaceChoice{spaceAny, 1})
		}
		if cfg.Checks {
			var ods [2]dist.Distribution
			for _, sc := range spaces {
				ods[sc.space] = memo.scaled(d, sc.factor)
			}
			s.checkMemo(j.ID, memo, s.distVer[j.ID], ods)
		}
		b.jobVars = b.jobVars[:0]
		anyUtility := false // any space has nonzero utility at an immediate start
		for _, sc := range spaces {
			od := memo.scaled(d, sc.factor)
			grid := &memo.grid[sc.space]
			// Eq. 1 at an immediate start (times[0] == now): the abandonment
			// test below and the slot-0 option's utility are the same
			// integral, taken once. It moves with now and is summed every
			// cycle, over the page's grid.
			euNow := grid.ExpectedUtility(od, util, now, utilitySteps)
			if euNow > 1e-9 {
				anyUtility = true
			}
			// Survival curve sampled on the slot grid, shared by every
			// grid-aligned option of this (job, space): a start at slot k
			// consumes capacity in slot k2 with probability surv[k2−k].
			// Cached across cycles; invalidated by distribution updates.
			surv := memo.surv[sc.space]
			if surv != nil {
				b.cacheHits++
			} else {
				surv = make([]float64, slots)
				for dk := 0; dk < slots; dk++ {
					surv[dk] = dist.Survival(od, float64(dk)*cfg.SlotDur)
				}
				memo.surv[sc.space] = surv
				b.cacheMisses++
			}
			allowed := allParts
			if sc.space == spacePref {
				allowed = j.Preferred
			}
			// Deferral options exist so deadline jobs can wait for
			// preferred (or freed) resources. Best-effort jobs only lose
			// utility by waiting, and window-edge truncation would
			// otherwise make late starts look artificially cheap, so they
			// get immediate-start options only — a BE job that does not
			// fit now is simply reconsidered next cycle.
			jobSlots := slots
			if !j.HasDeadline() {
				jobSlots = 1
			}
			for k := 0; k < jobSlots; k++ {
				// Spread the gang proportionally to the *expected free
				// capacity* of the allowed partitions at this start slot —
				// a planning approximation of the paper's per-partition
				// allocation variables ("the sum of allocations from
				// different resource partitions is equal to k", §4.3.3)
				// that lets a busy partition carry zero share instead of
				// blocking the whole option.
				// Per-partition expected capacity is clamped at 0 before the
				// proportional split: under fault injection a partition's
				// expected capacity goes negative when evictions lag the
				// capacity shrinkage (running jobs still charge a partition
				// that just lost nodes), and an unclamped split would hand
				// this option negative shares — i.e. negative capacity-row
				// coefficients — in that partition while overshooting the
				// healthy ones. Fault-free, every term is non-negative and
				// the clamp changes no bits.
				avail := 0.0
				for _, p := range allowed {
					if c := relaxedCap[p*slots+k]; c > 0 {
						avail += c
					}
				}
				if avail < float64(j.Tasks)*0.999 {
					continue // cannot start in this slot even with preemption
				}
				// Expected utility of this start. Grid-aligned starts
				// (k >= 1) recur with bitwise-identical start times every
				// cycle, so the Eq. 1 integration is memoized per
				// (space, absolute grid slot); slot 0 starts at `now` and
				// is summed afresh every cycle (euNow).
				start := times[k]
				eu := euNow
				if k > 0 {
					eu = b.cached(&memo.eu[sc.space], grid0+int64(k), func() float64 {
						return grid.ExpectedUtility(od, util, start, utilitySteps)
					})
				}
				if eu <= 1e-9 {
					continue // zero-utility term: prune (§4.3.6)
				}
				// Earlier-is-better bonus for best-effort jobs. Old BE jobs
				// sit at their utility floor, where every slot is
				// objective-neutral and the budgeted solver has no pressure
				// to realize starts promptly. SLO jobs get only a hair of
				// bonus: deferring them must stay "free" so the scheduler
				// can trade their slack for BE latency (§2.3 scenario 2).
				if j.Class == job.BestEffort {
					eu += 0.05 * eu * float64(slots-k) / float64(slots)
				} else {
					eu += 1e-3 * eu * float64(slots-k) / float64(slots)
				}
				o := option{
					j:       j,
					space:   sc.space,
					slot:    k,
					start:   start,
					util:    eu,
					shares:  b.f64.take(nParts),
					rc:      b.f64.take(slots - k),
					allowed: allowed,
				}
				clear(o.shares)
				for _, p := range allowed {
					if c := relaxedCap[p*slots+k]; c > 0 {
						o.shares[p] = float64(j.Tasks) * c / avail
					}
				}
				if k == 0 {
					dist.Survivals(od, offsets, o.rc)
				} else {
					// Grid-aligned: times[k2] − start == (k2−k)·SlotDur, the
					// exact offsets the memoized curve was sampled at.
					copy(o.rc, surv[:slots-k])
				}
				o.varIdx = b.addVar(modelKey{class: keyVarI, job: j.ID, space: sc.space, slot: int16(k)},
					milp.Binary, eu)
				if cfg.ExactShares {
					// §4.3.3 demand constraint (a): continuous allocation
					// variables a_{o,p} with Σ_p a_op >= k·I_o (the LP
					// never over-allocates since allocations only consume
					// capacity).
					o.allocVars = b.ints.take(len(allowed))
					idx := append(b.rowIdx[:0], o.varIdx)
					coef := append(b.rowCoef[:0], float64(j.Tasks))
					for ai, p := range allowed {
						av := b.addVar(modelKey{class: keyVarA, job: j.ID, space: sc.space, slot: int16(k), part: int32(p)},
							milp.Continuous, 0)
						o.allocVars[ai] = av
						idx = append(idx, av)
						coef = append(coef, -1)
					}
					b.addRow(modelKey{class: keyRowLink, job: j.ID, space: sc.space, slot: int16(k)}, idx, coef, 0)
					b.rowIdx, b.rowCoef = idx, coef
				}
				if cfg.Checks {
					s.checkOption(&o)
				}
				b.options = append(b.options, o)
				b.jobVars = append(b.jobVars, o.varIdx)
			}
		}
		if len(b.jobVars) > 0 {
			ones := b.f64.take(len(b.jobVars))
			for i := range ones {
				ones[i] = 1
			}
			b.addRow(modelKey{class: keyRowDemand, job: j.ID}, b.jobVars, ones, 1)
		}
		if !anyUtility && j.HasDeadline() {
			// Even an immediate start earns zero utility, and deadline
			// utilities are non-increasing in start time, so this job can
			// never earn utility again: abandon it now rather than letting
			// it clog the consideration window (it would crowd out
			// feasible jobs under EDF ordering). Capacity-blocked jobs are
			// NOT abandoned — they regain options when resources free up.
			s.abandon(j.ID, now)
		}
	}

	// Capacity constraints per (partition, slot), Eq. 3 with preemption
	// credits moved to the left-hand side. An option with no share of
	// partition p, or a running job with no nodes in it, puts 0·x (or NaN)
	// in each of p's rows, which the > 1e-9 test drops, so p's rows walk
	// only the options and credits listed for p. ExactShares options carry
	// their terms on the allocation variables and are all listed.
	optStart, optIdx := partIndex(&b.ints, nParts, len(b.options), func(i, p int) bool {
		return cfg.ExactShares || b.options[i].shares[p] != 0
	})
	preStart, preIdx := partIndex(&b.ints, nParts, len(b.preempts), func(i, p int) bool {
		return b.preempts[i].r.Alloc[p] != 0
	})
	for p := 0; p < nParts; p++ {
		for k := 0; k < slots; k++ {
			idx, coef := b.rowIdx[:0], b.rowCoef[:0]
			for _, i := range optIdx[optStart[p]:optStart[p+1]] {
				o := &b.options[i]
				if k < o.slot {
					continue
				}
				if cfg.ExactShares {
					// The allocation variables, not the indicator, carry
					// the per-partition consumption.
					for ai, ap := range o.allowed {
						if ap != p {
							continue
						}
						if c := o.rc[k-o.slot]; c > 1e-9 {
							idx = append(idx, o.allocVars[ai])
							coef = append(coef, c)
						}
					}
					continue
				}
				c := o.shares[p] * o.rc[k-o.slot]
				if c > 1e-9 {
					idx = append(idx, o.varIdx)
					coef = append(coef, c)
				}
			}
			for _, i := range preIdx[preStart[p]:preStart[p+1]] {
				pv := &b.preempts[i]
				c := float64(pv.r.Alloc[p]) * pv.surv[k]
				if c > 1e-9 {
					idx = append(idx, pv.varIdx)
					coef = append(coef, -c)
				}
			}
			b.rowIdx, b.rowCoef = idx, coef
			if len(idx) == 0 {
				continue
			}
			b.addRow(modelKey{class: keyRowCap, part: int32(p), slot: int16(k)}, idx, coef, capacity[p*slots+k])
		}
	}
	b.compare()
	if cfg.Checks {
		b.checkCapacityRows()
		b.checkFinite()
	}
	s.statsMu.Lock()
	s.stats.CacheHits += b.cacheHits
	s.stats.CacheMisses += b.cacheMisses
	if b.stable {
		s.stats.PatchedCycles++
		s.stats.RowsPatched += b.rowsChanged
		s.stats.ColsPatched += b.colsChanged
	} else if b.quiet {
		s.stats.RebuildFallbacks++
	}
	s.statsMu.Unlock()
	return b
}

// partIndex lists, for every partition p, the items i < n with in(i, p), in
// item order: partition p's are idx[start[p]:start[p+1]]. Both slices come
// from the arena.
func partIndex(a *bump[int], nParts, n int, in func(i, p int) bool) (start, idx []int) {
	start, idx = a.take(nParts+1), a.take(n*nParts)
	m := 0
	for p := 0; p < nParts; p++ {
		start[p] = m
		for i := 0; i < n; i++ {
			if in(i, p) {
				idx[m] = i
				m++
			}
		}
	}
	start[nParts] = m
	return start, idx
}

// seed builds the warm-start vector from the previous cycle's plan
// (§4.3.6): each planned job re-selects the option nearest its previously
// chosen space and start time; running jobs stay running (preempt = 0).
func (b *builder) seed() []float64 {
	if b.model.NumVars() == 0 {
		return nil
	}
	x := b.f64.take(b.model.NumVars())
	clear(x)
	half := b.s.cfg.SlotDur / 2
	// A job's options are contiguous in b.options, so the one job whose
	// option was seeded last is all there is to remember.
	var seeded *job.Job
	for i := range b.options {
		o := &b.options[i]
		if o.j == seeded {
			continue
		}
		pl, ok := b.s.planned[o.j.ID]
		if !ok || pl.space != o.space {
			continue
		}
		if math.Abs(pl.start-o.start) <= half {
			x[o.varIdx] = 1
			if len(o.allocVars) > 0 {
				for ai, p := range o.allowed {
					x[o.allocVars[ai]] = o.shares[p]
				}
			}
			seeded = o.j
		}
	}
	return x
}
