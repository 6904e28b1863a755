package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"threesigma/internal/dist"
	"threesigma/internal/job"
	"threesigma/internal/milp"
	"threesigma/internal/simulator"
)

// space classes for placement options. The paper's equivalence sets (§4.3.3)
// are modeled at two granularities per job: the job's preferred partitions
// (full speed) and the whole cluster (NonPrefFactor slowdown).
const (
	spacePref int8 = iota // spread over the job's preferred partitions
	spaceAny              // spread over all partitions
)

// ueState tracks §4.2.1 exponential under-estimate extension for a running
// job whose elapsed time passed its distribution's upper bound.
type ueState struct {
	bumps     int
	extFinish float64 // current extended finish estimate (absolute time)
}

// plan remembers a job's chosen option for warm-starting the next cycle's
// MILP (§4.3.6: "seeding each new cycle's MILP problem with the solution
// from the previous cycle").
type plan struct {
	space int8
	start float64
}

// incState carries the incremental re-solve state between cycles (DESIGN.md
// §12): the last snapshot epoch and a dirty flag decide whether a cycle is
// quiet, prev/spare double-buffer the cycle's model (each build writes into
// spare, is compared with prev, and the two swap), and lastSol, root basis
// included, feeds the next cycle's warm-started — or skipped — solve.
type incState struct {
	epoch     uint64    // engine epoch observed at the last cycle's snapshot
	jobsDirty bool      // per-job scheduler state changed since the last build
	prev      *buildRec // last cycle's model and keys
	spare     *buildRec // the buffer the next build writes into

	// lastSol is the previous cycle's solution, reused verbatim (no solve)
	// when this cycle's model is bitwise-identical to the previous one;
	// NoWarmBasis disables it along with the rest of the cross-cycle solver
	// reuse.
	lastSol milp.Solution
	haveSol bool
}

// Stats aggregates scheduler-side measurements (Fig. 12).
type Stats struct {
	Cycles         int
	SolveTime      time.Duration // cumulative
	MaxSolveTime   time.Duration
	CycleTime      time.Duration // cumulative (option gen + compile + solve)
	MaxCycleTime   time.Duration
	PredictTime    time.Duration // cumulative 3σPredict latency at submission
	MaxPredictTime time.Duration
	Predictions    int
	LastModel      milp.Stats
	MaxVars        int
	MaxRows        int
	Preemptions    int
	Starts         int
	AllocFailures  int // chosen slot-0 options whose discrete allocation failed
	Deferrals      int // chosen options planned for a later slot

	// Solver counters (cumulative over cycles).
	SolverNodes   int // branch-and-bound nodes explored
	SolverLPIters int // simplex pivots over all node relaxations
	// How each solve ended (a cycle answered with the previous solution
	// counts in none): proved — the search ran out of open nodes, Status
	// Optimal or Infeasible — or stopped unproved by the node budget or by
	// the deadline. ColdFallbacks counts the non-root nodes solved cold
	// because their parent's tableau could not be used (milp.Solution).
	SolverProved        int
	SolverNodeCapped    int
	SolverDeadlineStops int
	SolverColdFallbacks int
	// SpecLPs and SpecUsed counted the speculative LP workers' relaxations.
	// The workers are gone (the branch-and-bound is sequential, DESIGN.md
	// §6); the fields are retired, always 0, and stay only because bench/
	// reads them.
	SpecLPs  int
	SpecUsed int

	// Model-builder memoization counters (cross-cycle expected-utility and
	// survival-term cache; see memo.go).
	CacheHits   int
	CacheMisses int

	// Incremental re-solve counters (DESIGN.md §12): every cycle's MILP is
	// compared with the previous cycle's, and on a "quiet" cycle — no job or
	// node event since the previous snapshot — the verdict decides what the
	// solver may reuse. The names date from when a quiet cycle patched the
	// previous model; /v1/metrics and bench/ read them, so they stay.
	PatchedCycles     int // quiet cycles whose model kept the previous one's structure (keys, kinds, sparsity)
	RebuildFallbacks  int // quiet cycles whose option structure drifted anyway (e.g. a slot-0 utility crossed the pruning threshold)
	RowsPatched       int // over PatchedCycles: rows whose coefficients or RHS differ from the previous cycle's
	ColsPatched       int // over PatchedCycles: objective coefficients that differ
	WarmBasisReuses   int // root LPs restored from the previous optimal basis
	IncumbentSeedHits int // cycles whose warm-start seed became the first incumbent
	ReusedSolves      int // cycles answered with the previous solution (model bitwise-unchanged)
}

// CacheHitRate returns the fraction of builder term lookups served from the
// cross-cycle memo (0 when nothing was looked up).
func (st *Stats) CacheHitRate() float64 {
	tot := st.CacheHits + st.CacheMisses
	if tot == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(tot)
}

// Scheduler is a 3σSched instance implementing simulator.Scheduler.
type Scheduler struct {
	cfg Config
	est Estimator

	dists     map[job.ID]dist.Distribution
	distVer   map[job.ID]uint64 // bumped on every *changed* (re-)estimate
	ue        map[job.ID]*ueState
	planned   map[job.ID]plan
	abandoned map[job.ID]bool
	memo      *buildMemo
	inc       incState
	bld       builder // the cycle in progress; see builder for what may outlive it

	// statsMu guards stats. All scheduling entry points (JobSubmitted,
	// Cycle, JobCompleted, JobRemoved) must run on one goroutine — the maps
	// above are unsynchronized — but Stats() may be called concurrently with
	// them (the online service's /v1/metrics handler polls it mid-cycle).
	statsMu sync.Mutex
	stats   Stats // guarded by statsMu
}

// New returns a scheduler with the given estimator and configuration.
func New(est Estimator, cfg Config) *Scheduler {
	cfg.fill()
	return &Scheduler{
		cfg:       cfg,
		est:       est,
		dists:     make(map[job.ID]dist.Distribution),
		distVer:   make(map[job.ID]uint64),
		ue:        make(map[job.ID]*ueState),
		planned:   make(map[job.ID]plan),
		abandoned: make(map[job.ID]bool),
		memo:      newBuildMemo(),
	}
}

// Stats returns a copy of the accumulated measurements. Unlike the other
// scheduler methods it is safe to call from any goroutine, concurrently
// with a running Cycle.
func (s *Scheduler) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// SetClock re-bases the scheduler's timing (solver deadlines, latency
// stats) onto the given clock. It implements simulator.ClockAware so the
// simulator can inject its virtual clock; call it before the first cycle.
func (s *Scheduler) SetClock(c simulator.Clock) {
	if c != nil {
		s.cfg.Clock = c
	}
}

// Config returns the effective configuration (defaults filled).
func (s *Scheduler) Config() Config { return s.cfg }

// Estimator returns the scheduler's runtime estimator. The shard coordinator
// uses it to construct per-domain scheduler instances sharing one predictor
// (a single runtime-history database serves every domain, as one 3σPredict
// deployment would) and to feed completions of cross-domain jobs that no
// single domain owns.
func (s *Scheduler) Estimator() Estimator { return s.est }

// JobSubmitted estimates the job's runtime distribution (step 2 of Fig. 4)
// and caches it for the job's lifetime.
func (s *Scheduler) JobSubmitted(j *job.Job, now float64) {
	t0 := s.cfg.Clock.Now()
	d := s.est.EstimateDist(j)
	if !s.cfg.Policy.UseDistribution {
		// Point-estimate mode: collapse the distribution to its mean.
		d = dist.NewPoint(d.Mean())
	}
	lat := s.cfg.Clock.Since(t0)
	s.statsMu.Lock()
	s.stats.PredictTime += lat
	if lat > s.stats.MaxPredictTime {
		s.stats.MaxPredictTime = lat
	}
	s.stats.Predictions++
	s.statsMu.Unlock()
	s.setDist(j.ID, d)
}

// setDist installs a (re-)estimated distribution and advances the job's
// distribution version, invalidating its memoized builder terms. A
// re-estimate that reproduces the current distribution bit-for-bit is a
// no-op: the version (and with it every memoized expected-utility and
// survival term of the job) survives, and the cycle stays eligible for the
// incremental model-patch path. Before this check a predictor refresh over N
// jobs discarded all N memo pages even when only one estimate moved.
func (s *Scheduler) setDist(id job.ID, d dist.Distribution) {
	if old, ok := s.dists[id]; ok && dist.Same(old, d) {
		return
	}
	s.dists[id] = d
	s.distVer[id]++
	s.inc.jobsDirty = true
}

// Reestimate re-queries the estimator for a live job (the predictor may have
// learned from completions since submission) and installs the result via
// setDist's change detection: an unchanged distribution invalidates nothing.
func (s *Scheduler) Reestimate(j *job.Job) {
	d := s.est.EstimateDist(j)
	if !s.cfg.Policy.UseDistribution {
		d = dist.NewPoint(d.Mean())
	}
	s.setDist(j.ID, d)
}

// JobCompleted feeds the observed runtime back to the estimator (step 4 of
// Fig. 4) and clears per-job state.
func (s *Scheduler) JobCompleted(j *job.Job, baseRuntime, now float64) {
	s.est.Observe(j, baseRuntime)
	s.inc.jobsDirty = true
	delete(s.dists, j.ID)
	delete(s.distVer, j.ID)
	delete(s.ue, j.ID)
	delete(s.planned, j.ID)
	delete(s.abandoned, j.ID)
	s.memo.drop(j.ID)
}

// JobRemoved clears per-job state for a job that left the system without
// completing (cancelled via the online service's API). Unlike JobCompleted
// it feeds nothing back to the estimator: a cancelled job's elapsed time is
// not a runtime observation.
func (s *Scheduler) JobRemoved(id job.ID) {
	s.inc.jobsDirty = true
	delete(s.dists, id)
	delete(s.distVer, id)
	delete(s.ue, id)
	delete(s.planned, id)
	delete(s.abandoned, id)
	s.memo.drop(id)
}

// abandon marks a pending job as unschedulable (zero attainable utility)
// and sweeps every per-job resource except the abandoned marker itself.
// The marker must survive so selectPending keeps skipping the job while the
// cluster still lists it as pending; it is removed by JobCompleted /
// JobRemoved when the simulator or service retires the job. Without this
// sweep an abandoned job's distribution, version, and under-estimate
// entries would live for the remaining lifetime of a long-running daemon.
func (s *Scheduler) abandon(id job.ID, now float64) {
	s.abandoned[id] = true
	s.inc.jobsDirty = true
	delete(s.planned, id)
	delete(s.dists, id)
	delete(s.distVer, id)
	delete(s.ue, id)
	s.memo.drop(id)
	s.logDecision(DecisionEvent{Time: now, Kind: DecisionAbandon, Job: id})
}

// distFor returns the cached submission-time distribution, estimating
// lazily for jobs the scheduler has not seen (e.g. after a restart).
func (s *Scheduler) distFor(j *job.Job) dist.Distribution {
	if d, ok := s.dists[j.ID]; ok {
		return d
	}
	d := s.est.EstimateDist(j)
	if !s.cfg.Policy.UseDistribution {
		d = dist.NewPoint(d.Mean())
	}
	s.setDist(j.ID, d)
	return d
}

// runtimeFactor returns the slowdown for running off preferred resources.
func runtimeFactor(j *job.Job) float64 {
	if j.NonPrefFactor > 1 {
		return j.NonPrefFactor
	}
	return 1
}

// runningSurvival builds the residual survival function of a running job:
// P(still holding resources dt seconds from now), applying the Eq. 2
// conditional update and §4.2.1 under-estimate handling.
func (s *Scheduler) runningSurvival(r *simulator.RunningJob, now float64) func(dt float64) float64 {
	d := s.distFor(r.Job)
	if !r.OnPreferred {
		d = dist.NewScaled(d, runtimeFactor(r.Job))
	}
	elapsed := r.Elapsed(now)
	if elapsed < 0 {
		elapsed = 0
	}
	cond := dist.NewConditional(d, elapsed)
	if !cond.Exhausted() {
		delete(s.ue, r.Job.ID)
		return cond.SurvivalRemaining
	}
	// Distribution exhausted: the job ran longer than all history.
	remaining := s.ueRemaining(r.Job.ID, now)
	return func(dt float64) float64 {
		if dt < remaining {
			return 1
		}
		return 0
	}
}

// ueRemaining returns the assumed residual runtime of a running job whose
// distribution is exhausted: the §4.2.1 exponential finish-time extension
// when under-estimate handling is on, one cycle interval otherwise.
func (s *Scheduler) ueRemaining(id job.ID, now float64) float64 {
	if !s.cfg.Policy.Underestimate {
		return s.cfg.CycleInterval
	}
	st := s.ue[id]
	if st == nil {
		st = &ueState{bumps: 0, extFinish: now + s.cfg.CycleInterval}
		s.ue[id] = st
	}
	for now >= st.extFinish {
		st.bumps++
		st.extFinish = now + math.Pow(2, float64(st.bumps))*s.cfg.CycleInterval
	}
	return st.extFinish - now
}

// runningSurvCurve fills surv[k] with a running job's residual survival at
// the slot-grid times (surv[k] = P(still holding resources at times[k])),
// the per-slot values runningSurvival would produce, computed the cheap way:
// the Eq. 2 ratio S(times[k]−start)/S(now−start) has a `now`-dependent
// denominator (one evaluation per cycle) and grid-anchored numerators that
// repeat bitwise from cycle to cycle while the run persists, so the
// numerators are memoized on the job's page alongside the pending-side
// terms. The memo counters accumulate on b.
func (s *Scheduler) runningSurvCurve(r *simulator.RunningJob, now float64, times []float64, grid0 int64, surv []float64, b *builder) {
	d := s.distFor(r.Job)
	memo := s.memo.forJob(r.Job.ID, s.distVer[r.Job.ID])
	if !r.OnPreferred {
		d = memo.scaled(d, runtimeFactor(r.Job))
	}
	elapsed := r.Elapsed(now)
	if elapsed < 0 {
		elapsed = 0
	}
	den := dist.Survival(d, elapsed)
	if den > 0 {
		delete(s.ue, r.Job.ID)
		surv[0] = 1 // x/x: slot 0 samples at `now` exactly
		if start := math.Float64bits(r.Start); memo.runStart != start || memo.runOnPref != r.OnPreferred {
			memo.runStart, memo.runOnPref = start, r.OnPreferred
			clear(memo.run) // another run's numerators
		}
		for k := 1; k < len(times); k++ {
			num := b.cached(&memo.run, grid0+int64(k), func() float64 { return dist.Survival(d, times[k]-r.Start) })
			v := num / den
			// Same clamps as Conditional.SurvivalRemaining.
			if v > 1 {
				v = 1
			}
			if v < 0 {
				v = 0
			}
			surv[k] = v
		}
		return
	}
	// Distribution exhausted (under-estimate condition): flat survival until
	// the extended finish estimate.
	remaining := s.ueRemaining(r.Job.ID, now)
	for k := range times {
		if times[k]-now < remaining {
			surv[k] = 1
		} else {
			surv[k] = 0
		}
	}
}

// utilityFor builds the job's utility curve, applying over-estimate
// handling per policy (§4.2.2–4.2.3). A configured UtilityFn takes
// precedence (per-job administrator-defined utilities, §3.1).
func (s *Scheduler) utilityFor(j *job.Job, d dist.Distribution, now float64) job.Utility {
	if s.cfg.UtilityFn != nil {
		if u := s.cfg.UtilityFn(j); u != nil {
			return u
		}
	}
	if j.HasDeadline() {
		v := s.cfg.SLOWeight * float64(j.Tasks)
		oe := false
		switch s.cfg.Policy.Overestimate {
		case OEAlways:
			oe = true
		case OEAdaptive:
			// Deadline-minus-submit is the paper's proxy for the runtime
			// upper bound; if the distribution says the job (almost)
			// cannot fit that window, the distribution is likely skewed
			// toward over-estimation.
			window := j.Deadline - j.Submit
			if d.CDF(window) < s.cfg.OEThreshold {
				oe = true
			}
		}
		if oe {
			ext := s.cfg.OEExtFactor * (j.Deadline - j.Submit)
			if ext < s.cfg.SlotDur {
				ext = s.cfg.SlotDur
			}
			return job.ExtendedStepUtility{Value: v, Deadline: j.Deadline, Extension: ext}
		}
		return job.StepUtility{Value: v, Deadline: j.Deadline}
	}
	return job.DecayUtility{
		Value:  s.cfg.BEWeight * float64(j.Tasks),
		Start:  j.Submit,
		Window: s.cfg.BEDecayWindow,
		Floor:  s.cfg.BEFloor,
	}
}

// selectPending orders pending jobs by urgency (SLO by deadline, then BE by
// submission) and returns at most MaxPending of them, skipping abandoned
// jobs. The result lives in the cycle's scratch (see builder).
func (s *Scheduler) selectPending(pending []*job.Job, now float64) []*job.Job {
	b := &s.bld
	slo, be := b.slo[:0], b.be[:0]
	for _, j := range pending {
		if s.abandoned[j.ID] {
			continue
		}
		if j.HasDeadline() {
			// Drop hopeless SLO jobs; they would otherwise pin
			// consideration slots.
			if s.cfg.Hopeless(j, now) {
				s.abandon(j.ID, now)
				continue
			}
			slo = append(slo, j)
		} else {
			be = append(be, j)
		}
	}
	slices.SortStableFunc(slo, func(x, y *job.Job) int { return cmp.Compare(x.Deadline, y.Deadline) })
	slices.SortStableFunc(be, func(x, y *job.Job) int { return cmp.Compare(x.Submit, y.Submit) })
	b.slo, b.be = slo, be
	out := b.jobs[:0]
	// SLO jobs take priority for consideration slots, but reserve a
	// quarter of the window for BE jobs so they cannot starve outright.
	beReserve := s.cfg.MaxPending / 4
	sloQuota := s.cfg.MaxPending - beReserve
	if len(be) < beReserve {
		sloQuota = s.cfg.MaxPending - len(be)
	}
	for _, j := range slo {
		if len(out) >= sloQuota {
			break
		}
		out = append(out, j)
	}
	for _, j := range be {
		if len(out) >= s.cfg.MaxPending {
			break
		}
		out = append(out, j)
	}
	return out
}

// Cycle implements one §4.3.1 scheduling round.
func (s *Scheduler) Cycle(st *simulator.State) simulator.Decision {
	t0 := s.cfg.Clock.Now()
	dec := simulator.Decision{}
	b := s.buildModel(st)
	// Solution reuse: when the model is bitwise-identical to the previous
	// cycle's, the solver — a deterministic function of the model and its
	// warm inputs — would reproduce the previous solution exactly, so answer
	// with it outright.
	reused := b.unchanged && s.inc.haveSol && !s.cfg.NoWarmBasis
	var sol milp.Solution
	var warm []int
	if reused {
		sol = s.inc.lastSol
		// Work counters describe *this* cycle's solver effort: none.
		sol.Nodes, sol.LPIters = 0, 0
		sol.WarmPivots = 0
		sol.SeedUsed = false
		sol.Elapsed = 0
	} else {
		var seed []float64
		if !s.cfg.NoWarmStart {
			seed = b.seed()
		}
		// Restore the root LP from the previous cycle's optimal basis when
		// the model kept its shape.
		if b.warmOK && !s.cfg.NoWarmBasis {
			warm = s.inc.lastSol.RootBasis
		}
		sol = milp.Solve(b.model, milp.Options{
			Deadline:  s.cfg.Clock.Now().Add(s.cfg.SolverBudget),
			MaxNodes:  s.cfg.SolverMaxNodes,
			Gap:       1e-4,
			Seed:      seed,
			WarmBasis: warm,
			Now:       s.cfg.Clock.Now,
		})
		s.inc.lastSol = sol
		s.inc.haveSol = true
	}
	solveTime := sol.Elapsed
	s.extract(b, &sol, st, &dec)

	cycleTime := s.cfg.Clock.Since(t0)
	dec.CycleLatency = cycleTime
	dec.SolverLatency = solveTime
	ms := b.model.Stats()

	s.statsMu.Lock()
	s.stats.SolverNodes += sol.Nodes
	s.stats.SolverLPIters += sol.LPIters
	s.stats.Cycles++
	s.stats.SolveTime += solveTime
	if solveTime > s.stats.MaxSolveTime {
		s.stats.MaxSolveTime = solveTime
	}
	s.stats.CycleTime += cycleTime
	if cycleTime > s.stats.MaxCycleTime {
		s.stats.MaxCycleTime = cycleTime
	}
	s.stats.LastModel = ms
	if ms.Vars > s.stats.MaxVars {
		s.stats.MaxVars = ms.Vars
	}
	if ms.Rows > s.stats.MaxRows {
		s.stats.MaxRows = ms.Rows
	}
	s.stats.Preemptions += len(dec.Preempt)
	s.stats.Starts += len(dec.Start)
	if len(warm) > 0 && sol.WarmPivots > 0 {
		s.stats.WarmBasisReuses++
	}
	if sol.SeedUsed {
		s.stats.IncumbentSeedHits++
	}
	if reused {
		s.stats.ReusedSolves++
	} else {
		switch sol.Stopped {
		case milp.StopNodes:
			s.stats.SolverNodeCapped++
		case milp.StopDeadline:
			s.stats.SolverDeadlineStops++
		default:
			s.stats.SolverProved++
		}
		s.stats.SolverColdFallbacks += sol.ColdFallbacks
	}
	s.statsMu.Unlock()
	return dec
}

// extract converts the MILP solution into preemptions and slot-0 starts and
// refreshes the warm-start plan.
func (s *Scheduler) extract(b *builder, sol *milp.Solution, st *simulator.State, dec *simulator.Decision) {
	if sol.X == nil {
		return
	}
	deferrals, allocFailures := 0, 0
	defer func() {
		s.statsMu.Lock()
		s.stats.Deferrals += deferrals
		s.stats.AllocFailures += allocFailures
		s.statsMu.Unlock()
	}()
	// Preemptions first: they free capacity for slot-0 starts.
	freeAdj := simulator.Alloc(b.ints.take(len(st.Free)))
	copy(freeAdj, st.Free)
	for _, pv := range b.preempts {
		if sol.Value(pv.varIdx) > 0.5 {
			dec.Preempt = append(dec.Preempt, pv.r.Job.ID)
			for p, n := range pv.r.Alloc {
				freeAdj[p] += n
			}
			delete(s.planned, pv.r.Job.ID)
			s.logDecision(DecisionEvent{Time: st.Now, Kind: DecisionPreempt, Job: pv.r.Job.ID})
		}
	}
	// Chosen options; slot-0 SLO starts allocate before BE starts.
	chosen := b.chosen[:0]
	for i := range b.options {
		o := &b.options[i]
		if sol.Value(o.varIdx) > 0.5 {
			chosen = append(chosen, o)
		}
	}
	b.chosen = chosen
	slices.SortStableFunc(chosen, func(ca, cb *option) int {
		if (ca.j.Class == job.SLO) != (cb.j.Class == job.SLO) {
			if ca.j.Class == job.SLO {
				return -1
			}
			return 1
		}
		return cmp.Compare(cb.util, ca.util)
	})
	for _, o := range chosen {
		if o.slot > 0 {
			deferrals++
			s.planned[o.j.ID] = plan{space: o.space, start: o.start}
			s.logDecision(DecisionEvent{
				Time: st.Now, Kind: DecisionDefer, Job: o.j.ID,
				PlannedStart: o.start, Utility: o.util,
			})
			continue
		}
		var alloc simulator.Alloc
		if len(o.allocVars) > 0 {
			// ExactShares mode: realize the MILP's own allocation variables.
			alloc = allocFromSolution(o, sol, freeAdj)
		}
		if alloc == nil {
			alloc = GreedyAlloc(o.j, freeAdj, o.space == spacePref)
		}
		if alloc == nil {
			// Discretization mismatch: retry next cycle.
			allocFailures++
			delete(s.planned, o.j.ID)
			continue
		}
		if s.cfg.Checks {
			s.checkAlloc(o, alloc, freeAdj)
		}
		for p, n := range alloc {
			freeAdj[p] -= n
		}
		dec.Start = append(dec.Start, simulator.StartAction{Job: o.j.ID, Alloc: alloc})
		delete(s.planned, o.j.ID)
		onPref := true
		for p, n := range alloc {
			if n > 0 && !o.j.PrefersPartition(p) {
				onPref = false
				break
			}
		}
		s.logDecision(DecisionEvent{
			Time: st.Now, Kind: DecisionStart, Job: o.j.ID,
			PlannedStart: st.Now, OnPreferred: onPref, Utility: o.util,
		})
	}
}

// allocFromSolution rounds the ExactShares allocation variables of a chosen
// option to an integral gang (largest-remainder method), validating against
// the free nodes; it returns nil when the rounded allocation does not fit,
// in which case the caller falls back to the greedy allocator.
func allocFromSolution(o *option, sol *milp.Solution, free simulator.Alloc) simulator.Alloc {
	alloc := make(simulator.Alloc, len(free))
	type frac struct {
		p int
		f float64
	}
	var fracs []frac
	total := 0
	for ai, p := range o.allowed {
		v := sol.Value(o.allocVars[ai])
		if v < 0 {
			v = 0
		}
		w := int(v)
		alloc[p] = w
		total += w
		fracs = append(fracs, frac{p, v - float64(w)})
	}
	sort.Slice(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for _, fr := range fracs {
		if total >= o.j.Tasks {
			break
		}
		alloc[fr.p]++
		total++
	}
	if total < o.j.Tasks {
		return nil // LP under-allocated (should not happen; fall back)
	}
	// Trim any over-allocation from the smallest-fraction partitions.
	for i := len(fracs) - 1; i >= 0 && total > o.j.Tasks; i-- {
		p := fracs[i].p
		for alloc[p] > 0 && total > o.j.Tasks {
			alloc[p]--
			total--
		}
	}
	for p, n := range alloc {
		if n > free[p] {
			return nil
		}
	}
	return alloc
}

// GreedyAlloc realizes a gang as a concrete per-partition allocation from
// the free nodes: preferred partitions first (largest free count, then
// lowest index), then — unless preferredOnly — any partition, at the job's
// NonPrefFactor slowdown. It returns nil when the gang does not fit. The
// scheduler realizes a chosen option's space class with it (the any-class
// still fills preferred partitions first, so a job planned pessimistically
// at 1.5× may end up fully preferred and run at full speed); the shard
// coordinator places cross-domain gangs with it.
func GreedyAlloc(j *job.Job, free simulator.Alloc, preferredOnly bool) simulator.Alloc {
	alloc := make(simulator.Alloc, len(free))
	need := j.Tasks
	fill := func(onlyPreferred bool) {
		type pf struct{ p, free int }
		var ps []pf
		for p, f := range free {
			avail := f - alloc[p] // headroom beyond what we already took
			if avail <= 0 {
				continue
			}
			if onlyPreferred && !j.PrefersPartition(p) {
				continue
			}
			ps = append(ps, pf{p, avail})
		}
		sort.Slice(ps, func(a, b int) bool {
			if ps[a].free != ps[b].free {
				return ps[a].free > ps[b].free
			}
			return ps[a].p < ps[b].p
		})
		for _, e := range ps {
			if need == 0 {
				return
			}
			take := e.free
			if take > need {
				take = need
			}
			alloc[e.p] += take
			need -= take
		}
	}
	fill(true)
	if need > 0 {
		if preferredOnly {
			return nil // must stay on preferred resources
		}
		fill(false)
	}
	if need > 0 {
		return nil
	}
	return alloc
}
