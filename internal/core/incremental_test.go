package core

import (
	"math"
	"reflect"
	"testing"

	"threesigma/internal/dist"
	"threesigma/internal/job"
	"threesigma/internal/metrics"
	"threesigma/internal/milp"
	"threesigma/internal/simulator"
	"threesigma/internal/workload"
)

// incScenario returns a state with two deadline jobs and one running BE job
// — enough structure to exercise demand rows, capacity rows, and a
// preemption indicator.
func incScenario(now float64) *simulator.State {
	a := &job.Job{ID: 1, Class: job.SLO, Submit: 0, Deadline: 4000, Tasks: 2,
		Runtime: 400, Preferred: []int{0}, NonPrefFactor: 1.5}
	b := &job.Job{ID: 2, Class: job.SLO, Submit: 0, Deadline: 5000, Tasks: 3,
		Runtime: 600, Preferred: []int{1}, NonPrefFactor: 1.5}
	be := &job.Job{ID: 3, Class: job.BestEffort, Submit: 0, Tasks: 2, Runtime: 900}
	run := &simulator.RunningJob{Job: be, Start: 0, Alloc: simulator.Alloc{1, 1}}
	return stateWith(simulator.NewCluster(8, 2), []*job.Job{a, b}, []*simulator.RunningJob{run}, now)
}

// TestQuietCycleCounters: quiet cycles whose model keeps its structure count
// as PatchedCycles (the name predates the in-place build, DESIGN.md §12) and
// the numbers that moved as RowsPatched/ColsPatched; every cycle's model is
// the one the other buffer would have got.
func TestQuietCycleCounters(t *testing.T) {
	s := New(uniformEstimator(300, 2000), testConfig())
	if b := s.buildModel(incScenario(0)); b.quiet || b.stable {
		t.Fatal("first cycle has no previous model to be held against")
	}
	// The first build installs each job's distribution (setDist), which
	// dirties the second cycle; quiet steady state begins at the third.
	s.buildModel(incScenario(5))
	for _, now := range []float64{10, 20, 30} {
		b := s.buildModel(incScenario(now))
		if !b.quiet {
			t.Fatalf("t=%v: cycle with unchanged epoch not quiet", now)
		}
		if !b.stable || !b.warmOK {
			t.Fatalf("t=%v: quiet cycle with the same jobs: stable=%v warmOK=%v", now, b.stable, b.warmOK)
		}
		if b.unchanged {
			t.Fatalf("t=%v: slot-0 terms moved with the clock, yet the model reads unchanged", now)
		}
		if b.model != &s.inc.prev.model || s.inc.prev == s.inc.spare {
			t.Fatalf("t=%v: the cycle's model must be the retired buffer's, distinct from the spare", now)
		}
	}
	st := s.Stats()
	if st.PatchedCycles != 3 || st.RebuildFallbacks != 0 {
		t.Errorf("PatchedCycles/RebuildFallbacks = %d/%d, want 3/0", st.PatchedCycles, st.RebuildFallbacks)
	}
	if st.RowsPatched == 0 || st.ColsPatched == 0 {
		t.Errorf("RowsPatched/ColsPatched = %d/%d: slot-0 utilities and capacities move every cycle", st.RowsPatched, st.ColsPatched)
	}
}

// world is a hand-driven cluster for TestInPlaceBuildEqualsFreshStorage: it
// applies a cycle's decisions the way the engine would, so a script can mix
// them with arrivals, completions and faults.
type world struct {
	cluster simulator.Cluster
	pending []*job.Job
	running []*simulator.RunningJob
	epoch   uint64
}

func (w *world) state(now float64) *simulator.State {
	st := stateWith(w.cluster, append([]*job.Job(nil), w.pending...),
		append([]*simulator.RunningJob(nil), w.running...), now)
	st.Epoch = w.epoch
	return st
}

func (w *world) submit(j *job.Job) { w.pending = append(w.pending, j); w.epoch++ }

func (w *world) takePending(id job.ID) *job.Job {
	for i, j := range w.pending {
		if j.ID == id {
			w.pending = append(w.pending[:i], w.pending[i+1:]...)
			return j
		}
	}
	return nil
}

func (w *world) takeRunning(id job.ID) *simulator.RunningJob {
	for i, r := range w.running {
		if r.Job.ID == id {
			w.running = append(w.running[:i], w.running[i+1:]...)
			w.epoch++
			return r
		}
	}
	return nil
}

func (w *world) apply(dec simulator.Decision, now float64) {
	for _, id := range dec.Preempt {
		w.pending = append(w.pending, w.takeRunning(id).Job)
	}
	for _, sa := range dec.Start {
		j := w.takePending(sa.Job)
		onPref := true
		for p, n := range sa.Alloc {
			if n > 0 && !j.PrefersPartition(p) {
				onPref = false
			}
		}
		w.running = append(w.running, &simulator.RunningJob{Job: j, Start: now, Alloc: sa.Alloc, OnPreferred: onPref})
		w.epoch++
	}
}

// TestInPlaceBuildEqualsFreshStorage is the in-place build's safety net: two
// schedulers are fed one scripted sequence — arrivals, starts, completions,
// a preemption, a node fault, a re-estimate that changes a distribution and
// one that does not, quiet runs, a model that shrinks and then grows — one
// reusing its builder, scratch and model buffers from cycle to cycle as in
// production, the other handed zero-value storage before every cycle. If
// anything of an earlier cycle could leak through a reused buffer, the two
// would differ: their models must be EqualBitwise (names included, through
// the namer) and their solutions and decisions equal, every cycle.
func TestInPlaceBuildEqualsFreshStorage(t *testing.T) {
	for _, exact := range []bool{false, true} {
		name := "proportional"
		if exact {
			name = "exactshares"
		}
		t.Run(name, func(t *testing.T) { inPlaceVsFresh(t, exact) })
	}
}

func inPlaceVsFresh(t *testing.T, exact bool) {
	hi := 2000.0 // the estimator's upper bound; a step below moves it
	est := FuncEstimator{EstimateFn: func(*job.Job) dist.Distribution { return dist.NewUniform(300, hi) }}
	cfg := testConfig()
	cfg.Checks = true
	cfg.ExactShares = exact
	cfg.Clock = simulator.NewVirtualClock()
	reuse, fresh := New(est, cfg), New(est, cfg)
	both := func(f func(s *Scheduler)) { f(reuse); f(fresh) }

	slo := func(id job.ID, submit, deadline float64, tasks int, pref ...int) *job.Job {
		return &job.Job{ID: id, Class: job.SLO, Submit: submit, Deadline: deadline, Tasks: tasks,
			Runtime: 400, Preferred: pref, NonPrefFactor: 1.5}
	}
	be := func(id job.ID, submit float64, tasks int) *job.Job {
		return &job.Job{ID: id, Class: job.BestEffort, Submit: submit, Tasks: tasks, Runtime: 900}
	}
	w := &world{cluster: simulator.NewCluster(16, 2)}
	arrive := func(now float64, j *job.Job) {
		w.submit(j)
		both(func(s *Scheduler) { s.JobSubmitted(j, now) })
	}
	reestimate := func() {
		if len(w.pending) == 0 {
			t.Fatal("script re-estimates a pending job, and none is pending")
		}
		both(func(s *Scheduler) { s.Reestimate(w.pending[0]) })
	}
	// script[now] runs before the cycle at that time.
	script := map[float64]func(now float64){
		0: func(now float64) { // best-effort work takes three quarters of the cluster
			arrive(now, be(1, 0, 6))
			arrive(now, be(2, 0, 6))
		},
		20: func(now float64) { // a deadline job that only a preemption can place in time
			arrive(now, slo(3, 20, 1500, 8, 0))
		},
		50: func(now float64) { // more than fits: deferrals, the model grows
			arrive(now, slo(4, 50, 6000, 5, 1))
			arrive(now, slo(5, 50, 7000, 4, 0))
			arrive(now, be(6, 50, 5))
		},
		90:  func(float64) { reestimate() },            // reproduces the distribution: nothing moves
		120: func(float64) { hi = 2600; reestimate() }, // changes it
		150: func(float64) { // node fault: a partition with a free node loses it
			st := w.state(150)
			for p, f := range st.Free {
				if f > 0 {
					w.cluster = simulator.Cluster{Partitions: append([]int(nil), w.cluster.Partitions...)}
					w.cluster.Partitions[p]--
					w.epoch++
					return
				}
			}
			t.Fatal("script's node fault found no free node")
		},
		180: func(now float64) { // completions: the model shrinks
			for len(w.running) > 0 {
				r := w.takeRunning(w.running[0].Job.ID)
				both(func(s *Scheduler) { s.JobCompleted(r.Job, now-r.Start, now) })
			}
		},
		240: func(now float64) { // the node is back and new work arrives: it grows again
			w.cluster = simulator.NewCluster(16, 2)
			arrive(now, slo(7, 240, 9000, 5, 1))
			arrive(now, be(8, 240, 2))
			arrive(now, be(9, 240, 6))
			arrive(now, slo(10, 240, 1600, 4, 0))
		},
	}

	var sawStart, sawPreempt, sawDefer, sawQuiet, sawUnstable, sawShrink, sawGrow bool
	lastVars := 0
	for now := 0.0; now <= 640; now += cfg.CycleInterval {
		if f := script[now]; f != nil {
			f(now)
		}
		// Zero-value storage for the fresh arm: builder, scratch, and the
		// buffer this cycle's model is written into. inc.prev stays — it is
		// the previous cycle's model, state rather than storage.
		fresh.bld = builder{}
		fresh.inc.spare = nil
		decR, decF := reuse.Cycle(w.state(now)), fresh.Cycle(w.state(now))

		mR, mF := &reuse.inc.prev.model, &fresh.inc.prev.model
		if diff := milp.EqualBitwise(mR, mF); diff != "" {
			t.Fatalf("t=%v: model built into reused storage differs from one built into fresh storage: %s", now, diff)
		}
		if !reflect.DeepEqual(reuse.inc.lastSol, fresh.inc.lastSol) {
			t.Fatalf("t=%v: solutions differ:\n reused %+v\n fresh  %+v", now, reuse.inc.lastSol, fresh.inc.lastSol)
		}
		if !reflect.DeepEqual(decR, decF) {
			t.Fatalf("t=%v: decisions differ:\n reused %+v\n fresh  %+v", now, decR, decF)
		}
		if reuse.bld.quiet != fresh.bld.quiet || reuse.bld.stable != fresh.bld.stable ||
			reuse.bld.warmOK != fresh.bld.warmOK || reuse.bld.unchanged != fresh.bld.unchanged {
			t.Fatalf("t=%v: comparison verdicts differ: reused %+v fresh %+v", now,
				[4]bool{reuse.bld.quiet, reuse.bld.stable, reuse.bld.warmOK, reuse.bld.unchanged},
				[4]bool{fresh.bld.quiet, fresh.bld.stable, fresh.bld.warmOK, fresh.bld.unchanged})
		}

		sawStart = sawStart || len(decR.Start) > 0
		sawPreempt = sawPreempt || len(decR.Preempt) > 0
		sawQuiet = sawQuiet || reuse.bld.stable
		sawUnstable = sawUnstable || reuse.bld.quiet && !reuse.bld.stable
		for i := range reuse.bld.options {
			if o := &reuse.bld.options[i]; o.slot > 0 && reuse.inc.lastSol.Value(o.varIdx) > 0.5 {
				sawDefer = true
			}
		}
		if n := mR.NumVars(); now > 0 {
			sawShrink = sawShrink || n < lastVars
			sawGrow = sawGrow || sawShrink && n > lastVars
		}
		lastVars = mR.NumVars()
		w.apply(decR, now)
	}
	if reuse.Stats() != fresh.Stats() {
		t.Errorf("stats differ:\n reused %+v\n fresh  %+v", reuse.Stats(), fresh.Stats())
	}
	// (Under exact shares this script's options never drift on a quiet cycle;
	// the proportional arm covers that.)
	for _, c := range []struct {
		what string
		saw  bool
	}{{"a start", sawStart}, {"a preemption", sawPreempt}, {"a deferral", sawDefer},
		{"a quiet cycle with a stable model", sawQuiet}, {"a quiet cycle whose structure drifted", sawUnstable || exact},
		{"a shrinking model", sawShrink}, {"a model growing again", sawGrow}} {
		if !c.saw {
			t.Errorf("the script never produced %s", c.what)
		}
	}
}

// TestPoisonedScratchCaught: under Checks the cycle's scratch is poisoned at
// reset, so a value the build forgot to write — here an option's shares, a
// seed slot and a row coefficient, each left as the scratch handed it out —
// is caught instead of silently carrying the previous cycle's number.
func TestPoisonedScratchCaught(t *testing.T) {
	cfg := testConfig()
	cfg.Checks = true
	s := New(uniformEstimator(300, 2000), cfg)
	b := s.buildModel(incScenario(0))
	b.f64.take(64) // room past what a cycle uses, for the takes below
	b.ints.take(64)
	b = s.buildModel(incScenario(10)) // the scratch now holds a previous cycle's numbers
	mustTrip := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: a read of unwritten scratch went unnoticed", what)
			}
		}()
		f()
	}

	o := b.options[0] // a copy; its slices are replaced below
	o.shares = b.f64.take(len(o.shares))
	mustTrip("checkOption on shares never cleared", func() { s.checkOption(&o) })

	v := b.options[0].varIdx
	stale := b.f64.take(1)
	b.addRow(modelKey{class: keyRowCap, part: 0, slot: 7}, []int{v}, stale, 1)
	mustTrip("checkCapacityRows on a coefficient never written", b.checkCapacityRows)
	mustTrip("checkFinite on a coefficient never written", b.checkFinite)

	idx := b.ints.take(1)
	mustTrip("AddLE on a variable index never written", func() {
		b.addRow(modelKey{class: keyRowDemand, job: 99}, idx, []float64{1}, 1)
	})

	// Without Checks nothing is poisoned (and nothing is checked): the same
	// take returns whatever the previous cycle left there.
	cfg.Checks = false
	q := New(uniformEstimator(300, 2000), cfg)
	q.buildModel(incScenario(0)).f64.take(64)
	qb := q.buildModel(incScenario(10))
	if got := qb.f64.take(1)[0]; math.IsNaN(got) {
		t.Error("scratch poisoned with Checks off")
	}
}

// TestBuildModelSteadyStateAllocs: a warmed scheduler builds a quiet cycle's
// model without allocating — builder, options, scratch, memo pages and the
// model's rows are all reused — and an arrival costs a handful of
// allocations for the new job's memo page, not a model's worth. (At the
// parent of the in-place build the quiet cycle below allocated 272 times.)
func TestBuildModelSteadyStateAllocs(t *testing.T) {
	s := New(uniformEstimator(300, 2000), testConfig())
	now := 0.0
	next := func() *simulator.State { now += 10; return incScenario(now) }
	for i := 0; i < 4; i++ {
		s.buildModel(next())
	}
	states := make([]*simulator.State, 101)
	for i := range states {
		states[i] = next()
	}
	i := 0
	if got := testing.AllocsPerRun(100, func() {
		if b := s.buildModel(states[i]); !b.quiet {
			t.Fatal("scenario is not quiet")
		}
		i++
	}); got != 0 {
		t.Errorf("quiet cycle: %v allocations in buildModel, want 0", got)
	}

	// Arrival cycles: each run submits one new deadline job. New per job:
	// its distribution (boxed by the estimator), its memo page, two utility
	// windows, two survival curves, the scaled distribution and the utility
	// curve — 9 — plus map growth now and then.
	const arrivalBound = 16
	arrivals := make([]*simulator.State, 101)
	for i := range arrivals {
		st := next()
		for k := 0; k <= i; k++ {
			st.Pending = append(st.Pending, &job.Job{ID: job.ID(100 + k), Class: job.SLO, Submit: now,
				Deadline: now + 5000, Tasks: 1, Runtime: 400, Preferred: []int{k % 2}, NonPrefFactor: 1.5})
		}
		st.Epoch = uint64(i + 1)
		arrivals[i] = st
	}
	s.buildModel(arrivals[100]) // grow the buffers to the largest model first
	for _, j := range arrivals[100].Pending[2:] {
		s.JobRemoved(j.ID)
	}
	i = 0
	if got := testing.AllocsPerRun(100, func() {
		s.buildModel(arrivals[i])
		i++
	}); got > arrivalBound {
		t.Errorf("arrival cycle: %v allocations in buildModel, want <= %d", got, arrivalBound)
	}
}

// TestMemoInvalidationScopedToChangedJob: re-estimating one job must not
// discard the other jobs' memo pages, and a re-estimate that reproduces the
// current distribution bit-for-bit must invalidate nothing at all.
func TestMemoInvalidationScopedToChangedJob(t *testing.T) {
	s := New(uniformEstimator(300, 2000), testConfig())
	st := incScenario(0)
	jobA, jobB := st.Pending[0], st.Pending[1]
	s.buildModel(st)
	s.buildModel(incScenario(10)) // warm the memo on the shared grid

	// A no-op re-estimate (the estimator still returns the same uniform)
	// must keep every page: zero new misses on the next build.
	misses := s.Stats().CacheMisses
	s.Reestimate(jobA)
	s.Reestimate(jobB)
	b := s.buildModel(incScenario(20))
	if got := s.Stats().CacheMisses; got != misses {
		t.Fatalf("no-op re-estimate invalidated memo pages: misses %d -> %d", misses, got)
	}
	if b.quiet {
		t.Log("note: no-op re-estimates also kept the cycle quiet") // setDist no-op keeps jobsDirty clear
	}

	// A real distribution change on job B must drop B's page only.
	pageA, pageB := s.memo.jobs[jobA.ID], s.memo.jobs[jobB.ID]
	s.setDist(jobB.ID, dist.NewUniform(300, 2500))
	hits, misses := s.Stats().CacheHits, s.Stats().CacheMisses
	s.buildModel(incScenario(30))
	if s.memo.jobs[jobA.ID] != pageA {
		t.Error("job A's memo page was discarded by job B's update")
	}
	if s.memo.jobs[jobB.ID] == pageB {
		t.Error("job B's memo page survived its distribution update")
	}
	if got := s.Stats().CacheHits; got <= hits {
		t.Errorf("expected hits from job A's surviving page, hits %d -> %d", hits, got)
	}
	if got := s.Stats().CacheMisses; got <= misses {
		t.Errorf("expected misses from job B's rebuilt page, misses %d -> %d", misses, got)
	}
}

// incWorkload generates a small mixed workload for end-to-end digest tests.
func incWorkload(seed int64) *workload.Workload {
	return workload.Generate(workload.Config{
		Cluster:       simulator.NewCluster(16, 2),
		DurationHours: 0.05,
		Load:          1.3,
		Seed:          seed,
	})
}

// digestWith runs the full simulator loop under cfg and returns the outcome
// digest plus the scheduler's stats.
func digestWith(t *testing.T, cfg Config, seed int64) (string, Stats) {
	t.Helper()
	w := incWorkload(seed)
	s := New(PerfectEstimator{}, cfg)
	sim, err := simulator.New(s, w.Jobs, simulator.Options{
		Cluster:       w.Cluster,
		CycleInterval: cfg.CycleInterval,
		DrainWindow:   1200,
		Seed:          seed,
		VirtualTime:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	return metrics.OutcomeDigest(res), s.Stats()
}

// TestDigestWarmVsColdBasis: disabling the warm basis and solution reuse
// (NoWarmBasis) changes the solver's path but is still a correct solve; with
// the solver given enough budget to reach optimality each cycle, outcomes
// must agree here too. This pins the restore path to "accelerator only":
// a warm basis must never change what the solver returns, only how fast.
func TestDigestWarmVsColdBasis(t *testing.T) {
	cfg := testConfig()
	cfg.CycleInterval = 5
	cfg.SolveQuantum = 60
	cfg.SolverMaxNodes = 4096 // effectively unbounded at this scale

	warmDigest, warmStats := digestWith(t, cfg, 11)

	cfgC := cfg
	cfgC.NoWarmBasis = true
	coldDigest, coldStats := digestWith(t, cfgC, 11)

	if warmDigest != coldDigest {
		t.Fatalf("outcome digest diverged: warm %s != cold %s", warmDigest, coldDigest)
	}
	if warmStats.WarmBasisReuses == 0 && warmStats.ReusedSolves == 0 {
		t.Error("warm run neither restored a basis nor reused a solve")
	}
	if coldStats.WarmBasisReuses != 0 || coldStats.ReusedSolves != 0 {
		t.Errorf("NoWarmBasis run used warm paths: basis=%d reused=%d",
			coldStats.WarmBasisReuses, coldStats.ReusedSolves)
	}
}

// TestSolveEndings: every cycle that solves counts how its solve ended, and
// the count follows the search: with room to finish, every solve is proved;
// with one node, a solve that has to branch stops on the node budget.
func TestSolveEndings(t *testing.T) {
	cfg := testConfig()
	cfg.SolverMaxNodes = 4096
	_, st := digestWith(t, cfg, 11)
	if solves := st.Cycles - st.ReusedSolves; st.SolverProved != solves || st.SolverNodeCapped+st.SolverDeadlineStops != 0 {
		t.Errorf("unbounded search: proved/capped/deadline = %d/%d/%d over %d solves",
			st.SolverProved, st.SolverNodeCapped, st.SolverDeadlineStops, solves)
	}
	cfg.SolverMaxNodes = 1
	_, st = digestWith(t, cfg, 11)
	if solves := st.Cycles - st.ReusedSolves; st.SolverProved+st.SolverNodeCapped+st.SolverDeadlineStops != solves || st.SolverNodeCapped == 0 {
		t.Errorf("one-node search: proved/capped/deadline = %d/%d/%d over %d solves",
			st.SolverProved, st.SolverNodeCapped, st.SolverDeadlineStops, solves)
	}
}
