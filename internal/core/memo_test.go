package core

import (
	"testing"

	"threesigma/internal/dist"
	"threesigma/internal/job"
	"threesigma/internal/simulator"
)

// memoScenario returns a state with one SLO job whose deadline admits
// deferral options (so grid-aligned slots k >= 1 exist and are memoizable).
func memoScenario(now float64) (*job.Job, *simulator.State) {
	slo := &job.Job{ID: 1, Class: job.SLO, Submit: 0, Deadline: 3000, Tasks: 2,
		Runtime: 400, Preferred: []int{0}, NonPrefFactor: 1.5}
	st := stateWith(simulator.NewCluster(8, 2), []*job.Job{slo}, nil, now)
	return slo, st
}

// TestMemoCrossCycleEquivalence checks that a second cycle served from the
// memo produces bitwise-identical option terms to a cold build at the same
// time, and that the memo actually gets hits.
func TestMemoCrossCycleEquivalence(t *testing.T) {
	est := uniformEstimator(100, 2000)
	warm := New(est, testConfig())
	_, st0 := memoScenario(0)
	warm.buildModel(st0)
	if warm.Stats().CacheHits != 0 {
		t.Fatalf("first build should be all misses, hits = %d", warm.Stats().CacheHits)
	}
	if warm.Stats().CacheMisses == 0 {
		t.Fatal("first build recorded no misses; memo not exercised")
	}

	_, st1 := memoScenario(10)
	bWarm := warm.buildModel(st1)
	if warm.Stats().CacheHits == 0 {
		t.Error("second cycle on the same grid should hit the memo")
	}

	cold := New(est, testConfig())
	bCold := cold.buildModel(st1)
	if len(bWarm.options) != len(bCold.options) {
		t.Fatalf("option count differs: memo %d vs cold %d", len(bWarm.options), len(bCold.options))
	}
	for i := range bWarm.options {
		w, c := &bWarm.options[i], &bCold.options[i]
		if w.util != c.util {
			t.Errorf("option %d util: memo %v != cold %v", i, w.util, c.util)
		}
		if w.start != c.start || w.slot != c.slot || w.space != c.space {
			t.Errorf("option %d identity differs: %+v vs %+v", i, w, c)
		}
		for k := range w.rc {
			if w.rc[k] != c.rc[k] {
				t.Errorf("option %d rc[%d]: memo %v != cold %v", i, k, w.rc[k], c.rc[k])
			}
		}
	}
}

// TestMemoInvalidationOnDistUpdate checks that re-estimating a job's
// distribution bumps its version and discards the memo page.
func TestMemoInvalidationOnDistUpdate(t *testing.T) {
	s := New(uniformEstimator(100, 2000), testConfig())
	slo, st := memoScenario(0)
	s.buildModel(st)
	_, st1 := memoScenario(10)
	s.buildModel(st1)
	if s.Stats().CacheHits == 0 {
		t.Fatal("expected hits on second build")
	}

	hits, misses := s.Stats().CacheHits, s.Stats().CacheMisses
	s.setDist(slo.ID, dist.NewUniform(100, 2500))
	_, st2 := memoScenario(20)
	s.buildModel(st2)
	if s.Stats().CacheHits != hits {
		t.Errorf("stale page served after dist update: hits %d -> %d", hits, s.Stats().CacheHits)
	}
	if s.Stats().CacheMisses <= misses {
		t.Error("rebuild after dist update should record fresh misses")
	}
}

// TestMemoDroppedOnCompletion checks that per-job memo state is released when
// the job completes.
func TestMemoDroppedOnCompletion(t *testing.T) {
	s := New(uniformEstimator(100, 2000), testConfig())
	slo, st := memoScenario(0)
	s.buildModel(st)
	if s.memo.jobs[slo.ID] == nil {
		t.Fatal("build should have created a memo page")
	}
	s.JobCompleted(slo, 400, 500)
	if s.memo.jobs[slo.ID] != nil {
		t.Error("completion should drop the memo page")
	}
	if _, ok := s.distVer[slo.ID]; ok {
		t.Error("completion should clear the distribution version")
	}
}

// TestMemoBoundedForLongLivedJobs: the per-grid-slot terms live in windows
// that move with the grid, so a job that stays pending or running for hours
// holds at most one plan-ahead window of them per space — keyed by absolute
// slot they grew by one dead entry per elapsed slot per space until the job
// left.
func TestMemoBoundedForLongLivedJobs(t *testing.T) {
	cfg := testConfig()
	s := New(uniformEstimator(100, 2e5), cfg) // support longer than the run: never exhausted
	waiting := &job.Job{ID: 1, Class: job.SLO, Submit: 0, Deadline: 1e6, Tasks: 2,
		Runtime: 400, Preferred: []int{0}, NonPrefFactor: 1.5}
	hog := &job.Job{ID: 2, Class: job.SLO, Submit: 0, Deadline: 1e6, Tasks: 6, Runtime: 1e6}
	running := []*simulator.RunningJob{{Job: hog, Start: 0, Alloc: simulator.Alloc{3, 3}, OnPreferred: true}}
	for c := 0; c < 10000; c++ {
		now := float64(c) * cfg.CycleInterval
		b := s.buildModel(stateWith(simulator.NewCluster(8, 2), []*job.Job{waiting}, running, now))
		if c > 0 && len(b.options) == 0 {
			t.Fatalf("cycle %d: the waiting job lost its deferral options", c)
		}
	}
	sizes := DebugStateSizes(s)
	if sizes["memo"] != 2 {
		t.Fatalf("memo pages = %d, want the two jobs'", sizes["memo"])
	}
	if max := 2 * cfg.Slots * 2; sizes["memoEntries"] == 0 || sizes["memoEntries"] > max {
		t.Errorf("memo holds %d per-slot terms after 10000 cycles, want 1..%d (Slots × spaces per page)", sizes["memoEntries"], max)
	}
	st := s.Stats()
	if rate := st.CacheHitRate(); rate < 0.9 {
		t.Errorf("hit rate %.3f: the windows are not serving the grid", rate)
	}
}

// TestCacheHitRate checks the Stats helper.
func TestCacheHitRate(t *testing.T) {
	var st Stats
	if st.CacheHitRate() != 0 {
		t.Error("empty stats should report rate 0")
	}
	st.CacheHits, st.CacheMisses = 3, 1
	if got := st.CacheHitRate(); got != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", got)
	}
}

// deferralState builds a state in which the SLO job's preferred partition is
// held by a running job, so the solver must defer it (populating s.planned).
func deferralState(now float64) (*job.Job, *simulator.State) {
	hog := &job.Job{ID: 10, Class: job.BestEffort, Submit: 0, Tasks: 2, Runtime: 300, Preferred: []int{0}, NonPrefFactor: 1}
	hog2 := &job.Job{ID: 11, Class: job.BestEffort, Submit: 0, Tasks: 2, Runtime: 600, Preferred: []int{1}, NonPrefFactor: 1}
	slo := &job.Job{ID: 2, Class: job.SLO, Submit: 10, Deadline: 770, Tasks: 2, Runtime: 440, Preferred: []int{0}, NonPrefFactor: 1.5}
	running := []*simulator.RunningJob{
		{Job: hog, Start: 0, Alloc: simulator.Alloc{2, 0}, OnPreferred: true},
		{Job: hog2, Start: 0, Alloc: simulator.Alloc{0, 2}, OnPreferred: true},
	}
	return slo, stateWith(simulator.NewCluster(4, 2), []*job.Job{slo}, running, now)
}

// TestWarmStartSeedFeasible checks §4.3.6 seeding: after a cycle that defers
// a job, the next cycle's seed vector selects that job's planned option and
// is feasible for the next cycle's model.
func TestWarmStartSeedFeasible(t *testing.T) {
	cfg := testConfig()
	cfg.Policy.Preemption = false
	s := New(PerfectEstimator{}, cfg)

	slo, st1 := deferralState(10)
	dec := s.Cycle(st1)
	if len(dec.Start) != 0 {
		t.Fatalf("nothing should start on a full cluster, got %v", dec.Start)
	}
	pl, ok := s.planned[slo.ID]
	if !ok {
		t.Fatal("deferred job should have a recorded plan for warm starting")
	}

	_, st2 := deferralState(20)
	b := s.buildModel(st2)
	seed := b.seed()
	if seed == nil {
		t.Fatal("seed vector missing")
	}
	ones := 0
	for i := range b.options {
		o := &b.options[i]
		if seed[o.varIdx] == 1 {
			ones++
			if o.j.ID != slo.ID || o.space != pl.space {
				t.Errorf("seeded wrong option: %+v vs plan %+v", o, pl)
			}
			if o.slot == 0 {
				t.Error("plan was a deferral; seed should select a later slot")
			}
		}
	}
	if ones != 1 {
		t.Fatalf("seed selects %d options, want 1", ones)
	}
	if !b.model.Feasible(seed, 1e-6) {
		t.Error("seed vector infeasible for the next cycle's model")
	}
}

// TestWarmStartSeedSkipsMismatch checks that a plan whose space or time no
// longer matches any option seeds nothing (all-zero vector, still feasible).
func TestWarmStartSeedSkipsMismatch(t *testing.T) {
	cfg := testConfig()
	cfg.Policy.Preemption = false
	s := New(PerfectEstimator{}, cfg)
	slo, st := deferralState(10)
	b := s.buildModel(st)
	// Plan far outside the window: no option within half a slot.
	s.planned[slo.ID] = plan{space: spacePref, start: 1e9}
	seed := b.seed()
	for i, v := range seed {
		if v != 0 {
			t.Errorf("seed[%d] = %v, want all-zero for unmatched plan", i, v)
		}
	}
}

// TestNoWarmStartStillSchedules checks the NoWarmStart ablation switch: the
// scheduler must work (and still defer correctly) without seeding.
func TestNoWarmStartStillSchedules(t *testing.T) {
	cfg := testConfig()
	cfg.Policy.Preemption = false
	cfg.NoWarmStart = true
	s := New(PerfectEstimator{}, cfg)
	hog := &job.Job{ID: 10, Class: job.BestEffort, Submit: 0, Tasks: 2, Runtime: 300, Preferred: []int{0}, NonPrefFactor: 1}
	hog2 := &job.Job{ID: 11, Class: job.BestEffort, Submit: 0, Tasks: 2, Runtime: 600, Preferred: []int{1}, NonPrefFactor: 1}
	slo := &job.Job{ID: 2, Class: job.SLO, Submit: 10, Deadline: 770, Tasks: 2, Runtime: 440, Preferred: []int{0}, NonPrefFactor: 1.5}
	res := run(t, s, []*job.Job{hog, hog2, slo}, 4, 2)
	if o := outcome(res, 2); !o.Completed || o.MissedDeadline() {
		t.Errorf("NoWarmStart run should still meet the deadline: %+v", o)
	}
}
