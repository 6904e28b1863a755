package core

import (
	"math"
	"testing"

	"threesigma/internal/dist"
	"threesigma/internal/job"
	"threesigma/internal/milp"
	"threesigma/internal/simulator"
)

func stateWith(cluster simulator.Cluster, pending []*job.Job, running []*simulator.RunningJob, now float64) *simulator.State {
	free := make(simulator.Alloc, len(cluster.Partitions))
	copy(free, cluster.Partitions)
	for _, r := range running {
		for p, n := range r.Alloc {
			free[p] -= n
		}
	}
	return &simulator.State{Now: now, Free: free, Pending: pending, Running: running, Cluster: cluster}
}

func TestBuildModelGeneratesOptionsAndDemandRows(t *testing.T) {
	s := New(PerfectEstimator{}, testConfig())
	slo := &job.Job{ID: 1, Class: job.SLO, Submit: 0, Deadline: 2000, Tasks: 2, Runtime: 300,
		Preferred: []int{0}, NonPrefFactor: 1.5}
	be := &job.Job{ID: 2, Class: job.BestEffort, Submit: 0, Tasks: 1, Runtime: 100}
	st := stateWith(simulator.NewCluster(8, 2), []*job.Job{slo, be}, nil, 0)
	b := s.buildModel(st)
	if len(b.jobs) != 2 {
		t.Fatalf("jobs = %d", len(b.jobs))
	}
	// SLO job: preferred + any spaces over up to 8 slots; BE job: one
	// immediate-start option.
	sloOpts, beOpts := 0, 0
	for i := range b.options {
		switch b.options[i].j.ID {
		case 1:
			sloOpts++
		case 2:
			beOpts++
			if b.options[i].slot != 0 {
				t.Error("BE options must be immediate-start")
			}
		}
	}
	if sloOpts < 8 {
		t.Errorf("SLO options = %d, want at least one per slot", sloOpts)
	}
	if beOpts != 1 {
		t.Errorf("BE options = %d, want 1", beOpts)
	}
	// Two demand rows + capacity rows must exist.
	if b.model.NumRows() < 2 {
		t.Errorf("rows = %d", b.model.NumRows())
	}
}

func TestBuildModelSlot0CapacityEqualsFreeNodes(t *testing.T) {
	cfg := testConfig()
	cfg.Policy.Preemption = false               // shares may otherwise assume preemption credits
	s := New(uniformEstimator(100, 10000), cfg) // wide dist: long tails
	runJob := &job.Job{ID: 9, Class: job.BestEffort, Submit: 0, Tasks: 3, Runtime: 500}
	running := []*simulator.RunningJob{{
		Job: runJob, Start: 0, Alloc: simulator.Alloc{3, 0}, OnPreferred: true,
	}}
	pend := &job.Job{ID: 1, Class: job.BestEffort, Submit: 0, Tasks: 4, Runtime: 100}
	st := stateWith(simulator.NewCluster(8, 2), []*job.Job{pend}, running, 100)
	b := s.buildModel(st)
	// Find the slot-0 capacity row of partition 0: RHS must equal the
	// actual free nodes (1), since running-job survival at dt=0 is 1.
	// The pending job's option shares on partition 0 must respect it.
	for i := range b.options {
		o := &b.options[i]
		if o.slot == 0 && o.shares[0] > 1+1e-9 {
			t.Errorf("slot-0 share %v on partition 0 exceeds free=1", o.shares[0])
		}
	}
}

func TestUnderestimateExponentialBumping(t *testing.T) {
	cfg := testConfig()
	s := New(uniformEstimator(50, 100), cfg)
	j := &job.Job{ID: 1, Class: job.BestEffort, Submit: 0, Tasks: 1, Runtime: 10000}
	r := &simulator.RunningJob{Job: j, Start: 0, Alloc: simulator.Alloc{1}, OnPreferred: true}
	// survAt fills the running job's survival curve on buildModel's slot
	// grid as of now.
	b := &builder{s: s}
	survAt := func(r *simulator.RunningJob, now float64) []float64 {
		times := make([]float64, cfg.Slots)
		grid0 := int64(math.Floor(now / cfg.SlotDur))
		times[0] = now
		for k := 1; k < len(times); k++ {
			times[k] = float64(grid0+int64(k)) * cfg.SlotDur
		}
		surv := make([]float64, len(times))
		s.runningSurvCurve(r, now, times, grid0, surv, b)
		return surv
	}
	// Elapsed 150 > dist max 100: exhausted, UE kicks in.
	if surv := survAt(r, 150); surv[0] != 1 {
		t.Fatal("survival at now must be 1")
	}
	st := s.ue[1]
	if st == nil {
		t.Fatal("UE state not created")
	}
	first := st.extFinish
	if first <= 150 {
		t.Fatalf("extFinish = %v, want > now", first)
	}
	// Advance past the extension: bump count must grow and the extension
	// double (2^bumps cycles).
	survAt(r, first+1)
	st = s.ue[1]
	if st.bumps < 1 {
		t.Fatalf("bumps = %d, want >= 1", st.bumps)
	}
	bumpsBefore := st.bumps
	gap1 := st.extFinish - (first + 1)
	nextNow := st.extFinish + 1
	survAt(r, nextNow)
	if st.bumps <= bumpsBefore {
		t.Fatal("bumps must keep increasing")
	}
	gap2 := st.extFinish - nextNow
	if gap2 <= gap1 {
		t.Errorf("extension should grow exponentially: %v then %v", gap1, gap2)
	}
	if want := math.Pow(2, float64(st.bumps)) * cfg.CycleInterval; math.Abs(gap2-want) > 1e-9 {
		t.Errorf("extension = %v, want 2^%d cycles = %v", gap2, st.bumps, want)
	}
	// A job within its distribution clears UE state.
	r2 := &simulator.RunningJob{Job: j, Start: 0, Alloc: simulator.Alloc{1}, OnPreferred: true}
	s.ue[1] = &ueState{bumps: 3, extFinish: 1}
	survAt(r2, 60) // elapsed 60 < max 100
	if _, ok := s.ue[1]; ok {
		t.Error("UE state should clear when the distribution still has mass")
	}
}

func TestSeedMatchesPlannedOption(t *testing.T) {
	s := New(PerfectEstimator{}, testConfig())
	j := &job.Job{ID: 1, Class: job.SLO, Submit: 0, Deadline: 5000, Tasks: 1, Runtime: 300}
	st := stateWith(simulator.NewCluster(4, 1), []*job.Job{j}, nil, 0)
	b := s.buildModel(st)
	// Plan the job at the third slot's start time.
	var target *option
	for i := range b.options {
		if b.options[i].slot == 2 {
			target = &b.options[i]
			break
		}
	}
	if target == nil {
		t.Fatal("no slot-2 option")
	}
	s.planned[1] = plan{space: target.space, start: target.start}
	seed := b.seed()
	if seed[target.varIdx] != 1 {
		t.Error("seed should select the planned option")
	}
	ones := 0
	for _, v := range seed {
		if v == 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Errorf("seed selected %d options, want 1", ones)
	}
	// A plan too far from any option start is not seeded.
	s.planned[1] = plan{space: target.space, start: target.start + 10*s.cfg.SlotDur}
	seed2 := b.seed()
	for _, v := range seed2 {
		if v != 0 {
			t.Error("distant plan must not seed")
		}
	}
}

func TestGreedyAllocRespectsSpaceClass(t *testing.T) {
	j := &job.Job{ID: 1, Tasks: 4, Preferred: []int{0}}
	// Preferred partition has only 4 nodes; both classes succeed when it
	// is free.
	if a := GreedyAlloc(j, simulator.Alloc{4, 4}, true); a == nil || a[0] != 4 {
		t.Errorf("pref alloc = %v", a)
	}
	// Preferred partition short: spacePref must fail, spaceAny spills.
	if a := GreedyAlloc(j, simulator.Alloc{2, 4}, true); a != nil {
		t.Errorf("pref alloc should fail, got %v", a)
	}
	if a := GreedyAlloc(j, simulator.Alloc{2, 4}, false); a == nil || a[0] != 2 || a[1] != 2 {
		t.Errorf("any alloc = %v, want [2 2] (preferred first)", a)
	}
	// Not enough anywhere.
	if a := GreedyAlloc(j, simulator.Alloc{1, 1}, false); a != nil {
		t.Errorf("oversized alloc should fail, got %v", a)
	}
}

func TestPreemptVarsOnlyForBestEffort(t *testing.T) {
	s := New(PerfectEstimator{}, testConfig())
	beRun := &simulator.RunningJob{
		Job:   &job.Job{ID: 1, Class: job.BestEffort, Tasks: 1, Runtime: 1000},
		Start: 0, Alloc: simulator.Alloc{1, 0}, OnPreferred: true,
	}
	sloRun := &simulator.RunningJob{
		Job:   &job.Job{ID: 2, Class: job.SLO, Deadline: 5000, Tasks: 1, Runtime: 1000},
		Start: 0, Alloc: simulator.Alloc{0, 1}, OnPreferred: true,
	}
	st := stateWith(simulator.NewCluster(4, 2), nil, []*simulator.RunningJob{beRun, sloRun}, 100)
	b := s.buildModel(st)
	if len(b.preempts) != 1 || b.preempts[0].r.Job.ID != 1 {
		t.Fatalf("preempt vars = %+v, want only the BE job", b.preempts)
	}
	// With the policy off, no preempt vars at all.
	cfg := testConfig()
	cfg.Policy.Preemption = false
	s2 := New(PerfectEstimator{}, cfg)
	if b2 := s2.buildModel(st); len(b2.preempts) != 0 {
		t.Error("preemption disabled but vars generated")
	}
}

func TestAbandonOnZeroUtilityOnly(t *testing.T) {
	cfg := testConfig()
	cfg.Policy.Overestimate = OEOff
	s := New(uniformEstimator(5000, 6000), cfg) // all history above any window
	hopeless := &job.Job{ID: 1, Class: job.SLO, Submit: 0, Deadline: 1000, Tasks: 1, Runtime: 100}
	st := stateWith(simulator.NewCluster(2, 1), []*job.Job{hopeless}, nil, 0)
	s.buildModel(st)
	if !s.abandoned[1] {
		t.Error("zero-utility job should be abandoned with OE off")
	}
	// Capacity-blocked (but utility-positive) jobs must NOT be abandoned.
	s2 := New(PerfectEstimator{}, testConfig())
	blocked := &job.Job{ID: 2, Class: job.SLO, Submit: 0, Deadline: 1e6, Tasks: 2, Runtime: 100}
	hogRun := &simulator.RunningJob{
		Job:   &job.Job{ID: 3, Class: job.SLO, Deadline: 1e6, Tasks: 2, Runtime: 1e5},
		Start: 0, Alloc: simulator.Alloc{2}, OnPreferred: true,
	}
	st2 := stateWith(simulator.NewCluster(2, 1), []*job.Job{blocked}, []*simulator.RunningJob{hogRun}, 10)
	s2.buildModel(st2)
	if s2.abandoned[2] {
		t.Error("capacity-blocked job must not be abandoned")
	}
}

func TestOptionRCMatchesSurvival(t *testing.T) {
	s := New(uniformEstimator(0, 600), testConfig())
	j := &job.Job{ID: 1, Class: job.SLO, Submit: 0, Deadline: 1e5, Tasks: 1, Runtime: 300}
	st := stateWith(simulator.NewCluster(4, 1), []*job.Job{j}, nil, 0)
	b := s.buildModel(st)
	d := dist.NewUniform(0, 600)
	for i := range b.options {
		o := &b.options[i]
		if o.rc[0] != 1 {
			t.Fatalf("rc[0] = %v, want 1 (survival at start)", o.rc[0])
		}
		for k := 1; k < len(o.rc); k++ {
			if o.rc[k] > o.rc[k-1]+1e-12 {
				t.Fatal("rc must be non-increasing")
			}
		}
		// Slot-0 option on a fresh grid has uniform 150s spacing: check one value.
		if o.slot == 0 && len(o.rc) > 1 {
			want := dist.Survival(d, 150)
			if math.Abs(o.rc[1]-want) > 1e-9 {
				t.Errorf("rc[1] = %v, want %v", o.rc[1], want)
			}
		}
	}
}

func TestDebugHelpers(t *testing.T) {
	s := New(PerfectEstimator{}, testConfig())
	j := &job.Job{ID: 1, Class: job.BestEffort, Submit: 0, Tasks: 1, Runtime: 50}
	st := stateWith(simulator.NewCluster(2, 1), []*job.Job{j}, nil, 0)
	b := DebugBuildModel(s, st)
	if b.Model().NumVars() == 0 {
		t.Fatal("empty debug model")
	}
	sol := milp.Solve(b.Model(), milp.Options{})
	out := DebugDescribe(b, &sol, st)
	if out == "" {
		t.Fatal("empty description")
	}
}
