package core

import (
	"sync"
	"testing"

	"threesigma/internal/job"
	"threesigma/internal/simulator"
)

// TestNegativeRelaxedCapacityClamped reproduces the fault-era planning bug:
// after node loss, a running job can hold more nodes than its partition now
// has, driving the relaxed capacity negative. The proportional share split
// must clamp those cells at zero — with Checks armed, a negative share or
// capacity coefficient panics the cycle.
func TestNegativeRelaxedCapacityClamped(t *testing.T) {
	for _, exact := range []bool{false, true} {
		name := "proportional"
		if exact {
			name = "exactshares"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Checks = true
			cfg.ExactShares = exact
			cfg.Policy.Preemption = false // all capacity coefficients must be >= 0
			sched := New(uniformEstimator(300, 900), cfg)

			running := &job.Job{ID: 1, Class: job.BestEffort, Tasks: 4, Runtime: 600}
			pending := &job.Job{ID: 2, Class: job.BestEffort, Tasks: 1, Runtime: 300}
			sched.JobSubmitted(running, 0)
			sched.JobSubmitted(pending, 0)

			// Partition 0 shrank to 2 nodes while job 1 still holds 4 of
			// them (the simulator keeps evicted allocations visible until
			// the retry path resolves): relaxed capacity goes to
			// 2 − 4·survival < 0 in the early slots.
			st := &simulator.State{
				Now:     100,
				Free:    simulator.Alloc{0, 2},
				Pending: []*job.Job{pending},
				Running: []*simulator.RunningJob{
					{Job: running, Start: 0, Alloc: simulator.Alloc{4, 0}},
				},
				Cluster: simulator.Cluster{Partitions: []int{2, 2}},
			}
			b := DebugBuildModel(sched, st) // panics via checkCapacityRows on regression
			m := b.Model()
			if len(b.options) == 0 {
				t.Fatal("pending job generated no options despite partition 1 being free")
			}
			for _, r := range m.Rows() {
				if len(r.Name) < 4 || r.Name[:4] != "cap[" {
					continue
				}
				for k, c := range r.Coef {
					if c < 0 {
						t.Errorf("row %s: negative coefficient %g on %s",
							r.Name, c, m.VarName(r.Idx[k]))
					}
				}
			}
		})
	}
}

// TestStatsConcurrentWithCycle hammers Stats() from other goroutines while
// the scheduler runs cycles. Run under -race (scripts/ci.sh does) this
// proves the scheduler's stats are published safely; the serverd metrics
// endpoint reads them live from its HTTP handlers.
func TestStatsConcurrentWithCycle(t *testing.T) {
	cfg := testConfig()
	sched := New(uniformEstimator(60, 600), cfg)

	jobs := make([]*job.Job, 12)
	pend := make([]*job.Job, len(jobs))
	for i := range jobs {
		jobs[i] = &job.Job{ID: job.ID(i + 1), Class: job.BestEffort, Tasks: 1 + i%3, Runtime: 400}
		sched.JobSubmitted(jobs[i], 0)
		pend[i] = jobs[i]
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					st := sched.Stats()
					if st.Cycles < 0 {
						t.Error("impossible stats snapshot")
						return
					}
				}
			}
		}()
	}
	for c := 0; c < 20; c++ {
		st := &simulator.State{
			Now:     float64(c) * cfg.CycleInterval,
			Free:    simulator.Alloc{4, 4},
			Pending: pend,
			Cluster: simulator.Cluster{Partitions: []int{4, 4}},
		}
		sched.Cycle(st)
	}
	close(done)
	wg.Wait()
	if got := sched.Stats(); got.Cycles != 20 {
		t.Errorf("Cycles = %d, want 20", got.Cycles)
	}
}

// TestAbandonSweepsPlanningState asserts the per-job map sweep: abandoning
// a hopeless SLO job must immediately release its distribution, version,
// under-estimate, plan, and memo entries (only the abandoned-ID marker
// stays until the cluster manager confirms removal), and JobRemoved clears
// the marker — no leak survives the full lifecycle.
func TestAbandonSweepsPlanningState(t *testing.T) {
	cfg := testConfig()
	var abandons []job.ID
	cfg.OnDecision = func(e DecisionEvent) {
		if e.Kind == DecisionAbandon {
			abandons = append(abandons, e.Job)
		}
	}
	sched := New(uniformEstimator(300, 900), cfg)

	j := &job.Job{ID: 7, Class: job.SLO, Submit: 0, Deadline: 50, Tasks: 1, Runtime: 300}
	sched.JobSubmitted(j, 0)
	if n := DebugStateSizes(sched)["dists"]; n != 1 {
		t.Fatalf("dists after submit = %d, want 1", n)
	}

	// Far past deadline + over-estimate extension: zero attainable utility.
	st := &simulator.State{
		Now:     5000,
		Free:    simulator.Alloc{2, 2},
		Pending: []*job.Job{j},
		Cluster: simulator.Cluster{Partitions: []int{2, 2}},
	}
	sched.Cycle(st)

	if len(abandons) != 1 || abandons[0] != j.ID {
		t.Fatalf("abandon decisions = %v, want [%d]", abandons, j.ID)
	}
	sizes := DebugStateSizes(sched)
	for _, key := range []string{"dists", "distVer", "ue", "planned", "memo"} {
		if sizes[key] != 0 {
			t.Errorf("%s holds %d entries after abandon, want 0", key, sizes[key])
		}
	}
	if sizes["abandoned"] != 1 {
		t.Errorf("abandoned marker count = %d, want 1", sizes["abandoned"])
	}

	sched.JobRemoved(j.ID)
	if sizes := DebugStateSizes(sched); sizes["abandoned"] != 0 {
		t.Errorf("abandoned marker survives JobRemoved: %v", sizes)
	}
}

// TestRetiredJobsLeaveNoState runs a full simulation and asserts every
// per-job map drains once all jobs have completed (the long-running
// service leaks otherwise).
func TestRetiredJobsLeaveNoState(t *testing.T) {
	sched := New(uniformEstimator(100, 400), testConfig())
	jobs := []*job.Job{
		{ID: 1, Class: job.SLO, Submit: 0, Deadline: 3000, Tasks: 2, Runtime: 200},
		{ID: 2, Class: job.BestEffort, Submit: 0, Tasks: 1, Runtime: 150},
		{ID: 3, Class: job.SLO, Submit: 100, Deadline: 101, Tasks: 4, Runtime: 900}, // hopeless: abandoned
		{ID: 4, Class: job.BestEffort, Submit: 50, Tasks: 2, Runtime: 250},
	}
	res := run(t, sched, jobs, 4, 2)
	if res == nil {
		t.Fatal("no result")
	}
	//lint:allow detrange independent per-entry assertions; order immaterial
	for key, n := range DebugStateSizes(sched) {
		// The abandoned marker must survive while the cluster manager still
		// lists the job as pending — the simulator never removes abandoned
		// jobs, so exactly job 3's marker remains. (The online service
		// confirms removal and clears it; see the service tests.)
		want := 0
		if key == "abandoned" {
			want = 1
		}
		if n != want {
			t.Errorf("map %s holds %d entries after full drain, want %d", key, n, want)
		}
	}
}
