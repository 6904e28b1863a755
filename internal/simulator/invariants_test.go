package simulator

import (
	"testing"

	"threesigma/internal/faults"
	"threesigma/internal/job"
	"threesigma/internal/stats"
)

// invariantChecker wraps a scheduler and asserts cluster conservation laws
// at every cycle: free nodes are in range per partition and free + running
// allocations equal the cluster capacity.
type invariantChecker struct {
	inner Scheduler
	t     *testing.T
}

func (c *invariantChecker) JobSubmitted(j *job.Job, now float64) { c.inner.JobSubmitted(j, now) }
func (c *invariantChecker) JobCompleted(j *job.Job, rt, now float64) {
	c.inner.JobCompleted(j, rt, now)
}
func (c *invariantChecker) Cycle(st *State) Decision {
	used := make([]int, len(st.Cluster.Partitions))
	for _, r := range st.Running {
		if len(r.Alloc) != len(used) {
			c.t.Fatalf("t=%v: running job %d alloc width %d", st.Now, r.Job.ID, len(r.Alloc))
		}
		for p, n := range r.Alloc {
			if n < 0 {
				c.t.Fatalf("t=%v: negative allocation", st.Now)
			}
			used[p] += n
		}
		if r.Alloc.Total() != r.Job.Tasks {
			c.t.Fatalf("t=%v: job %d holds %d nodes, requested %d",
				st.Now, r.Job.ID, r.Alloc.Total(), r.Job.Tasks)
		}
	}
	for p, cap := range st.Cluster.Partitions {
		if st.Free[p] < 0 || st.Free[p] > cap {
			c.t.Fatalf("t=%v: free[%d]=%d out of [0,%d]", st.Now, p, st.Free[p], cap)
		}
		if st.Free[p]+used[p] != cap {
			c.t.Fatalf("t=%v: conservation violated in partition %d: free=%d used=%d cap=%d",
				st.Now, p, st.Free[p], used[p], cap)
		}
	}
	return c.inner.Cycle(st)
}

// TestConservationUnderChurn drives a churny random workload (including
// scripted preemptions) through the invariant checker.
func TestConservationUnderChurn(t *testing.T) {
	rng := stats.NewRand(55)
	g := newGreedyFIFO()
	g.preemptAt = map[float64][]job.ID{}
	var jobs []*job.Job
	for i := 0; i < 150; i++ {
		j := mkJob(int64(i+1), float64(rng.Intn(600)), 10+float64(rng.Intn(200)), 1+rng.Intn(6))
		if rng.Intn(4) == 0 {
			j.Preferred = []int{rng.Intn(4)}
		}
		jobs = append(jobs, j)
		if rng.Intn(5) == 0 {
			at := float64((rng.Intn(60) + 1) * 10)
			g.preemptAt[at] = append(g.preemptAt[at], j.ID)
		}
	}
	sim, err := New(&invariantChecker{inner: g, t: t}, jobs, Options{
		Cluster:       NewCluster(16, 4),
		CycleInterval: 10,
		DrainWindow:   4000,
		Seed:          55,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	completed := 0
	for _, o := range res.Outcomes {
		if o.Completed {
			completed++
		}
	}
	if completed < 140 {
		t.Errorf("completed %d/150; churn should not strand jobs", completed)
	}
}

// TestConservationUnderNodeChurn drives the same churny workload through
// the invariant checker with fault injection on: node crash/recover cycles,
// job crashes, and stragglers. The checker's conservation law now runs
// against the effective (down-adjusted) cluster, so it doubles as a check
// that the fault lifecycle never leaks or double-frees nodes; the outcome
// scan asserts no job is stranded (every job ends terminal).
func TestConservationUnderNodeChurn(t *testing.T) {
	rng := stats.NewRand(77)
	g := newGreedyFIFO()
	var jobs []*job.Job
	for i := 0; i < 150; i++ {
		jobs = append(jobs, mkJob(int64(i+1), float64(rng.Intn(600)), 10+float64(rng.Intn(200)), 1+rng.Intn(6)))
	}
	sim, err := New(&invariantChecker{inner: g, t: t}, jobs, Options{
		Cluster:       NewCluster(16, 4),
		CycleInterval: 10,
		DrainWindow:   8000,
		Seed:          77,
		Faults: &faults.Config{
			Seed:     77,
			NodeMTBF: 2000, NodeMTTR: 120, GroupProb: 0.2, GroupSize: 3,
			CrashProb: 0.05, StragglerProb: 0.1, StragglerFactor: 2,
			MaxRetries: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	completed, failed, evictions := 0, 0, 0
	for _, o := range res.Outcomes {
		switch {
		case o.Completed:
			completed++
		case o.Failed:
			failed++
		default:
			t.Errorf("job %d stranded: %+v", o.Job.ID, o)
		}
		evictions += o.Evictions
		if o.LostToFailures < 0 {
			t.Errorf("job %d: negative LostToFailures %v", o.Job.ID, o.LostToFailures)
		}
	}
	if completed+failed != 150 {
		t.Errorf("completed %d + failed %d != 150", completed, failed)
	}
	if completed < 130 {
		t.Errorf("completed %d/150; churn at 2000s MTBF should not sink most jobs", completed)
	}
	if evictions == 0 {
		t.Error("fault injection produced zero evictions; schedule not exercised")
	}
	if res.NodeDownSeconds <= 0 {
		t.Errorf("NodeDownSeconds = %v, want > 0 under node churn", res.NodeDownSeconds)
	}
}

// TestFaultOutcomesDeterministic: two fault-injected runs with the same
// seed produce identical outcomes including all failure accounting — the
// digest gate in ci.sh rests on this.
func TestFaultOutcomesDeterministic(t *testing.T) {
	build := func() *Result {
		g := newGreedyFIFO()
		var jobs []*job.Job
		for i := 0; i < 80; i++ {
			jobs = append(jobs, mkJob(int64(i+1), float64((i/4)*20), 40, 1+i%4))
		}
		sim, err := New(g, jobs, Options{
			Cluster:       NewCluster(12, 3),
			CycleInterval: 10,
			DrainWindow:   6000,
			Seed:          9,
			Faults: &faults.Config{
				Seed:     9,
				NodeMTBF: 1500, NodeMTTR: 90,
				CrashProb: 0.08, StragglerProb: 0.1,
				MaxRetries: 2,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	a, b := build(), build()
	if a.NodeDownSeconds != b.NodeDownSeconds {
		t.Fatalf("NodeDownSeconds differ: %v vs %v", a.NodeDownSeconds, b.NodeDownSeconds)
	}
	for i := range a.Outcomes {
		oa, ob := a.Outcomes[i], b.Outcomes[i]
		if oa.Job.ID != ob.Job.ID || oa.FirstStart != ob.FirstStart ||
			oa.CompletionTime != ob.CompletionTime || oa.Completed != ob.Completed ||
			oa.Failed != ob.Failed || oa.Evictions != ob.Evictions ||
			oa.LostToFailures != ob.LostToFailures || oa.ActualRuntime != ob.ActualRuntime {
			t.Fatalf("nondeterministic fault outcome %d: %+v vs %+v", i, oa, ob)
		}
	}
}

// TestEventOrderingDeterministic: two runs with identical inputs produce
// identical outcomes (a cycle window breaks time ties by event kind and
// launch order).
func TestEventOrderingDeterministic(t *testing.T) {
	build := func() *Result {
		g := newGreedyFIFO()
		var jobs []*job.Job
		for i := 0; i < 60; i++ {
			// Many identical submit times force tie-breaking.
			jobs = append(jobs, mkJob(int64(i+1), float64((i/6)*30), 25, 1+i%3))
		}
		sim, err := New(g, jobs, Options{Cluster: NewCluster(8, 2), CycleInterval: 10})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	a, b := build(), build()
	for i := range a.Outcomes {
		oa, ob := a.Outcomes[i], b.Outcomes[i]
		if oa.Job.ID != ob.Job.ID || oa.FirstStart != ob.FirstStart || oa.CompletionTime != ob.CompletionTime {
			t.Fatalf("nondeterministic outcome %d: %+v vs %+v", i, oa, ob)
		}
	}
}
