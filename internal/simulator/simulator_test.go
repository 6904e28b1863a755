package simulator

import (
	"math"
	"testing"

	"threesigma/internal/job"
)

// greedyFIFO is a minimal test scheduler: starts pending jobs in FIFO order
// wherever nodes are free, optionally preempting according to a script.
type greedyFIFO struct {
	submitted  []job.ID
	completed  map[job.ID]float64
	preemptAt  map[float64][]job.ID // time -> jobs to preempt on that cycle
	baseSeen   map[job.ID]float64
	starts     int
	skipStarts bool
}

func newGreedyFIFO() *greedyFIFO {
	return &greedyFIFO{completed: map[job.ID]float64{}, baseSeen: map[job.ID]float64{}}
}

func (g *greedyFIFO) JobSubmitted(j *job.Job, now float64) {
	g.submitted = append(g.submitted, j.ID)
}

func (g *greedyFIFO) JobCompleted(j *job.Job, base, now float64) {
	g.completed[j.ID] = now
	g.baseSeen[j.ID] = base
}

func (g *greedyFIFO) Cycle(st *State) Decision {
	var d Decision
	if ids, ok := g.preemptAt[st.Now]; ok {
		d.Preempt = append(d.Preempt, ids...)
	}
	if g.skipStarts {
		return d
	}
	free := st.Free.Clone()
	for _, j := range st.Pending {
		// Try preferred partitions first, then all.
		alloc := make(Alloc, len(free))
		need := j.Tasks
		for p := range free {
			if !j.PrefersPartition(p) {
				continue
			}
			n := min(need, free[p])
			alloc[p] += n
			need -= n
			if need == 0 {
				break
			}
		}
		if need > 0 {
			for p := range free {
				n := min(need, free[p]-alloc[p])
				alloc[p] += n
				need -= n
				if need == 0 {
					break
				}
			}
		}
		if need > 0 {
			continue
		}
		for p, n := range alloc {
			free[p] -= n
		}
		d.Start = append(d.Start, StartAction{Job: j.ID, Alloc: alloc})
		g.starts++
	}
	return d
}

func mkJob(id int64, submit, runtime float64, tasks int) *job.Job {
	return &job.Job{ID: job.ID(id), Class: job.BestEffort, Submit: submit, Runtime: runtime, Tasks: tasks, NonPrefFactor: 1.5}
}

func TestClusterConstruction(t *testing.T) {
	c := NewCluster(256, 8)
	if c.TotalNodes() != 256 || len(c.Partitions) != 8 || c.Partitions[0] != 32 {
		t.Fatalf("cluster = %+v", c)
	}
	uneven := NewCluster(10, 3)
	if uneven.TotalNodes() != 10 {
		t.Fatalf("uneven total = %d", uneven.TotalNodes())
	}
	if NewCluster(5, 0).TotalNodes() != 5 {
		t.Fatal("parts=0 should default to one partition")
	}
}

func TestSingleJobRunsToCompletion(t *testing.T) {
	g := newGreedyFIFO()
	j := mkJob(1, 0, 100, 4)
	sim, err := New(g, []*job.Job{j}, Options{Cluster: NewCluster(8, 2), CycleInterval: 10})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	o := res.Outcomes[0]
	if !o.Completed || !o.Started {
		t.Fatalf("outcome = %+v", o)
	}
	if o.FirstStart != 0 {
		t.Errorf("start = %v, want 0 (first cycle)", o.FirstStart)
	}
	if math.Abs(o.CompletionTime-100) > 1e-9 {
		t.Errorf("completion = %v, want 100", o.CompletionTime)
	}
	if got := g.baseSeen[1]; math.Abs(got-100) > 1e-9 {
		t.Errorf("base runtime reported = %v, want 100", got)
	}
	if len(g.submitted) != 1 {
		t.Error("submission callback missing")
	}
}

func TestGangSchedulingWaitsForCapacity(t *testing.T) {
	g := newGreedyFIFO()
	// Job 1 occupies the whole cluster for 50s; job 2 needs it all too.
	j1 := mkJob(1, 0, 50, 8)
	j2 := mkJob(2, 5, 30, 8)
	sim, err := New(g, []*job.Job{j1, j2}, Options{Cluster: NewCluster(8, 2), CycleInterval: 10})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	var o2 *Outcome
	for _, o := range res.Outcomes {
		if o.Job.ID == 2 {
			o2 = o
		}
	}
	if o2.FirstStart < 50 {
		t.Errorf("job2 started at %v before job1 finished at 50", o2.FirstStart)
	}
	if !o2.Completed {
		t.Error("job2 should complete")
	}
}

func TestNonPreferredSlowdown(t *testing.T) {
	g := newGreedyFIFO()
	// Job prefers partition 0 (4 nodes) but needs 8: it must spill to
	// partition 1 and run 1.5x longer.
	j := mkJob(1, 0, 100, 8)
	j.Preferred = []int{0}
	sim, err := New(g, []*job.Job{j}, Options{Cluster: NewCluster(8, 2), CycleInterval: 10})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	o := res.Outcomes[0]
	if o.OnPreferred {
		t.Error("job cannot be on preferred resources")
	}
	if math.Abs(o.CompletionTime-150) > 1e-9 {
		t.Errorf("completion = %v, want 150 (1.5x slowdown)", o.CompletionTime)
	}
	// The base runtime reported to the predictor is normalized back.
	if got := g.baseSeen[1]; math.Abs(got-100) > 1e-9 {
		t.Errorf("base runtime = %v, want 100", got)
	}
}

func TestPreemptionLosesWorkAndRestarts(t *testing.T) {
	g := newGreedyFIFO()
	g.preemptAt = map[float64][]job.ID{20: {1}}
	j := mkJob(1, 0, 100, 2)
	sim, err := New(g, []*job.Job{j}, Options{Cluster: NewCluster(4, 1), CycleInterval: 10})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	o := res.Outcomes[0]
	if o.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", o.Preemptions)
	}
	if o.WastedWork != 40 { // 20s * 2 nodes
		t.Errorf("wasted work = %v, want 40", o.WastedWork)
	}
	if !o.Completed {
		t.Fatal("job should restart and complete")
	}
	// Preempted at 20, restarted on the next cycle (30), runs a full 100s.
	if math.Abs(o.CompletionTime-130) > 1e-9 {
		t.Errorf("completion = %v, want 130", o.CompletionTime)
	}
}

func TestOversizedJobRejected(t *testing.T) {
	g := newGreedyFIFO()
	j := mkJob(1, 0, 10, 100)
	if _, err := New(g, []*job.Job{j}, Options{Cluster: NewCluster(8, 2)}); err == nil {
		t.Fatal("expected error for oversized job")
	}
	z := mkJob(2, 0, 10, 0)
	if _, err := New(g, []*job.Job{z}, Options{Cluster: NewCluster(8, 2)}); err == nil {
		t.Fatal("expected error for zero-task job")
	}
}

func TestInvalidStartActionsSkipped(t *testing.T) {
	g := newGreedyFIFO()
	g.skipStarts = true
	// Scheduler returning starts for unknown jobs / bad allocs.
	j := mkJob(1, 0, 10, 2)
	sim, err := New(&badScheduler{}, []*job.Job{j}, Options{Cluster: NewCluster(4, 2), CycleInterval: 5, DrainWindow: 60})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.SkippedStarts == 0 {
		t.Error("invalid starts should be counted as skipped")
	}
	if res.Outcomes[0].Completed {
		t.Error("job should never have started")
	}
}

type badScheduler struct{}

func (b *badScheduler) JobSubmitted(*job.Job, float64)          {}
func (b *badScheduler) JobCompleted(*job.Job, float64, float64) {}
func (b *badScheduler) Cycle(st *State) Decision {
	return Decision{Start: []StartAction{
		{Job: 999, Alloc: Alloc{1, 1}}, // unknown job
		{Job: 1, Alloc: Alloc{5, 0}},   // exceeds free and wrong total
		{Job: 1, Alloc: Alloc{1}},      // wrong partition count
		{Job: 1, Alloc: Alloc{-1, 3}},  // negative entry
	}}
}

func TestRuntimeJitterPerturbsCompletion(t *testing.T) {
	g := newGreedyFIFO()
	j := mkJob(1, 0, 1000, 2)
	sim, err := New(g, []*job.Job{j}, Options{Cluster: NewCluster(4, 1), CycleInterval: 10, RealCluster: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	o := res.Outcomes[0]
	if !o.Completed {
		t.Fatal("should complete")
	}
	if o.CompletionTime == 1000 {
		t.Error("jitter should perturb the runtime")
	}
	if o.CompletionTime < 500 || o.CompletionTime > 2000 {
		t.Errorf("jittered completion %v implausible", o.CompletionTime)
	}
}

func TestPlacementDelayShiftsStart(t *testing.T) {
	g := newGreedyFIFO()
	j := mkJob(1, 0, 100, 2)
	sim, err := New(g, []*job.Job{j}, Options{Cluster: NewCluster(4, 1), CycleInterval: 10, RealCluster: true})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if got := res.Outcomes[0].FirstStart; got != placementDelay {
		t.Errorf("start = %v, want %v", got, placementDelay)
	}
}

func TestDeadlineMissAccounting(t *testing.T) {
	o := &Outcome{Job: &job.Job{Class: job.SLO, Deadline: 100}, Completed: true, CompletionTime: 101}
	if !o.MissedDeadline() {
		t.Error("late completion should miss")
	}
	o.CompletionTime = 99
	if o.MissedDeadline() {
		t.Error("early completion should not miss")
	}
	inc := &Outcome{Job: &job.Job{Class: job.SLO, Deadline: 100}}
	if !inc.MissedDeadline() {
		t.Error("incomplete SLO job should count as missed")
	}
	be := &Outcome{Job: &job.Job{Class: job.BestEffort}}
	if be.MissedDeadline() {
		t.Error("BE jobs cannot miss deadlines")
	}
}

func TestManyJobsThroughput(t *testing.T) {
	g := newGreedyFIFO()
	var jobs []*job.Job
	for i := 0; i < 200; i++ {
		jobs = append(jobs, mkJob(int64(i), float64(i), 20, 1+i%4))
	}
	sim, err := New(g, jobs, Options{Cluster: NewCluster(16, 4), CycleInterval: 5})
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
	if completed != 200 {
		t.Errorf("completed = %d, want 200", completed)
	}
	if res.Cycles == 0 {
		t.Error("no cycles recorded")
	}
	// Outcomes are sorted by job ID.
	for i := 1; i < len(res.Outcomes); i++ {
		if res.Outcomes[i].Job.ID < res.Outcomes[i-1].Job.ID {
			t.Fatal("outcomes not sorted")
		}
	}
}

func TestAllocHelpers(t *testing.T) {
	a := Alloc{1, 2, 3}
	if a.Total() != 6 {
		t.Error("Total wrong")
	}
	c := a.Clone()
	c[0] = 9
	if a[0] == 9 {
		t.Error("Clone aliases")
	}
}

// TestDrainSemantics: after the last cycle (last arrival + DrainWindow),
// no new jobs start, but already-running jobs run to completion.
func TestDrainSemantics(t *testing.T) {
	g := newGreedyFIFO()
	longRunner := mkJob(1, 0, 500, 2) // started at t=0, finishes at 500
	lateArrival := mkJob(2, 90, 100, 2)
	sim, err := New(g, []*job.Job{longRunner, lateArrival}, Options{
		Cluster:       NewCluster(2, 1),
		CycleInterval: 10,
		DrainWindow:   20, // cycles stop at ~110
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	o1, o2 := res.Outcomes[0], res.Outcomes[1]
	if !o1.Completed || o1.CompletionTime != 500 {
		t.Errorf("running job should finish past the horizon: %+v", o1)
	}
	// Job 2 needs the nodes job 1 holds until t=500, after the last cycle
	// at ~110: it can never start.
	if o2.Started {
		t.Errorf("job arriving with no cycles left should not start: %+v", o2)
	}
	if res.EndTime != 110 {
		t.Errorf("EndTime = %v, want lastArrival+drain = 110", res.EndTime)
	}
}
