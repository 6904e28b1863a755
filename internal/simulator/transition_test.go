package simulator

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"threesigma/internal/faults"
	"threesigma/internal/job"
)

// callLog records the scheduler calls a transition makes, in order.
type callLog struct{ calls []string }

func (c *callLog) JobSubmitted(j *job.Job, now float64) {
	c.calls = append(c.calls, fmt.Sprintf("submitted %d at %g", j.ID, now))
}
func (c *callLog) JobCompleted(j *job.Job, base, now float64) {
	c.calls = append(c.calls, fmt.Sprintf("completed %d at %g", j.ID, now))
}
func (c *callLog) JobRemoved(id job.ID)  { c.calls = append(c.calls, fmt.Sprintf("removed %d", id)) }
func (c *callLog) Cycle(*State) Decision { return Decision{} }

// tieEngine is the cluster before the tie window: two partitions of four
// nodes, one node of partition 1 down, and three jobs running from t=0 —
// 1 (run 2) and 3 (run 4) on partition 0, 2 (run 3) on partition 1 — with
// job 3 evicted once already, so its next eviction exhausts a budget of 1.
func tieEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(Cluster{Partitions: []int{4, 4}})
	e.SetRetryBudget(1)
	for _, j := range []*job.Job{mkJob(1, 0, 10, 2), mkJob(2, 0, 10, 2), mkJob(3, 0, 10, 2)} {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	e.Start(StartAction{Job: 3, Alloc: Alloc{2, 0}}, 0)
	e.FailNodes(0, 4, 0) // evicts job 3 (run 1)
	e.RecoverNodes(0, 4, 0)
	e.FailNodes(1, 1, 0)
	for _, a := range []StartAction{{Job: 1, Alloc: Alloc{2, 0}}, {Job: 2, Alloc: Alloc{0, 2}}, {Job: 3, Alloc: Alloc{2, 0}}} {
		if _, ok := e.Start(a, 0); !ok {
			t.Fatalf("start %v refused", a)
		}
	}
	return e
}

// The tie window: at t=10 an arrival, a recovery and a failure (the
// schedule's tie order: recoveries first), two completions and a crash; at
// t=20, the cycle's own time, a second arrival.
var (
	tieJobs   = []*job.Job{mkJob(4, 10, 5, 1), mkJob(5, 20, 5, 1)}
	tieFaults = []faults.Event{
		{Time: 10, Kind: faults.NodeRecover, Partition: 1, Nodes: 1},
		{Time: 10, Kind: faults.NodeFail, Partition: 0, Nodes: 1},
	}
	tieEnds = []RunEnd{ // out of launch order: Apply orders them
		{ID: 3, RunID: 4, At: 10, Crash: true},
		{ID: 2, RunID: 3, At: 10},
		{ID: 1, RunID: 2, At: 10},
	}
)

// The order both drivers apply the tie window in: the arrival; the
// recovery; the failure, which evicts the youngest attempt on partition 0 —
// job 3, by the larger ID among equal starts — out of retries; the two
// completions in launch order; the crash of job 3's attempt, stale by then;
// the arrival at the cycle's own time.
var tieCalls = []string{"submitted 4 at 10", "removed 3", "completed 1 at 10", "completed 2 at 10", "submitted 5 at 20"}

// checkTieOutcome checks the calls and what the window leaves: job 3 failed out at the failure,
// so the crash found nothing to end; partition 1 back up, one node of
// partition 0 down.
func checkTieOutcome(t *testing.T, e *Engine, calls []string) {
	t.Helper()
	if !reflect.DeepEqual(calls, tieCalls) {
		t.Errorf("calls %q, want %q", calls, tieCalls)
	}
	if o := e.Outcome(3); !o.Failed || o.Evictions != 2 || o.LostToFailures != 2*10 {
		t.Errorf("job 3: failed=%t evictions=%d lost=%g, want failed out at t=10 by the failure", o.Failed, o.Evictions, o.LostToFailures)
	}
	if !reflect.DeepEqual(e.DownNodes(), Alloc{1, 0}) || e.PendingCount() != 2 || e.RunningCount() != 0 {
		t.Errorf("down %v, %d pending, %d running; want [1 0], 2, 0", e.DownNodes(), e.PendingCount(), e.RunningCount())
	}
}

// TestTransitionTieOrder: a window whose events all tie is applied in the
// one order — time, then arrival, fault event, end (in launch order) — by
// the applier as the service hands it a window and by the simulator's
// window on its own queues.
func TestTransitionTieOrder(t *testing.T) {
	t.Run("apply", func(t *testing.T) {
		e, log := tieEngine(t), &callLog{}
		tr := Transition{Sched: log}
		got := tr.Apply(e, tieJobs, tieFaults, append([]RunEnd(nil), tieEnds...))
		checkTieOutcome(t, e, log.calls)
		want := Applied{Last: 20, Completed: []job.ID{1, 2}, Evicted: []job.ID{3}, FailedOut: []job.ID{3}}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("applied %+v, want %+v", *got, want)
		}
	})
	t.Run("sim", func(t *testing.T) {
		log := &callLog{}
		s, err := New(log, nil, Options{Cluster: Cluster{Partitions: []int{4, 4}}})
		if err != nil {
			t.Fatal(err)
		}
		s.eng, s.tr.Sched = tieEngine(t), log
		s.jobs = append([]*job.Job(nil), tieJobs...)
		s.faults = tieFaults
		s.ends = append([]RunEnd(nil), tieEnds...)
		s.window(20)
		checkTieOutcome(t, s.eng, log.calls)
	})
}

// TestCycleBoundary pins the boundary rule on the simulator: the cycle at t
// sees an arrival stamped t, but not an end or a fault event at t — those
// land in the next cycle's window.
func TestCycleBoundary(t *testing.T) {
	if !Arrived(20, 20) || Due(20, 20) || !Due(19.999, 20) || Arrived(20.001, 20) {
		t.Fatal("boundary helpers disagree with the rule")
	}
	type seen struct {
		pending, running []job.ID
		free             Alloc
	}
	var cycles []seen
	rec := &scriptSched{cycle: func(st *State) Decision {
		var s seen
		for _, j := range st.Pending {
			s.pending = append(s.pending, j.ID)
		}
		for _, r := range st.Running {
			s.running = append(s.running, r.Job.ID)
		}
		s.free = st.Free
		cycles = append(cycles, s)
		if st.Now == 10 { // job 1, stamped at the first cycle, runs 10 s
			return Decision{Start: []StartAction{{Job: 1, Alloc: Alloc{1}}}}
		}
		return Decision{}
	}}
	s, err := New(rec, []*job.Job{mkJob(1, 10, 10, 1), mkJob(2, 20, 100, 1)}, Options{Cluster: Cluster{Partitions: []int{2}}, CycleInterval: 10, DrainWindow: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.faults = []faults.Event{{Time: 20, Kind: faults.NodeFail, Partition: 0, Nodes: 1}}
	s.Run()
	want := []seen{
		{pending: []job.ID{1}, free: Alloc{2}},                       // t=10: the arrival at 10
		{pending: []job.ID{2}, running: []job.ID{1}, free: Alloc{1}}, // t=20: job 1 ends and a node fails at 20, not yet
		{pending: []job.ID{2}, free: Alloc{1}},                       // t=30: both applied
	}
	if !reflect.DeepEqual(cycles, want) {
		t.Fatalf("cycles saw %+v, want %+v", cycles, want)
	}
}

type scriptSched struct{ cycle func(*State) Decision }

func (s *scriptSched) JobSubmitted(*job.Job, float64)          {}
func (s *scriptSched) JobCompleted(*job.Job, float64, float64) {}
func (s *scriptSched) Cycle(st *State) Decision                { return s.cycle(st) }

// countSched counts completions without allocating.
type countSched struct{ completed int }

func (c *countSched) JobSubmitted(*job.Job, float64)          {}
func (c *countSched) JobCompleted(*job.Job, float64, float64) { c.completed++ }
func (c *countSched) Cycle(*State) Decision                   { return Decision{} }

// TestApplyAllocatesNothingPerEvent: once its buffers have grown, a window
// of ends costs the applier no allocation — the simulator's event loop is
// on the benchmark's measured path.
func TestApplyAllocatesNothingPerEvent(t *testing.T) {
	const n = 64
	running := func() (*Engine, []RunEnd) {
		e := NewEngine(Cluster{Partitions: []int{n}})
		var ends []RunEnd
		for i := 1; i <= n; i++ {
			if err := e.Submit(mkJob(int64(i), 0, 10, 1)); err != nil {
				t.Fatal(err)
			}
			run, _ := e.Start(StartAction{Job: job.ID(i), Alloc: Alloc{1}}, 0)
			ends = append(ends, RunEnd{ID: job.ID(i), RunID: run.RunID, At: float64(n - i)})
		}
		return e, ends
	}
	sched := &countSched{}
	tr := Transition{Sched: sched}
	e, ends := running()
	tr.Apply(e, nil, nil, ends) // grows the buffers
	e, ends = running()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.Apply(e, nil, nil, ends)
	runtime.ReadMemStats(&after)
	if sched.completed != 2*n {
		t.Fatalf("%d completions, want %d", sched.completed, 2*n)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > 0 {
		t.Fatalf("applying %d ends allocated %d times", n, allocs)
	}
}
