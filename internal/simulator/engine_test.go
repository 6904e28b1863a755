package simulator

import (
	"math"
	"testing"
)

func engAllocated(e *Engine) int {
	return e.Cluster().TotalNodes() - e.FreeNodes().Total()
}

func TestEngineSubmitValidation(t *testing.T) {
	e := NewEngine(NewCluster(8, 2))
	if err := e.Submit(mkJob(1, 0, 10, 9)); err == nil {
		t.Fatal("oversized gang accepted")
	}
	if err := e.Submit(mkJob(1, 0, 10, 9000)); err == nil {
		t.Fatal("absurd gang accepted")
	}
	if err := e.Submit(mkJob(2, 0, 10, 4)); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(mkJob(2, 5, 10, 2)); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if e.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", e.PendingCount())
	}
}

func TestEngineStartValidationCountsSkips(t *testing.T) {
	e := NewEngine(NewCluster(8, 2))
	j := mkJob(1, 0, 10, 4)
	if err := e.Submit(j); err != nil {
		t.Fatal(err)
	}
	cases := []StartAction{
		{Job: 99, Alloc: Alloc{2, 2}}, // unknown job
		{Job: 1, Alloc: Alloc{4}},     // wrong width
		{Job: 1, Alloc: Alloc{1, 2}},  // wrong total
		{Job: 1, Alloc: Alloc{5, -1}}, // negative entry
		{Job: 1, Alloc: Alloc{5, 0}},  // over partition capacity (4 free)
	}
	for i, a := range cases {
		if _, ok := e.Start(a, 0); ok {
			t.Fatalf("case %d: invalid start accepted", i)
		}
	}
	if e.SkippedStarts() != len(cases) {
		t.Fatalf("skipped = %d, want %d", e.SkippedStarts(), len(cases))
	}
	run, ok := e.Start(StartAction{Job: 1, Alloc: Alloc{2, 2}}, 3)
	if !ok || run.Job.ID != 1 {
		t.Fatal("valid start rejected")
	}
	// Starting the same (now running) job again is invalid.
	if _, ok := e.Start(StartAction{Job: 1, Alloc: Alloc{2, 2}}, 3); ok {
		t.Fatal("double start accepted")
	}
	if o := e.Outcome(1); !o.Started || o.FirstStart != 3 {
		t.Fatalf("outcome = %+v", o)
	}
}

// TestEngineAttemptIndex: each start's Attempt counts the job's earlier
// attempts, which a preemption, a node-loss eviction and a crash each ended.
func TestEngineAttemptIndex(t *testing.T) {
	e := NewEngine(NewCluster(4, 1))
	if err := e.Submit(mkJob(1, 0, 10, 2)); err != nil {
		t.Fatal(err)
	}
	start := func(want int) *StartedRun {
		t.Helper()
		run, ok := e.Start(StartAction{Job: 1, Alloc: Alloc{2}}, 0)
		if !ok || run.Attempt != want {
			t.Fatalf("start: ok=%v attempt %v, want attempt %d", ok, run, want)
		}
		return run
	}
	start(0)
	e.Preempt(1, 1)
	start(1)
	if _, _, _, err := e.FailNodes(0, 4, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RecoverNodes(0, 4, 3); err != nil {
		t.Fatal(err)
	}
	run := start(2)
	if _, ok := e.CrashRun(1, run.RunID, 4); !ok {
		t.Fatal("crash of the live run refused")
	}
	start(3)
}

func TestEngineConservationAcrossLifecycle(t *testing.T) {
	e := NewEngine(NewCluster(8, 2))
	check := func(stage string, wantAlloc int) {
		t.Helper()
		if got := engAllocated(e); got != wantAlloc {
			t.Fatalf("%s: allocated = %d, want %d", stage, got, wantAlloc)
		}
	}
	j := mkJob(1, 0, 100, 6)
	if err := e.Submit(j); err != nil {
		t.Fatal(err)
	}
	check("after submit", 0)
	run, ok := e.Start(StartAction{Job: 1, Alloc: Alloc{4, 2}}, 0)
	if !ok {
		t.Fatal("start failed")
	}
	check("running", 6)
	if !e.Preempt(1, 20) {
		t.Fatal("preempt failed")
	}
	check("preempted", 0)
	if e.PendingCount() != 1 {
		t.Fatal("preempted job must requeue")
	}
	// The old attempt's completion is now stale.
	if _, _, ok := e.Complete(1, run.RunID, 100); ok {
		t.Fatal("stale completion accepted")
	}
	run2, ok := e.Start(StartAction{Job: 1, Alloc: Alloc{2, 4}}, 30)
	if !ok {
		t.Fatal("restart failed")
	}
	if run2.RunID == run.RunID {
		t.Fatal("restart must get a fresh run generation")
	}
	check("restarted", 6)
	if _, _, ok := e.Complete(1, run2.RunID, 130); !ok {
		t.Fatal("completion rejected")
	}
	check("completed", 0)
	o := e.Outcome(1)
	if !o.Completed || o.Preemptions != 1 || o.WastedWork != 120 {
		t.Fatalf("outcome = %+v", o)
	}
	if !e.Idle() {
		t.Fatal("engine should be idle")
	}
}

func TestEngineBaseRuntimeNormalization(t *testing.T) {
	e := NewEngine(NewCluster(8, 2))
	j := mkJob(1, 0, 100, 8)
	j.Preferred = []int{0}
	if err := e.Submit(j); err != nil {
		t.Fatal(err)
	}
	run, ok := e.Start(StartAction{Job: 1, Alloc: Alloc{4, 4}}, 0)
	if !ok {
		t.Fatal("start failed")
	}
	if run.OnPreferred {
		t.Fatal("spilled allocation marked preferred")
	}
	if got := run.EffectiveRuntime(100); math.Abs(got-150) > 1e-9 {
		t.Fatalf("effective runtime = %v, want 150", got)
	}
	_, base, ok := e.Complete(1, run.RunID, 150)
	if !ok {
		t.Fatal("completion rejected")
	}
	if math.Abs(base-100) > 1e-9 {
		t.Fatalf("base = %v, want 100 (normalized by NonPrefFactor)", base)
	}
}

func TestEngineCancelPendingAndRunning(t *testing.T) {
	e := NewEngine(NewCluster(8, 2))
	for id := int64(1); id <= 3; id++ {
		if err := e.Submit(mkJob(id, 0, 100, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := e.Start(StartAction{Job: 1, Alloc: Alloc{2, 0}}, 0); !ok {
		t.Fatal("start failed")
	}
	// Cancel a pending job: leaves the queue, nodes untouched.
	wasRunning, ok := e.Cancel(2, 10)
	if !ok || wasRunning {
		t.Fatalf("cancel pending: running=%v ok=%v", wasRunning, ok)
	}
	if e.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", e.PendingCount())
	}
	// Cancel the running job: nodes come back, work is wasted, no requeue.
	wasRunning, ok = e.Cancel(1, 10)
	if !ok || !wasRunning {
		t.Fatalf("cancel running: running=%v ok=%v", wasRunning, ok)
	}
	if engAllocated(e) != 0 {
		t.Fatal("cancelled job's nodes not freed")
	}
	if e.PendingCount() != 1 || e.RunningCount() != 0 {
		t.Fatal("cancelled running job must not requeue")
	}
	o := e.Outcome(1)
	if !o.Cancelled || o.Completed || o.WastedWork != 20 {
		t.Fatalf("outcome = %+v", o)
	}
	if !e.Outcome(2).Cancelled {
		t.Fatal("pending cancel must mark the outcome")
	}
	// Unknown / already-cancelled jobs.
	if _, ok := e.Cancel(2, 11); ok {
		t.Fatal("double cancel accepted")
	}
	if _, ok := e.Cancel(99, 11); ok {
		t.Fatal("unknown cancel accepted")
	}
}

func TestEngineResize(t *testing.T) {
	e := NewEngine(NewCluster(8, 2))
	if err := e.Submit(mkJob(1, 0, 100, 4)); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Start(StartAction{Job: 1, Alloc: Alloc{4, 0}}, 0); !ok {
		t.Fatal("start failed")
	}
	st := e.Snapshot(0)
	// Grow partition 1.
	if err := e.Resize(1, 4); err != nil {
		t.Fatal(err)
	}
	if e.Cluster().TotalNodes() != 12 || e.FreeNodes()[1] != 8 {
		t.Fatalf("after grow: cluster=%v free=%v", e.Cluster(), e.FreeNodes())
	}
	// Draining busy partition 0 must fail (0 free there).
	if err := e.Resize(0, -1); err == nil {
		t.Fatal("drained allocated nodes")
	}
	if err := e.Resize(1, -8); err != nil {
		t.Fatal(err)
	}
	if err := e.Resize(1, -1); err == nil {
		t.Fatal("drained below zero")
	}
	if err := e.Resize(5, 1); err == nil {
		t.Fatal("resized out-of-range partition")
	}
	// Copy-on-write: the earlier snapshot keeps the original shape.
	if st.Cluster.TotalNodes() != 8 {
		t.Fatalf("snapshot cluster mutated: %v", st.Cluster)
	}
}

// checkNodeConservation asserts the lifecycle invariant: per partition,
// free + allocated + down == provisioned.
func checkNodeConservation(t *testing.T, e *Engine, stage string) {
	t.Helper()
	free, down := e.FreeNodes(), e.DownNodes()
	for p, cap := range e.Cluster().Partitions {
		if free[p] < 0 || down[p] < 0 {
			t.Fatalf("%s: negative counts in partition %d: free=%d down=%d", stage, p, free[p], down[p])
		}
		if cap-free[p]-down[p] < 0 {
			t.Fatalf("%s: partition %d over-committed: free=%d down=%d cap=%d", stage, p, free[p], down[p], cap)
		}
	}
	eff := e.EffectiveCluster()
	for p := range eff.Partitions {
		if eff.Partitions[p] != e.Cluster().Partitions[p]-down[p] {
			t.Fatalf("%s: effective[%d]=%d, want provisioned-down=%d",
				stage, p, eff.Partitions[p], e.Cluster().Partitions[p]-down[p])
		}
	}
}

func TestEngineFailEvictsAndRecovers(t *testing.T) {
	e := NewEngine(NewCluster(8, 2)) // 4 nodes per partition
	e.SetRetryBudget(3)
	// Two jobs on partition 0: job 1 started first (older attempt).
	for id := int64(1); id <= 2; id++ {
		if err := e.Submit(mkJob(id, 0, 100, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := e.Start(StartAction{Job: 1, Alloc: Alloc{2, 0}}, 0); !ok {
		t.Fatal("start 1 failed")
	}
	if _, ok := e.Start(StartAction{Job: 2, Alloc: Alloc{2, 0}}, 5); !ok {
		t.Fatal("start 2 failed")
	}
	checkNodeConservation(t, e, "running")
	// Failing 2 nodes: 0 free, so the youngest attempt (job 2) is evicted.
	failed, evicted, exhausted, err := e.FailNodes(0, 2, 10)
	if err != nil || failed != 2 {
		t.Fatalf("FailNodes: failed=%d err=%v", failed, err)
	}
	if len(evicted) != 1 || evicted[0] != 2 || len(exhausted) != 0 {
		t.Fatalf("evicted=%v exhausted=%v, want youngest job 2 requeued", evicted, exhausted)
	}
	if !e.IsPending(2) || !e.IsRunning(1) {
		t.Fatal("job 2 must requeue, job 1 must keep running")
	}
	checkNodeConservation(t, e, "after fail")
	o := e.Outcome(2)
	if o.Evictions != 1 || o.LostToFailures != 10 || o.Failed {
		t.Fatalf("outcome 2 = %+v, want 1 eviction, 5s*2tasks lost", o)
	}
	if o.Preemptions != 0 || o.WastedWork != 0 {
		t.Fatalf("failure charged to preemption accounting: %+v", o)
	}
	if e.EffectiveCluster().Partitions[0] != 2 {
		t.Fatalf("effective capacity = %v, want partition 0 shrunk to 2", e.EffectiveCluster())
	}
	// Down-time accrues at 2 node-seconds per second.
	if got := e.NodeDownSeconds(20); got != 20 {
		t.Fatalf("NodeDownSeconds(20) = %v, want 20", got)
	}
	n, err := e.RecoverNodes(0, 5, 30) // capped at the 2 down nodes
	if err != nil || n != 2 {
		t.Fatalf("RecoverNodes: n=%d err=%v", n, err)
	}
	checkNodeConservation(t, e, "after recover")
	if got := e.NodeDownSeconds(100); got != 40 {
		t.Fatalf("NodeDownSeconds(100) = %v, want 40 (accrual stops at recovery)", got)
	}
	if e.EffectiveCluster().TotalNodes() != 8 {
		t.Fatal("recovery must restore full effective capacity")
	}
}

func TestEngineRetryBudgetFailsOut(t *testing.T) {
	e := NewEngine(NewCluster(4, 1))
	e.SetRetryBudget(2)
	if err := e.Submit(mkJob(1, 0, 100, 4)); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; ; attempt++ {
		run, ok := e.Start(StartAction{Job: 1, Alloc: Alloc{4}}, float64(attempt*10))
		if !ok {
			t.Fatalf("attempt %d: start failed", attempt)
		}
		requeued, ok := e.CrashRun(1, run.RunID, float64(attempt*10+5))
		if !ok {
			t.Fatalf("attempt %d: crash rejected", attempt)
		}
		// Stale runID after the eviction must be a no-op.
		if _, ok := e.CrashRun(1, run.RunID, float64(attempt*10+6)); ok {
			t.Fatal("stale crash accepted")
		}
		if !requeued {
			break
		}
		if attempt > 10 {
			t.Fatal("retry budget never exhausted")
		}
	}
	o := e.Outcome(1)
	if !o.Failed || o.Completed || o.Evictions != 3 {
		t.Fatalf("outcome = %+v, want failed-out after budget+1=3 evictions", o)
	}
	if e.IsPending(1) || e.IsRunning(1) {
		t.Fatal("failed-out job must leave the system")
	}
	if e.FreeNodes().Total() != 4 {
		t.Fatal("failed-out job's nodes not freed")
	}
}

func TestEngineDrainNodes(t *testing.T) {
	e := NewEngine(NewCluster(8, 2))
	if err := e.Submit(mkJob(1, 0, 100, 3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Start(StartAction{Job: 1, Alloc: Alloc{3, 0}}, 0); !ok {
		t.Fatal("start failed")
	}
	// Drain must never evict: partition 0 has 1 free, draining 2 fails.
	if err := e.DrainNodes(0, 2, 10); err == nil {
		t.Fatal("drain exceeded free capacity")
	}
	if err := e.DrainNodes(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	if e.IsRunning(1) != true || e.Outcome(1).Evictions != 0 {
		t.Fatal("drain evicted a running job")
	}
	checkNodeConservation(t, e, "after drain")
	if err := e.DrainNodes(0, 0, 10); err == nil {
		t.Fatal("non-positive drain accepted")
	}
	if err := e.DrainNodes(9, 1, 10); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	if n, err := e.RecoverNodes(0, 1, 20); err != nil || n != 1 {
		t.Fatalf("recover after drain: n=%d err=%v", n, err)
	}
}

func TestEngineEffectiveClusterNoFaultIdentity(t *testing.T) {
	e := NewEngine(NewCluster(8, 2))
	// With nothing down the effective cluster is the provisioned one —
	// byte-identical behavior for fault-free runs.
	if &e.EffectiveCluster().Partitions[0] != &e.Cluster().Partitions[0] {
		t.Fatal("EffectiveCluster must alias the provisioned cluster when nothing is down")
	}
}

func TestEngineSnapshotIsIsolated(t *testing.T) {
	e := NewEngine(NewCluster(8, 2))
	for id := int64(1); id <= 2; id++ {
		if err := e.Submit(mkJob(id, 0, 100, 2)); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Snapshot(5)
	st.Free[0] = -99
	st.Pending = st.Pending[:0]
	if e.FreeNodes()[0] != 4 || e.PendingCount() != 2 {
		t.Fatal("snapshot mutation leaked into engine")
	}
	if st.Now != 5 {
		t.Fatalf("snapshot now = %v", st.Now)
	}
}
