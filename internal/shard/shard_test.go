package shard_test

import (
	"runtime"
	"testing"

	"threesigma/internal/baselines"
	"threesigma/internal/core"
	"threesigma/internal/job"
	"threesigma/internal/metrics"
	"threesigma/internal/predictor"
	"threesigma/internal/shard"
	"threesigma/internal/simulator"
	"threesigma/internal/workload"
)

func testConfig() core.Config {
	return core.Config{
		Slots: 5, SlotDur: 240, CycleInterval: 10, MaxPending: 24,
		SolverMaxNodes: 24,
	}
}

// domainWorkload generates an equivalence-partitioned workload: every SLO
// job prefers exactly one domain's partitions with a prohibitive slowdown
// elsewhere, so a monolithic solver never places across domain boundaries
// and the sharded schedule can match it bit for bit.
func domainWorkload(t *testing.T, cluster simulator.Cluster, domains int, sloShare float64, seed int64) *workload.Workload {
	t.Helper()
	w := workload.Generate(workload.Config{
		Cluster:       cluster,
		DurationHours: 0.15,
		Load:          0.8,
		SLOLoadShare:  sloShare,
		NonPrefFactor: 1000,
		ArrivalSCV:    1,
		Domains:       domains,
		Seed:          seed,
	})
	if len(w.Jobs) == 0 {
		t.Fatal("empty workload")
	}
	return w
}

// runSharded simulates the workload under a coordinator with n shards
// (n=0: the raw monolithic scheduler) and returns the result + coordinator.
func runSharded(t *testing.T, w *workload.Workload, n int, seed int64) (*simulator.Result, *shard.Coordinator) {
	t.Helper()
	pred := predictor.New(predictor.Config{})
	for _, r := range w.Train {
		pred.Observe(r.Job(), r.Runtime)
	}
	sched := baselines.ThreeSigma(pred, testConfig())
	var impl simulator.Scheduler = sched
	var coord *shard.Coordinator
	if n > 0 {
		var err error
		coord, err = shard.NewCoordinator(sched, w.Cluster, n)
		if err != nil {
			t.Fatal(err)
		}
		impl = coord
	}
	sim, err := simulator.New(impl, w.Jobs, simulator.Options{
		Cluster: w.Cluster, CycleInterval: 10, DrainWindow: 1200,
		Seed: seed, VirtualTime: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim.Run(), coord
}

// The tentpole contract: on an equivalence-partitioned workload the sharded
// scheduler produces the monolithic scheduler's outcome bit for bit, at any
// shard count.
func TestShardedMatchesMonolithic(t *testing.T) {
	cluster := simulator.NewCluster(64, 8)
	w := domainWorkload(t, cluster, 4, 1, 3)
	mono, _ := runSharded(t, w, 0, 3)
	want := metrics.OutcomeDigest(mono)
	for _, n := range []int{1, 2, 4} {
		res, _ := runSharded(t, w, n, 3)
		if got := metrics.OutcomeDigest(res); got != want {
			t.Errorf("shards=%d digest %s != monolithic %s", n, got, want)
		}
	}
}

// A coordinator with one shard must be an exact pass-through even on a
// workload with arbitrary (non-domain-aligned) preferences.
func TestSingleShardPassthrough(t *testing.T) {
	cluster := simulator.NewCluster(48, 4)
	w := workload.Generate(workload.Config{
		Cluster: cluster, DurationHours: 0.1, Load: 1.2, Seed: 5,
	})
	mono, _ := runSharded(t, w, 0, 5)
	one, _ := runSharded(t, w, 1, 5)
	if a, b := metrics.OutcomeDigest(mono), metrics.OutcomeDigest(one); a != b {
		t.Errorf("single-shard coordinator digest %s != monolithic %s", b, a)
	}
}

// onOneProc runs f with GOMAXPROCS 1, so the per-domain cycle goroutines
// take turns on a single processor instead of running side by side.
func onOneProc(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

// Determinism: same inputs → same outcome, however many processors the
// domain cycles' worker goroutines are spread over, including every
// per-shard digest.
func TestWorkerCountInvariance(t *testing.T) {
	cluster := simulator.NewCluster(64, 8)
	w := domainWorkload(t, cluster, 4, 1, 11)
	resA, coordA := runSharded(t, w, 4, 11)
	var resB, resC *simulator.Result
	var coordB *shard.Coordinator
	onOneProc(func() {
		resB, coordB = runSharded(t, w, 4, 11)
		resC, _ = runSharded(t, w, 4, 11)
	})
	a := metrics.OutcomeDigest(resA)
	if b := metrics.OutcomeDigest(resB); a != b {
		t.Fatalf("digest changed with processor count: %s vs %s", a, b)
	}
	if c := metrics.OutcomeDigest(resC); a != c {
		t.Fatalf("digest changed across identical runs: %s vs %s", a, c)
	}
	da := metrics.ShardOutcomeDigests(resA, 4, coordA.DigestShard)
	db := metrics.ShardOutcomeDigests(resB, 4, coordB.DigestShard)
	for i := range da {
		if da[i] != db[i] {
			t.Errorf("shard %d digest changed with processor count", i)
		}
	}
}

// A mixed SLO/BE workload (flexible BE jobs routed by ID, rebalanced and
// stolen between shards) must still be deterministic across processor
// counts.
func TestMixedWorkloadDeterminism(t *testing.T) {
	cluster := simulator.NewCluster(64, 8)
	w := domainWorkload(t, cluster, 4, 0.5, 7)
	resA, _ := runSharded(t, w, 4, 7)
	var resB *simulator.Result
	onOneProc(func() { resB, _ = runSharded(t, w, 4, 7) })
	if a, b := metrics.OutcomeDigest(resA), metrics.OutcomeDigest(resB); a != b {
		t.Fatalf("mixed workload digest changed with processor count: %s vs %s", a, b)
	}
}

// A gang too large for any single domain is the coordinator's job: it must
// start (across domains) and complete.
func TestSpanningGangPlacement(t *testing.T) {
	cluster := simulator.NewCluster(16, 4) // 2 shards × 8 nodes
	jobs := []*job.Job{
		{ID: 1, User: "u", Name: "wide", Class: job.BestEffort, Tasks: 12, Runtime: 50, Submit: 1, NonPrefFactor: 1},
		{ID: 2, User: "u", Name: "small", Class: job.BestEffort, Tasks: 2, Runtime: 30, Submit: 1, NonPrefFactor: 1},
	}
	pred := predictor.New(predictor.Config{})
	sched := baselines.ThreeSigma(pred, testConfig())
	coord, err := shard.NewCoordinator(sched, cluster, 2)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulator.New(coord, jobs, simulator.Options{
		Cluster: cluster, CycleInterval: 10, DrainWindow: 600,
		Seed: 1, VirtualTime: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	for _, o := range res.Outcomes {
		if !o.Completed {
			t.Errorf("job %d did not complete (started=%v)", o.Job.ID, o.Started)
		}
	}
	cs := coord.CoordStats()
	if cs.SpanStarts < 1 {
		t.Errorf("expected >=1 spanning start, got %+v", cs)
	}
}

// A spanning SLO job whose deadline (plus the §4.2 over-estimate extension)
// has passed is abandoned by the coordinator, not retried forever.
func TestSpanningHopelessAbandon(t *testing.T) {
	cluster := simulator.NewCluster(16, 4)
	// Two long blockers occupy the whole cluster; the 14-task spanning SLO
	// job can never fit before its deadline (plus extension) passes.
	jobs := []*job.Job{
		{ID: 2, User: "u", Name: "blk", Class: job.BestEffort, Tasks: 8, Runtime: 600, Submit: 0, NonPrefFactor: 1},
		{ID: 3, User: "u", Name: "blk", Class: job.BestEffort, Tasks: 8, Runtime: 600, Submit: 0, NonPrefFactor: 1},
		{ID: 1, User: "u", Name: "wide", Class: job.SLO, Tasks: 14, Runtime: 10,
			Submit: 1, Deadline: 20, NonPrefFactor: 1.5},
	}
	pred := predictor.New(predictor.Config{})
	sched := baselines.ThreeSigma(pred, testConfig())
	coord, err := shard.NewCoordinator(sched, cluster, 2)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulator.New(coord, jobs, simulator.Options{
		Cluster: cluster, CycleInterval: 10, DrainWindow: 600,
		Seed: 1, VirtualTime: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	for _, o := range res.Outcomes {
		if o.Job.ID == 1 && o.Completed {
			t.Fatal("hopeless job reported completed")
		}
	}
	if cs := coord.CoordStats(); cs.SpanAbandons != 1 {
		t.Errorf("expected 1 spanning abandon, got %+v", cs)
	}
}

// Flexible jobs all routed to one shard by the ID hash must flow to the
// other shards through stealing/rebalancing, and the run must stay correct.
func TestStealAndRebalance(t *testing.T) {
	cluster := simulator.NewCluster(32, 4) // 4 shards × 8 nodes
	var jobs []*job.Job
	for i := 0; i < 24; i++ {
		// IDs ≡ 0 mod 4: every job's home shard is 0; shards 1-3 start idle.
		jobs = append(jobs, &job.Job{
			ID: job.ID(4 * (i + 1)), User: "u", Name: "flex",
			Class: job.BestEffort, Tasks: 4, Runtime: 120,
			Submit: 1, NonPrefFactor: 1,
		})
	}
	pred := predictor.New(predictor.Config{})
	sched := baselines.ThreeSigma(pred, testConfig())
	coord, err := shard.NewCoordinator(sched, cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulator.New(coord, jobs, simulator.Options{
		Cluster: cluster, CycleInterval: 10, DrainWindow: 3600,
		Seed: 1, VirtualTime: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	done := 0
	for _, o := range res.Outcomes {
		if o.Completed {
			done++
		}
	}
	if done != len(jobs) {
		t.Errorf("completed %d/%d jobs", done, len(jobs))
	}
	cs := coord.CoordStats()
	if cs.Stolen == 0 {
		t.Errorf("expected work stealing into idle shards, got %+v", cs)
	}
	// Stolen jobs must have actually run on the other domains.
	busy := 0
	for _, st := range coord.ShardStats() {
		if st.Starts > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("expected starts on >=2 shards after stealing, got %d", busy)
	}
}

// Combined Stats must sum shard work counters and add coordinator-side
// starts, so no scheduling activity disappears from observability.
func TestCombinedStats(t *testing.T) {
	cluster := simulator.NewCluster(64, 8)
	w := domainWorkload(t, cluster, 4, 1, 3)
	res, coord := runSharded(t, w, 4, 3)
	st := coord.Stats()
	// Result.Cycles counts idle-skipped cycles the scheduler never saw, so
	// the coordinator's count is bounded by it, not equal.
	if st.Cycles <= 0 || st.Cycles > res.Cycles {
		t.Errorf("combined Cycles = %d, want in (0, %d]", st.Cycles, res.Cycles)
	}
	var sum core.Stats
	for _, s := range coord.ShardStats() {
		sum.Starts += s.Starts
		sum.SolverNodes += s.SolverNodes
		sum.SolverProved += s.SolverProved
		sum.SolverNodeCapped += s.SolverNodeCapped
		sum.SolverDeadlineStops += s.SolverDeadlineStops
		sum.SolverColdFallbacks += s.SolverColdFallbacks
	}
	if want := sum.Starts + coord.CoordStats().SpanStarts; st.Starts != want {
		t.Errorf("combined Starts = %d, want shard sum + span = %d", st.Starts, want)
	}
	if st.SolverNodes != sum.SolverNodes {
		t.Errorf("combined SolverNodes = %d, want %d", st.SolverNodes, sum.SolverNodes)
	}
	if st.SolverProved+st.SolverNodeCapped+st.SolverDeadlineStops == 0 {
		t.Error("no solve counted as proved, node-capped or deadline-stopped")
	}
	if st.SolverProved != sum.SolverProved || st.SolverNodeCapped != sum.SolverNodeCapped ||
		st.SolverDeadlineStops != sum.SolverDeadlineStops || st.SolverColdFallbacks != sum.SolverColdFallbacks {
		t.Errorf("combined proved/capped/deadline/cold = %d/%d/%d/%d, want %d/%d/%d/%d",
			st.SolverProved, st.SolverNodeCapped, st.SolverDeadlineStops, st.SolverColdFallbacks,
			sum.SolverProved, sum.SolverNodeCapped, sum.SolverDeadlineStops, sum.SolverColdFallbacks)
	}
}

func TestNewCoordinatorValidates(t *testing.T) {
	pred := predictor.New(predictor.Config{})
	sched := baselines.ThreeSigma(pred, testConfig())
	cluster := simulator.NewCluster(16, 4)
	for _, n := range []int{0, -1, 5} {
		if _, err := shard.NewCoordinator(sched, cluster, n); err == nil {
			t.Errorf("NewCoordinator(n=%d) accepted; want error", n)
		}
	}
	if _, err := shard.NewCoordinator(sched, cluster, 4); err != nil {
		t.Errorf("NewCoordinator(n=4): %v", err)
	}
}
