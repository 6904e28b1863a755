package threesigma

import (
	"bytes"
	"strings"
	"testing"

	"threesigma/internal/workload"
)

func smallWorkload(seed int64) *Workload {
	return GenerateWorkload(WorkloadConfig{
		Cluster:       NewCluster(32, 4),
		DurationHours: 0.2,
		Seed:          seed,
	})
}

func TestSimulateThreeSigma(t *testing.T) {
	w := smallWorkload(1)
	res, err := Simulate(SystemThreeSigma, w, SimConfig{Seed: 1, CycleInterval: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.SLOJobs+res.Report.BEJobs != len(w.Jobs) {
		t.Errorf("job accounting wrong: %+v", res.Report)
	}
	if res.Report.CompletedSLO+res.Report.CompletedBE == 0 {
		t.Error("nothing completed")
	}
	if res.Stats.Cycles == 0 {
		t.Error("no scheduler stats")
	}
	if len(res.Outcomes) != len(w.Jobs) {
		t.Error("outcomes incomplete")
	}
}

func TestSimulateAllSystems(t *testing.T) {
	w := smallWorkload(2)
	for _, sys := range []System{
		SystemThreeSigma, SystemPointPerfEst, SystemPointRealEst, SystemPrio,
		SystemNoDist, SystemNoOE, SystemNoAdapt,
	} {
		res, err := Simulate(sys, w, SimConfig{Seed: 2, CycleInterval: 20})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Report.System != string(sys) {
			t.Errorf("report system = %q", res.Report.System)
		}
	}
}

func TestSimulateUnknownSystem(t *testing.T) {
	w := smallWorkload(3)
	if _, err := Simulate(System("nope"), w, SimConfig{}); err == nil {
		t.Fatal("unknown system should error")
	}
}

func TestNewSchedulerRequiresPredictor(t *testing.T) {
	if _, err := NewScheduler(SystemThreeSigma, nil, SchedulerConfig{}); err == nil {
		t.Fatal("3Sigma without predictor should error")
	}
	if _, err := NewScheduler(SystemPointPerfEst, nil, SchedulerConfig{}); err != nil {
		t.Fatalf("PointPerfEst should not need a predictor: %v", err)
	}
	if _, err := NewScheduler(SystemPrio, nil, SchedulerConfig{}); err != nil {
		t.Fatalf("Prio should not need a predictor: %v", err)
	}
}

func TestPredictorFacade(t *testing.T) {
	p := NewPredictor()
	j := &Job{ID: 1, User: "u", Name: "n", Tasks: 2}
	for i := 0; i < 15; i++ {
		p.Observe(j, 120)
	}
	e := p.Estimate(j)
	if e.Novel {
		t.Fatal("trained job should not be novel")
	}
	if e.Point < 100 || e.Point > 140 {
		t.Errorf("Point = %v", e.Point)
	}
	if e.Dist.CDF(200) < 0.9 {
		t.Errorf("distribution CDF wrong: %v", e.Dist.CDF(200))
	}
}

func TestPredictorTrainFromWorkload(t *testing.T) {
	w := smallWorkload(4)
	p := NewPredictor()
	p.Train(w)
	novel := 0
	for _, j := range w.Jobs[:10] {
		if p.Estimate(j).Novel {
			novel++
		}
	}
	if novel > 5 {
		t.Errorf("%d/10 jobs novel after pre-training", novel)
	}
}

func TestFormatReports(t *testing.T) {
	w := smallWorkload(5)
	res, err := Simulate(SystemPrio, w, SimConfig{Seed: 5, CycleInterval: 20})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatReports([]Report{res.Report})
	if !strings.Contains(out, "Prio") || !strings.Contains(out, "slo-miss") {
		t.Errorf("table malformed:\n%s", out)
	}
}

func TestRealClusterEmulation(t *testing.T) {
	w := smallWorkload(6)
	sim, err := Simulate(SystemPointPerfEst, w, SimConfig{Seed: 6, CycleInterval: 20})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Simulate(SystemPointPerfEst, w, SimConfig{Seed: 6, CycleInterval: 20, RealCluster: true})
	if err != nil {
		t.Fatal(err)
	}
	// Jitter must actually change some completion time.
	diff := false
	for i := range sim.Outcomes {
		if sim.Outcomes[i].Completed && rc.Outcomes[i].Completed &&
			sim.Outcomes[i].CompletionTime != rc.Outcomes[i].CompletionTime {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("RC emulation produced identical timings")
	}
}

func TestWorkloadFromTraceFacade(t *testing.T) {
	var recs []TraceRecord
	for i := 0; i < 50; i++ {
		recs = append(recs, TraceRecord{
			ID: JobID(i + 1), User: "u", Name: "n", Tasks: 1 + i%4,
			Submit: float64(i * 20), Runtime: 60,
		})
	}
	w := WorkloadFromTrace(recs, ReplayConfig{
		Cluster:      NewCluster(16, 4),
		SegmentStart: 200,
		Seed:         1,
	})
	if len(w.Train) == 0 || len(w.Jobs) == 0 {
		t.Fatalf("train=%d jobs=%d", len(w.Train), len(w.Jobs))
	}
	res, err := Simulate(SystemThreeSigma, w, SimConfig{Seed: 1, CycleInterval: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CompletedSLO+res.Report.CompletedBE == 0 {
		t.Error("replayed workload did not run")
	}
}

func TestPredictorSaveLoadFacade(t *testing.T) {
	p := NewPredictor()
	j := &Job{ID: 1, User: "u", Name: "app", Tasks: 2}
	for i := 0; i < 10; i++ {
		p.Observe(j, 300)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q := NewPredictor()
	if err := q.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if e := q.Estimate(j); e.Novel || e.Point < 290 || e.Point > 310 {
		t.Errorf("restored estimate = %+v", e)
	}
}

func TestCustomUtilityFunction(t *testing.T) {
	// An administrator-defined utility: value everything like an SLO job
	// with a custom horizon.
	cfg := SchedulerConfig{Policy: DefaultPolicy(), CycleInterval: 10}
	cfg.UtilityFn = func(j *Job) JobUtility {
		return StepUtility{Value: 100, Deadline: j.Submit + 500}
	}
	sched := NewCustomScheduler(PerfectEstimator(), cfg)
	jobs := []*Job{{ID: 1, Class: BestEffort, Submit: 0, Tasks: 1, Runtime: 100}}
	res, err := SimulateScheduler(sched, jobs, NewCluster(2, 1), SimConfig{CycleInterval: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcomes[0].Completed {
		t.Error("custom-utility job should run")
	}
}

// TestIncrementalCountersMatchParent pins what the cycle-over-cycle model
// comparison reports (DESIGN.md §12) to what the patcher it replaced
// reported. The run is scripts/ci.sh's fault-free 48-node seed-5 simulation
// — its digest is the one scripts/pins.txt holds — and the counter values
// were read off commit 25ef73e, the last one that patched the previous
// cycle's model instead of building in place, with this same test body.
func TestIncrementalCountersMatchParent(t *testing.T) {
	env, err := workload.EnvByName("google")
	if err != nil {
		t.Fatal(err)
	}
	w := GenerateWorkload(WorkloadConfig{Env: env, Cluster: NewCluster(48, 4), DurationHours: 0.05, Load: 1.2, Seed: 5})
	res, err := Simulate(SystemThreeSigma, w, SimConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const pinned = "74940d9cf81cce4c815defa1c2ec6be287e6d2d0c64da410992f6b9a7aff6573"
	if res.Digest != pinned {
		t.Fatalf("not the ci.sh run: digest %s, scripts/pins.txt %s", res.Digest, pinned)
	}
	st := res.Stats
	got := [6]int{st.Cycles, st.PatchedCycles, st.RebuildFallbacks, st.RowsPatched, st.ColsPatched, st.ReusedSolves}
	want := [6]int{258, 228, 5, 59, 73, 156}
	if got != want {
		t.Errorf("cycles/patched/fallbacks/rows/cols/reused = %v, at the parent %v", got, want)
	}
}

// TestSystemDigestsPinned holds every system of the paper's comparison, and
// 3Sigma under the RC256 emulation and on two scheduling domains, to the
// outcome digest it produced before the facade and the experiments shared
// one run path. The constants were read off commit e4839d6 with this
// same test body; the node cap ends every solve, so they repeat on any host.
func TestSystemDigestsPinned(t *testing.T) {
	env, err := workload.EnvByName("google")
	if err != nil {
		t.Fatal(err)
	}
	w := GenerateWorkload(WorkloadConfig{Env: env, Cluster: NewCluster(64, 8), DurationHours: 0.25, Load: 1.4, Seed: 7})
	base := SimConfig{Seed: 7}
	rc, sharded := base, base
	rc.RealCluster = true
	sharded.Shards = 2
	for _, c := range []struct {
		sys  System
		cfg  SimConfig
		want string
	}{
		{SystemThreeSigma, base, "acf590cff1a4c73ad57076123bb6328e96525d47ca2bd6d637ff165f2aef622b"},
		{SystemPointPerfEst, base, "56a9f1f419474dda4769fb6e3abfeae759ab4341bcfa7f97532f697cd884519e"},
		{SystemPointRealEst, base, "3953e6cf02888ee7cd6127a2b45039781e95399be6f192c2357cacb6f787c72b"},
		{SystemPrio, base, "d788c2d350a8f510bb8a1812fdd27698d547bb287e055b97dae7b1e805b58da1"},
		{SystemNoDist, base, "985dea80e6b541cd10c3dd6b122c4a6e85854415927ee743abc0affaf51411ac"},
		{SystemNoOE, base, "ba49c3fb6c8063c14bf140a8c44f1d584ad69df88d3b4e5cbb3d5252fc151247"},
		{SystemNoAdapt, base, "c459bdd34c9a4696164a31e8ac24a6cc97a9bcb613801e344342bedeb901c9fc"},
		{SystemThreeSigma, rc, "a30f4036a4716658d3166f7828b81b24adffe675ea896c044b48a64c9ca86494"},
		{SystemThreeSigma, sharded, "155b6300f094a419ca89b64c4c1d37c7db1d0b441bafb85e21395dbe2d216f22"},
	} {
		res, err := Simulate(c.sys, w, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.sys, err)
		}
		if res.Digest != c.want {
			t.Errorf("%s (rc=%v, shards=%d): digest %s, at the parent %s", c.sys, c.cfg.RealCluster, c.cfg.Shards, res.Digest, c.want)
		}
	}
}
