package core

import (
	"testing"

	"threesigma/internal/dist"
	"threesigma/internal/job"
	"threesigma/internal/predictor"
	"threesigma/internal/simulator"
)

// uniformEstimator returns a fixed uniform distribution for every job.
func uniformEstimator(lo, hi float64) Estimator {
	return FuncEstimator{EstimateFn: func(*job.Job) dist.Distribution {
		return dist.NewUniform(lo, hi)
	}}
}

func testConfig() Config {
	return Config{
		Policy: Policy{
			Name:            "3sigma",
			UseDistribution: true,
			Overestimate:    OEAdaptive,
			Underestimate:   true,
			Preemption:      true,
		},
		Slots:         8,
		SlotDur:       150,
		CycleInterval: 10,
	}
}

func run(t *testing.T, sched *Scheduler, jobs []*job.Job, nodes, parts int) *simulator.Result {
	t.Helper()
	sim, err := simulator.New(sched, jobs, simulator.Options{
		Cluster:       simulator.NewCluster(nodes, parts),
		CycleInterval: sched.Config().CycleInterval,
		DrainWindow:   7200,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim.Run()
}

func outcome(res *simulator.Result, id job.ID) *simulator.Outcome {
	for _, o := range res.Outcomes {
		if o.Job.ID == id {
			return o
		}
	}
	return nil
}

// TestPaperScenario1SLOFirst reproduces §2.3/Fig. 5 scenario 1: two jobs on
// a one-node cluster, runtimes ~U(0,10)min, SLO deadline 15min. The wide
// distribution makes deferring the SLO job risky (12.5% miss probability),
// so 3σSched must run the SLO job first.
func TestPaperScenario1SLOFirst(t *testing.T) {
	sched := New(uniformEstimator(0, 600), testConfig())
	slo := &job.Job{ID: 1, Class: job.SLO, Submit: 0, Deadline: 900, Tasks: 1, Runtime: 300}
	be := &job.Job{ID: 2, Class: job.BestEffort, Submit: 0, Tasks: 1, Runtime: 300}
	res := run(t, sched, []*job.Job{slo, be}, 1, 1)
	oSLO, oBE := outcome(res, 1), outcome(res, 2)
	if !oSLO.Completed || !oBE.Completed {
		t.Fatalf("both jobs must complete: slo=%+v be=%+v", oSLO, oBE)
	}
	if oSLO.FirstStart >= oBE.FirstStart {
		t.Errorf("scenario 1: SLO started at %v, BE at %v; SLO must run first",
			oSLO.FirstStart, oBE.FirstStart)
	}
	if oSLO.MissedDeadline() {
		t.Error("SLO job missed its deadline")
	}
}

// TestPaperScenario2BEFirst reproduces scenario 2: with runtimes
// ~U(2.5,7.5)min even the worst case (7.5+7.5=15) meets the deadline, so
// the scheduler should start the BE job first to minimize its latency.
func TestPaperScenario2BEFirst(t *testing.T) {
	sched := New(uniformEstimator(150, 450), testConfig())
	slo := &job.Job{ID: 1, Class: job.SLO, Submit: 0, Deadline: 900, Tasks: 1, Runtime: 300}
	be := &job.Job{ID: 2, Class: job.BestEffort, Submit: 0, Tasks: 1, Runtime: 300}
	res := run(t, sched, []*job.Job{slo, be}, 1, 1)
	oSLO, oBE := outcome(res, 1), outcome(res, 2)
	if !oSLO.Completed || !oBE.Completed {
		t.Fatalf("both jobs must complete")
	}
	if oBE.FirstStart >= oSLO.FirstStart {
		t.Errorf("scenario 2: BE started at %v, SLO at %v; BE should run first",
			oBE.FirstStart, oSLO.FirstStart)
	}
	if oSLO.MissedDeadline() {
		t.Errorf("SLO job missed deadline: completed %v > %v", oSLO.CompletionTime, slo.Deadline)
	}
}

// TestOverestimateHandlingRunsImpossibleJob: the job's history says it
// cannot meet its deadline (all mass above deadline-submit), but it is
// actually over-estimated. Adaptive OE must still try it; with OE off the
// scheduler abandons it.
func TestOverestimateHandlingRunsImpossibleJob(t *testing.T) {
	// History: U(1000, 2000); window to deadline: 600s; actual runtime 120s.
	mk := func() []*job.Job {
		return []*job.Job{{ID: 1, Class: job.SLO, Submit: 0, Deadline: 600, Tasks: 1, Runtime: 120}}
	}
	cfgOE := testConfig()
	schedOE := New(uniformEstimator(1000, 2000), cfgOE)
	res := run(t, schedOE, mk(), 1, 1)
	if o := outcome(res, 1); !o.Completed || o.MissedDeadline() {
		t.Errorf("adaptive OE should run and meet the over-estimated job: %+v", o)
	}

	cfgNoOE := testConfig()
	cfgNoOE.Policy.Overestimate = OEOff
	schedNoOE := New(uniformEstimator(1000, 2000), cfgNoOE)
	res2 := run(t, schedNoOE, mk(), 1, 1)
	if o := outcome(res2, 1); o.Started {
		t.Errorf("without OE handling the zero-utility job should never start: %+v", o)
	}
}

// TestAdaptiveOESkipsFeasibleJobs: adaptive OE must NOT extend utility for
// jobs whose distribution says the deadline is reachable — the extension is
// reserved for likely-over-estimated jobs (§4.2.3).
func TestAdaptiveOESkipsFeasibleJobs(t *testing.T) {
	cfg := testConfig()
	s := New(uniformEstimator(100, 200), cfg)
	j := &job.Job{ID: 1, Class: job.SLO, Submit: 0, Deadline: 1000, Tasks: 1, Runtime: 150}
	d := s.est.EstimateDist(j)
	u := s.utilityFor(j, d, 0)
	if _, ok := u.(job.StepUtility); !ok {
		t.Errorf("feasible job got %T, want plain StepUtility", u)
	}
	// And a hopeless one gets the extension.
	hopeless := &job.Job{ID: 2, Class: job.SLO, Submit: 0, Deadline: 50, Tasks: 1, Runtime: 150}
	u2 := s.utilityFor(hopeless, d, 0)
	if _, ok := u2.(job.ExtendedStepUtility); !ok {
		t.Errorf("hopeless job got %T, want ExtendedStepUtility", u2)
	}
}

// TestUnderestimateHandlingKeepsPlanConsistent: a job that runs far beyond
// its distribution's upper bound must not wedge the scheduler; the §4.2.1
// exponential extension keeps the plan moving and both jobs finish.
func TestUnderestimateHandlingKeepsPlanConsistent(t *testing.T) {
	// History says <=100s, actual runtime 900s.
	sched := New(uniformEstimator(50, 100), testConfig())
	hog := &job.Job{ID: 1, Class: job.BestEffort, Submit: 0, Tasks: 1, Runtime: 900}
	later := &job.Job{ID: 2, Class: job.BestEffort, Submit: 50, Tasks: 1, Runtime: 60}
	res := run(t, sched, []*job.Job{hog, later}, 1, 1)
	o1, o2 := outcome(res, 1), outcome(res, 2)
	if !o1.Completed || !o2.Completed {
		t.Fatalf("both must complete: %+v %+v", o1, o2)
	}
	// The UE state must have bumped at least once.
	if sched.Stats().Cycles == 0 {
		t.Fatal("no cycles ran")
	}
}

// TestPreemptionMakesRoomForSLO: a long BE job occupies the cluster; an SLO
// job with a tight deadline arrives. The MILP should preempt the BE job.
func TestPreemptionMakesRoomForSLO(t *testing.T) {
	sched := New(PerfectEstimator{}, testConfig())
	be := &job.Job{ID: 1, Class: job.BestEffort, Submit: 0, Tasks: 2, Runtime: 5000}
	slo := &job.Job{ID: 2, Class: job.SLO, Submit: 100, Deadline: 100 + 400, Tasks: 2, Runtime: 200}
	res := run(t, sched, []*job.Job{be, slo}, 2, 1)
	oBE, oSLO := outcome(res, 1), outcome(res, 2)
	if oSLO.MissedDeadline() {
		t.Errorf("SLO job should meet deadline via preemption: %+v", oSLO)
	}
	if oBE.Preemptions == 0 {
		t.Error("BE job should have been preempted")
	}
}

// TestNoPreemptionPolicyHonored: with preemption disabled, the BE hog keeps
// the cluster and the SLO job misses.
func TestNoPreemptionPolicyHonored(t *testing.T) {
	cfg := testConfig()
	cfg.Policy.Preemption = false
	sched := New(PerfectEstimator{}, cfg)
	be := &job.Job{ID: 1, Class: job.BestEffort, Submit: 0, Tasks: 2, Runtime: 5000}
	slo := &job.Job{ID: 2, Class: job.SLO, Submit: 100, Deadline: 500, Tasks: 2, Runtime: 200}
	res := run(t, sched, []*job.Job{be, slo}, 2, 1)
	if o := outcome(res, 1); o.Preemptions != 0 {
		t.Error("preemption occurred despite policy off")
	}
	if o := outcome(res, 2); !o.MissedDeadline() {
		t.Error("SLO job cannot meet its deadline without preemption")
	}
}

// TestDeferralWaitsForPreferredResources: the job's preferred partition is
// busy but frees up well before the deadline; running non-preferred now
// (1.5×) would work too, but waiting is also safe. Whatever the scheduler
// picks, the deadline must hold; with a tighter deadline the 1.5× path is
// fatal, so the scheduler must wait for the preferred nodes.
func TestDeferralWaitsForPreferredResources(t *testing.T) {
	sched := New(PerfectEstimator{}, testConfig())
	// Partition 0: 2 nodes (preferred by job 2), partition 1: 2 nodes.
	// Job 1 (BE, no preference) pinned effectively by arrival order onto
	// partition 0 by preferring it.
	hog := &job.Job{ID: 1, Class: job.BestEffort, Submit: 0, Tasks: 2, Runtime: 300, Preferred: []int{0}, NonPrefFactor: 1}
	// Job 2: needs 2 nodes of partition 0; deadline allows waiting 300s +
	// running 400s = 700 < 800, but non-preferred 1.5×400=600 from t=0 also
	// fits 800... make deadline 680 so only waiting works: wait 300 + 400 =
	// 700 > 680? Also too late. Use runtime 350: wait 300+350=650 < 680;
	// non-pref 525 from start also < 680 — need slack asymmetry:
	// runtime 400, deadline 720: pref wait: 300+400=700 OK; non-pref now:
	// 600 OK too — tie. Tighten: runtime 440, deadline 760: wait
	// 300+440=740 OK; non-pref 1.5*440=660 OK. Hmm — instead make
	// non-preferred infeasible via capacity: partition 1 holds another BE
	// hog for 600s, so "any" cannot gang 2 nodes before 600; only waiting
	// for partition 0 at 300 meets the 760 deadline.
	hog2 := &job.Job{ID: 3, Class: job.BestEffort, Submit: 0, Tasks: 2, Runtime: 600, Preferred: []int{1}, NonPrefFactor: 1}
	slo := &job.Job{ID: 2, Class: job.SLO, Submit: 10, Deadline: 770, Tasks: 2, Runtime: 440, Preferred: []int{0}, NonPrefFactor: 1.5}
	cfg := testConfig()
	cfg.Policy.Preemption = false // force the deferral decision
	sched = New(PerfectEstimator{}, cfg)
	res := run(t, sched, []*job.Job{hog, hog2, slo}, 4, 2)
	o := outcome(res, 2)
	if !o.Completed || o.MissedDeadline() {
		t.Fatalf("SLO job should wait for preferred nodes and meet deadline: %+v", o)
	}
	if !o.OnPreferred {
		t.Errorf("job should have been placed on preferred resources: %+v", o)
	}
	if o.FirstStart < 290 {
		t.Errorf("job started at %v, expected deferral until ~300", o.FirstStart)
	}
}

// TestPointEstimatorsViaSameMachinery checks the Table 1 configurations:
// PointPerfEst must meet an easily met deadline, and point mode collapses
// distributions.
func TestPointEstimatorsViaSameMachinery(t *testing.T) {
	cfg := testConfig()
	cfg.Policy.UseDistribution = false
	cfg.Policy.Overestimate = OEOff
	sched := New(PerfectEstimator{}, cfg)
	slo := &job.Job{ID: 1, Class: job.SLO, Submit: 0, Deadline: 600, Tasks: 1, Runtime: 100}
	res := run(t, sched, []*job.Job{slo}, 2, 1)
	if o := outcome(res, 1); !o.Completed || o.MissedDeadline() {
		t.Errorf("PointPerfEst should trivially meet deadline: %+v", o)
	}
}

func TestPredictorEstimatorsAdapters(t *testing.T) {
	p := predictor.New(predictor.Config{})
	j := &job.Job{ID: 1, User: "u", Name: "n", Tasks: 1}
	for i := 0; i < 20; i++ {
		p.Observe(j, 100)
	}
	de := PredictorEstimator{P: p}
	pe := PointPredictorEstimator{P: p}
	if m := de.EstimateDist(j).Mean(); m < 90 || m > 110 {
		t.Errorf("dist estimator mean = %v", m)
	}
	pd := pe.EstimateDist(j)
	if _, ok := pd.(dist.Point); !ok {
		t.Errorf("point estimator should return a Point, got %T", pd)
	}
	de.Observe(j, 100)
	pe.Observe(j, 100)
}

func TestSelectPendingOrdersAndCaps(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPending = 4
	s := New(PerfectEstimator{}, cfg)
	var pending []*job.Job
	for i := 0; i < 6; i++ {
		pending = append(pending, &job.Job{
			ID: job.ID(i), Class: job.SLO, Submit: 0,
			Deadline: float64(1000 - 100*i), Tasks: 1, Runtime: 10,
		})
	}
	for i := 6; i < 12; i++ {
		pending = append(pending, &job.Job{ID: job.ID(i), Class: job.BestEffort, Submit: float64(i), Tasks: 1, Runtime: 10})
	}
	sel := s.selectPending(pending, 0)
	if len(sel) != 4 {
		t.Fatalf("selected %d, want 4", len(sel))
	}
	// Tightest-deadline SLO jobs first (IDs 5,4,3 by deadline), then a BE slot.
	if sel[0].ID != 5 || sel[1].ID != 4 || sel[2].ID != 3 {
		t.Errorf("SLO ordering wrong: %v %v %v", sel[0].ID, sel[1].ID, sel[2].ID)
	}
	if sel[3].Class != job.BestEffort || sel[3].ID != 6 {
		t.Errorf("BE reserve slot wrong: %+v", sel[3])
	}
}

func TestAbandonHopelessJobs(t *testing.T) {
	s := New(PerfectEstimator{}, testConfig())
	dead := &job.Job{ID: 1, Class: job.SLO, Submit: 0, Deadline: 100, Tasks: 1, Runtime: 50}
	// now is far past deadline + max extension (ext factor 1 → 100+100).
	sel := s.selectPending([]*job.Job{dead}, 1000)
	if len(sel) != 0 {
		t.Error("hopeless job should be abandoned")
	}
	if !s.abandoned[1] {
		t.Error("abandoned set not updated")
	}
}

func TestOEModeString(t *testing.T) {
	if OEOff.String() != "off" || OEAlways.String() != "always" || OEAdaptive.String() != "adaptive" {
		t.Error("OEMode names wrong")
	}
}

func TestStatsAccumulate(t *testing.T) {
	sched := New(PerfectEstimator{}, testConfig())
	jobs := []*job.Job{
		{ID: 1, Class: job.BestEffort, Submit: 0, Tasks: 1, Runtime: 50},
		{ID: 2, Class: job.BestEffort, Submit: 0, Tasks: 1, Runtime: 50},
	}
	run(t, sched, jobs, 2, 1)
	st := sched.Stats()
	if st.Cycles == 0 || st.Starts < 2 || st.Predictions != 2 {
		t.Errorf("stats = %#v", st)
	}
	if st.MaxVars == 0 || st.MaxRows == 0 {
		t.Errorf("model stats empty: %#v", st)
	}
}

func TestDecisionLogEmitsEvents(t *testing.T) {
	var events []DecisionEvent
	cfg := testConfig()
	cfg.OnDecision = func(e DecisionEvent) { events = append(events, e) }
	sched := New(PerfectEstimator{}, cfg)
	be := &job.Job{ID: 1, Class: job.BestEffort, Submit: 0, Tasks: 2, Runtime: 5000}
	slo := &job.Job{ID: 2, Class: job.SLO, Submit: 100, Deadline: 500, Tasks: 2, Runtime: 200}
	run(t, sched, []*job.Job{be, slo}, 2, 1)
	kinds := map[DecisionKind]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.String() == "" {
			t.Fatal("empty event string")
		}
	}
	if kinds[DecisionStart] == 0 {
		t.Error("no start events logged")
	}
	if kinds[DecisionPreempt] == 0 {
		t.Error("no preempt event logged (SLO needed the nodes)")
	}
}

func TestDecisionKindStrings(t *testing.T) {
	want := map[DecisionKind]string{
		DecisionStart: "start", DecisionDefer: "defer",
		DecisionPreempt: "preempt", DecisionAbandon: "abandon",
		DecisionKind(9): "unknown",
	}
	//lint:allow detrange independent per-entry assertions; order immaterial
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d = %q, want %q", k, k.String(), s)
		}
	}
	// Each kind renders a distinct line.
	lines := map[string]bool{}
	for _, k := range []DecisionKind{DecisionStart, DecisionDefer, DecisionPreempt, DecisionAbandon} {
		lines[DecisionEvent{Kind: k, Job: 1}.String()] = true
	}
	if len(lines) != 4 {
		t.Error("event strings should be distinct per kind")
	}
}
