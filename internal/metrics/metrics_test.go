package metrics

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"threesigma/internal/job"
	"threesigma/internal/simulator"
)

func mkOutcome(id int64, class job.Class, tasks int, submit, runtime, completion, deadline float64, completed bool) *simulator.Outcome {
	return &simulator.Outcome{
		Job: &job.Job{
			ID: job.ID(id), Class: class, Tasks: tasks, Submit: submit,
			Runtime: runtime, Deadline: deadline,
		},
		Started:        completed,
		Completed:      completed,
		CompletionTime: completion,
		ActualRuntime:  runtime,
	}
}

func TestFromResultBasics(t *testing.T) {
	res := &simulator.Result{
		EndTime: 3600,
		Outcomes: []*simulator.Outcome{
			mkOutcome(1, job.SLO, 2, 0, 900, 900, 1000, true),  // met
			mkOutcome(2, job.SLO, 2, 0, 900, 1200, 1000, true), // missed (late)
			mkOutcome(3, job.SLO, 2, 0, 900, 0, 1000, false),   // missed (incomplete)
			mkOutcome(4, job.BestEffort, 4, 100, 450, 700, 0, true),
			mkOutcome(5, job.BestEffort, 4, 100, 450, 1000, 0, true),
		},
		CycleLatencies: []time.Duration{time.Millisecond, 3 * time.Millisecond},
		SolverLatency:  []time.Duration{time.Millisecond, time.Millisecond},
	}
	r := FromResult("test", res, simulator.NewCluster(4, 2))
	if r.SLOJobs != 3 || r.BEJobs != 2 {
		t.Fatalf("counts: %+v", r)
	}
	if r.SLOMisses != 2 {
		t.Errorf("misses = %d, want 2", r.SLOMisses)
	}
	if math.Abs(r.SLOMissRate-66.666) > 0.1 {
		t.Errorf("miss rate = %v", r.SLOMissRate)
	}
	// SLO goodput: 2 completed × 2 tasks × 900s = 3600 machine-sec = 1 M-hr.
	if math.Abs(r.SLOGoodput-1) > 1e-9 {
		t.Errorf("slo goodput = %v, want 1", r.SLOGoodput)
	}
	// BE goodput: 2 × 4 × 450 = 3600 s = 1 M-hr.
	if math.Abs(r.BEGoodput-1) > 1e-9 {
		t.Errorf("be goodput = %v, want 1", r.BEGoodput)
	}
	// BE latencies: 600 and 900 -> mean 750.
	if math.Abs(r.MeanBELatency-750) > 1e-9 {
		t.Errorf("be latency = %v, want 750", r.MeanBELatency)
	}
	if r.MeanCycleTime != 2*time.Millisecond || r.MaxCycleTime != 3*time.Millisecond {
		t.Errorf("cycle time stats wrong: %v/%v", r.MeanCycleTime, r.MaxCycleTime)
	}
	// Effective load: (2*2*900 + 2*2*900... compute: completed SLO 2 jobs ×
	// 1800 each? tasks 2 × 900 = 1800 per job ×2 = 3600; BE 3600; total
	// 7200 over 4 nodes × 3600 s = 14400 -> 0.5.
	if math.Abs(r.EffectiveLoad-0.5) > 1e-9 {
		t.Errorf("effective load = %v, want 0.5", r.EffectiveLoad)
	}
}

func TestWastedWorkAccounting(t *testing.T) {
	o := mkOutcome(1, job.BestEffort, 2, 0, 100, 300, 0, true)
	o.Preemptions = 2
	o.WastedWork = 7200 // 2 machine-hours
	res := &simulator.Result{EndTime: 3600, Outcomes: []*simulator.Outcome{o}}
	r := FromResult("x", res, simulator.NewCluster(4, 1))
	if r.Preemptions != 2 {
		t.Errorf("preemptions = %d", r.Preemptions)
	}
	if math.Abs(r.WastedHours-2) > 1e-9 {
		t.Errorf("wasted = %v, want 2", r.WastedHours)
	}
}

func TestEmptyResult(t *testing.T) {
	r := FromResult("empty", &simulator.Result{}, simulator.Cluster{})
	if r.SLOMissRate != 0 || r.MeanBELatency != 0 || r.EffectiveLoad != 0 {
		t.Errorf("empty report should be zeros: %+v", r)
	}
}

func TestTableRendering(t *testing.T) {
	rows := []Report{{System: "3Sigma", SLOMissRate: 4.5}, {System: "Prio", SLOMissRate: 12}}
	tbl := Table(rows)
	if !strings.Contains(tbl, "3Sigma") || !strings.Contains(tbl, "Prio") {
		t.Error("table missing rows")
	}
	if !strings.Contains(tbl, "slo-miss") {
		t.Error("table missing header")
	}
	if rows[0].String() == "" {
		t.Error("String() empty")
	}
}

func TestAverage(t *testing.T) {
	a := Report{System: "x", SLOMissRate: 10, SLOGoodput: 100, MeanBELatency: 50,
		SLOJobs: 10, Preemptions: 4, MaxSolveTime: 2 * time.Millisecond}
	b := Report{System: "x", SLOMissRate: 20, SLOGoodput: 200, MeanBELatency: 150,
		SLOJobs: 12, Preemptions: 6, MaxSolveTime: 5 * time.Millisecond}
	avg := Average([]Report{a, b})
	if avg.SLOMissRate != 15 || avg.SLOGoodput != 150 || avg.MeanBELatency != 100 {
		t.Errorf("avg = %+v", avg)
	}
	if avg.SLOJobs != 11 || avg.Preemptions != 5 {
		t.Errorf("count averaging wrong: %+v", avg)
	}
	if avg.MaxSolveTime != 5*time.Millisecond {
		t.Errorf("max should take the max: %v", avg.MaxSolveTime)
	}
	if avg.System != "x" {
		t.Error("system name lost")
	}
	if z := Average(nil); z.SLOJobs != 0 {
		t.Error("empty average should be zero")
	}
}

// TestAverageEveryCounter sets every solver counter, found by reflection
// rather than through the set's own field list, so a counter that drops out
// of Average's sum or rounding fails here.
func TestAverageEveryCounter(t *testing.T) {
	filled := func(v int) Report {
		var r Report
		c := reflect.ValueOf(&r.Solver).Elem()
		for i := 0; i < c.NumField(); i++ {
			c.Field(i).SetInt(int64(v))
		}
		return r
	}
	avg := reflect.ValueOf(Average([]Report{filled(1), filled(2)}).Solver)
	for i := 0; i < avg.NumField(); i++ {
		if got := avg.Field(i).Int(); got != 2 { // math.Round(1.5)
			t.Errorf("Average: Solver.%s = %d, want 2", avg.Type().Field(i).Name, got)
		}
	}
}

func TestFailureAccounting(t *testing.T) {
	ok := mkOutcome(1, job.BestEffort, 2, 0, 100, 300, 0, true)
	ok.Evictions = 1
	ok.LostToFailures = 3600 // 1 machine-hour destroyed before the retry won
	dead := mkOutcome(2, job.BestEffort, 2, 0, 100, 0, 0, false)
	dead.Evictions = 4
	dead.Failed = true
	res := &simulator.Result{
		EndTime:         3600,
		Outcomes:        []*simulator.Outcome{ok, dead},
		NodeDownSeconds: 7200,
	}
	r := FromResult("x", res, simulator.NewCluster(4, 1))
	if r.Evictions != 5 || r.RetriesExhausted != 1 {
		t.Errorf("evictions=%d retries-exhausted=%d, want 5 and 1", r.Evictions, r.RetriesExhausted)
	}
	if math.Abs(r.FailureLostHours-1) > 1e-9 || r.NodeDownSeconds != 7200 {
		t.Errorf("lost=%v down=%v", r.FailureLostHours, r.NodeDownSeconds)
	}
	panel := r.FaultPanel()
	for _, want := range []string{"evictions=5", "retries-exhausted=1", "node-down=2"} {
		if !strings.Contains(panel, want) {
			t.Errorf("fault panel missing %q: %s", want, panel)
		}
	}
	avg := Average([]Report{r, {System: "x"}})
	if avg.Evictions != 3 || avg.NodeDownSeconds != 3600 {
		t.Errorf("fault averaging wrong: %+v", avg)
	}
}

// TestOutcomeDigest: the digest is stable across identical results,
// sensitive to every outcome field it covers, and deliberately blind to
// wall-clock latency noise.
func TestOutcomeDigest(t *testing.T) {
	build := func() *simulator.Result {
		o := mkOutcome(1, job.SLO, 2, 0, 900, 900, 1000, true)
		o.Evictions = 1
		o.LostToFailures = 55.5
		return &simulator.Result{
			EndTime:         3600,
			Cycles:          10,
			Outcomes:        []*simulator.Outcome{o},
			NodeDownSeconds: 120,
		}
	}
	base := OutcomeDigest(build())
	if base != OutcomeDigest(build()) {
		t.Fatal("digest differs across identical results")
	}
	perturb := map[string]func(*simulator.Result){
		"completion": func(r *simulator.Result) { r.Outcomes[0].CompletionTime += 1e-9 },
		"evictions":  func(r *simulator.Result) { r.Outcomes[0].Evictions++ },
		"lost":       func(r *simulator.Result) { r.Outcomes[0].LostToFailures = 55.6 },
		"failed":     func(r *simulator.Result) { r.Outcomes[0].Failed = true },
		"down":       func(r *simulator.Result) { r.NodeDownSeconds = 121 },
		"cycles":     func(r *simulator.Result) { r.Cycles++ },
	}
	for name, mutate := range perturb {
		r := build()
		mutate(r)
		if OutcomeDigest(r) == base {
			t.Errorf("digest blind to %s change", name)
		}
	}
	noisy := build()
	noisy.CycleLatencies = []time.Duration{time.Second}
	noisy.SolverLatency = []time.Duration{time.Second}
	if OutcomeDigest(noisy) != base {
		t.Error("digest must exclude wall-clock latencies")
	}
}
