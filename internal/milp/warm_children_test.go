package milp_test

import (
	"math"
	"testing"
	"time"

	"threesigma/internal/check"
	"threesigma/internal/core"
	"threesigma/internal/dist"
	"threesigma/internal/job"
	"threesigma/internal/milp"
	"threesigma/internal/simulator"
	"threesigma/internal/stats"
	"threesigma/internal/workload"
)

// TestWarmChildrenMatchColdOnOracleModels runs the warm-vs-cold child
// differential (milp.CheckWarmChildren) on the solver oracle's model
// generator: its pinned corpus, 200 draws from seed 1, at the oracle's node
// budget of 64.
func TestWarmChildrenMatchColdOnOracleModels(t *testing.T) {
	rng := stats.NewRand(1)
	children, infeasible, worst := 0, 0, 0.0
	for i := 0; i < 200; i++ {
		m := check.GenModel(rng)
		sol, c, inf, w, err := milp.CheckWarmChildren(m, milp.Options{MaxNodes: 64})
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		if sol.ColdFallbacks != 0 {
			t.Errorf("model %d: %d children fell back to a cold solve", i, sol.ColdFallbacks)
		}
		children, infeasible, worst = children+c, infeasible+inf, math.Max(worst, w)
	}
	t.Logf("%d children, %d infeasible, worst objective gap %.3g", children, infeasible, worst)
	if children < 1000 || infeasible == 0 {
		t.Fatalf("coverage: %d children, %d infeasible", children, infeasible)
	}
}

// captureModels is a 3σSched that runs both child differentials on the
// model of every cycle it solves, at the scheduler's own node budget and
// gap: warm against cold (milp.CheckWarmChildren), and pivot for pivot
// against the full-tableau reference (milp.CheckChildTraces).
type captureModels struct {
	*core.Scheduler
	t                                   *testing.T
	models, children, infeasible, colds int
	worst                               float64
	traced                              milp.ChildTraceCoverage
}

func (c *captureModels) Cycle(st *simulator.State) simulator.Decision {
	dec := c.Scheduler.Cycle(st)
	m := core.DebugLastModel(c.Scheduler)
	if m.NumBinary() == 0 {
		return dec
	}
	opts := milp.Options{MaxNodes: c.Config().SolverMaxNodes, Gap: 1e-4}
	sol, n, inf, w, err := milp.CheckWarmChildren(m, opts)
	if err != nil {
		c.t.Fatalf("cycle model %d (%d vars, %d rows): %v", c.models, m.NumVars(), m.NumRows(), err)
	}
	tc, err := milp.CheckChildTraces(m, opts)
	if err != nil {
		c.t.Fatalf("cycle model %d (%d vars, %d rows), against the full-tableau reference: %v", c.models, m.NumVars(), m.NumRows(), err)
	}
	c.traced.Children += tc.Children
	c.traced.Infeasible += tc.Infeasible
	c.traced.Branch0 += tc.Branch0
	c.traced.Branch1 += tc.Branch1
	c.traced.PivotedOut += tc.PivotedOut
	c.models++
	c.children, c.infeasible, c.colds = c.children+n, c.infeasible+inf, c.colds+sol.ColdFallbacks
	c.worst = math.Max(c.worst, w)
	return dec
}

// TestWarmChildrenMatchColdOnSchedulerModels runs the child differentials on
// the models a 3σSched run builds: distribution-based options, deferral
// slots, preemption credits, a workload that keeps the cluster
// oversubscribed.
func TestWarmChildrenMatchColdOnSchedulerModels(t *testing.T) {
	w := workload.Generate(workload.Config{
		Cluster:       simulator.NewCluster(128, 8),
		DurationHours: 0.3,
		Load:          1.5,
		JobsPerHour:   400,
		ArrivalSCV:    1,
		Seed:          3,
	})
	est := core.FuncEstimator{EstimateFn: func(j *job.Job) dist.Distribution {
		return dist.NewUniform(0.5*j.Runtime, 1.5*j.Runtime)
	}}
	c := &captureModels{t: t, Scheduler: core.New(est, core.Config{
		Policy: core.Policy{Name: "3sigma", UseDistribution: true, Overestimate: core.OEAdaptive,
			Underestimate: true, Preemption: true},
		CycleInterval: 10,
		SolverBudget:  time.Second,
	})}
	sim, err := simulator.New(c, w.Jobs, simulator.Options{
		Cluster: w.Cluster, CycleInterval: 10, DrainWindow: 600, Seed: 3, VirtualTime: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	t.Logf("%d models, %d children, %d infeasible, %d cold fallbacks, worst objective gap %.3g",
		c.models, c.children, c.infeasible, c.colds, c.worst)
	if c.colds != 0 {
		t.Errorf("%d children fell back to a cold solve", c.colds)
	}
	if c.models < 100 || c.children < 1000 || c.infeasible == 0 {
		t.Fatalf("coverage: %d models, %d children", c.models, c.children)
	}
	t.Logf("against the full-tableau reference: %+v", c.traced)
	if tc := c.traced; tc.Children != c.children || tc.Infeasible == 0 || tc.Branch0 == 0 || tc.Branch1 == 0 || tc.PivotedOut == 0 {
		t.Fatalf("reference coverage: %+v — want every child, infeasible ones, both branches, fixed variables pivoted out", tc)
	}
}
