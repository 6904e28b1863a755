package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"threesigma/internal/metrics"
	"threesigma/internal/workload"
)

// The steady-state scenario measures the incremental re-solve path
// (DESIGN.md §12) where it is designed to win: a large cluster under
// Poisson arrivals over a long horizon, where most scheduling cycles see no
// job or node event, so the root LP restarts from the previous basis or the
// previous solution is the answer outright. Two arms run on the identical
// workload:
//
//	incremental   the default configuration (warm basis + solution reuse)
//	rebuild-cold  NoWarmBasis: every cycle solved from a cold root, nothing
//	              reused — the baseline the ≥2× steady-state acceptance
//	              target is measured against.
//
// (A third arm, rebuild-warm, compared patching the previous cycle's model
// with rebuilding it; the model is now always built in place and the arm
// went with the patcher.)
//
// Latencies are wall-clock, so the scenario must run on an otherwise idle
// machine (same caveat as Fig. 12).

// SteadyScale returns the scenario's scale: SC-class cluster, one-hour
// horizon, 5s cycles — many scheduling cycles between job events, so the
// quiet-cycle fraction dominates. The 60s solve quantum (12 cycles) is what
// lets event-free cycles produce bitwise-identical models for the
// solution-reuse fast path; the sustained overload (see Steady) keeps a
// standing pending queue, so those quiet cycles carry a real MILP rather
// than an empty one.
func SteadyScale() Scale {
	return Scale{
		Name: "steady", Nodes: 192, Partitions: 12, DurationHours: 1,
		CycleInterval: 5, Slots: 6, SlotDur: 300, MaxPending: 48,
		SolverBudget: 100 * time.Millisecond, DrainWindow: 1800,
		SolveQuantum: 60, TraceJobs: 10000,
	}
}

// SteadyArm is one arm's measurement.
type SteadyArm struct {
	Arm         string              `json:"arm"`
	Cycles      int                 `json:"cycles"`
	MeanCycleMS float64             `json:"mean_cycle_ms"`
	P50CycleMS  float64             `json:"p50_cycle_ms"`
	P95CycleMS  float64             `json:"p95_cycle_ms"`
	P99CycleMS  float64             `json:"p99_cycle_ms"`
	MeanSolveMS float64             `json:"mean_solve_ms"`
	Solver      metrics.SolverStats `json:"solver"`
	Digest      string              `json:"digest"`
	// SpeedupVsCold is mean cycle latency of rebuild-cold over this arm's
	// (the committed acceptance number on the incremental arm).
	SpeedupVsCold float64 `json:"speedup_vs_cold,omitempty"`
}

// Steady runs the scenario's two arms.
func Steady(sc Scale, seed int64) ([]SteadyArm, error) {
	// Sustained overload with a pinned (modest) arrival rate: the pending
	// queue builds up and stays, so every cycle carries a full-size MILP,
	// while arrivals/completions stay rare relative to the 5s cycle — the
	// steady state the incremental path is designed for.
	w := workload.Generate(workload.Config{
		Cluster:       sc.Cluster(),
		DurationHours: sc.DurationHours,
		Load:          1.5,
		JobsPerHour:   80,
		ArrivalSCV:    1, // Poisson arrivals
		Seed:          seed,
	})
	arms := []struct {
		name       string
		noWarmBase bool
	}{
		{"incremental", false},
		{"rebuild-cold", true},
	}
	out := make([]SteadyArm, 0, len(arms))
	for _, a := range arms {
		cfg := sc.config(seed)
		cfg.Scheduler.NoWarmBasis = a.noWarmBase
		r, err := Run(Sys3Sigma, w, cfg)
		if err != nil {
			return nil, err
		}
		arm := SteadyArm{
			Arm:    a.name,
			Cycles: r.Stats.Cycles,
			Solver: r.Report.Solver,
			Digest: r.Digest,
		}
		arm.MeanCycleMS, arm.P50CycleMS, arm.P95CycleMS, arm.P99CycleMS = latencyStats(r.Sim.CycleLatencies)
		arm.MeanSolveMS, _, _, _ = latencyStats(r.Sim.SolverLatency)
		out = append(out, arm)
	}
	cold := out[len(out)-1].MeanCycleMS
	for i := range out {
		if out[i].MeanCycleMS > 0 {
			out[i].SpeedupVsCold = cold / out[i].MeanCycleMS
		}
	}
	return out, nil
}

// latencyStats returns mean/p50/p95/p99 in milliseconds.
func latencyStats(d []time.Duration) (mean, p50, p95, p99 float64) {
	if len(d) == 0 {
		return 0, 0, 0, 0
	}
	s := make([]time.Duration, len(d))
	copy(s, d)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	var sum time.Duration
	for _, v := range s {
		sum += v
	}
	ms := func(v time.Duration) float64 { return float64(v.Nanoseconds()) / 1e6 }
	q := func(p float64) float64 { return ms(s[int(p*float64(len(s)-1))]) }
	return ms(sum) / float64(len(s)), q(0.50), q(0.95), q(0.99)
}

// FormatSteady renders the arms as a table.
func FormatSteady(arms []SteadyArm) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %7s %9s %9s %9s %9s %9s %8s\n",
		"arm", "cycles", "mean ms", "p50 ms", "p95 ms", "p99 ms", "solve ms", "speedup")
	for _, a := range arms {
		fmt.Fprintf(&b, "%-13s %7d %9.3f %9.3f %9.3f %9.3f %9.3f %7.2fx\n",
			a.Arm, a.Cycles, a.MeanCycleMS, a.P50CycleMS, a.P95CycleMS, a.P99CycleMS, a.MeanSolveMS, a.SpeedupVsCold)
	}
	for _, a := range arms {
		fmt.Fprintf(&b, "%-13s %s digest=%s\n", a.Arm, a.Solver, a.Digest[:16])
	}
	return b.String()
}
