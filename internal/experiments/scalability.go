package experiments

import (
	"fmt"
	"strings"

	"threesigma/internal/metrics"
	"threesigma/internal/shard"
	"threesigma/internal/workload"
)

// The SCALABILITY scenario measures sharded scheduling domains (DESIGN.md
// §13) where they are designed to win: a cluster 10–100× the paper's 256
// nodes, where one monolithic buildModel+Solve per cycle pays for every
// partition's capacity rows while eight per-domain solves run concurrently
// over an eighth of the rows each. The workload is domain-partitioned (SLO
// jobs prefer exactly one domain's partitions, best-effort jobs are flexible
// and exercise the coordinator's rebalancing/stealing), and two arms run
// on the identical workload:
//
//	monolithic    -shards 1: one cluster-wide MILP per cycle (the baseline
//	              the ≥2× acceptance target is measured against)
//	sharded-N     N scheduling domains, their cycles run concurrently
//
// Latencies are wall-clock, so the scenario must run on an otherwise idle
// machine (same caveat as Fig. 12 and the steady-state scenario).

// ScalabilityScale returns the default scenario scale: 10× the paper's
// cluster, 64 machine-type partitions, 8 scheduling domains of 8 partitions
// each, with a pending queue deep enough (sustained 1.6× overload, MaxPending
// 256) that every cycle carries a full-size MILP.
func ScalabilityScale() Scale {
	return Scale{
		Name: "scalability", Nodes: 2560, Partitions: 64, DurationHours: 0.25,
		CycleInterval: 10, Slots: 6, SlotDur: 300, MaxPending: 256,
		DrainWindow: 1200,
		Shards:      8, TraceJobs: 10000,
	}
}

// ScalabilityArm is one arm's measurement.
type ScalabilityArm struct {
	Arm         string  `json:"arm"`
	Shards      int     `json:"shards"`
	Cycles      int     `json:"cycles"`
	MeanCycleMS float64 `json:"mean_cycle_ms"`
	P50CycleMS  float64 `json:"p50_cycle_ms"`
	P95CycleMS  float64 `json:"p95_cycle_ms"`
	P99CycleMS  float64 `json:"p99_cycle_ms"`
	MeanSolveMS float64 `json:"mean_solve_ms"`

	Solver metrics.SolverStats `json:"solver"`
	// ShardSolver carries the per-shard counters (empty on the monolithic
	// arm); Coord the coordinator's cross-shard activity.
	ShardSolver []metrics.SolverStats  `json:"shard_solver,omitempty"`
	Coord       shard.CoordinatorStats `json:"coordinator,omitempty"`

	Digest       string   `json:"digest"`
	ShardDigests []string `json:"shard_digests,omitempty"`

	// SpeedupVsMono is the monolithic arm's mean cycle latency over this
	// arm's (the committed acceptance number on the sharded arm).
	SpeedupVsMono float64 `json:"speedup_vs_mono,omitempty"`
}

// Scalability runs the scenario's two arms on one generated workload: one
// Run call each, differing only in SimConfig.Shards (1 and N).
func Scalability(sc Scale, seed int64) ([]ScalabilityArm, error) {
	shards := sc.Shards
	if shards < 1 {
		shards = 8
	}
	// Domain-partitioned workload: every SLO job prefers exactly one
	// domain's partitions, best-effort jobs are flexible. Poisson arrivals
	// at a pinned rate (runtimes scaled to the load target) keep per-cycle
	// event counts — and with them the quiet-domain fraction — stable as
	// the cluster grows.
	w := workload.Generate(workload.Config{
		Cluster:       sc.Cluster(),
		DurationHours: sc.DurationHours,
		Load:          1.6,
		JobsPerHour:   3600,
		ArrivalSCV:    1,
		Domains:       shards,
		Seed:          seed,
	})
	arms := []struct {
		name   string
		shards int
	}{
		{"monolithic", 1},
		{fmt.Sprintf("sharded-%d", shards), shards},
	}
	out := make([]ScalabilityArm, 0, len(arms))
	for _, a := range arms {
		cfg := sc.config(seed)
		cfg.Shards = a.shards
		r, err := Run(Sys3Sigma, w, cfg)
		if err != nil {
			return nil, err
		}
		arm := ScalabilityArm{
			Arm:          a.name,
			Shards:       a.shards,
			Cycles:       r.Stats.Cycles,
			Solver:       r.Report.Solver,
			ShardSolver:  r.Report.ShardSolver,
			Coord:        r.Coord,
			Digest:       r.Digest,
			ShardDigests: r.ShardDigests,
		}
		arm.MeanCycleMS, arm.P50CycleMS, arm.P95CycleMS, arm.P99CycleMS = latencyStats(r.Sim.CycleLatencies)
		arm.MeanSolveMS, _, _, _ = latencyStats(r.Sim.SolverLatency)
		out = append(out, arm)
	}
	mono := out[0].MeanCycleMS
	for i := range out {
		if out[i].MeanCycleMS > 0 {
			out[i].SpeedupVsMono = mono / out[i].MeanCycleMS
		}
	}
	return out, nil
}

// FormatScalability renders the arms as a table.
func FormatScalability(arms []ScalabilityArm) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %7s %9s %9s %9s %9s %9s %8s\n",
		"arm", "cycles", "mean ms", "p50 ms", "p95 ms", "p99 ms", "solve ms", "speedup")
	for _, a := range arms {
		fmt.Fprintf(&b, "%-22s %7d %9.3f %9.3f %9.3f %9.3f %9.3f %7.2fx\n",
			a.Arm, a.Cycles, a.MeanCycleMS, a.P50CycleMS, a.P95CycleMS, a.P99CycleMS, a.MeanSolveMS, a.SpeedupVsMono)
	}
	for _, a := range arms {
		fmt.Fprintf(&b, "%-22s %s digest=%s\n", a.Arm, a.Solver, a.Digest[:16])
		if a.Coord != (shard.CoordinatorStats{}) {
			fmt.Fprintf(&b, "%-22s span-starts=%d span-abandons=%d rebalanced=%d stolen=%d\n",
				a.Arm, a.Coord.SpanStarts, a.Coord.SpanAbandons, a.Coord.Rebalanced, a.Coord.Stolen)
		}
	}
	return b.String()
}
