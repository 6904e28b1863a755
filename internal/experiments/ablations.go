package experiments

import (
	"fmt"
	"strings"
	"time"

	"threesigma/internal/core"
	"threesigma/internal/metrics"
	"threesigma/internal/workload"
)

// This file holds the repository's own design-choice ablations, beyond the
// paper's Fig. 8: the plan-ahead window width (how many deferral slots
// 3σSched reasons over) and the previous-cycle warm start of the MILP
// (§4.3.6). DESIGN.md §5 motivates both.

// AblationPoint is one configuration's outcome.
type AblationPoint struct {
	Label     string
	Report    metrics.Report
	MeanSolve time.Duration
}

// AblationPlanAhead sweeps the number of plan-ahead slots for 3Sigma.
// One slot means no deferral planning at all (greedy-in-time).
func AblationPlanAhead(sc Scale, seed int64, slotCounts []int) ([]AblationPoint, error) {
	if len(slotCounts) == 0 {
		slotCounts = []int{1, 2, 4, 6, 8}
	}
	labels := make([]string, len(slotCounts))
	for i, n := range slotCounts {
		labels[i] = fmt.Sprintf("slots=%d", n)
	}
	return ablate(sc, seed, labels, func(i int, cfg *core.Config) { cfg.Slots = slotCounts[i] })
}

// AblationWarmStart compares 3Sigma with and without previous-cycle MILP
// seeding.
func AblationWarmStart(sc Scale, seed int64) ([]AblationPoint, error) {
	return ablate(sc, seed, []string{"warm-start", "cold-start"}, func(i int, cfg *core.Config) {
		cfg.NoWarmStart = i == 1
	})
}

// AblationExactShares compares the default capacity-proportional-shares
// MILP against the paper's literal §4.3.3 formulation with continuous
// per-partition allocation variables. The exact model is several times
// larger, so this ablation is meant for the Small scale.
func AblationExactShares(sc Scale, seed int64) ([]AblationPoint, error) {
	return ablate(sc, seed, []string{"prop-shares", "exact-shares"}, func(i int, cfg *core.Config) {
		cfg.ExactShares = i == 1
	})
}

// ablate runs 3Sigma once per labelled variant — tune sets variant i's
// scheduler configuration — on sc.Repeats workloads, and reports each
// variant's averaged report and mean solver time per cycle.
func ablate(sc Scale, seed int64, labels []string, tune func(i int, cfg *core.Config)) ([]AblationPoint, error) {
	reps := sc.repeats()
	ws := make([]*workload.Workload, reps)
	for r := range ws {
		ws[r] = workload.Generate(sc.WorkloadConfig(seed + int64(r)))
	}
	runs := make([]*Result, len(labels)*reps)
	err := parallelEach(len(runs), func(k int) error {
		vi, r := k/reps, k%reps
		cfg := sc.config(seed + int64(r))
		tune(vi, &cfg.Scheduler)
		var err error
		runs[k], err = Run(Sys3Sigma, ws[r], cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	pts := make([]AblationPoint, len(labels))
	for vi, label := range labels {
		reports := make([]metrics.Report, reps)
		var solveSum time.Duration
		for r := range reports {
			res := runs[vi*reps+r]
			reports[r] = res.Report
			if st := res.Stats; st.Cycles > 0 {
				solveSum += st.SolveTime / time.Duration(st.Cycles)
			}
		}
		pts[vi] = AblationPoint{Label: label, Report: metrics.Average(reports), MeanSolve: solveSum / time.Duration(reps)}
	}
	return pts, nil
}

// FormatAblation renders ablation points as a table.
func FormatAblation(title string, pts []AblationPoint) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	fmt.Fprintf(&sb, "%-14s %10s %12s %12s %10s %12s\n",
		"config", "slo-miss%", "slo-gp", "be-gp", "be-lat(s)", "solve-mean")
	for _, p := range pts {
		fmt.Fprintf(&sb, "%-14s %10.2f %12.1f %12.1f %10.0f %12s\n",
			p.Label, p.Report.SLOMissRate, p.Report.SLOGoodput, p.Report.BEGoodput,
			p.Report.MeanBELatency, p.MeanSolve.Round(time.Microsecond))
	}
	return sb.String()
}
