package experiments

import (
	"fmt"
	"strings"

	"threesigma/internal/faults"
	"threesigma/internal/metrics"
	"threesigma/internal/workload"
)

// ---------------------------------------------------------------------------
// Availability: SLO attainment vs. node MTBF sweep.
//
// The paper evaluates a perfectly reliable cluster; this scenario asks how
// gracefully each system degrades when the cluster is not: nodes fail and
// recover on a deterministic schedule (internal/faults), evicted jobs retry
// under a bounded budget, and the schedulers replan each cycle against the
// shrunken effective capacity. The sweep variable is per-node MTBF — the
// availability knob operators actually reason about.
// ---------------------------------------------------------------------------

// AvailabilityPoint is one MTBF sweep point: MTBFHours <= 0 means faults
// disabled (the reliability ceiling), and Rows holds one averaged report per
// system in AvailabilitySystems order.
type AvailabilityPoint struct {
	MTBFHours float64          `json:"mtbf_hours"`
	Rows      []metrics.Report `json:"rows"`
}

// AvailabilitySystems compares the distribution-based scheduler against the
// strongest point-estimate baseline and the greedy priority scheduler — the
// three regimes whose failure response differs structurally.
func AvailabilitySystems() []System {
	return []System{Sys3Sigma, SysPointRealEst, SysPrio}
}

// DefaultMTBFSweepHours is the availability sweep grid: no faults, then
// per-node MTBF from generous to hostile.
func DefaultMTBFSweepHours() []float64 { return []float64{0, 8, 4, 2, 1} }

// Availability sweeps per-node MTBF, running every system on identical
// workloads and fault schedules at each point, averaging over sc.Repeats
// workload seeds. base carries the non-MTBF fault knobs (MTTR, group
// failures, crash/straggler probabilities, retry budget); base.NodeMTBF is
// overridden per point and base.Seed keys the schedule.
func Availability(sc Scale, seed int64, base faults.Config, mtbfHours []float64) ([]AvailabilityPoint, error) {
	if len(mtbfHours) == 0 {
		mtbfHours = DefaultMTBFSweepHours()
	}
	reps := sc.repeats()
	ws := make([]*workload.Workload, 0, len(mtbfHours)*reps)
	cfgs := make([]*faults.Config, 0, len(mtbfHours)*reps)
	for _, h := range mtbfHours {
		var fc *faults.Config
		if h > 0 {
			c := base
			c.NodeMTBF = h * 3600
			fc = &c
		}
		// Identical workload seeds across sweep points: every point sees the
		// same job stream, isolating the failure rate as the only variable.
		for r := 0; r < reps; r++ {
			ws = append(ws, workload.Generate(sc.WorkloadConfig(seed+int64(r))))
			cfgs = append(cfgs, fc)
		}
	}
	systems := AvailabilitySystems()
	grid := make([][]metrics.Report, len(ws))
	for i := range grid {
		grid[i] = make([]metrics.Report, len(systems))
	}
	err := parallelEach(len(ws)*len(systems), func(k int) error {
		wi, si := k/len(systems), k%len(systems)
		cfg := sc.config(seed + int64(wi%reps))
		cfg.Faults = cfgs[wi]
		r, err := Run(systems[si], ws[wi], cfg)
		if err != nil {
			return err
		}
		grid[wi][si] = r.Report
		return nil
	})
	if err != nil {
		return nil, err
	}
	avg := averageVariants(grid, len(mtbfHours), reps, len(systems))
	out := make([]AvailabilityPoint, len(mtbfHours))
	for v, h := range mtbfHours {
		out[v] = AvailabilityPoint{MTBFHours: h, Rows: avg[v]}
	}
	return out, nil
}

// FormatAvailability renders the sweep as SLO attainment (and the fault
// panel counters) per MTBF point.
func FormatAvailability(points []AvailabilityPoint) string {
	var sb strings.Builder
	sb.WriteString("Availability: SLO attainment vs. node MTBF\n")
	fmt.Fprintf(&sb, "%-10s %-14s %10s %10s %10s %12s %10s\n",
		"mtbf", "system", "slo-miss%", "goodput", "evictions", "lost(M-hr)", "down(n-hr)")
	for _, pt := range points {
		label := "none"
		if pt.MTBFHours > 0 {
			label = fmt.Sprintf("%gh", pt.MTBFHours)
		}
		for _, r := range pt.Rows {
			fmt.Fprintf(&sb, "%-10s %-14s %10.2f %10.1f %10d %12.1f %10.1f\n",
				label, r.System, r.SLOMissRate, r.TotalGoodput,
				r.Evictions, r.FailureLostHours, r.NodeDownSeconds/3600)
			label = ""
		}
	}
	return sb.String()
}
