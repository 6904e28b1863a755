package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"threesigma/internal/baselines"
	"threesigma/internal/core"
	"threesigma/internal/dist"
	"threesigma/internal/job"
	"threesigma/internal/metrics"
	"threesigma/internal/predictor"
	"threesigma/internal/stats"
	"threesigma/internal/trace"
	"threesigma/internal/workload"
)

// runGrid executes every (workload, system) pair in parallel and returns
// reports indexed [workload][system]; workload wi runs with seed cfg.Seed+wi.
func runGrid(ws []*workload.Workload, systems []System, cfg SimConfig) ([][]metrics.Report, error) {
	out := make([][]metrics.Report, len(ws))
	for i := range out {
		out[i] = make([]metrics.Report, len(systems))
	}
	err := parallelEach(len(ws)*len(systems), func(k int) error {
		wi, si := k/len(systems), k%len(systems)
		c := cfg
		c.Seed += int64(wi)
		r, err := Run(systems[si], ws[wi], c)
		if err != nil {
			return err
		}
		out[wi][si] = r.Report
		return nil
	})
	return out, err
}

// averageVariants groups the grid rows as variants × repeats (row index =
// variant*repeats + r) and averages each system's reports per variant.
func averageVariants(grid [][]metrics.Report, variants, repeats, systems int) [][]metrics.Report {
	out := make([][]metrics.Report, variants)
	for v := 0; v < variants; v++ {
		out[v] = make([]metrics.Report, systems)
		for s := 0; s < systems; s++ {
			reps := make([]metrics.Report, 0, repeats)
			for r := 0; r < repeats; r++ {
				reps = append(reps, grid[v*repeats+r][s])
			}
			out[v][s] = metrics.Average(reps)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Fig. 1 / Fig. 6: end-to-end comparison on the Google E2E workload.
// ---------------------------------------------------------------------------

// EndToEnd runs the four Table 1 systems on the E2E workload, averaging
// over sc.Repeats workload seeds. rc selects the RC256 emulation (Fig. 6);
// otherwise SC (Fig. 1). Returns one report per system in CoreSystems order.
func EndToEnd(sc Scale, seed int64, rc bool) ([]metrics.Report, error) {
	reps := sc.repeats()
	ws := make([]*workload.Workload, reps)
	for r := 0; r < reps; r++ {
		ws[r] = workload.Generate(sc.WorkloadConfig(seed + int64(r)))
	}
	systems := CoreSystems()
	cfg := sc.config(seed)
	cfg.RealCluster = rc
	grid, err := runGrid(ws, systems, cfg)
	if err != nil {
		return nil, err
	}
	return averageVariants(grid, 1, reps, len(systems))[0], nil
}

// FormatEndToEnd renders the Fig. 1/6 rows, with one solver-diagnostic line
// per MILP-based system.
func FormatEndToEnd(title string, rows []metrics.Report) string {
	var sb strings.Builder
	sb.WriteString(title + "\n" + metrics.Table(rows))
	for _, r := range rows {
		if r.Solver.Nodes > 0 {
			fmt.Fprintf(&sb, "solver[%s]: %s\n", r.System, r.Solver)
		}
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Table 2: real-vs-simulation deltas.
// ---------------------------------------------------------------------------

// Table2Row is one system's absolute real-vs-sim differences.
type Table2Row struct {
	System       System
	DeltaSLOMiss float64 // percentage points
	DeltaGoodput float64 // machine-hours
	DeltaBELat   float64 // seconds
}

// Table2 runs the four systems under both the RC emulation and the plain
// simulator on identical workloads and reports absolute differences
// (the paper's validation that simulation tracks the real cluster).
func Table2(sc Scale, seed int64) ([]Table2Row, error) {
	reps := sc.repeats()
	ws := make([]*workload.Workload, reps)
	for r := 0; r < reps; r++ {
		ws[r] = workload.Generate(sc.WorkloadConfig(seed + int64(r)))
	}
	systems := CoreSystems()
	cfg := sc.config(seed)
	simGrid, err := runGrid(ws, systems, cfg)
	if err != nil {
		return nil, err
	}
	cfg.RealCluster = true
	rcGrid, err := runGrid(ws, systems, cfg)
	if err != nil {
		return nil, err
	}
	simAvg := averageVariants(simGrid, 1, reps, len(systems))[0]
	rcAvg := averageVariants(rcGrid, 1, reps, len(systems))[0]
	rows := make([]Table2Row, len(systems))
	for i := range systems {
		rows[i] = Table2Row{
			System:       systems[i],
			DeltaSLOMiss: math.Abs(rcAvg[i].SLOMissRate - simAvg[i].SLOMissRate),
			DeltaGoodput: math.Abs(rcAvg[i].TotalGoodput - simAvg[i].TotalGoodput),
			DeltaBELat:   math.Abs(rcAvg[i].MeanBELatency - simAvg[i].MeanBELatency),
		}
	}
	return rows, nil
}

// FormatTable2 renders Table 2.
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2: |real − sim| per system\n")
	fmt.Fprintf(&sb, "%-14s %14s %18s %16s\n", "system", "Δslo-miss(%)", "Δgoodput(M-Hr)", "Δbe-lat(s)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %14.3f %18.2f %16.2f\n", r.System, r.DeltaSLOMiss, r.DeltaGoodput, r.DeltaBELat)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Fig. 7: three workload environments.
// ---------------------------------------------------------------------------

// Fig7Cell is one (environment, system) outcome.
type Fig7Cell struct {
	Env    string
	Report metrics.Report
}

// Fig7 runs the four systems on E2E, HEDGEFUND_E2E and MUSTANG_E2E.
func Fig7(sc Scale, seed int64) ([]Fig7Cell, error) {
	envs := []*workload.Env{workload.Google(), workload.HedgeFund(), workload.Mustang()}
	systems := CoreSystems()
	reps := sc.repeats()
	ws := make([]*workload.Workload, 0, len(envs)*reps)
	for i, env := range envs {
		for r := 0; r < reps; r++ {
			cfg := sc.WorkloadConfig(seed + int64(i*1000+r))
			cfg.Env = env
			ws = append(ws, workload.Generate(cfg))
		}
	}
	grid, err := runGrid(ws, systems, sc.config(seed))
	if err != nil {
		return nil, err
	}
	avg := averageVariants(grid, len(envs), reps, len(systems))
	cells := make([]Fig7Cell, 0, len(envs)*len(systems))
	for ei, env := range envs {
		for si := range systems {
			cells = append(cells, Fig7Cell{Env: env.Name, Report: avg[ei][si]})
		}
	}
	return cells, nil
}

// FormatFig7 renders the Fig. 7 groups.
func FormatFig7(cells []Fig7Cell) string {
	var sb strings.Builder
	sb.WriteString("Fig 7: workloads from three environments (SC)\n")
	last := ""
	for _, c := range cells {
		if c.Env != last {
			fmt.Fprintf(&sb, "-- %s --\n", c.Env)
			last = c.Env
		}
		sb.WriteString(c.Report.String() + "\n")
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Fig. 8: attribution of benefit vs deadline slack.
// ---------------------------------------------------------------------------

// Fig8Point is one (slack, system) outcome.
type Fig8Point struct {
	SlackPct int
	System   System
	Report   metrics.Report
}

// DefaultFig8Slacks matches the paper's DEADLINE-n sweep.
func DefaultFig8Slacks() []int { return []int{20, 40, 60, 80, 100, 120, 140, 160, 180} }

// Fig8 sweeps constant deadline slack across the six ablation systems.
func Fig8(sc Scale, seed int64, slacks []int) ([]Fig8Point, error) {
	if len(slacks) == 0 {
		slacks = DefaultFig8Slacks()
	}
	systems := AblationSystems()
	reps := sc.repeats()
	ws := make([]*workload.Workload, 0, len(slacks)*reps)
	for _, s := range slacks {
		for r := 0; r < reps; r++ {
			cfg := sc.WorkloadConfig(seed + int64(r))
			cfg.SlackChoices = []float64{float64(s) / 100}
			ws = append(ws, workload.Generate(cfg))
		}
	}
	grid, err := runGrid(ws, systems, sc.config(seed))
	if err != nil {
		return nil, err
	}
	avg := averageVariants(grid, len(slacks), reps, len(systems))
	pts := make([]Fig8Point, 0, len(slacks)*len(systems))
	for wi, s := range slacks {
		for si := range systems {
			pts = append(pts, Fig8Point{SlackPct: s, System: systems[si], Report: avg[wi][si]})
		}
	}
	return pts, nil
}

// FormatFig8 renders the three Fig. 8 panels (SLO miss, SLO goodput, BE
// goodput) as slack-indexed series.
func FormatFig8(pts []Fig8Point) string {
	systems := AblationSystems()
	bySlack := map[int]map[System]metrics.Report{}
	var slacks []int
	for _, p := range pts {
		m, ok := bySlack[p.SlackPct]
		if !ok {
			m = map[System]metrics.Report{}
			bySlack[p.SlackPct] = m
			slacks = append(slacks, p.SlackPct)
		}
		m[p.System] = p.Report
	}
	var sb strings.Builder
	for _, panel := range []struct {
		title string
		get   func(metrics.Report) float64
	}{
		{"Fig 8a: SLO miss (%) vs deadline slack", func(r metrics.Report) float64 { return r.SLOMissRate }},
		{"Fig 8b: SLO goodput (M-Hr) vs deadline slack", func(r metrics.Report) float64 { return r.SLOGoodput }},
		{"Fig 8c: BE goodput (M-Hr) vs deadline slack", func(r metrics.Report) float64 { return r.BEGoodput }},
	} {
		sb.WriteString(panel.title + "\n")
		fmt.Fprintf(&sb, "%-8s", "slack%")
		for _, s := range systems {
			fmt.Fprintf(&sb, " %14s", s)
		}
		sb.WriteString("\n")
		for _, sl := range slacks {
			fmt.Fprintf(&sb, "%-8d", sl)
			for _, s := range systems {
				fmt.Fprintf(&sb, " %14.2f", panel.get(bySlack[sl][s]))
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Fig. 9: synthetic distribution perturbation.
// ---------------------------------------------------------------------------

// Fig9Point is one (shift, cov-series) outcome. CoV < 0 encodes the point-
// estimate series.
type Fig9Point struct {
	ShiftPct int
	CoVPct   int // -1 for the point-estimate series
	Report   metrics.Report
}

// DefaultFig9Shifts matches the paper's x-axis.
func DefaultFig9Shifts() []int { return []int{-50, -20, 0, 20, 50, 100} }

// DefaultFig9CoVs matches the paper's series (point, 10%, 20%, 50%).
func DefaultFig9CoVs() []int { return []int{-1, 10, 20, 50} }

// Fig9 provides 3σSched with synthetic N(runtime·(1+shift), runtime·CoV)
// distributions (per-job shift ~ N(shift, 0.1)) instead of 3σPredict output
// and sweeps both knobs. The workload is the 2-hour E2E variant.
func Fig9(sc Scale, seed int64, shifts, covs []int) ([]Fig9Point, error) {
	if len(shifts) == 0 {
		shifts = DefaultFig9Shifts()
	}
	if len(covs) == 0 {
		covs = DefaultFig9CoVs()
	}
	reps := sc.repeats()
	cfg0 := sc.WorkloadConfig(seed)
	if cfg0.DurationHours > 2 {
		cfg0.DurationHours = 2 // the paper uses the 2-hour variant here
	}
	ws := make([]*workload.Workload, reps)
	for r := 0; r < reps; r++ {
		cfg := cfg0
		cfg.Seed = seed + int64(r)
		ws[r] = workload.Generate(cfg)
	}
	cells := len(shifts) * len(covs)
	scratch := make([]metrics.Report, cells*reps)
	err := parallelEach(cells*reps, func(k int) error {
		cell, r := k/reps, k%reps
		si, ci := cell/len(covs), cell%len(covs)
		shift, cov := shifts[si], covs[ci]
		est := synthEstimator(float64(shift)/100, float64(cov)/100, seed+int64(cell))
		cfg := sc.config(seed + int64(r))
		cfg.Scheduler.Policy = baselines.ThreeSigmaPolicy()
		res, err := RunScheduler(fmt.Sprintf("shift%+d/cov%d", shift, cov), core.New(est, cfg.Scheduler), ws[r].Jobs, ws[r].Cluster, cfg)
		if err != nil {
			return err
		}
		scratch[k] = res.Report // distinct index per task: no contention
		return nil
	})
	if err != nil {
		return nil, err
	}
	pts := make([]Fig9Point, cells)
	for cell := 0; cell < cells; cell++ {
		si, ci := cell/len(covs), cell%len(covs)
		pts[cell] = Fig9Point{
			ShiftPct: shifts[si],
			CoVPct:   covs[ci],
			Report:   metrics.Average(scratch[cell*reps : (cell+1)*reps]),
		}
	}
	return pts, nil
}

// FormatFig9 renders SLO miss and SLO goodput vs artificial shift for each
// CoV series.
func FormatFig9(pts []Fig9Point) string {
	series := map[int]map[int]metrics.Report{}
	var shifts []int
	seen := map[int]bool{}
	var covs []int
	seenCov := map[int]bool{}
	for _, p := range pts {
		if series[p.CoVPct] == nil {
			series[p.CoVPct] = map[int]metrics.Report{}
		}
		series[p.CoVPct][p.ShiftPct] = p.Report
		if !seen[p.ShiftPct] {
			seen[p.ShiftPct] = true
			shifts = append(shifts, p.ShiftPct)
		}
		if !seenCov[p.CoVPct] {
			seenCov[p.CoVPct] = true
			covs = append(covs, p.CoVPct)
		}
	}
	var sb strings.Builder
	for _, panel := range []struct {
		title string
		get   func(metrics.Report) float64
	}{
		{"Fig 9a: SLO miss (%) vs artificial shift", func(r metrics.Report) float64 { return r.SLOMissRate }},
		{"Fig 9b: SLO goodput (M-Hr) vs artificial shift", func(r metrics.Report) float64 { return r.SLOGoodput }},
	} {
		sb.WriteString(panel.title + "\n")
		fmt.Fprintf(&sb, "%-8s", "shift%")
		for _, c := range covs {
			name := fmt.Sprintf("CoV=%d%%", c)
			if c < 0 {
				name = "point"
			}
			fmt.Fprintf(&sb, " %10s", name)
		}
		sb.WriteString("\n")
		for _, sh := range shifts {
			fmt.Fprintf(&sb, "%-8d", sh)
			for _, c := range covs {
				fmt.Fprintf(&sb, " %10.2f", panel.get(series[c][sh]))
			}
			sb.WriteString("\n")
		}
	}
	// Fig 9c: the shift profile — per-job shifts are ~N(shift, 0.1), so the
	// under-/accurate-/over-estimated breakdown is analytic.
	sb.WriteString("Fig 9c: shift profile (fraction of jobs per bucket)\n")
	fmt.Fprintf(&sb, "%-8s %12s %14s %12s\n", "shift%", "shift<=-10%", "within(-10,10)", "shift>=10%")
	for _, sh := range shifts {
		mu := float64(sh) / 100
		under := stdNormalCDF((-0.1 - mu) / 0.1)
		over := 1 - stdNormalCDF((0.1-mu)/0.1)
		fmt.Fprintf(&sb, "%-8d %12.2f %14.2f %12.2f\n", sh, under, 1-under-over, over)
	}
	return sb.String()
}

// stdNormalCDF is the standard normal CDF (for the Fig. 9c shift profile).
func stdNormalCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// synthEstimator builds the Fig. 9 synthetic distribution provider. cov < 0
// selects point estimates. Per-job shifts are drawn deterministically from
// the job ID so runs are reproducible.
func synthEstimator(shift, cov float64, seed int64) core.Estimator {
	return core.FuncEstimator{EstimateFn: func(j *job.Job) dist.Distribution {
		rng := stats.NewRand(seed ^ int64(j.ID)*2654435761)
		jobShift := shift + 0.1*rng.NormFloat64()
		mean := j.Runtime * (1 + jobShift)
		if mean < 1 {
			mean = 1
		}
		if cov < 0 {
			return dist.NewPoint(mean)
		}
		return dist.NewNormal(mean, j.Runtime*cov)
	}}
}

// ---------------------------------------------------------------------------
// Fig. 10: load sensitivity.
// ---------------------------------------------------------------------------

// Fig10Point is one (load, system) outcome.
type Fig10Point struct {
	Load   float64
	System System
	Report metrics.Report
}

// DefaultFig10Loads matches E2E-LOAD-ℓ.
func DefaultFig10Loads() []float64 { return []float64{1.0, 1.2, 1.4, 1.6} }

// Fig10 sweeps offered load across the four systems.
func Fig10(sc Scale, seed int64, loads []float64) ([]Fig10Point, error) {
	if len(loads) == 0 {
		loads = DefaultFig10Loads()
	}
	systems := CoreSystems()
	reps := sc.repeats()
	ws := make([]*workload.Workload, 0, len(loads)*reps)
	for _, l := range loads {
		for r := 0; r < reps; r++ {
			cfg := sc.WorkloadConfig(seed + int64(r))
			cfg.Load = l
			ws = append(ws, workload.Generate(cfg))
		}
	}
	grid, err := runGrid(ws, systems, sc.config(seed))
	if err != nil {
		return nil, err
	}
	avg := averageVariants(grid, len(loads), reps, len(systems))
	pts := make([]Fig10Point, 0, len(loads)*len(systems))
	for wi, l := range loads {
		for si := range systems {
			pts = append(pts, Fig10Point{Load: l, System: systems[si], Report: avg[wi][si]})
		}
	}
	return pts, nil
}

// FormatFig10 renders SLO miss, BE goodput and BE latency vs load.
func FormatFig10(pts []Fig10Point) string {
	return formatSweep("Fig 10", "load", pts, func(p Fig10Point) (string, System, metrics.Report) {
		return fmt.Sprintf("%.1f", p.Load), p.System, p.Report
	})
}

// ---------------------------------------------------------------------------
// Fig. 11: sample-size sensitivity.
// ---------------------------------------------------------------------------

// Fig11Point is one (samples, system) outcome.
type Fig11Point struct {
	Samples int
	System  System
	Report  metrics.Report
}

// DefaultFig11Samples matches E2E-SAMPLE-n (paper: n ∈ {5,10,25,50,75,100}).
func DefaultFig11Samples() []int { return []int{5, 10, 25, 50, 75, 100} }

// Fig11 controls the number of pre-training samples per feature group.
func Fig11(sc Scale, seed int64, samples []int) ([]Fig11Point, error) {
	if len(samples) == 0 {
		samples = DefaultFig11Samples()
	}
	systems := CoreSystems()
	reps := sc.repeats()
	ws := make([]*workload.Workload, 0, len(samples)*reps)
	for _, n := range samples {
		for r := 0; r < reps; r++ {
			cfg := sc.WorkloadConfig(seed + int64(r))
			cfg.PretrainPerApp = n
			ws = append(ws, workload.Generate(cfg))
		}
	}
	grid, err := runGrid(ws, systems, sc.config(seed))
	if err != nil {
		return nil, err
	}
	avg := averageVariants(grid, len(samples), reps, len(systems))
	pts := make([]Fig11Point, 0, len(samples)*len(systems))
	for wi, n := range samples {
		for si := range systems {
			pts = append(pts, Fig11Point{Samples: n, System: systems[si], Report: avg[wi][si]})
		}
	}
	return pts, nil
}

// FormatFig11 renders SLO miss, BE goodput and BE latency vs sample count.
func FormatFig11(pts []Fig11Point) string {
	return formatSweep("Fig 11", "samples", pts, func(p Fig11Point) (string, System, metrics.Report) {
		return fmt.Sprintf("%d", p.Samples), p.System, p.Report
	})
}

// formatSweep renders the common three-panel (miss, BE goodput, BE latency)
// sweep layout shared by Figs. 10 and 11.
func formatSweep[T any](figure, xname string, pts []T, get func(T) (string, System, metrics.Report)) string {
	systems := CoreSystems()
	byX := map[string]map[System]metrics.Report{}
	var xs []string
	for _, p := range pts {
		x, sys, rep := get(p)
		if byX[x] == nil {
			byX[x] = map[System]metrics.Report{}
			xs = append(xs, x)
		}
		byX[x][sys] = rep
	}
	var sb strings.Builder
	for _, panel := range []struct {
		title string
		val   func(metrics.Report) float64
	}{
		{figure + "a: SLO miss (%)", func(r metrics.Report) float64 { return r.SLOMissRate }},
		{figure + "b: BE goodput (M-Hr)", func(r metrics.Report) float64 { return r.BEGoodput }},
		{figure + "c: BE latency (s)", func(r metrics.Report) float64 { return r.MeanBELatency }},
	} {
		sb.WriteString(panel.title + "\n")
		fmt.Fprintf(&sb, "%-8s", xname)
		for _, s := range systems {
			fmt.Fprintf(&sb, " %14s", s)
		}
		sb.WriteString("\n")
		for _, x := range xs {
			fmt.Fprintf(&sb, "%-8s", x)
			for _, s := range systems {
				fmt.Fprintf(&sb, " %14.2f", panel.val(byX[x][s]))
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Fig. 12: scalability.
// ---------------------------------------------------------------------------

// Fig12Point is one (jobs/hr, mode) outcome.
type Fig12Point struct {
	JobsPerHour  int
	Dist         bool // true: distribution scheduling; false: point
	MeanCycle    time.Duration
	MaxCycle     time.Duration
	MeanSolve    time.Duration
	MaxSolve     time.Duration
	MaxModelVars int
	MaxModelRows int
	PredictMax   time.Duration
}

// DefaultFig12Rates matches SCALABILITY-n.
func DefaultFig12Rates() []int { return []int{2000, 3000, 4000} }

// Fig12 measures scheduling-cycle and solver runtimes on the GOOGLE-scale
// cluster (12,583 nodes) at load 0.95 for distribution vs point scheduling.
// hours scales the measurement window (the paper uses 5h; benches use less).
func Fig12(seed int64, rates []int, hours float64) ([]Fig12Point, error) {
	if len(rates) == 0 {
		rates = DefaultFig12Rates()
	}
	if hours <= 0 {
		hours = 0.2
	}
	sc := Scale{
		Name: "google", Nodes: 12583, Partitions: 8, DurationHours: hours,
		CycleInterval: 10, Slots: 6, SlotDur: 300, MaxPending: 64,
		SolverBudget: 500 * time.Millisecond, DrainWindow: 1800,
	}
	pts := make([]Fig12Point, 0, len(rates)*2)
	for _, rate := range rates {
		cfg := sc.WorkloadConfig(seed)
		cfg.Load = 0.95
		cfg.JobsPerHour = float64(rate)
		w := workload.Generate(cfg)
		for _, distMode := range []bool{true, false} {
			sys := Sys3Sigma
			if !distMode {
				sys = SysPointRealEst
			}
			r, err := Run(sys, w, sc.config(seed))
			if err != nil {
				return nil, err
			}
			st := r.Stats
			mean := time.Duration(0)
			meanSolve := time.Duration(0)
			if st.Cycles > 0 {
				mean = st.CycleTime / time.Duration(st.Cycles)
				meanSolve = st.SolveTime / time.Duration(st.Cycles)
			}
			pts = append(pts, Fig12Point{
				JobsPerHour: rate, Dist: distMode,
				MeanCycle: mean, MaxCycle: st.MaxCycleTime,
				MeanSolve: meanSolve, MaxSolve: st.MaxSolveTime,
				MaxModelVars: st.MaxVars, MaxModelRows: st.MaxRows,
				PredictMax: st.MaxPredictTime,
			})
		}
	}
	return pts, nil
}

// FormatFig12 renders scheduling-cycle and solver runtimes.
func FormatFig12(pts []Fig12Point) string {
	var sb strings.Builder
	sb.WriteString("Fig 12: scalability (12,583-node cluster, load 0.95)\n")
	fmt.Fprintf(&sb, "%-10s %-6s %12s %12s %12s %12s %9s %9s %12s\n",
		"jobs/hr", "mode", "cycle-mean", "cycle-max", "solve-mean", "solve-max", "max-vars", "max-rows", "predict-max")
	for _, p := range pts {
		mode := "point"
		if p.Dist {
			mode = "dist"
		}
		fmt.Fprintf(&sb, "%-10d %-6s %12s %12s %12s %12s %9d %9d %12s\n",
			p.JobsPerHour, mode,
			p.MeanCycle.Round(time.Microsecond), p.MaxCycle.Round(time.Microsecond),
			p.MeanSolve.Round(time.Microsecond), p.MaxSolve.Round(time.Microsecond),
			p.MaxModelVars, p.MaxModelRows, p.PredictMax.Round(time.Microsecond))
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Fig. 2: trace analyses.
// ---------------------------------------------------------------------------

// PredictorAdapter exposes 3σPredict through trace.PointPredictor.
type PredictorAdapter struct{ P *predictor.Predictor }

// EstimatePoint implements trace.PointPredictor.
func (a PredictorAdapter) EstimatePoint(j *job.Job) (float64, bool) {
	e := a.P.Estimate(j)
	return e.Point, !e.Novel
}

// ObservePoint implements trace.PointPredictor.
func (a PredictorAdapter) ObservePoint(j *job.Job, rt float64) { a.P.Observe(j, rt) }

// Fig2Result is one environment's trace analysis.
type Fig2Result struct {
	Env           string
	RuntimeP50    float64
	RuntimeP99    float64
	CoVUserGT1    float64 // fraction of user groups with CoV > 1 (Fig 2b)
	CoVResGT1     float64 // fraction of resource groups with CoV > 1 (Fig 2c)
	Errors        trace.ErrorHistogram
	RuntimeCDF    []trace.XY
	CoVUserSorted []float64
	CoVResSorted  []float64
}

// Fig2 runs the §2.1 analyses over the three environment trace models.
func Fig2(sc Scale, seed int64) []Fig2Result {
	envs := []*workload.Env{workload.Google(), workload.HedgeFund(), workload.Mustang()}
	out := make([]Fig2Result, len(envs))
	for i, env := range envs {
		recs := workload.GenerateTrace(env, sc.TraceJobs, seed)
		var rts []float64
		for _, r := range recs {
			rts = append(rts, r.Runtime)
		}
		covU := trace.CoVByGroup(recs, trace.ByUser, 2)
		covR := trace.CoVByGroup(recs, trace.ByResources, 2)
		out[i] = Fig2Result{
			Env:           env.Name,
			RuntimeP50:    stats.Percentile(rts, 50),
			RuntimeP99:    stats.Percentile(rts, 99),
			CoVUserGT1:    trace.FractionAbove(covU, 1),
			CoVResGT1:     trace.FractionAbove(covR, 1),
			Errors:        trace.EstimateErrors(recs, PredictorAdapter{predictor.New(predictor.Config{})}),
			RuntimeCDF:    trace.RuntimeCDF(recs, 40),
			CoVUserSorted: covU,
			CoVResSorted:  covR,
		}
	}
	return out
}

// FormatFig2 renders the Fig. 2 summary rows.
func FormatFig2(rs []Fig2Result) string {
	var sb strings.Builder
	sb.WriteString("Fig 2: trace analyses (generative environment models)\n")
	fmt.Fprintf(&sb, "%-10s %10s %10s %12s %12s %10s %10s %8s\n",
		"env", "rt-p50(s)", "rt-p99(s)", "CoV>1(user)", "CoV>1(res)", ">=2x-off", "within2x", "tail")
	for _, r := range rs {
		fmt.Fprintf(&sb, "%-10s %10.0f %10.0f %11.0f%% %11.0f%% %9.1f%% %9.1f%% %7.1f%%\n",
			r.Env, r.RuntimeP50, r.RuntimeP99, r.CoVUserGT1*100, r.CoVResGT1*100,
			r.Errors.MisestimatedByFactor2()*100, r.Errors.WithinFactor2*100, r.Errors.Tail*100)
	}
	sb.WriteString("\nFig 2d: estimate-error histograms (fraction per 10% bucket)\n")
	for _, r := range rs {
		fmt.Fprintf(&sb, "%-10s", r.Env)
		for _, b := range r.Errors.Buckets {
			fmt.Fprintf(&sb, " %5.3f", b)
		}
		fmt.Fprintf(&sb, " tail=%5.3f\n", r.Errors.Tail)
	}
	return sb.String()
}
