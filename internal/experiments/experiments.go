// Package experiments wires workloads, schedulers, the simulator and the
// metric collectors into one driver per table/figure of the paper's
// evaluation (§5–§6). Each driver returns structured results plus a
// formatted table whose rows match what the paper reports; bench_test.go
// and cmd/3sigma-bench call these drivers at different scales.
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"threesigma/internal/baselines"
	"threesigma/internal/core"
	"threesigma/internal/faults"
	"threesigma/internal/job"
	"threesigma/internal/metrics"
	"threesigma/internal/predictor"
	"threesigma/internal/shard"
	"threesigma/internal/simulator"
	"threesigma/internal/workload"
)

// System identifies one scheduler configuration (Table 1 + Fig. 8 ablations).
type System string

// The systems compared in the paper.
const (
	Sys3Sigma       System = "3Sigma"
	SysPointPerfEst System = "PointPerfEst"
	SysPointRealEst System = "PointRealEst"
	SysPrio         System = "Prio"
	SysNoDist       System = "3SigmaNoDist"
	SysNoOE         System = "3SigmaNoOE"
	SysNoAdapt      System = "3SigmaNoAdapt"
)

// CoreSystems is the four-way comparison of Figs. 1, 6, 7, 10, 11.
func CoreSystems() []System {
	return []System{Sys3Sigma, SysPointPerfEst, SysPointRealEst, SysPrio}
}

// AblationSystems is the six-way comparison of Fig. 8.
func AblationSystems() []System {
	return []System{SysPointRealEst, SysNoDist, SysNoOE, SysNoAdapt, Sys3Sigma, SysPointPerfEst}
}

// Scale sizes an experiment so the same drivers serve quick benches and
// full paper-scale runs.
type Scale struct {
	Name          string
	Nodes         int
	Partitions    int
	DurationHours float64
	CycleInterval float64
	Slots         int
	SlotDur       float64
	MaxPending    int
	SolverBudget  time.Duration
	DrainWindow   float64
	// SolveQuantum quantizes the scheduler's model-evaluation clock
	// (core.Config.SolveQuantum); 0 leaves quantization off. Only the
	// steady-state scenario sets it.
	SolveQuantum float64
	// Shards > 1 partitions the cluster into that many scheduling domains
	// driven by the internal/shard coordinator (DESIGN.md §13); 0 or 1 is
	// the monolithic single-solve configuration.
	Shards    int
	TraceJobs int // records per environment for the Fig. 2 analyses
	// Repeats averages every experiment point over this many workload
	// seeds (default 1). The figure drivers report the averages.
	Repeats int
}

// repeats returns the effective repeat count.
func (s Scale) repeats() int {
	if s.Repeats <= 0 {
		return 1
	}
	return s.Repeats
}

// Small is the CI scale: seconds per run.
func Small() Scale {
	return Scale{
		Name: "small", Nodes: 64, Partitions: 8, DurationHours: 0.5,
		CycleInterval: 10, Slots: 5, SlotDur: 240, MaxPending: 24,
		SolverBudget: 50 * time.Millisecond, DrainWindow: 1200, TraceJobs: 4000,
	}
}

// Medium is the bench scale used for EXPERIMENTS.md: tens of seconds per run.
func Medium() Scale {
	return Scale{
		Name: "medium", Nodes: 128, Partitions: 8, DurationHours: 2,
		CycleInterval: 5, Slots: 6, SlotDur: 300, MaxPending: 32,
		SolverBudget: 80 * time.Millisecond, DrainWindow: 1800, TraceJobs: 10000, Repeats: 3,
	}
}

// Full is the paper scale (SC256, 5-hour workloads).
func Full() Scale {
	return Scale{
		Name: "full", Nodes: 256, Partitions: 8, DurationHours: 5,
		CycleInterval: 5, Slots: 6, SlotDur: 300, MaxPending: 48,
		SolverBudget: 150 * time.Millisecond, DrainWindow: 2400, TraceJobs: 20000, Repeats: 3,
	}
}

// Cluster returns the scale's cluster.
func (s Scale) Cluster() simulator.Cluster { return simulator.NewCluster(s.Nodes, s.Partitions) }

// coreConfig builds the 3σSched configuration for this scale.
func (s Scale) coreConfig() core.Config {
	return core.Config{
		Slots:          s.Slots,
		SlotDur:        s.SlotDur,
		CycleInterval:  s.CycleInterval,
		MaxPending:     s.MaxPending,
		SolverBudget:   s.SolverBudget,
		SolverMaxNodes: 24,
		SolveQuantum:   s.SolveQuantum,
	}
}

// solverStatsFrom projects the scheduler-side counters into the report's
// SolverStats shape (shared by the monolithic, per-shard, and steady paths).
func solverStatsFrom(st core.Stats) metrics.SolverStats {
	return metrics.SolverStats{
		Nodes:       st.SolverNodes,
		LPIters:     st.SolverLPIters,
		CacheHits:   st.CacheHits,
		CacheMisses: st.CacheMisses,

		Proved:        st.SolverProved,
		NodeCapped:    st.SolverNodeCapped,
		DeadlineStops: st.SolverDeadlineStops,
		ColdFallbacks: st.SolverColdFallbacks,

		PatchedCycles:     st.PatchedCycles,
		RebuildFallbacks:  st.RebuildFallbacks,
		RowsPatched:       st.RowsPatched,
		ColsPatched:       st.ColsPatched,
		WarmBasisReuses:   st.WarmBasisReuses,
		IncumbentSeedHits: st.IncumbentSeedHits,
		ReusedSolves:      st.ReusedSolves,
	}
}

// WorkloadConfig returns the §5 default workload configuration at this
// scale (callers override fields for the sweep variants).
func (s Scale) WorkloadConfig(seed int64) workload.Config {
	return workload.Config{
		Cluster:       s.Cluster(),
		DurationHours: s.DurationHours,
		Seed:          seed,
	}
}

// RunOptions controls one simulation run.
type RunOptions struct {
	// RC emulates the real cluster (execution jitter + placement delay) —
	// the RC256 configuration.
	RC bool
	// Estimator overrides the system's default estimator (used by the
	// Fig. 9 synthetic-distribution study).
	Estimator core.Estimator
	Seed      int64
	// Faults enables deterministic failure injection for availability
	// experiments (nil leaves the run fault-free and bit-identical to
	// builds without the fault subsystem).
	Faults *faults.Config
}

// RunResult bundles the metric report with scheduler-side stats.
type RunResult struct {
	Report metrics.Report
	Sched  core.Stats // zero for Prio
}

// Run executes one (system, workload) pair at the given scale.
func Run(sys System, w *workload.Workload, sc Scale, opts RunOptions) (RunResult, error) {
	var schedImpl simulator.Scheduler
	var coreSched *core.Scheduler

	cfg := sc.coreConfig()
	needPredictor := sys == Sys3Sigma || sys == SysPointRealEst || sys == SysNoDist ||
		sys == SysNoOE || sys == SysNoAdapt
	var pred *predictor.Predictor
	if needPredictor {
		pred = predictor.New(predictor.Config{})
		for _, r := range w.Train {
			pred.Observe(r.Job(), r.Runtime)
		}
	}
	switch sys {
	case Sys3Sigma:
		coreSched = baselines.ThreeSigma(pred, cfg)
	case SysPointPerfEst:
		coreSched = baselines.PointPerfEst(cfg)
	case SysPointRealEst:
		coreSched = baselines.PointRealEst(pred, cfg)
	case SysNoDist:
		coreSched = baselines.NoDist(pred, cfg)
	case SysNoOE:
		coreSched = baselines.NoOE(pred, cfg)
	case SysNoAdapt:
		coreSched = baselines.NoAdapt(pred, cfg)
	case SysPrio:
		schedImpl = baselines.NewPrio()
	default:
		return RunResult{}, fmt.Errorf("experiments: unknown system %q", sys)
	}
	var coord *shard.Coordinator
	if coreSched != nil {
		if opts.Estimator != nil {
			c := coreSched.Config()
			coreSched = core.New(opts.Estimator, c)
		}
		schedImpl = coreSched
		if sc.Shards > 1 {
			var err error
			coord, err = shard.NewCoordinator(coreSched, w.Cluster, sc.Shards)
			if err != nil {
				return RunResult{}, err
			}
			schedImpl = coord
		}
	}

	simOpts := simulator.Options{
		Cluster:       w.Cluster,
		CycleInterval: sc.CycleInterval,
		DrainWindow:   sc.DrainWindow,
		Seed:          opts.Seed,
		Faults:        opts.Faults,
	}
	if opts.RC {
		simOpts.RuntimeJitter = 0.04
		simOpts.PlacementDelay = 1.5
	}
	sim, err := simulator.New(schedImpl, w.Jobs, simOpts)
	if err != nil {
		return RunResult{}, err
	}
	res := sim.Run()
	rr := RunResult{Report: metrics.FromResult(string(sys), res, w.Cluster)}
	switch {
	case coord != nil:
		rr.Sched = coord.Stats()
		rr.Report.Solver = solverStatsFrom(rr.Sched)
		for _, st := range coord.ShardStats() {
			rr.Report.ShardSolver = append(rr.Report.ShardSolver, solverStatsFrom(st))
		}
	case coreSched != nil:
		rr.Sched = coreSched.Stats()
		rr.Report.Solver = solverStatsFrom(rr.Sched)
	}
	return rr, nil
}

// parallelEach runs fn(i) for i in [0,n) across min(n, NumCPU) workers.
// Experiment sweep points are independent simulations, so this cuts the
// wall-clock of the full figure suite by close to the core count.
func parallelEach(n int, fn func(i int) error) error {
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := make(chan int)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}

// sloJobsOf counts SLO jobs (used by drivers for sanity output).
func sloJobsOf(w *workload.Workload) int {
	n := 0
	for _, j := range w.Jobs {
		if j.Class == job.SLO {
			n++
		}
	}
	return n
}
