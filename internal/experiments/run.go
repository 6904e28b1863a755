package experiments

import (
	"fmt"

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

// This file is the one run path. The threesigma facade, every figure, the
// ablations and the steady/scalability scenarios assemble their
// simulations here: Run trains 3σPredict and builds a system's scheduler,
// and RunScheduler — the only place that decides monolithic or sharded —
// runs any scheduler and collects what the run produced.

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

// systems maps each system to whether it reads 3σPredict and how its
// 3σSched instance is built (nil for Prio, which is no 3σSched).
var systems = map[System]struct {
	predicted bool
	build     func(*predictor.Predictor, core.Config) *core.Scheduler
}{
	Sys3Sigma: {true, baselines.ThreeSigma},
	SysPointPerfEst: {false, func(_ *predictor.Predictor, cfg core.Config) *core.Scheduler {
		return baselines.PointPerfEst(cfg)
	}},
	SysPointRealEst: {true, baselines.PointRealEst},
	SysPrio:         {false, nil},
	SysNoDist:       {true, baselines.NoDist},
	SysNoOE:         {true, baselines.NoOE},
	SysNoAdapt:      {true, baselines.NoAdapt},
}

// NewScheduler builds the named system around p, which may be nil only for
// the systems that do not read 3σPredict (PointPerfEst, Prio).
func NewScheduler(sys System, p *predictor.Predictor, cfg core.Config) (simulator.Scheduler, error) {
	e, ok := systems[sys]
	switch {
	case !ok:
		return nil, fmt.Errorf("experiments: unknown system %q", sys)
	case e.predicted && p == nil:
		return nil, fmt.Errorf("experiments: system %s requires a predictor", sys)
	case e.build == nil:
		return baselines.NewPrio(), nil
	}
	return e.build(p, cfg), nil
}

// Pretrain replays the workload's pre-training history into p and returns p.
func Pretrain(p *predictor.Predictor, w *workload.Workload) *predictor.Predictor {
	for _, r := range w.Train {
		p.Observe(r.Job(), r.Runtime)
	}
	return p
}

// SimConfig controls one simulation run; the threesigma facade exports it
// under the same name.
type SimConfig struct {
	// CycleInterval is the scheduling period in simulated seconds
	// (default 10).
	CycleInterval float64
	// DrainWindow is the extra simulated time after the last submission
	// before the run is cut off (default 2400).
	DrainWindow float64
	// RealCluster emulates the paper's RC256 configuration by adding
	// execution jitter and placement delay.
	RealCluster bool
	// VirtualTime runs the scheduler on the simulator's virtual clock:
	// solver deadlines never expire mid-solve and measured latencies pin
	// to zero, making budgeted solves deterministic regardless of host
	// load. Off by default so the reported cycle/solve latencies remain
	// wall-clock measurements (Fig. 12).
	VirtualTime bool
	// Scheduler configures a system's 3σSched (its CycleInterval defaults
	// to the run's); a scheduler handed to RunScheduler is already built.
	Scheduler core.Config
	// Shards > 1 partitions the cluster into that many scheduling domains,
	// each running its own 3σSched cycle concurrently under the cross-shard
	// coordinator (DESIGN.md §13). 0 or 1 runs the bare scheduler, not
	// wrapped. RunScheduler takes this decision, for the facade and every
	// experiment alike; schedulers that are not 3σSched (Prio, custom
	// ones) have no domain solve to split and always run whole.
	Shards int
	Seed   int64
	// Faults, when non-nil, injects a deterministic failure schedule (node
	// crash/recover, job crash-with-retry, stragglers) into the run. Nil
	// leaves every output bit-identical to a fault-free build.
	Faults *faults.Config
}

// withDefaults fills the zero-valued durations.
func (c SimConfig) withDefaults() SimConfig {
	if c.CycleInterval <= 0 {
		c.CycleInterval = 10
	}
	if c.DrainWindow <= 0 {
		c.DrainWindow = 2400
	}
	if c.Scheduler.CycleInterval == 0 {
		c.Scheduler.CycleInterval = c.CycleInterval
	}
	return c
}

// Result is what one run produced.
type Result struct {
	// Report carries the §5 success metrics and, for 3σSched runs, the
	// solver counters (per domain too when sharded).
	Report metrics.Report
	// Sim is the simulator's raw result: outcomes and per-cycle latencies.
	Sim *simulator.Result
	// Digest hashes the run's observable outcome (metrics.OutcomeDigest).
	Digest string
	// Stats is the scheduler's (zero for Prio), combined across domains when
	// sharded; ShardStats, ShardDigests and Coord are the per-domain and
	// cross-shard views of a sharded run (nil/zero otherwise).
	Stats        core.Stats
	ShardStats   []core.Stats
	ShardDigests []string
	Coord        shard.CoordinatorStats
}

// Run runs the named system on the workload's cluster. Systems reading
// 3σPredict get a fresh one pre-trained on the workload's history.
func Run(sys System, w *workload.Workload, cfg SimConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	var p *predictor.Predictor
	if systems[sys].predicted {
		p = Pretrain(predictor.New(predictor.Config{}), w)
	}
	sched, err := NewScheduler(sys, p, cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	return RunScheduler(string(sys), sched, w.Jobs, w.Cluster, cfg)
}

// RunScheduler runs a built scheduler on jobs over cluster, reporting under
// name. It alone decides monolithic or sharded (see SimConfig.Shards).
func RunScheduler(name string, sched simulator.Scheduler, jobs []*job.Job, cluster simulator.Cluster, cfg SimConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if cs, ok := sched.(*core.Scheduler); ok && cfg.Shards > 1 {
		coord, err := shard.NewCoordinator(cs, cluster, cfg.Shards)
		if err != nil {
			return nil, err
		}
		sched = coord
	}
	opts := simulator.Options{
		Cluster:       cluster,
		CycleInterval: cfg.CycleInterval,
		DrainWindow:   cfg.DrainWindow,
		Seed:          cfg.Seed,
		VirtualTime:   cfg.VirtualTime,
		Faults:        cfg.Faults,
	}
	if cfg.RealCluster {
		opts.RuntimeJitter, opts.PlacementDelay = 0.04, 1.5
	}
	sim, err := simulator.New(sched, jobs, opts)
	if err != nil {
		return nil, err
	}
	res := sim.Run()
	r := &Result{Report: metrics.FromResult(name, res, cluster), Sim: res, Digest: metrics.OutcomeDigest(res)}
	switch s := sched.(type) {
	case *core.Scheduler:
		r.Stats = s.Stats()
	case *shard.Coordinator:
		r.Stats, r.ShardStats, r.Coord = s.Stats(), s.ShardStats(), s.CoordStats()
		r.ShardDigests = metrics.ShardOutcomeDigests(res, s.NumShards(), s.DigestShard)
		for _, st := range r.ShardStats {
			r.Report.ShardSolver = append(r.Report.ShardSolver, solverStatsFrom(st))
		}
	default:
		return r, nil
	}
	r.Report.Solver = solverStatsFrom(r.Stats)
	return r, nil
}

// solverStatsFrom projects the scheduler-side counters into the report's
// SolverStats shape.
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
