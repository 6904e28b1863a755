// Package threesigma is a from-scratch Go implementation of 3Sigma, the
// distribution-based cluster scheduler of Park et al. (EuroSys 2018),
// together with every substrate the paper depends on: the 3σPredict runtime
// distribution predictor, a pure-Go MILP solver, a discrete-event cluster
// simulator, trace-derived workload generators for the paper's three
// environments, and the comparison baselines (PointPerfEst, PointRealEst,
// Prio).
//
// The package is a thin facade over the internal packages; it exposes
// everything a downstream user needs to schedule a workload with 3σSched,
// predict runtime distributions from job history, or reproduce the paper's
// evaluation. See the examples/ directory for runnable programs and
// DESIGN.md for the architecture.
//
// # Quick start
//
//	w := threesigma.GenerateWorkload(threesigma.WorkloadConfig{Seed: 1})
//	res, err := threesigma.Simulate(threesigma.SystemThreeSigma, w, threesigma.SimConfig{})
//	if err != nil { ... }
//	fmt.Println(res.Report)
package threesigma

import (
	"io"

	"threesigma/internal/core"
	"threesigma/internal/dist"
	"threesigma/internal/experiments"
	"threesigma/internal/faults"
	"threesigma/internal/job"
	"threesigma/internal/metrics"
	"threesigma/internal/predictor"
	"threesigma/internal/simulator"
	"threesigma/internal/trace"
	"threesigma/internal/workload"
)

// Core model types re-exported for library users.
type (
	// Job is a gang-scheduled cluster job request.
	Job = job.Job
	// JobID identifies a job within one workload.
	JobID = job.ID
	// Class distinguishes SLO (deadline) jobs from best-effort jobs.
	Class = job.Class
	// Distribution is an estimated job runtime distribution.
	Distribution = dist.Distribution
	// Cluster describes the machine partitions of a simulated cluster.
	Cluster = simulator.Cluster
	// Report carries the success metrics of one run (§5 of the paper).
	Report = metrics.Report
	// Outcome records one job's fate in a simulation.
	Outcome = simulator.Outcome
	// SchedulerStats carries 3σSched's measurements: its summable counters
	// (the embedded metrics.SolverStats, also served by -json and
	// /v1/metrics), cycle count, latencies and model sizes.
	SchedulerStats = core.Stats
	// Workload is a generated experiment input (pre-training history plus
	// timed job submissions).
	Workload = workload.Workload
	// WorkloadConfig parameterizes workload generation (§5 defaults).
	WorkloadConfig = workload.Config
	// PredictorConfig tunes 3σPredict.
	PredictorConfig = predictor.Config
	// SchedulerConfig tunes 3σSched (plan-ahead window, solver node budget,
	// utility weights, mis-estimate handling).
	SchedulerConfig = core.Config
	// Estimate is 3σPredict's answer for one job: a runtime distribution,
	// the best point estimate, and the winning expert.
	Estimate = predictor.Estimate
	// FaultConfig parameterizes deterministic fault injection (node MTBF /
	// MTTR, correlated group failures, job crashes, stragglers, retry
	// budget); see internal/faults.
	FaultConfig = faults.Config
)

// ParseFaultSpec parses a fault scenario spec — a preset name ("light",
// "heavy") or a comma-separated k=v list such as
// "seed=7,mtbf=1800,mttr=300,group=0.2:4,crash=0.05,straggler=0.1:2,retries=3".
func ParseFaultSpec(spec string) (FaultConfig, error) { return faults.ParseSpec(spec) }

// Job classes.
const (
	// SLO marks deadline (production) jobs.
	SLO = job.SLO
	// BestEffort marks latency-sensitive deadline-free jobs.
	BestEffort = job.BestEffort
)

// NewCluster builds a cluster of equal partitions totalling nodes.
func NewCluster(nodes, partitions int) Cluster { return simulator.NewCluster(nodes, partitions) }

// Predictor is a 3σPredict instance (§4.1): feature-based history sketches
// scored by NMAE, returning empirical runtime distributions.
type Predictor struct{ p *predictor.Predictor }

// NewPredictor returns a predictor; the zero PredictorConfig selects the
// paper's defaults (80 histogram bins, α = 0.6, recent window 20).
func NewPredictor(cfg PredictorConfig) *Predictor {
	return &Predictor{p: predictor.New(cfg)}
}

// Estimate returns the runtime distribution and point estimate for a job.
func (p *Predictor) Estimate(j *Job) Estimate { return p.p.Estimate(j) }

// Observe records a completed job's runtime into the history.
func (p *Predictor) Observe(j *Job, runtime float64) { p.p.Observe(j, runtime) }

// Train replays a slice of (job, runtime) history (e.g. a workload's
// pre-training records) into the predictor.
func (p *Predictor) Train(w *Workload) { experiments.Pretrain(p.p, w) }

// Save serializes the predictor's history sketches (the paper's runtime
// history database) for reuse across processes.
func (p *Predictor) Save(w io.Writer) error { return p.p.Save(w) }

// Load restores history saved by Save into a predictor constructed with
// the same feature configuration.
func (p *Predictor) Load(r io.Reader) error { return p.p.Load(r) }

// The system types and the run options the facade shares with
// internal/experiments.
type (
	// System selects one of the scheduler configurations compared in the
	// paper (Table 1 plus the Fig. 8 ablations).
	System = experiments.System
	// SimConfig controls a Simulate or SimulateScheduler run.
	SimConfig = experiments.SimConfig
)

// Available systems.
const (
	SystemThreeSigma   = experiments.Sys3Sigma
	SystemPointPerfEst = experiments.SysPointPerfEst
	SystemPointRealEst = experiments.SysPointRealEst
	SystemPrio         = experiments.SysPrio
	SystemNoDist       = experiments.SysNoDist
	SystemNoOE         = experiments.SysNoOE
	SystemNoAdapt      = experiments.SysNoAdapt
)

// Scheduler is the simulator-facing scheduling interface; 3σSched and the
// baselines implement it.
type Scheduler = simulator.Scheduler

// NewScheduler builds the named system. The predictor may be nil for
// systems that do not use one (PointPerfEst, Prio); it is required for
// 3Sigma, PointRealEst and the ablations.
func NewScheduler(sys System, p *Predictor, cfg SchedulerConfig) (Scheduler, error) {
	var pp *predictor.Predictor
	if p != nil {
		pp = p.p
	}
	return experiments.NewScheduler(sys, pp, cfg)
}

// GenerateWorkload builds a trace-derived synthetic workload; the zero
// config selects the paper's E2E defaults (Google environment, 256 nodes,
// 5 hours, load 1.4, 50/50 SLO/BE, slack {20,40,60,80}%).
func GenerateWorkload(cfg WorkloadConfig) *Workload { return workload.Generate(cfg) }

// TraceRecord is one completed job of a raw trace (see the trace CSV tools).
type TraceRecord = trace.Record

// ReplayConfig controls converting a raw trace into a workload (§5's
// segment-replay recipe for the HedgeFund and Mustang experiments).
type ReplayConfig = workload.ReplayConfig

// WorkloadFromTrace converts raw trace records into an experiment workload:
// a time segment becomes the submissions (with SLO/BE classes, deadlines
// and preferences assigned), everything earlier becomes pre-training
// history.
func WorkloadFromTrace(recs []TraceRecord, cfg ReplayConfig) *Workload {
	return workload.FromTrace(recs, cfg)
}

// SimResult bundles the metric report with raw outcomes and scheduler stats.
type SimResult struct {
	Report   Report
	Outcomes []*Outcome
	Stats    SchedulerStats // zero value for Prio
	// Digest is a hash of the run's observable outcome (job fates + fault
	// accounting, wall-clock noise excluded); identical scheduling behavior
	// yields identical digests, which is what the CI determinism gate for
	// fault injection compares.
	Digest string
	// ShardStats carries each scheduling domain's scheduler counters when
	// the run was sharded (nil otherwise); Stats then holds the combined
	// cross-shard view.
	ShardStats []SchedulerStats
	// ShardDigests are the per-domain outcome digests of a sharded run,
	// indexed by shard (nil when unsharded).
	ShardDigests []string
}

// Simulate runs the workload under the named system on the workload's
// cluster and reports the paper's success metrics. Systems needing a
// predictor get a fresh one pre-trained on the workload's history.
func Simulate(sys System, w *Workload, cfg SimConfig) (*SimResult, error) {
	return simResult(experiments.Run(sys, w, cfg))
}

// SimulateScheduler runs an arbitrary scheduler (e.g. one built with
// NewCustomScheduler) on explicit jobs over the given cluster.
func SimulateScheduler(sched Scheduler, jobs []*Job, cluster Cluster, cfg SimConfig) (*SimResult, error) {
	return simResult(experiments.RunScheduler("custom", sched, jobs, cluster, cfg))
}

func simResult(r *experiments.Result, err error) (*SimResult, error) {
	if err != nil {
		return nil, err
	}
	return &SimResult{
		Report:       r.Report,
		Outcomes:     r.Sim.Outcomes,
		Stats:        r.Stats,
		Digest:       r.Digest,
		ShardStats:   r.ShardStats,
		ShardDigests: r.ShardDigests,
	}, nil
}

// FormatReports renders reports as the comparison table used throughout the
// paper's figures.
func FormatReports(rows []Report) string { return metrics.Table(rows) }
