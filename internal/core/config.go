// Package core implements 3σSched, the distribution-based MILP scheduler
// that is the paper's primary contribution (§3, §4.2, §4.3). Each scheduling
// cycle it:
//
//  1. translates every pending job into placement options over
//     (space, start-slot) pairs within the plan-ahead window,
//  2. values each option by its expected utility under the job's runtime
//     distribution (Eq. 1),
//  3. computes expected resource consumption curves 1−CDF for options and
//     for running jobs (Eq. 2 conditional update),
//  4. compiles demand and capacity constraints plus preemption terms into a
//     MILP, seeds it with the previous cycle's schedule, and solves it under
//     a wall-clock budget,
//  5. extracts slot-0 placements and preemptions and reports them to the
//     cluster manager (the simulator).
//
// The point-estimate baselines (PointPerfEst, PointRealEst) are the same
// scheduler running on degenerate Point distributions, exactly mirroring
// Table 1 of the paper; the 3SigmaNoDist/NoOE/NoAdapt ablations of Fig. 8
// are policy toggles.
package core

import (
	"time"

	"threesigma/internal/dist"
	"threesigma/internal/job"
	"threesigma/internal/predictor"
	"threesigma/internal/simulator"
)

// OEMode selects the over-estimate handling policy (§4.2.2–4.2.3).
type OEMode uint8

const (
	// OEOff disables over-estimate handling (PointRealEst, 3SigmaNoOE).
	OEOff OEMode = iota
	// OEAlways extends every SLO job's utility past its deadline
	// (3SigmaNoAdapt).
	OEAlways
	// OEAdaptive enables the extension only for jobs whose distribution
	// says they cannot meet the deadline even if started immediately —
	// the signature that the distribution is skewed toward
	// over-estimation (3Sigma).
	OEAdaptive
)

// String names the mode.
func (m OEMode) String() string {
	switch m {
	case OEAlways:
		return "always"
	case OEAdaptive:
		return "adaptive"
	default:
		return "off"
	}
}

// Policy is the feature matrix of Table 1 plus the Fig. 8 ablations.
type Policy struct {
	Name string
	// UseDistribution plans with full runtime distributions; false reduces
	// every estimate to its point value (mean of the provided
	// distribution) before planning.
	UseDistribution bool
	// Overestimate selects the §4.2.2/§4.2.3 handling.
	Overestimate OEMode
	// Underestimate enables the §4.2.1 exponential finish-time extension.
	Underestimate bool
	// Preemption allows the MILP to preempt running best-effort jobs.
	Preemption bool
}

// Config tunes 3σSched. The zero value is completed with defaults by New.
type Config struct {
	Policy Policy

	Slots         int     // plan-ahead slots (default 6)
	SlotDur       float64 // slot width in seconds (default 300)
	CycleInterval float64 // scheduling period in simulated seconds (default 10)

	// MaxPending caps the number of pending jobs translated into the MILP
	// per cycle (most-urgent first); the remainder wait for a later cycle.
	MaxPending int // default 48

	// SolverBudget bounds the wall-clock time of each MILP solve; the best
	// incumbent found is used when it expires (§4.3.6). Default 150ms.
	SolverBudget time.Duration
	// SolverMaxNodes bounds branch-and-bound nodes per solve (default 48).
	SolverMaxNodes int

	// Utility shaping.
	SLOWeight     float64 // per-node utility of an SLO job (default 8)
	BEWeight      float64 // per-node utility of a BE job (default 1)
	BEDecayWindow float64 // BE utility decay window, seconds (default 3600)
	BEFloor       float64 // BE utility floor fraction (default 0.1)
	UtilitySteps  int     // Eq. 1 integration grid (default 48)

	// Over-estimate handling (§4.2.2–4.2.3).
	OEThreshold float64 // adaptive enablement threshold (default 0.05)
	OEExtFactor float64 // extension = factor × (deadline − submit) (default 1)

	// Preemption costs: cost = BEWeight × tasks × (PreemptBase +
	// elapsed/BEDecayWindow), so longer-running BE jobs are costlier to kill.
	PreemptBase float64 // default 2.5

	// NoWarmStart disables seeding each cycle's MILP with the previous
	// cycle's plan (§4.3.6). Exists for the repository's own ablation
	// benchmarks; production configurations leave it false.
	NoWarmStart bool

	// NoWarmBasis disables the cross-cycle solver reuse of the incremental
	// re-solve path (DESIGN.md §12): restoring each cycle's root LP from the
	// previous cycle's optimal simplex basis, and answering a cycle whose
	// model is bitwise-unchanged with the previous cycle's solution
	// outright. It exists for the repository's own benchmark arm
	// (experiments.Steady's rebuild-cold); the solver's path changes with it,
	// so outcomes may too.
	NoWarmBasis bool

	// SolveQuantum, when > 0, quantizes the model's evaluation clock: every
	// cycle's MILP is built as of floor(now/quantum)·quantum instead of
	// `now` itself. Utilities, survival curves and slot-0 starts are then
	// evaluated at most one quantum stale — negligible against deadline
	// horizons of hours and a plan-ahead grid of SlotDur — and consecutive
	// event-free cycles within one quantum produce bitwise-identical
	// models, which the incremental path (DESIGN.md §12) detects and
	// answers without solving at all. Event reactions are unaffected: a
	// submit/complete/preempt still rebuilds and re-solves on the very next
	// cycle, just at a quantized evaluation time. 0 (the default) disables
	// quantization and reproduces the historical bit-exact behavior.
	SolveQuantum float64

	// ExactShares switches the MILP to the paper's literal §4.3.3
	// formulation: continuous per-partition allocation variables with a
	// demand constraint "the sum of allocations from different resource
	// partitions equals the requested quantity k". The default (false)
	// uses fixed capacity-proportional shares per option, which keeps the
	// model binary-pure and several times smaller; see DESIGN.md §5. The
	// exact mode is intended for small clusters and fidelity studies.
	ExactShares bool

	// Checks enables internal invariant assertions on the hot path: every
	// cycle poisons its reused scratch and verifies that capacity-row
	// coefficients are non-negative, every number of the model finite,
	// memoized builder terms coherent with the job's distribution version,
	// and extracted allocations gang-size conserving. A violation panics
	// with a diagnostic message. A debug/test aid (the correctness suite in
	// internal/check, sim/serverd tests); production leaves it false.
	Checks bool

	// OnDecision, when non-nil, receives every scheduling decision (starts,
	// deferrals, preemptions, abandonments) — the operator-facing audit
	// trail. The callback runs inline in the scheduling cycle; keep it fast.
	OnDecision func(DecisionEvent)

	// Clock is the scheduler's time source for solver deadlines and for the
	// cycle/predict latency measurements in Stats. Defaults to the wall
	// clock. A virtual clock injected here (via SetClock) pins every measured
	// latency to zero and makes budgeted solves immune to host load, so the
	// node cap alone ends them: the simulator does so when running with
	// Options.VirtualTime, and the online daemon (internal/service) always
	// does, with its cycle-indexed logical clock.
	Clock simulator.Clock

	// UtilityFn, when non-nil, overrides the built-in utility curves for
	// individual jobs — the paper assumes "a cluster administrator or an
	// expert user will be able to define the utility function on a
	// job-by-job basis" (§3.1). Return nil to fall back to the default
	// SLO/BE curves (with over-estimate handling still applied to them).
	UtilityFn func(j *job.Job) job.Utility
}

func (c *Config) fill() {
	if c.Slots <= 0 {
		c.Slots = 6
	}
	if c.SlotDur <= 0 {
		c.SlotDur = 300
	}
	if c.CycleInterval <= 0 {
		c.CycleInterval = 10
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 48
	}
	if c.SolverBudget <= 0 {
		c.SolverBudget = 150 * time.Millisecond
	}
	if c.SolverMaxNodes <= 0 {
		c.SolverMaxNodes = 48
	}
	if c.SLOWeight <= 0 {
		c.SLOWeight = 8
	}
	if c.BEWeight <= 0 {
		c.BEWeight = 1
	}
	if c.BEDecayWindow <= 0 {
		c.BEDecayWindow = 3600
	}
	if c.BEFloor <= 0 {
		c.BEFloor = 0.1
	}
	if c.UtilitySteps <= 0 {
		c.UtilitySteps = 48
	}
	if c.OEThreshold <= 0 {
		c.OEThreshold = 0.05
	}
	if c.OEExtFactor <= 0 {
		c.OEExtFactor = 1
	}
	if c.PreemptBase <= 0 {
		c.PreemptBase = 2.5
	}
	if c.Clock == nil {
		c.Clock = simulator.WallClock{}
	}
}

// Hopeless reports whether j is an SLO job that misses its deadline at now
// even with the maximal over-estimate extension (§4.2): such a job has no
// attainable utility left and is abandoned, by the scheduler and by the
// shard coordinator for the cross-domain gangs it places itself.
func (c *Config) Hopeless(j *job.Job, now float64) bool {
	return j.HasDeadline() && now > j.Deadline+c.OEExtFactor*(j.Deadline-j.Submit)
}

// Estimator supplies runtime distributions to the scheduler and receives
// completed runtimes (the 3σPredict contract of Fig. 4).
type Estimator interface {
	// EstimateDist returns the runtime distribution for a newly submitted
	// job (base runtime, i.e. on preferred resources).
	EstimateDist(j *job.Job) dist.Distribution
	// Observe records a completed job's base-equivalent runtime.
	Observe(j *job.Job, baseRuntime float64)
}

// PredictorEstimator adapts 3σPredict as a distribution estimator (the
// 3Sigma configuration of Table 1).
type PredictorEstimator struct{ P *predictor.Predictor }

// EstimateDist implements Estimator.
func (e PredictorEstimator) EstimateDist(j *job.Job) dist.Distribution {
	return e.P.Estimate(j).Dist
}

// Observe implements Estimator.
func (e PredictorEstimator) Observe(j *job.Job, rt float64) { e.P.Observe(j, rt) }

// PointPredictorEstimator adapts 3σPredict's best point estimate as a
// degenerate distribution (PointRealEst in Table 1: "real point estimates").
type PointPredictorEstimator struct{ P *predictor.Predictor }

// EstimateDist implements Estimator.
func (e PointPredictorEstimator) EstimateDist(j *job.Job) dist.Distribution {
	return dist.NewPoint(e.P.Estimate(j).Point)
}

// Observe implements Estimator.
func (e PointPredictorEstimator) Observe(j *job.Job, rt float64) { e.P.Observe(j, rt) }

// PerfectEstimator is the hypothetical oracle of Table 1 (PointPerfEst):
// it returns each job's true runtime as a point distribution.
type PerfectEstimator struct{}

// EstimateDist implements Estimator.
func (PerfectEstimator) EstimateDist(j *job.Job) dist.Distribution {
	return dist.NewPoint(j.Runtime)
}

// Observe implements Estimator.
func (PerfectEstimator) Observe(*job.Job, float64) {}

// FuncEstimator builds an Estimator from closures (used by the Fig. 9
// synthetic-perturbation study and by tests).
type FuncEstimator struct {
	EstimateFn func(j *job.Job) dist.Distribution
	ObserveFn  func(j *job.Job, rt float64)
}

// EstimateDist implements Estimator.
func (f FuncEstimator) EstimateDist(j *job.Job) dist.Distribution { return f.EstimateFn(j) }

// Observe implements Estimator.
func (f FuncEstimator) Observe(j *job.Job, rt float64) {
	if f.ObserveFn != nil {
		f.ObserveFn(j, rt)
	}
}
