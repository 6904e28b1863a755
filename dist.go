package threesigma

import (
	"threesigma/internal/baselines"
	"threesigma/internal/core"
	"threesigma/internal/dist"
	"threesigma/internal/job"
)

// Estimator supplies runtime distributions to a scheduler and receives
// completed runtimes. 3σPredict is the production implementation; custom
// estimators support what-if studies like the paper's Fig. 9 perturbation
// experiment and the §2.3 worked example.
type Estimator = core.Estimator

// Policy is the scheduler feature matrix (distributions on/off,
// over-/under-estimate handling, preemption) of Table 1.
type Policy = core.Policy

// Over-estimate handling modes (§4.2.2–4.2.3).
const (
	// OEOff disables over-estimate handling.
	OEOff = core.OEOff
	// OEAlways extends every SLO job's utility past its deadline.
	OEAlways = core.OEAlways
	// OEAdaptive enables the extension only for likely-over-estimated jobs.
	OEAdaptive = core.OEAdaptive
)

// DefaultPolicy is the full 3Sigma configuration: distribution scheduling
// with adaptive over-estimate handling, under-estimate handling, and
// preemption.
func DefaultPolicy() Policy { return baselines.ThreeSigmaPolicy() }

// NewCustomScheduler builds a 3σSched instance around a caller-provided
// distribution estimator (cfg.Policy selects the feature set; the zero
// Policy disables everything, so most callers start from DefaultPolicy).
func NewCustomScheduler(est Estimator, cfg SchedulerConfig) Scheduler {
	return core.New(est, cfg)
}

// EstimatorFunc builds an Estimator from a closure returning a runtime
// distribution per job (observations are ignored unless observe != nil).
func EstimatorFunc(estimate func(*Job) Distribution, observe func(*Job, float64)) Estimator {
	return core.FuncEstimator{EstimateFn: estimate, ObserveFn: observe}
}

// PerfectEstimator returns the oracle estimator of Table 1 (PointPerfEst):
// every job's true runtime as a point distribution.
func PerfectEstimator() Estimator { return core.PerfectEstimator{} }

// Distribution constructors re-exported for building custom estimators.

// PointDist is the degenerate distribution at v (a classic point estimate).
func PointDist(v float64) Distribution { return dist.NewPoint(v) }

// UniformDist is the continuous uniform distribution on [lo, hi].
func UniformDist(lo, hi float64) Distribution { return dist.NewUniform(lo, hi) }

// NormalDist is a normal distribution truncated below at zero.
func NormalDist(mu, sigma float64) Distribution { return dist.NewNormal(mu, sigma) }

// EmpiricalDist builds an empirical distribution from runtime samples
// (streamed into an 80-bin histogram, as 3σPredict does).
func EmpiricalDist(samples []float64) Distribution { return dist.FromSamples(samples) }

// ScaledDist stretches a distribution by a constant factor (e.g. the 1.5×
// non-preferred-resources slowdown).
func ScaledDist(d Distribution, factor float64) Distribution { return dist.NewScaled(d, factor) }

// JobUtility maps a job's completion time to its value (Fig. 3); used with
// SchedulerConfig.UtilityFn for administrator-defined per-job utilities.
type JobUtility = job.Utility

// StepUtility is the SLO utility of Fig. 3a: constant value until the
// deadline, zero after.
type StepUtility = job.StepUtility

// ExtendedStepUtility is Fig. 3d: constant value until the deadline, then a
// linear decay to zero over Extension seconds.
type ExtendedStepUtility = job.ExtendedStepUtility

// DecayUtility is the best-effort "sooner is better" utility.
type DecayUtility = job.DecayUtility

// DecisionEvent is one observable scheduling decision (start, defer,
// preempt, abandon); subscribe via SchedulerConfig.OnDecision.
type DecisionEvent = core.DecisionEvent
