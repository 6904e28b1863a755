// Package job defines the cluster job model shared by the scheduler, the
// predictor, the simulator and the workload generators, plus the utility
// functions of §3.1 / Fig. 3 of the paper (step utility for SLO jobs,
// linearly decaying utility for latency-sensitive best-effort jobs, and the
// over-estimate-handling extension with a linear post-deadline slope).
package job

import (
	"fmt"
	"math"
	"sort"

	"threesigma/internal/dist"
)

// Class partitions jobs into the paper's two workload types.
type Class uint8

const (
	// SLO jobs carry a completion deadline (production jobs).
	SLO Class = iota
	// BestEffort jobs are latency-sensitive but deadline-free.
	BestEffort
)

// String returns "SLO" or "BE".
func (c Class) String() string {
	if c == SLO {
		return "SLO"
	}
	return "BE"
}

// ID identifies a job within one workload.
type ID int64

// Job is a gang-scheduled cluster job request. Runtime is the ground-truth
// execution time on preferred resources; schedulers other than the
// hypothetical PointPerfEst must never read it directly.
type Job struct {
	ID       ID
	Name     string // program / script name (recurring jobs share it)
	User     string
	Class    Class
	Priority int

	Submit   float64 // submission time, seconds
	Deadline float64 // absolute deadline (SLO only; 0 for BE)
	Tasks    int     // gang width: number of nodes required

	// Runtime is the true runtime (seconds) when run on preferred
	// resources. On non-preferred resources the job runs
	// Runtime×NonPrefFactor.
	Runtime       float64
	NonPrefFactor float64 // >= 1; 1.5 in the paper's workloads

	// Preferred lists the cluster partition indices this job prefers
	// (a random 75% of the cluster for SLO jobs in the paper's E2E
	// workload). Empty means "no preference" (all partitions are fine and
	// no slowdown applies).
	Preferred []int

	// Attrs are the opaque attributes 3σPredict builds features from
	// (e.g. "user", "name", "tasks", "priority").
	Attrs map[string]string
}

// HasDeadline reports whether the job carries an SLO deadline.
func (j *Job) HasDeadline() bool { return j.Class == SLO && j.Deadline > 0 }

// Slack returns the deadline slack fraction defined in §5:
// (deadline − submit − runtime) / runtime. It returns +Inf for BE jobs.
func (j *Job) Slack() float64 {
	if !j.HasDeadline() || j.Runtime <= 0 {
		return math.Inf(1)
	}
	return (j.Deadline - j.Submit - j.Runtime) / j.Runtime
}

// Work returns the job's size in machine-seconds on preferred resources.
func (j *Job) Work() float64 { return float64(j.Tasks) * j.Runtime }

// PrefersPartition reports whether partition p is in the preferred set
// (true for all p when no preference is declared).
func (j *Job) PrefersPartition(p int) bool {
	if len(j.Preferred) == 0 {
		return true
	}
	i := sort.SearchInts(j.Preferred, p)
	return i < len(j.Preferred) && j.Preferred[i] == p
}

func (j *Job) String() string {
	return fmt.Sprintf("job%d(%s k=%d rt=%.0fs)", j.ID, j.Class, j.Tasks, j.Runtime)
}

// Utility maps a job's completion time to its value (Fig. 3a/3d). The
// scheduler maximizes the expected value of this function under the job's
// runtime distribution (Eq. 1).
type Utility interface {
	// At returns the utility of completing at absolute time t.
	At(t float64) float64
	// Horizon returns the time after which the utility is (and stays) zero
	// (+Inf when the utility never reaches zero).
	Horizon() float64
}

// StepUtility is the SLO utility of Fig. 3a: Value until the deadline,
// zero after.
type StepUtility struct {
	Value    float64
	Deadline float64
}

// At implements Utility.
func (u StepUtility) At(t float64) float64 {
	if t <= u.Deadline {
		return u.Value
	}
	return 0
}

// Horizon implements Utility.
func (u StepUtility) Horizon() float64 { return u.Deadline }

// ExtendedStepUtility is Fig. 3d: Value until the deadline, then a linear
// decay to zero over Extension seconds. 3σSched swaps this in for SLO jobs
// when over-estimate handling is enabled (§4.2.2), so seemingly impossible
// jobs retain a small positive utility and are attempted when the cluster
// has spare resources.
type ExtendedStepUtility struct {
	Value     float64
	Deadline  float64
	Extension float64 // decay window length; must be > 0
}

// At implements Utility.
func (u ExtendedStepUtility) At(t float64) float64 {
	if t <= u.Deadline {
		return u.Value
	}
	if u.Extension <= 0 || t >= u.Deadline+u.Extension {
		return 0
	}
	return u.Value * (1 - (t-u.Deadline)/u.Extension)
}

// Horizon implements Utility.
func (u ExtendedStepUtility) Horizon() float64 { return u.Deadline + u.Extension }

// DecayUtility is the best-effort utility: it decays linearly from Value at
// Start to Value×Floor at Start+Window and stays at the floor, expressing
// "the sooner the better" without ever starving a BE job of all value.
type DecayUtility struct {
	Value  float64
	Start  float64 // submission time
	Window float64 // time over which utility decays to the floor
	Floor  float64 // fraction of Value retained after Window (0..1)
}

// At implements Utility.
func (u DecayUtility) At(t float64) float64 {
	if t <= u.Start {
		return u.Value
	}
	if u.Window <= 0 {
		return u.Value * u.Floor
	}
	f := 1 - (t-u.Start)/u.Window*(1-u.Floor)
	if f < u.Floor {
		f = u.Floor
	}
	return u.Value * f
}

// Horizon implements Utility. A positive floor never reaches zero.
func (u DecayUtility) Horizon() float64 {
	if u.Floor > 0 {
		return math.Inf(1)
	}
	return u.Start + u.Window
}

// ExpectedUtility computes Eq. 1 of the paper: the expected utility of
// starting a job at startTime given its runtime distribution,
//
//	E[U(start)] = ∫ U(start + t)·PDF(t) dt,
//
// by Riemann–Stieltjes integration against the CDF over a uniform grid of
// the distribution's support (plus exact handling of the step at a point
// distribution). steps <= 0 selects a default of 64.
func ExpectedUtility(d dist.Distribution, u Utility, startTime float64, steps int) float64 {
	if steps <= 0 {
		steps = 64
	}
	upper := d.Max()
	if upper <= 0 {
		// Degenerate zero-length job: utility at immediate completion.
		return u.At(startTime)
	}
	// Integrate only where utility can be nonzero.
	if h := u.Horizon(); !math.IsInf(h, 1) {
		if startTime >= h {
			return 0
		}
		if lim := h - startTime; lim < upper {
			upper = lim
			// The mass beyond the horizon contributes zero utility, so
			// truncating the integration range is exact for step/decay-to-0
			// utilities evaluated below via CDF increments.
		}
	}
	h := upper / float64(steps)
	if h <= 0 {
		return u.At(startTime) * d.CDF(0)
	}
	// The CDF on the grid 0, h, …, steps·h, in one batched pass (dist.CDFs),
	// held on the stack for the usual grid sizes.
	var buf [129]float64
	var cdf []float64
	if steps < len(buf) {
		cdf = buf[:steps+1]
	} else {
		cdf = make([]float64, steps+1)
	}
	cdf[0] = 0
	for i := 1; i <= steps; i++ {
		cdf[i] = float64(i) * h
	}
	dist.CDFs(d, cdf, cdf)
	// Mass exactly at 0 (possible for Point distributions) taken first so
	// the grid increments below never double-count it.
	prev := cdf[0]
	e := prev * u.At(startTime)
	for i := 1; i <= steps; i++ {
		c := cdf[i]
		if dm := c - prev; dm > 0 {
			mid := (float64(i) - 0.5) * h
			e += dm * u.At(startTime+mid)
		}
		prev = c
	}
	return e
}
