// Package dist defines the runtime-distribution abstraction at the heart of
// 3Sigma. A Distribution answers the two questions 3σSched asks (§3 of the
// paper): the probability a job finishes by time t (CDF, used for expected
// utility, Eq. 1) and the probability it is still holding resources at time
// t (Survival = 1−CDF, used for expected resource consumption). Running jobs
// use Conditional, the renormalized distribution of Eq. 2.
//
// Implementations: Point (degenerate; the baselines' "point estimate" is a
// Point distribution fed through the same machinery), Uniform, Normal
// (truncated at zero), and Empirical (backed by the streaming histogram
// 3σPredict maintains).
package dist

import (
	"fmt"
	"math"

	"threesigma/internal/histogram"
)

// Distribution is an estimated job runtime distribution. Runtimes are in
// seconds and non-negative. Implementations must be safe for concurrent
// reads after construction.
type Distribution interface {
	// CDF returns P(runtime <= t) for t >= 0.
	CDF(t float64) float64
	// Mean returns the expected runtime.
	Mean() float64
	// Quantile returns the q-th quantile, q in [0,1].
	Quantile(q float64) float64
	// Max returns the distribution's upper support bound: the largest
	// runtime the history makes "possible". Under-estimate handling
	// (§4.2.1) triggers when a job's elapsed time exceeds this.
	Max() float64
}

// Survival returns P(runtime > t) = 1 − CDF(t): the probability the job is
// still consuming resources at elapsed time t (§3.2).
func Survival(d Distribution, t float64) float64 {
	return survivalOf(d.CDF(t))
}

func survivalOf(cdf float64) float64 {
	s := 1 - cdf
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// CDFs sets out[k] = d.CDF(ts[k]) for points ts given in ascending order —
// the Eq. 1 integration grid, the slot grid — bit for bit what the calls one
// point at a time return. An Empirical walks its histogram's bins once for
// the whole grid instead of searching them per point
// (histogram.CDFAscending); a Scaled maps each point by t/Factor, as its CDF
// does, and hands the mapped grid, still ascending, to its base; any other
// distribution is asked point by point. out may be ts.
func CDFs(d Distribution, ts, out []float64) {
	switch d := d.(type) {
	case Empirical:
		if d.H != nil {
			d.H.CDFAscending(ts, out)
			return
		}
	case Scaled:
		if d.Factor > 0 { // dividing by it keeps the grid ascending
			for k, t := range ts {
				out[k] = t / d.Factor
			}
			CDFs(d.Base, out[:len(ts)], out)
			return
		}
	}
	for k, t := range ts {
		out[k] = d.CDF(t)
	}
}

// Survivals sets out[k] = Survival(d, ts[k]) for ascending ts, through CDFs.
// out may be ts.
func Survivals(d Distribution, ts, out []float64) {
	CDFs(d, ts, out)
	for k, c := range out[:len(ts)] {
		out[k] = survivalOf(c)
	}
}

// Point is the degenerate distribution at Value. Point-estimate schedulers
// (PointPerfEst, PointRealEst) are 3σSched instances running on Point
// distributions.
type Point struct{ Value float64 }

// NewPoint returns the degenerate distribution at v (clamped at 0).
func NewPoint(v float64) Point {
	if v < 0 {
		v = 0
	}
	return Point{Value: v}
}

func (p Point) CDF(t float64) float64 {
	if t >= p.Value {
		return 1
	}
	return 0
}
func (p Point) Mean() float64              { return p.Value }
func (p Point) Quantile(q float64) float64 { return p.Value }
func (p Point) Max() float64               { return p.Value }
func (p Point) String() string             { return fmt.Sprintf("Point(%g)", p.Value) }

// Uniform is the continuous uniform distribution on [Lo, Hi]; the paper's
// motivating example (§2.3, Fig. 5) uses U(0,10) and U(2.5,7.5).
type Uniform struct{ Lo, Hi float64 }

// NewUniform returns U(lo, hi), swapping bounds if needed.
func NewUniform(lo, hi float64) Uniform {
	if hi < lo {
		lo, hi = hi, lo
	}
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	return Uniform{Lo: lo, Hi: hi}
}

func (u Uniform) CDF(t float64) float64 {
	if t < u.Lo {
		return 0
	}
	if t >= u.Hi {
		return 1
	}
	return (t - u.Lo) / (u.Hi - u.Lo)
}
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }
func (u Uniform) Quantile(q float64) float64 {
	if q <= 0 {
		return u.Lo
	}
	if q >= 1 {
		return u.Hi
	}
	return u.Lo + q*(u.Hi-u.Lo)
}
func (u Uniform) Max() float64   { return u.Hi }
func (u Uniform) String() string { return fmt.Sprintf("U(%g,%g)", u.Lo, u.Hi) }

// Normal is a normal distribution truncated below at zero (runtimes cannot
// be negative). Fig. 9's perturbation study provides the scheduler with
// N(runtime·(1+shift), runtime·CoV) distributions.
type Normal struct {
	Mu    float64
	Sigma float64
	// z0 caches the truncation mass P(X < 0) of the untruncated normal.
	z0 float64
}

// NewNormal returns a zero-truncated normal with the given location and
// scale of the parent normal.
func NewNormal(mu, sigma float64) Normal {
	if sigma < 0 {
		sigma = -sigma
	}
	n := Normal{Mu: mu, Sigma: sigma}
	if sigma == 0 {
		return n
	}
	n.z0 = stdNormCDF((0 - mu) / sigma)
	return n
}

func stdNormCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

func (n Normal) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	if n.Sigma == 0 {
		if t >= n.Mu {
			return 1
		}
		return 0
	}
	c := stdNormCDF((t - n.Mu) / n.Sigma)
	// Renormalize for the mass truncated below zero.
	c = (c - n.z0) / (1 - n.z0)
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

func (n Normal) Mean() float64 {
	if n.Sigma == 0 {
		return math.Max(n.Mu, 0)
	}
	// Mean of the zero-truncated normal: mu + sigma*phi(a)/(1-Phi(a)), a=-mu/sigma.
	a := -n.Mu / n.Sigma
	phi := math.Exp(-a*a/2) / math.Sqrt(2*math.Pi)
	den := 1 - stdNormCDF(a)
	if den <= 0 {
		return math.Max(n.Mu, 0)
	}
	return n.Mu + n.Sigma*phi/den
}

func (n Normal) Quantile(q float64) float64 {
	if n.Sigma == 0 {
		return math.Max(n.Mu, 0)
	}
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return n.Max()
	}
	lo, hi := 0.0, n.Mu+12*n.Sigma
	if hi < 1 {
		hi = 1
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if n.CDF(mid) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Max returns a practical upper support bound (µ+4σ); the truncated normal
// has unbounded support, but under-estimate handling needs a finite horizon
// beyond which a running job counts as under-estimated.
func (n Normal) Max() float64 { return math.Max(n.Mu+4*n.Sigma, 0) }

func (n Normal) String() string { return fmt.Sprintf("N(%g,%g)|>=0", n.Mu, n.Sigma) }

// Empirical wraps a streaming histogram as a Distribution; this is what
// 3σPredict hands to 3σSched.
type Empirical struct{ H *histogram.Histogram }

// NewEmpirical wraps h. The histogram must not be mutated afterwards by
// other goroutines while the distribution is in use.
func NewEmpirical(h *histogram.Histogram) Empirical { return Empirical{H: h} }

// FromSamples builds an empirical distribution directly from samples using
// the default bin budget.
func FromSamples(samples []float64) Empirical {
	return Empirical{H: histogram.FromSamples(histogram.DefaultMaxBins, samples)}
}

func (e Empirical) CDF(t float64) float64 {
	if e.H == nil || e.H.Count() == 0 {
		return 0
	}
	return e.H.CDF(t)
}
func (e Empirical) Mean() float64 {
	if e.H == nil {
		return 0
	}
	return e.H.Mean()
}
func (e Empirical) Quantile(q float64) float64 {
	if e.H == nil {
		return 0
	}
	return e.H.Quantile(q)
}
func (e Empirical) Max() float64 {
	if e.H == nil || e.H.Count() == 0 {
		return 0
	}
	return e.H.Max()
}
func (e Empirical) String() string {
	if e.H == nil {
		return "Empirical(nil)"
	}
	return "Empirical(" + e.H.String() + ")"
}
