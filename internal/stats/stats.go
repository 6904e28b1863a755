// Package stats provides the statistical substrate used across the 3Sigma
// reproduction: descriptive statistics, coefficient-of-variation analysis,
// normalized mean absolute error (NMAE) accounting for predictor experts,
// one-dimensional k-means (used to derive job classes from traces, §5 of the
// paper), and seeded random variate generators for the workload models
// (exponential, hyper-exponential with a target squared coefficient of
// variation, lognormal, and bounded Pareto).
package stats

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoV returns the coefficient of variation (stddev/mean) of xs.
// It returns 0 when the mean is zero or the sample is degenerate.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Median returns the median of xs (average of middle two for even length).
// It returns 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return SortedMedian(cp)
}

// SortedMedian is Median of xs already in ascending order, read off in
// place: the middle value, or the mean of the middle two. It returns 0 for
// an empty slice.
func SortedMedian(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ErrEmptyInput reports that an operation required a non-empty sample.
var ErrEmptyInput = errors.New("stats: empty input")

// NMAE is a streaming normalized mean absolute error tracker. 3σPredict
// scores each feature-value:estimator "expert" by the NMAE of its past
// estimates (§4.1); the tracker is O(1) memory. The zero value is an empty
// tracker.
type NMAE struct {
	sumAbsErr float64
	sumActual float64
	n         int
}

// Observe records one (estimate, actual) pair.
func (m *NMAE) Observe(estimate, actual float64) {
	m.sumAbsErr += math.Abs(estimate - actual)
	m.sumActual += math.Abs(actual)
	m.n++
}

// Value returns the current NMAE. With no observations, or when all actuals
// were zero, it returns +Inf so an untested expert is never preferred.
func (m *NMAE) Value() float64 {
	if m.n == 0 || m.sumActual == 0 {
		return math.Inf(1)
	}
	return m.sumAbsErr / m.sumActual
}

// Count returns the number of observations recorded.
func (m *NMAE) Count() int { return m.n }

// NMAEState is a serializable snapshot of an NMAE tracker.
type NMAEState struct {
	SumAbsErr float64
	SumActual float64
	N         int
}

// State captures the tracker's full state.
func (m *NMAE) State() NMAEState {
	return NMAEState{SumAbsErr: m.sumAbsErr, SumActual: m.sumActual, N: m.n}
}

// NMAEFromState reconstructs a tracker from a snapshot.
func NMAEFromState(s NMAEState) NMAE {
	return NMAE{sumAbsErr: s.SumAbsErr, sumActual: s.SumActual, n: s.N}
}
