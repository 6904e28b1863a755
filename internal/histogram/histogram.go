// Package histogram implements the streaming histogram of Ben-Haim &
// Tom-Tov ("A streaming parallel decision tree algorithm", JMLR 2010), the
// sketch 3σPredict uses to maintain approximate empirical runtime
// distributions in constant memory per feature value (§4.1 of the paper,
// max 80 bins by default).
//
// The histogram keeps at most maxBins (centroid, count) pairs; inserting a
// new value either lands on an existing centroid or adds a bin, and when
// the budget is exceeded the two closest centroids are merged at their
// weighted mean. Bin widths therefore adapt to the data, which matters for
// the heavy-tailed, multi-modal runtime distributions in cluster traces.
package histogram

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// DefaultMaxBins matches the paper's configuration of "a maximum of 80 bins".
const DefaultMaxBins = 80

// Bin is one (centroid, count) pair of a streaming histogram.
type Bin struct {
	Value float64 // centroid
	Count float64 // weight (fractional after merges of merged sketches)
}

// Histogram is a Ben-Haim/Tom-Tov streaming histogram. The zero value is
// not ready for use; construct with New.
type Histogram struct {
	maxBins int
	bins    []Bin // sorted ascending by Value
	n       float64
	min     float64
	max     float64

	// prefix, once a Sum has needed it, holds the running sums of the bin
	// counts — (*prefix)[i] = Σ_{k<i} bins[k].Count, folded left to right as
	// Sum itself would — so a CDF query costs a binary search instead of a
	// pass over up to maxBins counts. The table is immutable once published
	// and every mutation of bins drops it. It is published through an atomic
	// pointer because queries are otherwise read-only and shard domains run
	// them concurrently on one estimate's histogram; racing builders store
	// identical tables.
	prefix atomic.Pointer[[]float64]
}

// New returns a histogram holding at most maxBins bins (DefaultMaxBins when
// maxBins <= 0).
func New(maxBins int) *Histogram {
	if maxBins <= 0 {
		maxBins = DefaultMaxBins
	}
	return &Histogram{
		maxBins: maxBins,
		bins:    make([]Bin, 0, maxBins+1),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// FromSamples builds a histogram with the given bin budget from samples.
func FromSamples(maxBins int, samples []float64) *Histogram {
	h := New(maxBins)
	for _, s := range samples {
		h.Add(s)
	}
	return h
}

// Add inserts one observation with weight 1. NaN values are ignored.
func (h *Histogram) Add(v float64) { h.AddWeighted(v, 1) }

// AddWeighted inserts an observation with the given positive weight.
func (h *Histogram) AddWeighted(v, w float64) {
	if math.IsNaN(v) || w <= 0 {
		return
	}
	h.prefix.Store(nil)
	h.n += w
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	i := sort.Search(len(h.bins), func(i int) bool { return h.bins[i].Value >= v })
	//lint:allow floateq exact centroid match: only bit-identical values may share a bin, near-equal ones must stay distinct for mergeClosest
	if i < len(h.bins) && h.bins[i].Value == v {
		h.bins[i].Count += w
		return
	}
	h.bins = append(h.bins, Bin{})
	copy(h.bins[i+1:], h.bins[i:])
	h.bins[i] = Bin{Value: v, Count: w}
	if len(h.bins) > h.maxBins {
		h.mergeClosest()
	}
}

// mergeClosest merges the adjacent pair of bins with minimal centroid gap.
func (h *Histogram) mergeClosest() {
	best, bestGap := -1, math.Inf(1)
	for i := 0; i+1 < len(h.bins); i++ {
		gap := h.bins[i+1].Value - h.bins[i].Value
		if gap < bestGap {
			best, bestGap = i, gap
		}
	}
	if best < 0 {
		return
	}
	h.prefix.Store(nil)
	a, b := h.bins[best], h.bins[best+1]
	tot := a.Count + b.Count
	v := (a.Value*a.Count + b.Value*b.Count) / tot
	// The weighted mean must land inside [a.Value, b.Value]; with subnormal
	// value·count products it can underflow to 0 (or NaN on overflow) and
	// break the sorted-bins invariant every query path relies on. Clamp —
	// a no-op for normal-magnitude inputs, so streamed results are unchanged.
	if !(v >= a.Value) { // also catches NaN
		v = a.Value
	} else if v > b.Value {
		v = b.Value
	}
	h.bins[best] = Bin{Value: v, Count: tot}
	h.bins = append(h.bins[:best+1], h.bins[best+2:]...)
}

// Merge folds other into h (the "parallel" part of the BH/TT algorithm).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for _, b := range other.bins {
		h.AddWeighted(b.Value, b.Count)
	}
	if other.n > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Count returns the total observation weight.
func (h *Histogram) Count() float64 { return h.n }

// NumBins returns the number of live bins.
func (h *Histogram) NumBins() int { return len(h.bins) }

// MaxBins returns the configured bin budget.
func (h *Histogram) MaxBins() int { return h.maxBins }

// Min returns the smallest observed value (+Inf when empty).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest observed value (-Inf when empty).
func (h *Histogram) Max() float64 { return h.max }

// Bins returns a copy of the (sorted) bins.
func (h *Histogram) Bins() []Bin { return append([]Bin(nil), h.bins...) }

// Clone returns an independent copy of the histogram. 3σPredict snapshots
// a group's histogram at estimation time so later observations do not
// mutate a distribution the scheduler is already planning with.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{
		maxBins: h.maxBins,
		bins:    append([]Bin(nil), h.bins...),
		n:       h.n,
		min:     h.min,
		max:     h.max,
	}
}

// countsBefore returns the prefix table, building it on first use.
func (h *Histogram) countsBefore() []float64 {
	if p := h.prefix.Load(); p != nil {
		return *p
	}
	tab := make([]float64, len(h.bins))
	s := 0.0
	for k, b := range h.bins {
		tab[k] = s
		s += b.Count
	}
	h.prefix.Store(&tab)
	return tab
}

// Mean returns the weighted mean of the sketch (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	s := 0.0
	for _, b := range h.bins {
		s += b.Value * b.Count
	}
	return s / h.n
}

// Variance returns the approximate variance of the sketch.
func (h *Histogram) Variance() float64 {
	if h.n == 0 {
		return 0
	}
	m := h.Mean()
	s := 0.0
	for _, b := range h.bins {
		d := b.Value - m
		s += d * d * b.Count
	}
	return s / h.n
}

// Sum estimates the number of observations <= v (the BH/TT "sum" procedure:
// trapezoidal interpolation between adjacent centroids, with each bin's mass
// assumed to straddle its centroid symmetrically).
func (h *Histogram) Sum(v float64) float64 {
	if s, ok := h.sumOutside(v); ok {
		return s
	}
	// Find the first bin whose centroid exceeds v.
	j := sort.Search(len(h.bins), func(i int) bool { return h.bins[i].Value > v })
	return h.sumBetween(v, j, h.countsBefore())
}

// sumOutside answers Sum for a point outside the interior
// [bins[0].Value, bins[nb−1].Value), reporting false for an interior point.
func (h *Histogram) sumOutside(v float64) (float64, bool) {
	nb := len(h.bins)
	if nb == 0 {
		return 0, true
	}
	if v < h.min {
		return 0, true
	}
	if v >= h.max {
		return h.n, true
	}
	if v < h.bins[0].Value {
		// Interpolate within the first bin's left half, anchored at min.
		b := h.bins[0]
		span := b.Value - h.min
		if span <= 0 {
			return b.Count / 2, true
		}
		frac := (v - h.min) / span
		return frac * b.Count / 2, true
	}
	if v >= h.bins[nb-1].Value {
		b := h.bins[nb-1]
		span := h.max - b.Value
		inside := h.n - b.Count/2
		if span <= 0 {
			return h.n, true
		}
		frac := (v - b.Value) / span
		return inside + frac*b.Count/2, true
	}
	return 0, false
}

// sumBetween is Sum for an interior point v, given j, the first bin whose
// centroid exceeds v, and the prefix table: with i = j−1 so that
// bins[i].Value <= v < bins[i+1].Value, it applies BH/TT eq. (3): sum =
// Σ_{k<i} m_k + m_i/2 + (m_i + m_b)/2 · t, where t is the fractional
// position of v between the two centroids and m_b the linearly interpolated
// bin mass at v.
func (h *Histogram) sumBetween(v float64, j int, before []float64) float64 {
	i := j - 1
	bi, bj := h.bins[i], h.bins[i+1]
	s := before[i] + bi.Count/2
	gap := bj.Value - bi.Value
	if gap <= 0 {
		return s
	}
	t := (v - bi.Value) / gap
	mb := bi.Count + (bj.Count-bi.Count)*t
	s += (bi.Count + mb) / 2 * t
	return s
}

// CDF returns the estimated P(X <= v) in [0,1].
func (h *Histogram) CDF(v float64) float64 {
	if h.n == 0 {
		return 0
	}
	return h.fraction(h.Sum(v))
}

// fraction turns a Sum into a CDF value.
func (h *Histogram) fraction(sum float64) float64 {
	c := sum / h.n
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// CDFAscending sets out[k] = CDF(vs[k]) for points given in ascending order
// — a grid — walking the bins once for all of them instead of searching
// them for each. Every value is CDF's own, bit for bit: the walk stops at
// the bin the search would find, and the value comes from the same code.
// out may be vs. A point below its predecessor, or NaN, is answered by CDF.
func (h *Histogram) CDFAscending(vs, out []float64) {
	if h.n == 0 {
		clear(out[:len(vs)])
		return
	}
	var before []float64 // the prefix table, fetched once an interior point needs it
	j, prev := 0, math.Inf(-1)
	for k, v := range vs {
		if !(v >= prev) {
			out[k] = h.CDF(v)
			continue
		}
		prev = v
		s, ok := h.sumOutside(v)
		if !ok {
			for h.bins[j].Value <= v {
				j++
			}
			if before == nil {
				before = h.countsBefore()
			}
			s = h.sumBetween(v, j, before)
		}
		out[k] = h.fraction(s)
	}
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]) by binary
// search over the CDF. Empty histograms return 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	lo, hi := h.min, h.max
	// The tolerance must be relative to the support span, not the absolute
	// magnitude of the values: an absolute cutoff silently returns the
	// support midpoint for every q when the whole histogram lives below it
	// (e.g. sub-picosecond runtimes). Midpoints are computed as
	// lo+(hi-lo)/2 so supports near the float range cannot overflow.
	tol := (hi - lo) * 1e-12
	for i := 0; i < 64 && hi-lo > tol; i++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break // interval below float resolution
		}
		if h.CDF(mid) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// State is a serializable snapshot of a histogram (predictor persistence).
type State struct {
	MaxBins int     `json:"max_bins"`
	Bins    []Bin   `json:"bins"`
	N       float64 `json:"n"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
}

// Snapshot captures the histogram's full state.
func (h *Histogram) Snapshot() State {
	return State{MaxBins: h.maxBins, Bins: h.Bins(), N: h.n, Min: h.min, Max: h.max}
}

// FromState reconstructs a histogram from a snapshot. Empty snapshots
// yield an empty histogram with the given bin budget.
//
// The snapshot is validated and repaired before use: every query path
// (AddWeighted, Sum, CDF) binary-searches h.bins assuming sorted order and
// positive counts, so a corrupted or hand-edited checkpoint would otherwise
// silently yield wrong CDFs. Bins with non-positive counts are dropped,
// out-of-order bins are re-sorted (duplicate centroids merged), an
// over-budget bin list is merged down to MaxBins, and n/min/max are
// recomputed from the surviving bins. Snapshots with non-finite centroids
// or counts, or with counts whose sums are not finite, are irrecoverable and
// rejected with an error.
func FromState(s State) (*Histogram, error) {
	h := New(s.MaxBins)
	for _, b := range s.Bins {
		if math.IsNaN(b.Value) || math.IsInf(b.Value, 0) {
			return nil, fmt.Errorf("histogram: snapshot bin has non-finite centroid %v", b.Value)
		}
		if math.IsNaN(b.Count) || math.IsInf(b.Count, 0) {
			return nil, fmt.Errorf("histogram: snapshot bin %g has non-finite count %v", b.Value, b.Count)
		}
		if b.Count <= 0 {
			continue // dead weight: drop rather than corrupt binary searches
		}
		h.bins = append(h.bins, b)
	}
	sort.SliceStable(h.bins, func(i, j int) bool { return h.bins[i].Value < h.bins[j].Value })
	// Merge duplicate centroids (AddWeighted would otherwise split their
	// mass unpredictably between equal-valued bins).
	out := h.bins[:0]
	for _, b := range h.bins {
		//lint:allow floateq exact duplicate merge: AddWeighted splits mass unpredictably only between bit-identical centroids
		if n := len(out); n > 0 && out[n-1].Value == b.Value {
			out[n-1].Count += b.Count
			continue
		}
		out = append(out, b)
	}
	h.bins = out
	for len(h.bins) > h.maxBins {
		h.mergeClosest()
	}
	for _, b := range h.bins {
		h.n += b.Count
	}
	// Sum adds neighbouring counts (at most twice the total), so a total
	// whose double overflows would answer +Inf mid-support.
	if math.IsInf(2*h.n, 0) {
		return nil, fmt.Errorf("histogram: snapshot counts sum to %g, whose double is not finite", h.n)
	}
	if len(h.bins) == 0 {
		return h, nil
	}
	// min/max must bracket the centroids; a snapshot may legitimately carry
	// observed extremes outside the (merged) centroid range, but never inside
	// it, and never NaN or infinite (Quantile bisects over [min,max]).
	h.min, h.max = s.Min, s.Max
	if !(h.min <= h.bins[0].Value) || math.IsInf(h.min, 0) { // also catches NaN
		h.min = h.bins[0].Value
	}
	if !(h.max >= h.bins[len(h.bins)-1].Value) || math.IsInf(h.max, 0) {
		h.max = h.bins[len(h.bins)-1].Value
	}
	return h, nil
}

// String renders a compact debug representation.
func (h *Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "hist(n=%.0f, bins=%d, min=%g, max=%g)", h.n, len(h.bins), h.min, h.max)
	return sb.String()
}
