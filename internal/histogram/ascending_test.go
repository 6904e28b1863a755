package histogram_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"threesigma/internal/histogram"
)

// probes returns the points a grid query must get right for h — every
// centroid, the neighbouring floats of each, midpoints between centroids,
// min and max and the floats around them, points outside the support —
// plus extra, sorted ascending with duplicates kept.
func probes(h *histogram.Histogram, extra ...float64) []float64 {
	var vs []float64
	add := func(v float64) {
		if !math.IsNaN(v) {
			vs = append(vs, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		}
	}
	bins := h.Bins()
	for i, b := range bins {
		add(b.Value)
		if i+1 < len(bins) {
			add(b.Value + (bins[i+1].Value-b.Value)/2)
		}
	}
	if h.Count() > 0 {
		add(h.Min())
		add(h.Max())
		add(h.Min() - 1)
		add(h.Max() + 1)
	}
	for _, v := range extra {
		add(v)
	}
	slices.Sort(vs)
	return vs
}

// checkAscending holds CDFAscending over vs to CDF point by point, bit for
// bit, into a separate slice and in place.
func checkAscending(t *testing.T, h *histogram.Histogram, vs []float64) {
	t.Helper()
	out := make([]float64, len(vs))
	h.CDFAscending(vs, out)
	inPlace := slices.Clone(vs)
	h.CDFAscending(inPlace, inPlace)
	for k, v := range vs {
		want := math.Float64bits(h.CDF(v))
		if got := math.Float64bits(out[k]); got != want {
			t.Fatalf("CDFAscending at %g (point %d of %d) = %x, CDF %x (%v)", v, k, len(vs), got, want, h)
		}
		if got := math.Float64bits(inPlace[k]); got != want {
			t.Fatalf("CDFAscending in place at %g = %x, CDF %x (%v)", v, got, want, h)
		}
	}
}

// Over sketches built by FromState — duplicate centroids merged, budgets
// that force merges, min and max on or beyond the outer centroids — the
// batched walk answers every ascending grid exactly as CDF does.
func TestCDFAscendingMatchesCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checkAscending(t, histogram.New(8), []float64{-1, 0, 1})
	for trial := 0; trial < 500; trial++ {
		st := histogram.State{MaxBins: 1 + rng.Intn(12)}
		for k := rng.Intn(20); k > 0; k-- {
			v := float64(rng.Intn(50)) // small range: duplicate centroids
			if rng.Intn(3) == 0 {
				v += rng.Float64()
			}
			st.Bins = append(st.Bins, histogram.Bin{Value: v, Count: float64(1 + rng.Intn(5))})
		}
		st.Min, st.Max = -float64(rng.Intn(3)), 50+float64(rng.Intn(3))
		h, err := histogram.FromState(st)
		if err != nil {
			t.Fatal(err)
		}
		extra := make([]float64, 30)
		for k := range extra {
			extra[k] = rng.Float64()*60 - 5
		}
		checkAscending(t, h, probes(h, extra...))
	}
}

// FuzzCDFAscending: for any sketch FromState accepts and any points, the
// batched walk over the points in ascending order is CDF, bit for bit.
func FuzzCDFAscending(f *testing.F) {
	mk := func(maxBins byte, fields ...float64) []byte {
		b := []byte{maxBins}
		for _, v := range fields {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(mk(8, 10, 30, 10, 1, 20, 1, 30, 1, 15, 25))  // points on and between centroids
	f.Add(mk(8, 10, 30, 10, 1, 10, 2, 30, 1, 10, 30))  // duplicate centroid, points at min and max
	f.Add(mk(2, 0, 100, 5, 1, 50, 3, 95, 1, 50, 99.5)) // merged down to two bins
	f.Add(mk(8, 7, 7, 7, 4, 7, 7))                     // one centroid, min = max
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		vs := decodeFloats(data[1:])
		if len(vs) < 2 {
			return
		}
		st := histogram.State{MaxBins: int(data[0] % 64), Min: vs[0], Max: vs[1]}
		rest := vs[2:]
		for len(rest) >= 2 && len(st.Bins) < 64 {
			st.Bins = append(st.Bins, histogram.Bin{Value: rest[0], Count: rest[1]})
			rest = rest[2:]
		}
		h, err := histogram.FromState(st)
		if err != nil {
			return
		}
		var extra []float64
		for _, v := range rest {
			if !math.IsNaN(v) {
				extra = append(extra, v)
			}
		}
		checkAscending(t, h, probes(h, extra...))
	})
}
