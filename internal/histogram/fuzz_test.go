package histogram_test

// Fuzz targets for the streaming histogram, checked against the shared
// verifier in internal/check (external test package: check imports
// histogram, so the targets must live outside package histogram to avoid
// an import cycle). Seed corpora live under testdata/fuzz; scripts/ci.sh
// runs each target for a few seconds as a smoke gate.

import (
	"encoding/binary"
	"math"
	"testing"

	"threesigma/internal/check"
	"threesigma/internal/histogram"
)

// decodeFloats interprets data as a stream of little-endian float64s.
func decodeFloats(data []byte) []float64 {
	vs := make([]float64, 0, len(data)/8)
	for len(data) >= 8 {
		vs = append(vs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return vs
}

// FuzzHistogramInvariants streams arbitrary samples into a sketch of
// arbitrary budget and asserts every queryable invariant holds afterwards.
func FuzzHistogramInvariants(f *testing.F) {
	f.Add([]byte{8}) // empty sketch
	seed := []byte{4}
	for _, v := range []float64{30, 45, 45, 120, 300, 900, 2400, 0.5} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		maxBins := 2 + int(data[0])%62
		h := histogram.New(maxBins)
		for _, v := range decodeFloats(data[1:]) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue // runtimes are finite by construction upstream
			}
			h.Add(math.Abs(v))
		}
		if err := check.VerifyHistogram(h); err != nil {
			t.Fatalf("invariant violated after %d adds (maxBins=%d): %v",
				int(h.Count()), maxBins, err)
		}
		// Sum serves its prefix Σ_{k<i} m_k from a table built on the first
		// query and dropped by every mutation; the answer must be bit-equal
		// to re-adding the counts — before the table exists, once it does,
		// and after an Add has invalidated it.
		sumsMatch := func(when string) {
			bins := h.Bins()
			for i, b := range bins {
				qs := []float64{b.Value}
				if i+1 < len(bins) {
					qs = append(qs, b.Value+(bins[i+1].Value-b.Value)/2)
				}
				for _, q := range qs {
					got, want := h.Sum(q), sumUncached(h, q)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: Sum(%g) = %x, uncached %x (maxBins=%d, %d bins)",
							when, q, math.Float64bits(got), math.Float64bits(want), maxBins, len(bins))
					}
				}
			}
		}
		sumsMatch("first pass")
		sumsMatch("cached pass")
		if h.Count() > 0 {
			h.Add(h.Min() + (h.Max()-h.Min())/3)
			sumsMatch("after invalidating Add")
		}
	})
}

// sumUncached is Histogram.Sum as it was before the prefix table: the
// interior branch re-adds the counts of every bin left of the query. It
// reads the sketch through its public accessors only.
func sumUncached(h *histogram.Histogram, v float64) float64 {
	bins := h.Bins()
	nb := len(bins)
	if nb == 0 || v < h.Min() {
		return 0
	}
	if v >= h.Max() {
		return h.Count()
	}
	if v < bins[0].Value || v >= bins[nb-1].Value {
		return h.Sum(v) // edge halves never touch the prefix
	}
	i := 0
	for i+1 < nb && bins[i+1].Value <= v {
		i++
	}
	s := 0.0
	for k := 0; k < i; k++ {
		s += bins[k].Count
	}
	s += bins[i].Count / 2
	gap := bins[i+1].Value - bins[i].Value
	if gap <= 0 {
		return s
	}
	t := (v - bins[i].Value) / gap
	mb := bins[i].Count + (bins[i+1].Count-bins[i].Count)*t
	s += (bins[i].Count + mb) / 2 * t
	return s
}

// FuzzFromState feeds arbitrary (possibly corrupt) persisted states to
// FromState: every input must either be rejected with an error or produce a
// sketch that passes the full verifier — never a silently corrupt one.
func FuzzFromState(f *testing.F) {
	// A healthy snapshot, an unsorted one, one with negative counts, and
	// one with lying min/max — the corruption classes that motivated the
	// validating FromState.
	mk := func(maxBins byte, fields ...float64) []byte {
		b := []byte{maxBins}
		for _, v := range fields {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(mk(8, 3, 10, 30, 10, 1, 20, 1, 30, 1))  // sorted, honest
	f.Add(mk(8, 3, 10, 30, 30, 1, 10, 1, 20, 1))  // unsorted
	f.Add(mk(8, 3, 10, 30, 10, -5, 20, 1, 30, 1)) // negative count
	f.Add(mk(8, 3, 15, 25, 10, 1, 20, 1, 30, 1))  // min/max inside centroids
	f.Add(mk(0, 0))                               // zero budget, no bins
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		vs := decodeFloats(data[1:])
		if len(vs) < 3 {
			return
		}
		st := histogram.State{
			MaxBins: int(int8(data[0])), // signed: exercise non-positive budgets
			N:       vs[0],
			Min:     vs[1],
			Max:     vs[2],
		}
		for i := 3; i+1 < len(vs); i += 2 {
			st.Bins = append(st.Bins, histogram.Bin{Value: vs[i], Count: vs[i+1]})
		}
		h, err := histogram.FromState(st)
		if err != nil {
			return // rejected: fine, as long as it never panics
		}
		if err := check.VerifyHistogram(h); err != nil {
			t.Fatalf("FromState accepted a state that violates invariants: %v\nstate: %+v", err, st)
		}
	})
}
