package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := CoV(xs); got != 0.4 {
		t.Errorf("CoV = %v, want 0.4", got)
	}
}

func TestEmptyAndDegenerateInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Median(nil) != 0 || CoV(nil) != 0 {
		t.Error("empty-slice stats should be 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Error("single-element variance should be 0")
	}
	if CoV([]float64{0, 0}) != 0 {
		t.Error("zero-mean CoV should be 0")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("Min/Max of empty should be +/-Inf")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd Median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even Median = %v, want 2.5", got)
	}
	// Median must not mutate its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Median mutated its input")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {-5, 10}, {110, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("Percentile(50) = %v, want 5", got)
	}
}

func TestNMAE(t *testing.T) {
	var m NMAE
	if !math.IsInf(m.Value(), 1) {
		t.Error("untrained NMAE should be +Inf")
	}
	m.Observe(10, 10)
	if m.Value() != 0 {
		t.Errorf("perfect estimate NMAE = %v, want 0", m.Value())
	}
	m.Observe(0, 10) // |0-10|/..., cumulative: (0+10)/(10+10)
	if got := m.Value(); got != 0.5 {
		t.Errorf("NMAE = %v, want 0.5", got)
	}
	if m.Count() != 2 {
		t.Errorf("Count = %d, want 2", m.Count())
	}
}

func TestHyperExp2MeanAndSCV(t *testing.T) {
	r := NewRand(1)
	h := NewHyperExp2(100, 4)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := h.Draw(r)
		sum += x
		sumsq += x * x
	}
	mean := sum / float64(n)
	vr := sumsq/float64(n) - mean*mean
	scv := vr / (mean * mean)
	if math.Abs(mean-100) > 3 {
		t.Errorf("H2 mean = %v, want ~100", mean)
	}
	if math.Abs(scv-4) > 0.5 {
		t.Errorf("H2 SCV = %v, want ~4", scv)
	}
	if h.Mean() != 100 || h.SCV() != 4 {
		t.Errorf("configured mean/scv = %v/%v", h.Mean(), h.SCV())
	}
}

func TestHyperExp2DegeneratesToExponential(t *testing.T) {
	h := NewHyperExp2(50, 1)
	r := NewRand(2)
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += h.Draw(r)
	}
	if mean := sum / float64(n); math.Abs(mean-50) > 2 {
		t.Errorf("degenerate H2 mean = %v, want ~50", mean)
	}
}

func TestLogNormalFromMeanCoV(t *testing.T) {
	mu, sigma := LogNormalFromMeanCoV(200, 1.5)
	r := NewRand(3)
	var sum float64
	n := 300000
	for i := 0; i < n; i++ {
		sum += LogNormal(r, mu, sigma)
	}
	if mean := sum / float64(n); math.Abs(mean-200)/200 > 0.05 {
		t.Errorf("lognormal mean = %v, want ~200", mean)
	}
}

func TestBoundedParetoWithinBounds(t *testing.T) {
	r := NewRand(4)
	err := quick.Check(func(seedless uint8) bool {
		x := BoundedPareto(r, 1.1, 10, 1e6)
		return x >= 10 && x <= 1e6
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Error(err)
	}
}

func TestBoundedParetoHeavyTail(t *testing.T) {
	r := NewRand(5)
	n := 100000
	over := 0
	for i := 0; i < n; i++ {
		if BoundedPareto(r, 1.0, 1, 1e4) > 100 {
			over++
		}
	}
	// For alpha=1 truncated Pareto, P(X>100) is noticeably positive (~2.4%).
	frac := float64(over) / float64(n)
	if frac < 0.01 || frac > 0.10 {
		t.Errorf("tail mass %v outside expected heavy-tail range", frac)
	}
}

func TestTruncNormal(t *testing.T) {
	r := NewRand(6)
	for i := 0; i < 1000; i++ {
		if x := TruncNormal(r, 1, 5, 0); x < 0 {
			t.Fatalf("TruncNormal produced %v < 0", x)
		}
	}
	// Extremely negative mean exercises the fallback path.
	if x := TruncNormal(r, -1e9, 1, 0); x != 0 {
		t.Errorf("fallback TruncNormal = %v, want 0", x)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRand(7)
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += Exponential(r, 42)
	}
	if mean := sum / float64(n); math.Abs(mean-42) > 1 {
		t.Errorf("exp mean = %v, want ~42", mean)
	}
	if Exponential(r, -1) != 0 {
		t.Error("nonpositive mean should give 0")
	}
}

func TestKMeans1DSeparatesClusters(t *testing.T) {
	xs := []float64{1, 1.1, 0.9, 10, 10.2, 9.8, 100, 99, 101}
	res := KMeans1D(xs, 3, 0)
	if len(res.Centroids) != 3 {
		t.Fatalf("centroids = %v", res.Centroids)
	}
	want := []float64{1, 10, 100}
	for i, c := range res.Centroids {
		if math.Abs(c-want[i]) > 0.5 {
			t.Errorf("centroid[%d] = %v, want ~%v", i, c, want[i])
		}
	}
	// All points in the same hand-made cluster should share a label.
	for i := 1; i < 3; i++ {
		if res.Labels[i] != res.Labels[0] {
			t.Errorf("labels[%d]=%d != labels[0]=%d", i, res.Labels[i], res.Labels[0])
		}
	}
	if res.Inertia > 10 {
		t.Errorf("inertia = %v unexpectedly high", res.Inertia)
	}
}

func TestKMeans1DEdgeCases(t *testing.T) {
	if res := KMeans1D(nil, 3, 0); len(res.Labels) != 0 {
		t.Error("empty input should give empty labels")
	}
	if res := KMeans1D([]float64{5}, 3, 0); res.Labels[0] != 0 {
		t.Error("single point should be labeled 0")
	}
	res := KMeans1D([]float64{1, 2, 3}, 0, 0)
	if len(res.Centroids) != 0 {
		t.Error("k=0 should give no centroids")
	}
}

func TestKMeans1DLabelsSortedByCentroid(t *testing.T) {
	xs := []float64{100, 1, 50, 2, 51, 99}
	res := KMeans1D(xs, 3, 0)
	for i := 1; i < len(res.Centroids); i++ {
		if res.Centroids[i] < res.Centroids[i-1] {
			t.Fatalf("centroids not sorted: %v", res.Centroids)
		}
	}
	if res.Labels[1] != 0 { // value 1 belongs to smallest cluster
		t.Errorf("label of smallest value = %d, want 0", res.Labels[1])
	}
	if res.Labels[0] != 2 { // value 100 belongs to largest cluster
		t.Errorf("label of largest value = %d, want 2", res.Labels[0])
	}
}

func TestKMeansPropertyLabelsInRange(t *testing.T) {
	r := NewRand(8)
	err := quick.Check(func(n uint8, k uint8) bool {
		nn := int(n%50) + 1
		kk := int(k%8) + 1
		xs := make([]float64, nn)
		for i := range xs {
			xs[i] = r.Float64() * 1000
		}
		res := KMeans1D(xs, kk, 0)
		for _, l := range res.Labels {
			if l < 0 || l >= len(res.Centroids) {
				return false
			}
		}
		return len(res.Centroids) <= kk
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}
