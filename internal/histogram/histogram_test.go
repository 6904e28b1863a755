package histogram

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmptyHistogram(t *testing.T) {
	h := New(10)
	if h.Count() != 0 || h.NumBins() != 0 {
		t.Fatal("new histogram should be empty")
	}
	if h.CDF(5) != 0 {
		t.Error("empty CDF should be 0")
	}
	if h.Quantile(0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	if h.Mean() != 0 || h.Variance() != 0 {
		t.Error("empty moments should be 0")
	}
}

func TestDefaultBinBudget(t *testing.T) {
	h := New(0)
	if h.MaxBins() != DefaultMaxBins {
		t.Fatalf("MaxBins = %d, want %d", h.MaxBins(), DefaultMaxBins)
	}
}

func TestExactWithinBudget(t *testing.T) {
	h := New(10)
	for _, v := range []float64{1, 2, 3, 2, 1} {
		h.Add(v)
	}
	if h.Count() != 5 || h.NumBins() != 3 {
		t.Fatalf("count=%v bins=%v", h.Count(), h.NumBins())
	}
	if h.Min() != 1 || h.Max() != 3 {
		t.Fatalf("min=%v max=%v", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-1.8) > 1e-12 {
		t.Errorf("Mean = %v, want 1.8", got)
	}
}

func TestBinBudgetEnforced(t *testing.T) {
	h := New(8)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i))
	}
	if h.NumBins() > 8 {
		t.Fatalf("bins = %d exceeds budget 8", h.NumBins())
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %v, want 1000", h.Count())
	}
}

func TestBinsSortedInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := New(16)
	for i := 0; i < 5000; i++ {
		h.Add(rng.NormFloat64() * 100)
	}
	bins := h.Bins()
	for i := 1; i < len(bins); i++ {
		if bins[i].Value < bins[i-1].Value {
			t.Fatalf("bins out of order at %d: %v", i, bins)
		}
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := New(32)
	for i := 0; i < 3000; i++ {
		h.Add(math.Exp(rng.NormFloat64()))
	}
	prev := -1.0
	for v := 0.0; v < 30; v += 0.1 {
		c := h.CDF(v)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at %v: %v < %v", v, c, prev)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CDF out of range at %v: %v", v, c)
		}
		prev = c
	}
	if h.CDF(h.Min()-1) != 0 {
		t.Error("CDF below min should be 0")
	}
	if h.CDF(h.Max()) != 1 {
		t.Error("CDF at max should be 1")
	}
}

func TestCDFApproximatesTruth(t *testing.T) {
	// Compare the sketch CDF against the empirical CDF of uniform samples.
	rng := rand.New(rand.NewSource(3))
	n := 20000
	samples := make([]float64, n)
	h := New(80)
	for i := range samples {
		samples[i] = rng.Float64() * 100
		h.Add(samples[i])
	}
	sort.Float64s(samples)
	for _, q := range []float64{10, 25, 50, 75, 90} {
		truth := float64(sort.SearchFloat64s(samples, q)) / float64(n)
		got := h.CDF(q)
		if math.Abs(got-truth) > 0.03 {
			t.Errorf("CDF(%v) = %v, truth %v", q, got, truth)
		}
	}
}

func TestQuantileInvertsCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := New(64)
	for i := 0; i < 10000; i++ {
		h.Add(rng.ExpFloat64() * 50)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		v := h.Quantile(q)
		back := h.CDF(v)
		if math.Abs(back-q) > 0.02 {
			t.Errorf("CDF(Quantile(%v)) = %v", q, back)
		}
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Error("extreme quantiles should hit support bounds")
	}
}

func TestWeightedAddAndMerge(t *testing.T) {
	a := New(20)
	b := New(20)
	all := New(20)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		v := rng.Float64() * 10
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
		all.Add(v)
	}
	a.Merge(b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count %v, want %v", a.Count(), all.Count())
	}
	for _, v := range []float64{2, 5, 8} {
		if d := math.Abs(a.CDF(v) - all.CDF(v)); d > 0.05 {
			t.Errorf("merged CDF(%v) differs by %v", v, d)
		}
	}
	a.Merge(nil) // must not panic
}

func TestAddIgnoresNaNAndNonpositiveWeight(t *testing.T) {
	h := New(10)
	h.Add(math.NaN())
	h.AddWeighted(5, 0)
	h.AddWeighted(5, -2)
	if h.Count() != 0 {
		t.Fatalf("count = %v, want 0", h.Count())
	}
}

func TestMeanVarianceApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	h := New(80)
	var sum, sumsq float64
	n := 50000
	for i := 0; i < n; i++ {
		v := 100 + 15*rng.NormFloat64()
		h.Add(v)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	vr := sumsq/float64(n) - mean*mean
	if math.Abs(h.Mean()-mean) > 1 {
		t.Errorf("Mean = %v, want ~%v", h.Mean(), mean)
	}
	if math.Abs(h.Variance()-vr)/vr > 0.1 {
		t.Errorf("Variance = %v, want ~%v", h.Variance(), vr)
	}
}

func TestSumMatchesCountAtBoundaries(t *testing.T) {
	h := New(6)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if got := h.Sum(h.Max()); got != 100 {
		t.Errorf("Sum(max) = %v, want 100", got)
	}
	if got := h.Sum(0.5); got != 0 {
		t.Errorf("Sum(below min) = %v, want 0", got)
	}
}

func TestPropertyCDFWithinUnitInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := New(12)
	for i := 0; i < 500; i++ {
		h.Add(rng.Float64() * 1000)
	}
	err := quick.Check(func(raw float64) bool {
		v := math.Mod(math.Abs(raw), 2000) - 500
		c := h.CDF(v)
		return c >= 0 && c <= 1 && !math.IsNaN(c)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

func TestSingleValueHistogram(t *testing.T) {
	h := New(10)
	for i := 0; i < 5; i++ {
		h.Add(42)
	}
	if h.Min() != 42 || h.Max() != 42 {
		t.Fatal("degenerate support wrong")
	}
	if h.CDF(41) != 0 || h.CDF(42) != 1 {
		t.Errorf("degenerate CDF: CDF(41)=%v CDF(42)=%v", h.CDF(41), h.CDF(42))
	}
	if q := h.Quantile(0.5); q != 42 {
		t.Errorf("degenerate quantile = %v", q)
	}
}

func TestStringRepresentation(t *testing.T) {
	h := New(4)
	h.Add(1)
	if s := h.String(); s == "" {
		t.Error("String should not be empty")
	}
}

func BenchmarkAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	h := New(80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(rng.ExpFloat64() * 1000)
	}
}

func BenchmarkCDF(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	h := New(80)
	for i := 0; i < 100000; i++ {
		h.Add(rng.ExpFloat64() * 1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.CDF(float64(i % 5000))
	}
}

// Shard domains query one estimate's histogram from several goroutines at
// once, and the first Sum to need the prefix table builds and publishes it:
// concurrent first queries must all read the sequential answer (run under
// -race by scripts/ci.sh).
func TestSumConcurrentFirstQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := New(40)
	for i := 0; i < 500; i++ {
		src.Add(rng.ExpFloat64() * 100)
	}
	qs := make([]float64, 64)
	want := make([]float64, len(qs))
	ref := src.Clone()
	for i := range qs {
		qs[i] = src.Min() + (src.Max()-src.Min())*float64(i)/float64(len(qs))
		want[i] = ref.Sum(qs[i])
	}
	for round := 0; round < 20; round++ {
		h := src.Clone() // no table yet
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, q := range qs {
					if got := h.Sum(q); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("Sum(%g) = %v under concurrent readers, want %v", q, got, want[i])
					}
				}
			}()
		}
		wg.Wait()
	}
}
