package dist

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"threesigma/internal/histogram"
)

func TestPointDistribution(t *testing.T) {
	p := NewPoint(10)
	if p.CDF(9.99) != 0 || p.CDF(10) != 1 || p.CDF(11) != 1 {
		t.Error("point CDF wrong")
	}
	if p.Mean() != 10 || p.Max() != 10 || p.Quantile(0.3) != 10 {
		t.Error("point moments wrong")
	}
	if Survival(p, 5) != 1 || Survival(p, 10) != 0 {
		t.Error("point survival wrong")
	}
	if NewPoint(-5).Value != 0 {
		t.Error("negative point should clamp to 0")
	}
}

func TestUniformDistribution(t *testing.T) {
	u := NewUniform(0, 10)
	if u.CDF(5) != 0.5 || u.CDF(-1) != 0 || u.CDF(11) != 1 {
		t.Error("uniform CDF wrong")
	}
	if u.Mean() != 5 || u.Max() != 10 {
		t.Error("uniform moments wrong")
	}
	if u.Quantile(0.25) != 2.5 {
		t.Errorf("Quantile(0.25) = %v", u.Quantile(0.25))
	}
	// Swapped bounds are normalized.
	u2 := NewUniform(8, 3)
	if u2.Lo != 3 || u2.Hi != 8 {
		t.Error("bounds not swapped")
	}
	// Degenerate interval behaves like a point.
	u3 := NewUniform(5, 5)
	if u3.CDF(5) != 1 || u3.CDF(4.9) != 0 {
		t.Error("degenerate uniform wrong")
	}
}

// TestPaperScenarioProbabilities checks the worked example from §2.3 of the
// paper: SLO job with a 15-minute deadline behind a BE job.
func TestPaperScenarioProbabilities(t *testing.T) {
	// Scenario A: both runtimes ~ U(0,10) minutes. If BE runs first, SLO
	// completes by 15 min only if BE+SLO <= 15; P(miss) = 12.5%.
	// Our distributions answer the per-job question: P(SLO done within
	// 15 - be) — here we verify the building block the paper uses:
	// P(sum > 15) for two independent U(0,10) is 0.125 by integration.
	u := NewUniform(0, 10)
	const n = 400
	miss := 0.0
	for i := 0; i < n; i++ {
		be := (float64(i) + 0.5) / n * 10
		miss += 1 - u.CDF(15-be)
	}
	miss /= n
	if math.Abs(miss-0.125) > 0.01 {
		t.Errorf("P(miss) = %v, want ~0.125", miss)
	}
	// Scenario B: U(2.5, 7.5): worst case 7.5+7.5 = 15 <= deadline; never misses.
	u2 := NewUniform(2.5, 7.5)
	missB := 0.0
	for i := 0; i < n; i++ {
		be := 2.5 + (float64(i)+0.5)/n*5
		missB += 1 - u2.CDF(15-be)
	}
	missB /= n
	if missB > 1e-9 {
		t.Errorf("scenario B P(miss) = %v, want 0", missB)
	}
}

func TestNormalTruncatedAtZero(t *testing.T) {
	n := NewNormal(10, 3)
	if n.CDF(-1) != 0 || n.CDF(0) != 0 {
		t.Error("CDF below 0 must be 0")
	}
	if c := n.CDF(10); math.Abs(c-0.5) > 0.01 {
		t.Errorf("CDF(mu) = %v, want ~0.5", c)
	}
	if m := n.Mean(); math.Abs(m-10) > 0.1 {
		t.Errorf("Mean = %v, want ~10 (little truncation mass)", m)
	}
	// Heavy truncation: mean must exceed mu.
	h := NewNormal(1, 5)
	if h.Mean() <= 1 {
		t.Errorf("truncated mean %v should exceed mu", h.Mean())
	}
	if q := n.Quantile(0.5); math.Abs(q-10) > 0.05 {
		t.Errorf("median = %v, want ~10", q)
	}
	if n.Max() != 22 {
		t.Errorf("Max = %v, want mu+4sigma = 22", n.Max())
	}
}

func TestNormalZeroSigma(t *testing.T) {
	n := NewNormal(7, 0)
	if n.CDF(6.9) != 0 || n.CDF(7) != 1 {
		t.Error("sigma=0 should behave like a point")
	}
	if n.Mean() != 7 || n.Quantile(0.5) != 7 {
		t.Error("sigma=0 moments wrong")
	}
}

func TestEmpiricalDistribution(t *testing.T) {
	samples := []float64{100, 200, 300, 400, 500}
	e := FromSamples(samples)
	if e.Max() != 500 {
		t.Errorf("Max = %v, want 500", e.Max())
	}
	if m := e.Mean(); math.Abs(m-300) > 1e-9 {
		t.Errorf("Mean = %v, want 300", m)
	}
	if c := e.CDF(300); c < 0.3 || c > 0.7 {
		t.Errorf("CDF(300) = %v, want mid-range", c)
	}
	var empty Empirical
	if empty.CDF(5) != 0 || empty.Mean() != 0 || empty.Max() != 0 || empty.Quantile(0.5) != 0 {
		t.Error("nil-backed empirical should be all zeros")
	}
}

func TestConditionalRenormalization(t *testing.T) {
	// Eq. 2 of the paper on U(0,10) with elapsed=5:
	// 1-CDF_upd(t) = (1-CDF(t))/(1-CDF(5)) = (1 - t/10) / 0.5.
	c := NewConditional(NewUniform(0, 10), 5)
	if c.Exhausted() {
		t.Fatal("should not be exhausted at elapsed=5")
	}
	if got := c.CDF(7.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CDF(7.5|>=5) = %v, want 0.5", got)
	}
	if got := c.CDF(4); got != 0 {
		t.Errorf("CDF before elapsed = %v, want 0", got)
	}
	if got := c.CDFRemaining(2.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CDFRemaining(2.5) = %v, want 0.5", got)
	}
	if got := c.SurvivalRemaining(2.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("SurvivalRemaining(2.5) = %v, want 0.5", got)
	}
	// Conditional mean of U(0,10) given >= 5 is 7.5.
	if m := c.Mean(); math.Abs(m-7.5) > 0.05 {
		t.Errorf("conditional mean = %v, want ~7.5", m)
	}
	if q := c.Quantile(0.5); math.Abs(q-7.5) > 0.05 {
		t.Errorf("conditional median = %v, want ~7.5", q)
	}
}

func TestConditionalExhausted(t *testing.T) {
	c := NewConditional(NewUniform(0, 10), 12)
	if !c.Exhausted() {
		t.Fatal("elapsed beyond support must be exhausted")
	}
	if c.CDF(12) != 1 {
		t.Error("exhausted conditional should finish immediately")
	}
	if c.Mean() != 12 || c.Quantile(0.5) != 12 {
		t.Error("exhausted moments should equal elapsed")
	}
	if c.Max() != 12 {
		t.Errorf("Max = %v, want elapsed", c.Max())
	}
}

func TestConditionalZeroElapsedMatchesBase(t *testing.T) {
	base := NewUniform(2, 8)
	c := NewConditional(base, 0)
	for _, v := range []float64{2, 4, 6, 8} {
		if math.Abs(c.CDF(v)-base.CDF(v)) > 1e-9 {
			t.Errorf("CDF(%v) mismatch: %v vs %v", v, c.CDF(v), base.CDF(v))
		}
	}
	if c2 := NewConditional(base, -3); c2.Elapsed != 0 {
		t.Error("negative elapsed should clamp to 0")
	}
}

func TestSurvivalClamping(t *testing.T) {
	u := NewUniform(0, 10)
	if s := Survival(u, -5); s != 1 {
		t.Errorf("Survival(-5) = %v, want 1", s)
	}
	if s := Survival(u, 15); s != 0 {
		t.Errorf("Survival(15) = %v, want 0", s)
	}
}

func TestPropertyCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := histogram.New(40)
	for i := 0; i < 2000; i++ {
		h.Add(rng.ExpFloat64() * 300)
	}
	dists := []Distribution{
		NewPoint(50), NewUniform(10, 400), NewNormal(200, 80), NewEmpirical(h),
		NewConditional(NewEmpirical(h), 100),
	}
	for _, d := range dists {
		err := quick.Check(func(a, b float64) bool {
			x := math.Abs(math.Mod(a, 1000))
			y := math.Abs(math.Mod(b, 1000))
			if x > y {
				x, y = y, x
			}
			return d.CDF(x) <= d.CDF(y)+1e-9
		}, &quick.Config{MaxCount: 300})
		if err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
}

func TestPropertyQuantileWithinSupport(t *testing.T) {
	dists := []Distribution{NewUniform(5, 20), NewNormal(10, 2)}
	for _, d := range dists {
		err := quick.Check(func(q float64) bool {
			qq := math.Abs(math.Mod(q, 1))
			v := d.Quantile(qq)
			return v >= 0 && v <= d.Max()+1e-9 && !math.IsNaN(v)
		}, &quick.Config{MaxCount: 200})
		if err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
}

func TestStringers(t *testing.T) {
	for _, d := range []interface{ String() string }{
		NewPoint(1), NewUniform(0, 1), NewNormal(1, 1), Empirical{},
		FromSamples([]float64{1, 2}), NewConditional(NewPoint(1), 0),
	} {
		if d.String() == "" {
			t.Errorf("%T: empty String()", d)
		}
	}
}

func TestScaledDistribution(t *testing.T) {
	base := NewUniform(100, 200)
	s := NewScaled(base, 1.5)
	if m := s.Mean(); math.Abs(m-225) > 1e-9 {
		t.Errorf("Mean = %v, want 225", m)
	}
	if mx := s.Max(); math.Abs(mx-300) > 1e-9 {
		t.Errorf("Max = %v, want 300", mx)
	}
	if c := s.CDF(225); math.Abs(c-0.5) > 1e-9 {
		t.Errorf("CDF(225) = %v, want 0.5", c)
	}
	if q := s.Quantile(0.5); math.Abs(q-225) > 1e-9 {
		t.Errorf("Quantile(0.5) = %v, want 225", q)
	}
	// Factor 1 (or invalid) returns the base unchanged.
	if d := NewScaled(base, 1); d != Distribution(base) {
		t.Error("factor 1 should return base")
	}
	if d := NewScaled(base, -2); d != Distribution(base) {
		t.Error("invalid factor should return base")
	}
	if sc, ok := NewScaled(base, 2).(Scaled); !ok || sc.String() == "" {
		t.Error("scaled stringer broken")
	}
}

func TestScaledComposesWithConditional(t *testing.T) {
	// A job running 1.5x slower, conditioned on elapsed time: the combined
	// distribution used for running non-preferred jobs.
	s := NewScaled(NewUniform(100, 200), 1.5) // support [150, 300]
	c := NewConditional(s, 200)
	if c.Exhausted() {
		t.Fatal("mass remains above 200")
	}
	// P(T<=250 | T>=200) = (CDF(250)-CDF(200))/(1-CDF(200)).
	want := (s.CDF(250) - s.CDF(200)) / (1 - s.CDF(200))
	if got := c.CDF(250); math.Abs(got-want) > 1e-9 {
		t.Errorf("conditional CDF = %v, want %v", got, want)
	}
}

// CDFs over an ascending grid is the per-point CDF bit for bit, whatever the
// distribution: the histogram walk of an Empirical, the mapped grid of a
// Scaled (nested, and over a base with no batched path), and the per-point
// fallback of Point and Normal. Survivals is Survival the same way.
func TestCDFsMatchCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]float64, 300)
	for i := range samples {
		samples[i] = math.Exp(rng.NormFloat64()) * 200
	}
	emp := FromSamples(samples)
	dists := map[string]Distribution{
		"empirical":        emp,
		"empirical-nil":    Empirical{},
		"empirical-empty":  NewEmpirical(histogram.New(8)),
		"scaled-empirical": NewScaled(emp, 1.5),
		"scaled-scaled":    NewScaled(NewScaled(emp, 1.5), 3),
		"scaled-normal":    NewScaled(NewNormal(300, 120), 2),
		"point":            NewPoint(250),
		"normal":           NewNormal(300, 120),
	}
	var grid []float64
	for i := 0; i <= 64; i++ {
		grid = append(grid, float64(i)*emp.Max()*2/64)
	}
	for _, b := range emp.H.Bins() { // on centroids, and at scaled centroids
		grid = append(grid, b.Value, b.Value*1.5, b.Value*4.5)
	}
	grid = append(grid, 0, 250, 500, emp.H.Min(), emp.H.Max(), emp.H.Max()*1.5)
	slices.Sort(grid)
	for name, d := range dists {
		out := make([]float64, len(grid))
		CDFs(d, grid, out)
		surv := slices.Clone(grid)
		Survivals(d, surv, surv) // in place
		for k, v := range grid {
			if got, want := math.Float64bits(out[k]), math.Float64bits(d.CDF(v)); got != want {
				t.Fatalf("%s: CDFs at %g = %x, CDF %x", name, v, got, want)
			}
			if got, want := math.Float64bits(surv[k]), math.Float64bits(Survival(d, v)); got != want {
				t.Fatalf("%s: Survivals at %g = %x, Survival %x", name, v, got, want)
			}
		}
	}
}
