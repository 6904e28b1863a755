package job

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"threesigma/internal/dist"
)

func TestClassString(t *testing.T) {
	if SLO.String() != "SLO" || BestEffort.String() != "BE" {
		t.Error("class names wrong")
	}
}

func TestJobBasics(t *testing.T) {
	j := &Job{ID: 1, Class: SLO, Submit: 100, Deadline: 400, Tasks: 4, Runtime: 200, NonPrefFactor: 1.5}
	if !j.HasDeadline() {
		t.Error("SLO job with deadline should report HasDeadline")
	}
	// Slack = (400-100-200)/200 = 0.5.
	if s := j.Slack(); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("Slack = %v, want 0.5", s)
	}
	if j.Work() != 800 {
		t.Errorf("Work = %v, want 800", j.Work())
	}
	be := &Job{Class: BestEffort, Runtime: 50}
	if be.HasDeadline() || !math.IsInf(be.Slack(), 1) {
		t.Error("BE job deadline semantics wrong")
	}
}

func TestPrefersPartition(t *testing.T) {
	j := &Job{Preferred: []int{0, 2, 5}}
	for p, want := range map[int]bool{0: true, 1: false, 2: true, 3: false, 5: true, 6: false} {
		if got := j.PrefersPartition(p); got != want {
			t.Errorf("PrefersPartition(%d) = %v, want %v", p, got, want)
		}
	}
	open := &Job{}
	if !open.PrefersPartition(3) {
		t.Error("empty preference should accept any partition")
	}
}

func TestStepUtility(t *testing.T) {
	u := StepUtility{Value: 10, Deadline: 100}
	if u.At(99) != 10 || u.At(100) != 10 || u.At(100.01) != 0 {
		t.Error("step utility boundary wrong")
	}
	if u.Horizon() != 100 {
		t.Error("horizon wrong")
	}
}

func TestExtendedStepUtility(t *testing.T) {
	u := ExtendedStepUtility{Value: 10, Deadline: 100, Extension: 50}
	if u.At(100) != 10 {
		t.Error("value at deadline wrong")
	}
	if got := u.At(125); math.Abs(got-5) > 1e-12 {
		t.Errorf("mid-decay = %v, want 5", got)
	}
	if u.At(150) != 0 || u.At(200) != 0 {
		t.Error("post-extension utility should be 0")
	}
	if u.Horizon() != 150 {
		t.Error("horizon wrong")
	}
	// Zero extension degrades to a step.
	z := ExtendedStepUtility{Value: 10, Deadline: 100}
	if z.At(100.1) != 0 {
		t.Error("zero-extension should drop immediately")
	}
}

func TestDecayUtility(t *testing.T) {
	u := DecayUtility{Value: 4, Start: 0, Window: 100, Floor: 0.25}
	if u.At(0) != 4 || u.At(-5) != 4 {
		t.Error("value at start wrong")
	}
	if got := u.At(50); math.Abs(got-2.5) > 1e-12 { // 4*(1-0.5*0.75)
		t.Errorf("mid decay = %v, want 2.5", got)
	}
	if got := u.At(100); math.Abs(got-1) > 1e-12 {
		t.Errorf("floor = %v, want 1", got)
	}
	if got := u.At(1e6); math.Abs(got-1) > 1e-12 {
		t.Error("utility must not fall below floor")
	}
	if !math.IsInf(u.Horizon(), 1) {
		t.Error("positive floor should have infinite horizon")
	}
	nf := DecayUtility{Value: 4, Start: 10, Window: 100, Floor: 0}
	if nf.Horizon() != 110 {
		t.Error("zero-floor horizon wrong")
	}
}

func TestExpectedUtilityStepExact(t *testing.T) {
	// U(0,10) runtime, step utility with deadline at start+5:
	// E[U] = Value * P(T <= 5) = 10 * 0.5.
	d := dist.NewUniform(0, 10)
	u := StepUtility{Value: 10, Deadline: 5}
	if got := ExpectedUtility(d, u, 0, 2000); math.Abs(got-5) > 0.05 {
		t.Errorf("E[U] = %v, want ~5", got)
	}
	// Started at 2: P(T <= 3) = 0.3 -> 3.
	if got := ExpectedUtility(d, u, 2, 2000); math.Abs(got-3) > 0.05 {
		t.Errorf("E[U@2] = %v, want ~3", got)
	}
	// Started past the deadline: 0.
	if got := ExpectedUtility(d, u, 6, 100); got != 0 {
		t.Errorf("E[U@6] = %v, want 0", got)
	}
}

// TestExpectedUtilityPaperScenario reproduces the §4.3.4 numbers: for a
// U(0,10) SLO job with a 15-minute deadline, expected utility at start
// times {0,2.5,5,7.5,10,12.5,15} is {1,1,1,.75,.5,.25,0}.
func TestExpectedUtilityPaperScenario(t *testing.T) {
	d := dist.NewUniform(0, 10)
	u := StepUtility{Value: 1, Deadline: 15}
	want := map[float64]float64{0: 1, 2.5: 1, 5: 1, 7.5: 0.75, 10: 0.5, 12.5: 0.25, 15: 0}
	for start, w := range want {
		if got := ExpectedUtility(d, u, start, 4000); math.Abs(got-w) > 0.01 {
			t.Errorf("E[U@%v] = %v, want %v", start, got, w)
		}
	}
	// Scenario 2: U(2.5,7.5) keeps expected utility 1 through start 7.5.
	d2 := dist.NewUniform(2.5, 7.5)
	for _, start := range []float64{0, 2.5, 5, 7.5} {
		if got := ExpectedUtility(d2, u, start, 4000); math.Abs(got-1) > 0.01 {
			t.Errorf("scenario2 E[U@%v] = %v, want 1", start, got)
		}
	}
}

func TestExpectedUtilityPointDistribution(t *testing.T) {
	d := dist.NewPoint(30)
	u := StepUtility{Value: 7, Deadline: 100}
	if got := ExpectedUtility(d, u, 0, 0); math.Abs(got-7) > 1e-9 {
		t.Errorf("E[U] = %v, want 7", got)
	}
	if got := ExpectedUtility(d, u, 80, 0); got > 0.01 {
		t.Errorf("E[U@80] = %v, want ~0 (completes at 110)", got)
	}
	// Zero-runtime point distribution completes immediately.
	z := dist.NewPoint(0)
	if got := ExpectedUtility(z, u, 50, 0); math.Abs(got-7) > 1e-9 {
		t.Errorf("zero-runtime E[U] = %v, want 7", got)
	}
}

func TestExpectedUtilityExtendedKeepsImpossibleJobsAlive(t *testing.T) {
	// All historical runtimes exceed the remaining time to deadline: step
	// utility yields 0; the OE-extended utility must stay positive.
	d := dist.NewUniform(100, 200)
	step := StepUtility{Value: 10, Deadline: 50}
	ext := ExtendedStepUtility{Value: 10, Deadline: 50, Extension: 300}
	if got := ExpectedUtility(d, step, 0, 500); got != 0 {
		t.Errorf("step E[U] = %v, want 0", got)
	}
	got := ExpectedUtility(d, ext, 0, 500)
	if got <= 0 || got >= 10 {
		t.Errorf("extended E[U] = %v, want in (0,10)", got)
	}
}

func TestExpectedUtilityMonotoneInStart(t *testing.T) {
	d := dist.FromSamples([]float64{50, 80, 120, 200, 350})
	u := StepUtility{Value: 1, Deadline: 400}
	err := quick.Check(func(a, b float64) bool {
		s1 := math.Abs(math.Mod(a, 400))
		s2 := math.Abs(math.Mod(b, 400))
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		// Later start can never increase a deadline job's expected utility.
		return ExpectedUtility(d, u, s1, 200) >= ExpectedUtility(d, u, s2, 200)-1e-6
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestJobString(t *testing.T) {
	j := &Job{ID: 3, Class: SLO, Tasks: 2, Runtime: 60}
	if j.String() == "" {
		t.Error("empty String()")
	}
}

func TestPrefersPartitionProperty(t *testing.T) {
	err := quick.Check(func(raw []uint8, probe uint8) bool {
		set := map[int]bool{}
		var pref []int
		for _, v := range raw {
			p := int(v % 16)
			if !set[p] {
				set[p] = true
				pref = append(pref, p)
			}
		}
		sort.Ints(pref)
		j := &Job{Preferred: pref}
		p := int(probe % 16)
		return j.PrefersPartition(p) == (len(pref) == 0 || set[p])
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestExpectedUtilityNeverExceedsPeak(t *testing.T) {
	d := dist.FromSamples([]float64{10, 50, 200, 900})
	utils := []Utility{
		StepUtility{Value: 7, Deadline: 500},
		ExtendedStepUtility{Value: 7, Deadline: 500, Extension: 200},
		DecayUtility{Value: 7, Start: 0, Window: 100, Floor: 0.2},
	}
	err := quick.Check(func(s float64) bool {
		start := math.Abs(math.Mod(s, 1500))
		for _, u := range utils {
			eu := ExpectedUtility(d, u, start, 64)
			if eu < -1e-9 || eu > 7+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

// A Grid kept across integrations of one distribution — the scheduler keeps
// one per job and space class — gives bit for bit what a fresh integration
// gives: at start times that move forward (each cycle's now) and jump to
// later grid-aligned slots, for horizons that bind (the grid is taken again
// whenever the limit moves) and horizons that do not (it is reused), and
// for step counts stored inline and on the heap.
func TestGridReuseMatchesFreshIntegration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 300)
	for i := range samples {
		samples[i] = 30 + rng.ExpFloat64()*400
	}
	emp := dist.FromSamples(samples)
	dists := []dist.Distribution{emp, dist.NewScaled(emp, 1.5), dist.NewNormal(500, 150)}
	utils := []Utility{
		StepUtility{Value: 3, Deadline: 900}, // binds
		StepUtility{Value: 3, Deadline: 1e5}, // does not
		ExtendedStepUtility{Value: 3, Deadline: 900, Extension: 600},
		DecayUtility{Value: 2, Start: 0, Window: 1800, Floor: 0},    // binds
		DecayUtility{Value: 2, Start: 0, Window: 1800, Floor: 0.25}, // no horizon
	}
	reused, retaken := 0, 0
	for _, d := range dists {
		for _, u := range utils {
			for _, steps := range []int{48, 100} {
				var g Grid
				now := 0.0
				for c := 0; c < 300; c++ {
					now += 20 * rng.Float64()
					slot := (math.Floor(now/60) + float64(1+rng.Intn(5))) * 60
					for _, start := range []float64{now, slot} {
						key, n := g.upper, g.n
						got := g.ExpectedUtility(d, u, start, steps)
						want := ExpectedUtility(d, u, start, steps)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%v, %+v, %d steps, start %g: kept grid gives %g, fresh %g", d, u, steps, start, got, want)
						}
						switch {
						case g.upper != key || g.n != n:
							retaken++
						case n > 0:
							reused++
						}
					}
				}
			}
		}
	}
	if reused < 1000 || retaken < 1000 {
		t.Errorf("grid reused %d times, taken again %d times: one path is barely exercised", reused, retaken)
	}
}

// Check passes a Grid its own distribution gave and fails one kept past a
// change of distribution.
func TestGridCheck(t *testing.T) {
	d, other := dist.NewUniform(100, 2000), dist.NewUniform(100, 2500)
	var g Grid
	if err := g.Check(d); err != nil {
		t.Errorf("empty grid: %v", err)
	}
	g.ExpectedUtility(d, DecayUtility{Value: 1, Window: 600, Floor: 0.5}, 0, 48)
	if err := g.Check(d); err != nil {
		t.Errorf("grid of its own distribution: %v", err)
	}
	if err := g.Check(other); err == nil {
		t.Error("a grid checked against another distribution passed")
	}
}
