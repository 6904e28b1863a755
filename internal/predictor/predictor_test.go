package predictor

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"threesigma/internal/job"
	"threesigma/internal/stats"
)

func mk(user, name string, tasks int) *job.Job {
	return &job.Job{User: user, Name: name, Tasks: tasks}
}

func TestNovelJobGetsDefault(t *testing.T) {
	p := New(Config{})
	e := p.Estimate(mk("alice", "train", 4))
	if !e.Novel {
		t.Fatal("expected novel estimate")
	}
	if e.Point != defaultRuntime {
		t.Errorf("Point = %v, want %v", e.Point, defaultRuntime)
	}
	if e.Dist.Max() != 2*defaultRuntime {
		t.Errorf("default dist max = %v, want %v", e.Dist.Max(), 2*defaultRuntime)
	}
}

func TestLearnsRecurringJob(t *testing.T) {
	p := New(Config{})
	j := mk("alice", "etl", 8)
	for i := 0; i < 30; i++ {
		p.Observe(j, 100)
	}
	e := p.Estimate(mk("alice", "etl", 8))
	if e.Novel {
		t.Fatal("job with history must not be novel")
	}
	if math.Abs(e.Point-100) > 1 {
		t.Errorf("Point = %v, want ~100", e.Point)
	}
	if math.Abs(e.Dist.Mean()-100) > 1 {
		t.Errorf("dist mean = %v, want ~100", e.Dist.Mean())
	}
	if e.Samples != 30 {
		t.Errorf("Samples = %d, want 30", e.Samples)
	}
	if e.Expert == "" {
		t.Error("expert should be named")
	}
}

func TestDistributionSnapshotIsImmutable(t *testing.T) {
	p := New(Config{})
	j := mk("bob", "sim", 2)
	for i := 0; i < 10; i++ {
		p.Observe(j, 50)
	}
	e := p.Estimate(j)
	before := e.Dist.Mean()
	for i := 0; i < 50; i++ {
		p.Observe(j, 5000)
	}
	if after := e.Dist.Mean(); after != before {
		t.Errorf("snapshot mutated: %v -> %v", before, after)
	}
}

func TestExpertSelectionPrefersPredictiveFeature(t *testing.T) {
	p := New(Config{})
	// User "carol" runs two very different programs; the per-name history
	// is predictive, the per-user history is not.
	for i := 0; i < 40; i++ {
		p.Observe(mk("carol", "fast", 1), 10)
		p.Observe(mk("carol", "slow", 1), 1000)
	}
	e := p.Estimate(mk("carol", "fast", 1))
	if math.Abs(e.Point-10) > 5 {
		t.Errorf("Point = %v, want ~10 (name-based expert)", e.Point)
	}
	if e.Dist.Mean() > 100 {
		t.Errorf("dist mean = %v; expert should have chosen the name group", e.Dist.Mean())
	}
}

func TestRollingTracksDrift(t *testing.T) {
	p := New(Config{})
	j := mk("dave", "drift", 1)
	// Runtime drifts upward; the rolling estimator should win and the
	// estimate should be closer to recent values than the global mean.
	rt := 100.0
	for i := 0; i < 60; i++ {
		p.Observe(j, rt)
		rt *= 1.05
	}
	e := p.Estimate(j)
	globalMean := 0.0
	v := 100.0
	for i := 0; i < 60; i++ {
		globalMean += v
		v *= 1.05
	}
	globalMean /= 60
	finalRt := 100 * math.Pow(1.05, 59)
	if math.Abs(e.Point-finalRt) > math.Abs(e.Point-globalMean) {
		t.Errorf("Point %v closer to stale mean %v than recent %v", e.Point, globalMean, finalRt)
	}
}

func TestUnscoredHistoryFallsBackToBiggestGroup(t *testing.T) {
	p := New(Config{})
	// A single observation creates history but no scored expert.
	p.Observe(mk("erin", "once", 2), 77)
	e := p.Estimate(mk("erin", "once", 2))
	if e.Novel {
		t.Fatal("should not be novel")
	}
	if math.Abs(e.Point-77) > 1e-9 {
		t.Errorf("Point = %v, want 77", e.Point)
	}
}

func TestObserveIgnoresInvalidRuntimes(t *testing.T) {
	p := New(Config{})
	j := mk("frank", "x", 1)
	p.Observe(j, -5)
	p.Observe(j, 0)
	p.Observe(j, math.NaN())
	if e := p.Estimate(j); !e.Novel {
		t.Error("invalid runtimes must not create history")
	}
}

func TestConstantMemoryPerGroup(t *testing.T) {
	p := New(Config{})
	j := mk("grace", "big", 1)
	for i := 0; i < 100000; i++ {
		p.Observe(j, float64(1+i%1000))
	}
	// 7 features, each one group for this job.
	if got := p.GroupCount(); got != len(features) {
		t.Errorf("GroupCount = %d, want %d", got, len(features))
	}
	e := p.Estimate(j)
	if e.Samples != 100000 {
		t.Errorf("Samples = %d", e.Samples)
	}
}

func TestEstimatorKindString(t *testing.T) {
	names := map[EstimatorKind]string{
		EstAverage: "average", EstMedian: "median", EstRolling: "rolling",
		EstRecentAvg: "recent-avg", EstimatorKind(9): "unknown",
	}
	//lint:allow detrange independent per-entry assertions; order immaterial
	for k, want := range names {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
}

func TestTasksBucket(t *testing.T) {
	cases := map[int]string{1: "<=1", 2: "<=2", 3: "<=4", 9: "<=16", 16: "<=16"}
	//lint:allow detrange independent per-entry assertions; order immaterial
	for k, want := range cases {
		if got := string(tasksBucket(nil, k)); got != want {
			t.Errorf("tasksBucket(%d) = %q, want %q", k, got, want)
		}
	}
}

func TestMultiModalDistributionCaptured(t *testing.T) {
	p := New(Config{})
	j := mk("heidi", "bimodal", 1)
	for i := 0; i < 50; i++ {
		p.Observe(j, 100)
		p.Observe(j, 900)
	}
	e := p.Estimate(j)
	// CDF must show both modes: ~half the mass below 500.
	if c := e.Dist.CDF(500); math.Abs(c-0.5) > 0.1 {
		t.Errorf("CDF(500) = %v, want ~0.5", c)
	}
	if e.Dist.Max() < 850 {
		t.Errorf("Max = %v should reach the upper mode", e.Dist.Max())
	}
}

// TestEstimateErrorProfileImprovesWithHistory is a coarse end-to-end check
// that the NMAE-scored expert machinery actually reduces estimate error as
// history accumulates, which is the mechanism the whole paper builds on.
func TestEstimateErrorProfileImprovesWithHistory(t *testing.T) {
	rng := stats.NewRand(9)
	p := New(Config{})
	var early, late []float64
	for i := 0; i < 600; i++ {
		u := fmt.Sprintf("user%d", i%5)
		n := fmt.Sprintf("app%d", i%17)
		jb := mk(u, n, 1+i%8)
		truth := 100 * float64(1+i%17) * math.Exp(0.2*rng.NormFloat64())
		est := p.Estimate(jb)
		if !est.Novel {
			relErr := math.Abs(est.Point-truth) / truth
			if i < 200 {
				early = append(early, relErr)
			} else if i >= 400 {
				late = append(late, relErr)
			}
		}
		p.Observe(jb, truth)
	}
	if len(late) == 0 || len(early) == 0 {
		t.Fatal("no estimates scored")
	}
	if stats.Median(late) > stats.Median(early) {
		t.Errorf("median rel. error got worse with history: early=%v late=%v",
			stats.Median(early), stats.Median(late))
	}
	if stats.Median(late) > 0.5 {
		t.Errorf("late median rel. error %v too high for recurring jobs", stats.Median(late))
	}
}

// TestRecentMedianMatchesStatsMedian: the EstMedian estimate, read off the
// sorted companion of the recent window, is stats.Median of the ring, bit
// for bit, at every step of random streams — short ones that never fill the
// ring, long ones that wrap it many times, streams with many repeated
// values — and, after a Save/Load round trip part-way through, on the
// loaded predictor as it keeps observing the same stream.
func TestRecentMedianMatchesStatsMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checkGroups := func(step int, p *Predictor) {
		t.Helper()
		p.mu.Lock()
		defer p.mu.Unlock()
		for fi, m := range p.groups {
			for _, val := range sortedKeys(m) {
				g := m[val]
				want := stats.Median(g.recentValues())
				if got := g.estimate(EstMedian); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d, feature %d group %q: median %v, stats.Median %v of %v", step, fi, val, got, want, g.recentValues())
				}
			}
		}
	}
	for stream := 0; stream < 40; stream++ {
		n := 1 + rng.Intn(5*recentK)
		draw := func() float64 { return 1 + 1000*rng.Float64() }
		if stream%3 == 0 {
			draw = func() float64 { return float64(1 + rng.Intn(4)) } // repeated values
		}
		p := New(Config{})
		var q *Predictor
		cut := rng.Intn(n)
		for i := 0; i < n; i++ {
			j := mk(fmt.Sprintf("u%d", rng.Intn(3)), "job", 1+rng.Intn(8))
			rt := draw()
			p.Observe(j, rt)
			checkGroups(i, p)
			if q != nil {
				q.Observe(j, rt)
				checkGroups(i, q)
			}
			if i == cut {
				var buf bytes.Buffer
				if err := p.Save(&buf); err != nil {
					t.Fatal(err)
				}
				q = New(Config{})
				if err := q.Load(&buf); err != nil {
					t.Fatal(err)
				}
				checkGroups(i, q)
			}
		}
	}
}
