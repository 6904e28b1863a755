package experiments

import (
	"strings"
	"testing"

	"threesigma/internal/metrics"
	"threesigma/internal/workload"
)

// tiny returns a scale small enough for unit tests (seconds total).
func tiny() Scale {
	sc := Small()
	sc.DurationHours = 0.25
	sc.DrainWindow = 900
	sc.TraceJobs = 1500
	return sc
}

func TestRunAllSystems(t *testing.T) {
	sc := tiny()
	w := workload.Generate(sc.WorkloadConfig(3))
	for _, sys := range append(CoreSystems(), SysNoDist, SysNoOE, SysNoAdapt) {
		res, err := Run(sys, w, sc.config(3))
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		r := res.Report
		if r.SLOJobs+r.BEJobs != len(w.Jobs) {
			t.Errorf("%s: job accounting wrong: %d+%d != %d", sys, r.SLOJobs, r.BEJobs, len(w.Jobs))
		}
		if r.CompletedSLO+r.CompletedBE == 0 {
			t.Errorf("%s: nothing completed", sys)
		}
		if sys != SysPrio && res.Stats.Cycles == 0 {
			t.Errorf("%s: no scheduler cycles recorded", sys)
		}
	}
}

func TestRunUnknownSystem(t *testing.T) {
	sc := tiny()
	w := workload.Generate(sc.WorkloadConfig(3))
	if _, err := Run(System("bogus"), w, sc.config(0)); err == nil {
		t.Fatal("unknown system should error")
	}
}

func TestEndToEndProducesFourRows(t *testing.T) {
	rows, err := EndToEnd(tiny(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := FormatEndToEnd("Fig 1", rows)
	for _, sys := range CoreSystems() {
		if !strings.Contains(out, string(sys)) {
			t.Errorf("output missing %s", sys)
		}
	}
}

func TestTable2Deltas(t *testing.T) {
	rows, err := Table2(tiny(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DeltaSLOMiss < 0 || r.DeltaGoodput < 0 || r.DeltaBELat < 0 {
			t.Errorf("deltas must be absolute: %+v", r)
		}
	}
	if !strings.Contains(FormatTable2(rows), "real − sim") {
		t.Error("table header missing")
	}
}

func TestFig2AnalysesAllEnvironments(t *testing.T) {
	rs := Fig2(tiny(), 6)
	if len(rs) != 3 {
		t.Fatalf("environments = %d", len(rs))
	}
	for _, r := range rs {
		if r.Errors.N == 0 {
			t.Errorf("%s: no scored estimates", r.Env)
		}
		if r.RuntimeP99 <= r.RuntimeP50 {
			t.Errorf("%s: p99 %v <= p50 %v", r.Env, r.RuntimeP99, r.RuntimeP50)
		}
		if len(r.RuntimeCDF) == 0 || len(r.CoVUserSorted) == 0 {
			t.Errorf("%s: missing curves", r.Env)
		}
	}
	out := FormatFig2(rs)
	for _, env := range []string{"Google", "HedgeFund", "Mustang"} {
		if !strings.Contains(out, env) {
			t.Errorf("Fig2 output missing %s", env)
		}
	}
}

func TestFig8SweepShape(t *testing.T) {
	pts, err := Fig8(tiny(), 7, []int{40, 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*len(AblationSystems()) {
		t.Fatalf("points = %d", len(pts))
	}
	out := FormatFig8(pts)
	if !strings.Contains(out, "Fig 8a") || !strings.Contains(out, "3SigmaNoOE") {
		t.Error("Fig8 format incomplete")
	}
}

func TestFig9PerturbationSeries(t *testing.T) {
	pts, err := Fig9(tiny(), 8, []int{0, 50}, []int{-1, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	out := FormatFig9(pts)
	if !strings.Contains(out, "point") || !strings.Contains(out, "CoV=20%") {
		t.Errorf("Fig9 format incomplete:\n%s", out)
	}
}

func TestFig10And11Sweeps(t *testing.T) {
	pts, err := Fig10(tiny(), 9, []float64{1.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("fig10 points = %d", len(pts))
	}
	if !strings.Contains(FormatFig10(pts), "Fig 10a") {
		t.Error("Fig10 format incomplete")
	}
	pts11, err := Fig11(tiny(), 10, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts11) != 4 {
		t.Fatalf("fig11 points = %d", len(pts11))
	}
	if !strings.Contains(FormatFig11(pts11), "Fig 11a") {
		t.Error("Fig11 format incomplete")
	}
}

func TestFig12ScalabilityTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("scalability run is slow")
	}
	pts, err := Fig12(11, []int{600}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.MaxModelVars == 0 {
			t.Errorf("model stats missing: %+v", p)
		}
	}
	if !strings.Contains(FormatFig12(pts), "12,583-node") {
		t.Error("Fig12 format incomplete")
	}
}

func TestParallelEachErrors(t *testing.T) {
	err := parallelEach(8, func(i int) error {
		if i == 3 {
			return errTest
		}
		return nil
	})
	if err != errTest {
		t.Fatalf("err = %v", err)
	}
	if err := parallelEach(1, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }

func TestAblations(t *testing.T) {
	sc := tiny()
	pts, err := AblationPlanAhead(sc, 12, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Label != "slots=1" {
		t.Fatalf("plan-ahead points = %+v", pts)
	}
	out := FormatAblation("x", pts)
	if !strings.Contains(out, "slots=4") {
		t.Error("format incomplete")
	}
	wpts, err := AblationWarmStart(sc, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(wpts) != 2 || wpts[1].Label != "cold-start" {
		t.Fatalf("warm-start points = %+v", wpts)
	}
}

func TestAblationExactShares(t *testing.T) {
	pts, err := AblationExactShares(tiny(), 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[1].Label != "exact-shares" {
		t.Fatalf("points = %+v", pts)
	}
}

// TestHeadlineOrdering locks in the paper's headline result (Fig. 1): with
// realistic estimates, distribution-based scheduling beats the
// point-estimate state of the art on SLO misses and sits near the perfect-
// estimate hypothetical. Runs a reduced Medium configuration; skipped in
// -short mode.
func TestHeadlineOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute end-to-end comparison")
	}
	sc := Medium()
	sc.DurationHours = 1
	sc.Repeats = 2
	rows, err := EndToEnd(sc, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	get := func(sys System) metrics.Report {
		for _, r := range rows {
			if r.System == string(sys) {
				return r
			}
		}
		t.Fatalf("missing %s", sys)
		return metrics.Report{}
	}
	threeSigma := get(Sys3Sigma)
	perf := get(SysPointPerfEst)
	real := get(SysPointRealEst)
	prio := get(SysPrio)
	if threeSigma.SLOMissRate >= real.SLOMissRate {
		t.Errorf("3Sigma miss %.1f%% should beat PointRealEst %.1f%%",
			threeSigma.SLOMissRate, real.SLOMissRate)
	}
	// 3Sigma approaches (within 1.6x of) the hypothetical perfect scheduler.
	if threeSigma.SLOMissRate > perf.SLOMissRate*1.6+3 {
		t.Errorf("3Sigma miss %.1f%% too far above PointPerfEst %.1f%%",
			threeSigma.SLOMissRate, perf.SLOMissRate)
	}
	// Prio pays for runtime-unawareness in best-effort latency.
	if prio.MeanBELatency <= threeSigma.MeanBELatency {
		t.Errorf("Prio BE latency %.0fs should exceed 3Sigma's %.0fs",
			prio.MeanBELatency, threeSigma.MeanBELatency)
	}
}

// TestFig9DistributionsBeatPointAtZeroShift locks in the paper's central
// Fig. 9 claim at the unbiased point: with accurate centers, scheduling on
// distributions produces fewer SLO misses than point estimates.
func TestFig9DistributionsBeatPointAtZeroShift(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison")
	}
	sc := Medium()
	sc.DurationHours = 1
	sc.Repeats = 2
	pts, err := Fig9(sc, 3, []int{0}, []int{-1, 10})
	if err != nil {
		t.Fatal(err)
	}
	var point, dist10 float64
	for _, p := range pts {
		if p.CoVPct < 0 {
			point = p.Report.SLOMissRate
		} else {
			dist10 = p.Report.SLOMissRate
		}
	}
	if dist10 >= point {
		t.Errorf("CoV=10%% miss %.1f%% should beat point %.1f%% at zero shift", dist10, point)
	}
}
