package check

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"threesigma/internal/dist"
	"threesigma/internal/histogram"
	"threesigma/internal/milp"
)

// TestDifferentialOracle is the CI gate: THREESIGMA_ORACLE_MODELS seeded
// instances (default 200, seed THREESIGMA_ORACLE_SEED, default 1), each
// solved cold, re-solved from its own root basis, and — where small and
// all-binary — held to the exhaustively enumerated optimum. On the seed-1
// corpus the cold outcomes are also held to pinnedCorpus. See
// scripts/ci.sh.
func TestDifferentialOracle(t *testing.T) {
	opt := OracleOptions{}
	if v := os.Getenv("THREESIGMA_ORACLE_MODELS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("THREESIGMA_ORACLE_MODELS=%q: %v", v, err)
		}
		opt.Models = n
	} else if testing.Short() {
		opt.Models = 25
	}
	if v := os.Getenv("THREESIGMA_ORACLE_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("THREESIGMA_ORACLE_SEED=%q: %v", v, err)
		}
		opt.Seed = s
	}
	outs, err := RunOracle(opt)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Seed == 0 || opt.Seed == 1 {
		checkPinned(t, outs)
	}
}

// pinnedCorpus holds, one "index status objective" line per model, what the
// cold solve returned on the first 200 models of the seed-1 corpus at the
// oracle's budget of 64 nodes. It was written once, by the solver of the
// commit before branch-and-bound children were re-solved from their parent's
// tableau (DESIGN.md §6, §9), and nothing rewrites it.
const pinnedCorpus = "testdata/oracle_corpus_m64.txt"

// checkPinned holds a seed-1 run's outcomes to pinnedCorpus: a change to how
// nodes are solved may move the search, but every model must stay proved
// (Optimal or Infeasible) or unproved as it was, and every proved optimum
// must be the one it was.
func checkPinned(t *testing.T, outs []Outcome) {
	data, err := os.ReadFile(pinnedCorpus)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	proved := func(s string) bool { return s == milp.Optimal.String() || s == milp.Infeasible.String() }
	for i, got := range outs[:min(len(outs), len(lines))] {
		var n int
		var status string
		var obj float64
		if _, err := fmt.Sscan(lines[i], &n, &status, &obj); err != nil || n != i {
			t.Fatalf("%s line %d: %q", pinnedCorpus, i+1, lines[i])
		}
		if proved(status) != proved(got.Status.String()) {
			t.Errorf("model %d: %v, pinned %s", i, got.Status, status)
		}
		if status == milp.Optimal.String() && (got.Status != milp.Optimal || math.Abs(got.Objective-obj) > 1e-9*math.Max(1, math.Abs(obj))) {
			t.Errorf("model %d: %v %v, pinned optimal %v", i, got.Status, got.Objective, obj)
		}
	}
}

// TestEnumerateFindsOptimum pins the exhaustive reference on an instance
// small enough to solve by eye, and its refusals.
func TestEnumerateFindsOptimum(t *testing.T) {
	m := &milp.Model{}
	a := m.AddVar(milp.Binary, 5, "a")
	b := m.AddVar(milp.Binary, 4, "b")
	c := m.AddVar(milp.Binary, 3, "c")
	p := m.AddVar(milp.Binary, -0.5, "p")
	m.AddLE("dem[j0]", []int{a, b}, []float64{1, 1}, 1)
	m.AddLE("dem[j1]", []int{c}, []float64{1}, 1)
	m.AddLE("ub[P0]", []int{p}, []float64{1}, 1)
	// b+c fits as it is and scores 7; a+c fits only once the credit p is
	// bought, and still wins: 5+3-0.5.
	m.AddLE("cap[p0,t0]", []int{a, b, c, p}, []float64{4, 2, 2, -2}, 4)
	best, feasible, ok := enumerate(m, 1000)
	if !ok || !feasible || best != 7.5 {
		t.Fatalf("enumerate = (%v, %v, %v), want optimum 7.5", best, feasible, ok)
	}
	if _, _, ok := enumerate(m, 11); ok {
		t.Error("12 combinations enumerated under a limit of 11")
	}
	m.AddVar(milp.Continuous, 0, "x")
	if _, _, ok := enumerate(m, 1000); ok {
		t.Error("a model with a continuous variable was enumerated")
	}
	// The oracle's use of it: the solver's claim against the truth.
	if err := checkAgainstOptimum(&milp.Solution{Status: milp.Optimal, Objective: 6}, 7, true); err == nil {
		t.Error("Optimal at 6 accepted against an optimum of 7")
	}
	if err := checkAgainstOptimum(&milp.Solution{Status: milp.Feasible, Objective: 6, Bound: 6.5}, 7, true); err == nil {
		t.Error("Feasible with bound 6.5 accepted against an optimum of 7")
	}
	if err := checkAgainstOptimum(&milp.Solution{Status: milp.Feasible, Objective: 6, Bound: 8}, 7, true); err != nil {
		t.Errorf("Feasible 6 <= 7 <= 8 rejected: %v", err)
	}
}

// TestGenModelShapes sanity-checks the generator itself: over a batch of
// draws it must produce every structural shape the oracle claims to span.
func TestGenModelShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sawContinuous, sawNegObj, sawNegCoef bool
	for i := 0; i < 50; i++ {
		m := GenModel(rng)
		if m.NumVars() == 0 || m.NumRows() == 0 {
			t.Fatalf("draw %d: degenerate model (%d vars, %d rows)", i, m.NumVars(), m.NumRows())
		}
		if m.NumBinary() == 0 {
			t.Fatalf("draw %d: no binary variables", i)
		}
		for v := 0; v < m.NumVars(); v++ {
			if m.Kind(v) == milp.Continuous {
				sawContinuous = true
			}
		}
		for _, r := range m.Rows() {
			for _, c := range r.Coef {
				if c < 0 && len(r.Name) >= 4 && r.Name[:4] == "cap[" {
					sawNegCoef = true
				}
			}
		}
		sol := milp.Solve(m, milp.Options{MaxNodes: 16})
		if sol.Status == milp.Optimal || sol.Status == milp.Feasible {
			if !m.Feasible(sol.X, 1e-6) {
				t.Fatalf("draw %d: infeasible incumbent", i)
			}
		}
		_ = sawNegObj
	}
	if !sawContinuous {
		t.Error("50 draws produced no ExactShares continuous variables")
	}
	if !sawNegCoef {
		t.Error("50 draws produced no preemption credits in capacity rows")
	}
}

// TestVerifyHistogram exercises the verifier on healthy sketches across
// regimes (few samples, heavy merge pressure, weighted mass).
func TestVerifyHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		maxBins := 4 + rng.Intn(60)
		h := histogram.New(maxBins)
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			v := rng.ExpFloat64() * 1000
			if rng.Float64() < 0.2 {
				h.AddWeighted(v, 0.5+rng.Float64())
			} else {
				h.Add(v)
			}
		}
		if err := VerifyHistogram(h); err != nil {
			t.Fatalf("trial %d (maxBins=%d, n=%d): %v", trial, maxBins, n, err)
		}
	}
	if err := VerifyHistogram(histogram.New(8)); err != nil {
		t.Fatalf("empty histogram: %v", err)
	}
}

// TestVerifyConditional exercises the verifier across base distributions
// and elapsed times, including the exhausted regime.
func TestVerifyConditional(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bases := []dist.Distribution{
		dist.NewPoint(120),
		dist.NewUniform(60, 600),
		dist.NewNormal(300, 90),
		dist.FromSamples([]float64{30, 45, 45, 120, 300, 900, 2400}),
	}
	for _, b := range bases {
		for trial := 0; trial < 16; trial++ {
			elapsed := rng.Float64() * b.Max() * 1.2 // sometimes past Max: exhausted
			c := dist.NewConditional(b, elapsed)
			if err := VerifyConditional(c); err != nil {
				t.Fatalf("base %v, elapsed %g: %v", b, elapsed, err)
			}
		}
	}
}
