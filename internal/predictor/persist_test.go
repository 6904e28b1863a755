package predictor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"threesigma/internal/check"
	"threesigma/internal/job"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	p := New(Config{})
	jobs := []struct {
		user, name string
		tasks      int
		rt         float64
	}{
		{"alice", "etl", 4, 120},
		{"alice", "etl", 4, 130},
		{"alice", "etl", 4, 110},
		{"bob", "train", 16, 3000},
		{"bob", "train", 16, 3300},
	}
	for round := 0; round < 10; round++ {
		for _, jd := range jobs {
			p.Observe(mk(jd.user, jd.name, jd.tasks), jd.rt)
		}
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q := New(Config{})
	if err := q.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if q.GroupCount() != p.GroupCount() {
		t.Fatalf("groups %d != %d", q.GroupCount(), p.GroupCount())
	}
	for _, jd := range jobs {
		j := mk(jd.user, jd.name, jd.tasks)
		ep, eq := p.Estimate(j), q.Estimate(j)
		if eq.Novel {
			t.Fatalf("%s/%s novel after load", jd.user, jd.name)
		}
		if math.Abs(ep.Point-eq.Point) > 1e-9 {
			t.Errorf("point %v != %v", ep.Point, eq.Point)
		}
		if math.Abs(ep.Dist.Mean()-eq.Dist.Mean()) > 1e-9 {
			t.Errorf("dist mean %v != %v", ep.Dist.Mean(), eq.Dist.Mean())
		}
		if ep.Expert != eq.Expert || ep.Samples != eq.Samples {
			t.Errorf("expert/samples differ: %v/%d vs %v/%d", ep.Expert, ep.Samples, eq.Expert, eq.Samples)
		}
	}
	// The restored predictor keeps learning normally.
	q.Observe(mk("alice", "etl", 4), 125)
	if e := q.Estimate(mk("alice", "etl", 4)); e.Samples != 31 {
		t.Errorf("samples after continued training = %d, want 31", e.Samples)
	}
}

// TestRoundTripEstimatePerFeatureGroup trains on a workload diverse enough
// to populate every feature group with distinct histories, then
// checks that Save→Load reproduces the full Estimate — winning expert,
// point, sample count, and distribution quantiles — for probe jobs whose
// only usable history lives in each individual feature group.
func TestRoundTripEstimatePerFeatureGroup(t *testing.T) {
	p := New(Config{})
	rng := rand.New(rand.NewSource(11))
	users := []string{"alice", "bob", "carol"}
	names := []string{"etl", "train", "report"}
	for i := 0; i < 400; i++ {
		j := &job.Job{
			User:     users[rng.Intn(len(users))],
			Name:     names[rng.Intn(len(names))],
			Tasks:    1 << rng.Intn(6),
			Priority: rng.Intn(3),
		}
		// Runtime depends on every attribute so each feature group's
		// sketch is distinct.
		rt := 60 + 40*float64(len(j.User)) + 25*float64(len(j.Name)) +
			3*float64(j.Tasks) + 200*float64(j.Priority) + rng.Float64()*30
		p.Observe(j, rt)
	}

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q := New(Config{})
	if err := q.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if q.GroupCount() != p.GroupCount() {
		t.Fatalf("group count %d != %d", q.GroupCount(), p.GroupCount())
	}

	// Each probe matches exactly one trained feature value (plus the
	// catch-all): unknown attributes elsewhere force expert selection into
	// that group, exercising its restored sketch in isolation.
	probes := map[string]*job.Job{
		"user":           {User: "alice", Name: "zzz-new", Tasks: 999, Priority: 9},
		"name":           {User: "zzz-new", Name: "train", Tasks: 999, Priority: 9},
		"user+name":      {User: "bob", Name: "report", Tasks: 999, Priority: 9},
		"resources":      {User: "zzz-new", Name: "zzz-new", Tasks: 16, Priority: 9},
		"user+resources": {User: "carol", Name: "zzz-new", Tasks: 8, Priority: 9},
		"priority":       {User: "zzz-new", Name: "zzz-new", Tasks: 999, Priority: 2},
		"all":            {User: "zzz-new", Name: "zzz-new", Tasks: 999, Priority: 9},
	}
	//lint:allow detrange independent per-probe assertions; order immaterial
	for feat, j := range probes {
		ep, eq := p.Estimate(j), q.Estimate(j)
		if eq.Novel != ep.Novel {
			t.Errorf("%s: novel %v != %v", feat, eq.Novel, ep.Novel)
		}
		if eq.Expert != ep.Expert {
			t.Errorf("%s: expert %q != %q", feat, eq.Expert, ep.Expert)
		}
		if eq.Samples != ep.Samples {
			t.Errorf("%s: samples %d != %d", feat, eq.Samples, ep.Samples)
		}
		if math.Abs(eq.Point-ep.Point) > 1e-12 {
			t.Errorf("%s: point %v != %v", feat, eq.Point, ep.Point)
		}
		for _, quant := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
			a, b := ep.Dist.Quantile(quant), eq.Dist.Quantile(quant)
			if math.Abs(a-b) > 1e-12 {
				t.Errorf("%s: q%.2f %v != %v", feat, quant, a, b)
			}
		}
	}
}

// TestLoadRejectsVersionMismatchOnRealPayload mutates the version field of
// an otherwise-valid save and checks both the rejection and that the target
// predictor's existing state survives the failed load untouched.
func TestLoadRejectsVersionMismatchOnRealPayload(t *testing.T) {
	p := New(Config{})
	for i := 0; i < 30; i++ {
		p.Observe(mk("alice", "etl", 4), 100+float64(i))
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = json.RawMessage(fmt.Sprint(persistVersion + 1))
	mutated, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}

	q := New(Config{})
	q.Observe(mk("bob", "train", 16), 500)
	before := q.Estimate(mk("bob", "train", 16))
	if err := q.Load(bytes.NewReader(mutated)); err == nil {
		t.Fatal("future persistVersion should be rejected")
	}
	after := q.Estimate(mk("bob", "train", 16))
	if after.Novel || after.Point != before.Point || after.Samples != before.Samples {
		t.Errorf("failed load mutated predictor: %+v -> %+v", before, after)
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	p := New(Config{})
	if err := p.Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail")
	}
	if err := p.Load(strings.NewReader(`{"version":99,"groups":[]}`)); err == nil {
		t.Error("wrong version should fail")
	}
	if err := p.Load(strings.NewReader(`{"version":1,"groups":[]}`)); err == nil {
		t.Error("feature-count mismatch should fail")
	}
}

func TestSaveEmptyPredictor(t *testing.T) {
	p := New(Config{})
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q := New(Config{})
	if err := q.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if !q.Estimate(mk("x", "y", 1)).Novel {
		t.Error("empty restored predictor should be novel")
	}
}

// TestLoadRepairsCorruptHistogram feeds Load a checkpoint whose histogram
// bins were corrupted in the repairable ways a buggy writer can produce
// through JSON (unsorted order, non-positive counts): Load must succeed and
// hand every group a sketch that passes the full invariant verifier, with
// the dead bins dropped — never a silently corrupt binary-search structure.
func TestLoadRepairsCorruptHistogram(t *testing.T) {
	p := New(Config{})
	for i := 0; i < 30; i++ {
		p.Observe(mk("alice", "etl", 4), 100+float64(i%7)*30)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}

	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, groups := range raw["groups"].([]any) {
		//lint:allow detrange every multi-bin group is mutated the same way; order immaterial
		for _, gv := range groups.(map[string]any) {
			hist := gv.(map[string]any)["hist"].(map[string]any)
			bins := hist["bins"].([]any)
			if len(bins) < 2 {
				continue
			}
			// Reverse the bin order and kill the first bin's count.
			for i, j := 0, len(bins)-1; i < j; i, j = i+1, j-1 {
				bins[i], bins[j] = bins[j], bins[i]
			}
			bins[0].(map[string]any)["count"] = -3.5
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("test setup produced no multi-bin histograms to corrupt")
	}
	mutated, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}

	q := New(Config{})
	if err := q.Load(bytes.NewReader(mutated)); err != nil {
		t.Fatalf("load repairable corruption: %v", err)
	}
	//lint:allow guardedfield single-goroutine white-box test; no concurrent access to q
	for fi, m := range q.groups {
		//lint:allow detrange independent per-group verification; order immaterial
		for val, g := range m {
			if err := check.VerifyHistogram(g.hist); err != nil {
				t.Errorf("feature %d group %q: restored sketch corrupt: %v", fi, val, err)
			}
		}
	}
	est := q.Estimate(mk("alice", "etl", 4))
	if est.Novel || math.IsNaN(est.Point) || est.Point <= 0 {
		t.Errorf("estimate after repair = %+v", est)
	}
}

// TestLoadStreamWithNMAEDecay: testdata/save-decay.json is a Save stream
// written when expert scores could decay, so every NMAE entry carries
// "decay": 1. It loads into a predictor that answers every query as one fed
// the same 40 observations does, and saves as that predictor saves.
func TestLoadStreamWithNMAEDecay(t *testing.T) {
	data, err := os.ReadFile("testdata/save-decay.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"decay":1`)) {
		t.Fatal("the fixture carries no NMAE decay")
	}
	loaded := New(Config{})
	if err := loaded.Load(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	fed := New(Config{})
	for i := 0; i < 40; i++ {
		fed.Observe(mk(fmt.Sprintf("u%d", i%2), fmt.Sprintf("app%d", i%3), 1+i%3), float64(50+(i*37)%200))
	}
	var a, b bytes.Buffer
	if err := loaded.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := fed.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("the loaded predictor saves differently from the fed one")
	}
	for _, j := range []*job.Job{mk("u0", "app0", 1), mk("u1", "app2", 3), mk("u1", "app1", 8), mk("new", "x", 1)} {
		got, want := loaded.Estimate(j), fed.Estimate(j)
		if got.Point != want.Point || got.Expert != want.Expert || got.Samples != want.Samples {
			t.Errorf("%s/%s: loaded %v %s %d, fed %v %s %d", j.User, j.Name,
				got.Point, got.Expert, got.Samples, want.Point, want.Expert, want.Samples)
		}
		for _, x := range []float64{60, 120, 240} {
			if got.Dist.CDF(x) != want.Dist.CDF(x) {
				t.Errorf("%s/%s: CDF(%v) loaded %v, fed %v", j.User, j.Name, x, got.Dist.CDF(x), want.Dist.CDF(x))
			}
		}
	}
}
