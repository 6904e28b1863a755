package predictor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestLoadRejectsVersionMismatchOnRealPayload mutates the version byte of
// an otherwise-valid save and checks both the rejection and that the target
// predictor's existing state survives the failed load untouched.
func TestLoadRejectsVersionMismatchOnRealPayload(t *testing.T) {
	p := New(Config{})
	for i := 0; i < 30; i++ {
		p.Observe(mk("alice", "etl", 4), 100+float64(i))
	}
	mutated := saveBytes(t, p)
	if mutated[len(persistMagic)] != persistVersion {
		t.Fatalf("the version byte is %d, want %d", mutated[len(persistMagic)], persistVersion)
	}
	mutated[len(persistMagic)]++

	q := New(Config{})
	q.Observe(mk("bob", "train", 16), 500)
	before, beforeEst := saveBytes(t, q), q.Estimate(mk("bob", "train", 16))
	if err := q.Load(bytes.NewReader(mutated)); err == nil {
		t.Fatal("a future persistVersion should be rejected")
	}
	after := q.Estimate(mk("bob", "train", 16))
	if after.Novel || after.Point != beforeEst.Point || after.Samples != beforeEst.Samples {
		t.Errorf("failed load mutated predictor: %+v -> %+v", beforeEst, after)
	}
	if !bytes.Equal(saveBytes(t, q), before) {
		t.Error("failed load changed the predictor's Save bytes")
	}
}

// TestLoadRejectsBadInput: a stream Save could not have written fails to
// load — garbage, a JSON stream (the format Save wrote before the binary
// one), a damaged binary stream, a ring Observe could never leave — and
// leaves the predictor as it was.
func TestLoadRejectsBadInput(t *testing.T) {
	target := func() *Predictor {
		p := New(Config{})
		p.Observe(mk("bob", "train", 16), 500)
		return p
	}
	before := saveBytes(t, target())
	q := New(Config{})
	for i := 0; i < recentK+3; i++ {
		q.Observe(mk("alice", "etl", 4), 100+float64(i))
	}
	good := saveBytes(t, q)
	ring := func(damage func(*groupState)) []byte { return damagedStream(q, damage) }
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"garbage", []byte("not json")},
		{"JSON stream", []byte(`{"version":1,"groups":[{},{},{},{},{},{},{}]}`)},
		{"magic alone", []byte(persistMagic)},
		{"no features", append([]byte(persistMagic), persistVersion)},
		{"truncated", good[:len(good)-1]},
		{"trailing byte", append(slices.Clone(good), 0)},
		{"one feature", append([]byte(persistMagic), persistVersion, 1, 0)},
		{"huge group count", append([]byte(persistMagic), persistVersion, byte(len(features)), 0xff, 0xff, 0xff, 0xff, 0x0f)},
		{"ring longer than recentK", ring(func(gs *groupState) { gs.Recent = append(slices.Clone(gs.Recent), 1) })},
		{"rpos past the ring", ring(func(gs *groupState) { gs.RPos = recentK })},
		{"rpos in a ring not full", ring(func(gs *groupState) { gs.Recent = gs.Recent[:recentK-1] })},
	} {
		p := target()
		if err := p.Load(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: should fail", c.name)
		} else if !bytes.Equal(saveBytes(t, p), before) {
			t.Errorf("%s: a failed load changed the predictor", c.name)
		}
	}
}

// TestLoadRejectsNegativeRingPosition: a stream whose rpos, count or NMAE n
// is negative fails to load instead of loading a group whose next Observe
// indexes its ring at -3. (A uvarint cannot be negative: the stream spells
// one as a value no int holds.)
func TestLoadRejectsNegativeRingPosition(t *testing.T) {
	p := New(Config{})
	for i := 0; i < 3*recentK; i++ {
		p.Observe(mk("alice", "etl", 4), 100+float64(i))
	}
	for _, c := range []struct {
		name   string
		damage func(*groupState)
	}{
		{"rpos", func(gs *groupState) { gs.RPos = -3 }},
		{"count", func(gs *groupState) { gs.Count = -1 }},
		{"nmae n", func(gs *groupState) { gs.NMAE[2].N = -5 }},
	} {
		q := New(Config{})
		if err := q.Load(bytes.NewReader(damagedStream(p, c.damage))); err == nil {
			t.Errorf("a stream with a negative %s loaded", c.name)
		}
		q.Observe(mk("alice", "etl", 4), 100) // had rpos -3 loaded, the full ring would panic here
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

// TestLoadRepairsCorruptHistogram feeds Load a stream whose histogram bins
// were corrupted in the repairable ways a buggy writer can produce
// (unsorted order, non-positive counts): Load must succeed and hand every
// group a sketch that passes the full invariant verifier, with the dead bins
// dropped — never a silently corrupt binary-search structure.
func TestLoadRepairsCorruptHistogram(t *testing.T) {
	p := New(Config{})
	for i := 0; i < 30; i++ {
		p.Observe(mk("alice", "etl", 4), 100+float64(i%7)*30)
	}
	corrupted := 0
	data := damagedStream(p, func(gs *groupState) {
		if bins := gs.Hist.Bins; len(bins) >= 2 {
			// Reverse the bin order and kill the first bin's count.
			slices.Reverse(bins)
			bins[0].Count = -3.5
			corrupted++
		}
	})
	if corrupted == 0 {
		t.Fatal("test setup produced no multi-bin histograms to corrupt")
	}

	q := New(Config{})
	if err := q.Load(bytes.NewReader(data)); err != nil {
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

// FuzzPredictorLoad: arbitrary bytes never panic Load; a failed load leaves
// the predictor's Save bytes as they were; a stream that loads saves as a
// stream that loads back to the same bytes; and every group it restored
// takes another observation and answers every estimator without panicking.
func FuzzPredictorLoad(f *testing.F) {
	p := New(Config{})
	for i := 0; i < 3*recentK; i++ {
		p.Observe(mk(fmt.Sprintf("u%d", i%2), "etl", 1+i%5), float64(40+(i*53)%300))
	}
	f.Add(saveBytes(f, p))
	f.Add(saveBytes(f, New(Config{})))
	// A ring at position 3 that is not full, and one longer than recentK:
	// neither is a ring Observe leaves.
	for _, damage := range []func(*groupState){
		func(gs *groupState) { gs.Recent, gs.RPos = gs.Recent[:5], 3 },
		func(gs *groupState) { gs.Recent = append(slices.Clone(gs.Recent), 7) },
	} {
		st := stateOf(p)
		m := st[len(st)-1]
		gs := m["*"]
		damage(&gs)
		m["*"] = gs
		f.Add(encodeState(st))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q := New(Config{})
		q.Observe(mk("bob", "train", 16), 500)
		before := saveBytes(t, q)
		if q.Load(bytes.NewReader(data)) != nil {
			if !bytes.Equal(saveBytes(t, q), before) {
				t.Fatal("a failed load changed the predictor")
			}
			return
		}
		once := saveBytes(t, q)
		r := New(Config{})
		if err := r.Load(bytes.NewReader(once)); err != nil {
			t.Fatalf("a loaded predictor's save does not load: %v", err)
		}
		if twice := saveBytes(t, r); !bytes.Equal(once, twice) {
			t.Fatalf("save, load, save: %d bytes, then %d", len(once), len(twice))
		}
		q.mu.Lock()
		defer q.mu.Unlock()
		for _, m := range q.groups {
			for _, val := range sortedKeys(m) {
				g := m[val]
				g.observe(100)
				for k := 0; k < numEstimators; k++ {
					g.estimate(EstimatorKind(k))
				}
			}
		}
	})
}

// saveBytes is p's Save stream.
func saveBytes(t testing.TB, p *Predictor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// savedState is a predictor's saved groups, one map per feature, spelled
// so that a test can damage them before encodeState writes them.
type savedState []map[string]groupState

// stateOf is p's state, its slices copies.
func stateOf(p *Predictor) savedState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := make(savedState, len(p.groups))
	for fi, m := range p.groups {
		st[fi] = make(map[string]groupState, len(m))
		for _, val := range sortedKeys(m) {
			gs := m[val].state()
			gs.Recent = slices.Clone(gs.Recent)
			gs.Hist.Bins = slices.Clone(gs.Hist.Bins)
			st[fi][val] = gs
		}
	}
	return st
}

// damagedStream is p's stream with every group's state passed through
// damage first.
func damagedStream(p *Predictor, damage func(*groupState)) []byte {
	st := stateOf(p)
	for _, m := range st {
		for _, k := range sortedKeys(m) {
			gs := m[k]
			damage(&gs)
			m[k] = gs
		}
	}
	return encodeState(st)
}

// encodeState is the binary stream of a state, which need not be one a
// predictor could hold.
func encodeState(st savedState) []byte {
	buf := append([]byte(persistMagic), persistVersion)
	buf = binary.AppendUvarint(buf, uint64(len(st)))
	for _, m := range st {
		buf = binary.AppendUvarint(buf, uint64(len(m)))
		for _, val := range sortedKeys(m) {
			gs := m[val]
			buf = appendGroup(buf, val, &gs)
		}
	}
	return buf
}
