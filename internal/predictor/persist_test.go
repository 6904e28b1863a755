package predictor

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
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
	q := New(Config{})
	q.Observe(mk("alice", "etl", 4), 100)
	good := saveBytes(t, q)
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"magic alone", []byte(persistMagic)},
		{"no features", append([]byte(persistMagic), persistVersion)},
		{"truncated", good[:len(good)-1]},
		{"trailing byte", append(slices.Clone(good), 0)},
		{"one feature", append([]byte(persistMagic), persistVersion, 1, 0)},
		{"huge group count", append([]byte(persistMagic), persistVersion, byte(len(features)), 0xff, 0xff, 0xff, 0xff, 0x0f)},
	} {
		if err := p.Load(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: should fail", c.name)
		}
	}
}

// TestLoadRejectsNegativeRingPosition: a stream whose rpos, count or NMAE n
// is negative fails to load, in either version, instead of loading a group
// whose next Observe indexes its ring at -3. (A uvarint cannot be negative:
// the binary stream spells one as a value no int holds.)
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
		st := stateOf(p)
		for _, m := range st.Groups {
			for _, k := range sortedKeys(m) {
				gs := m[k]
				c.damage(&gs)
				m[k] = gs
			}
		}
		legacy, err := json.Marshal(&st)
		if err != nil {
			t.Fatal(err)
		}
		for i, data := range [][]byte{legacy, encodeState(&st)} {
			q := New(Config{})
			if err := q.Load(bytes.NewReader(data)); err == nil {
				t.Errorf("%s stream with a negative %s loaded", []string{"JSON", "binary"}[i], c.name)
			}
			q.Observe(mk("alice", "etl", 4), 100) // had rpos -3 loaded, the full ring would panic here
		}
	}
}

// TestJSONAndBinaryStreamsLoadAlike: a predictor's legacy JSON stream and
// its binary stream load into predictors that save the same bytes and
// answer every query alike.
func TestJSONAndBinaryStreamsLoadAlike(t *testing.T) {
	p := New(Config{})
	rng := rand.New(rand.NewSource(5))
	users := []string{"alice", "bob", "carol"}
	for i := 0; i < 500; i++ {
		j := &job.Job{User: users[rng.Intn(3)], Name: fmt.Sprintf("app%d", rng.Intn(6)),
			Tasks: 1 + rng.Intn(40), Priority: rng.Intn(3)}
		p.Observe(j, 30+rng.ExpFloat64()*200)
	}
	st := stateOf(p)
	legacy, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, fromBinary := New(Config{}), New(Config{})
	if err := fromJSON.Load(bytes.NewReader(legacy)); err != nil {
		t.Fatal(err)
	}
	if err := fromBinary.Load(bytes.NewReader(saveBytes(t, p))); err != nil {
		t.Fatal(err)
	}
	a, b := saveBytes(t, fromJSON), saveBytes(t, fromBinary)
	if !bytes.Equal(a, b) || !bytes.Equal(b, saveBytes(t, p)) {
		t.Fatalf("saves differ: from JSON %d bytes, from binary %d, original %d", len(a), len(b), len(saveBytes(t, p)))
	}
	if len(a) >= len(legacy)/2 {
		t.Errorf("binary stream %d bytes, JSON %d: not under half", len(a), len(legacy))
	}
	for i := 0; i < 50; i++ {
		j := &job.Job{User: users[rng.Intn(3)], Name: fmt.Sprintf("app%d", rng.Intn(8)),
			Tasks: 1 + rng.Intn(60), Priority: rng.Intn(4)}
		x, y := fromJSON.Estimate(j), fromBinary.Estimate(j)
		if math.Float64bits(x.Point) != math.Float64bits(y.Point) || x.Expert != y.Expert || x.Samples != y.Samples || x.Novel != y.Novel {
			t.Fatalf("job %d: from JSON %v %s %d, from binary %v %s %d", i, x.Point, x.Expert, x.Samples, y.Point, y.Expert, y.Samples)
		}
		for _, q := range []float64{0.1, 0.5, 0.9} {
			if math.Float64bits(x.Dist.Quantile(q)) != math.Float64bits(y.Dist.Quantile(q)) {
				t.Fatalf("job %d: q%.1f from JSON %v, from binary %v", i, q, x.Dist.Quantile(q), y.Dist.Quantile(q))
			}
		}
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
// (unsorted order, non-positive counts), once as a legacy JSON stream and
// once as a binary one: Load must succeed and hand every group a sketch
// that passes the full invariant verifier, with the dead bins dropped —
// never a silently corrupt binary-search structure.
func TestLoadRepairsCorruptHistogram(t *testing.T) {
	p := New(Config{})
	for i := 0; i < 30; i++ {
		p.Observe(mk("alice", "etl", 4), 100+float64(i%7)*30)
	}
	st := stateOf(p)
	legacy, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}

	// The JSON stream, corrupted as JSON.
	var raw map[string]any
	if err := json.Unmarshal(legacy, &raw); err != nil {
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

	// The same corruption on the binary stream.
	for _, m := range st.Groups {
		for _, k := range sortedKeys(m) {
			gs := m[k]
			bins := slices.Clone(gs.Hist.Bins)
			if len(bins) < 2 {
				continue
			}
			slices.Reverse(bins)
			bins[0].Count = -3.5
			gs.Hist.Bins = bins
			m[k] = gs
		}
	}

	for i, data := range [][]byte{mutated, encodeState(&st)} {
		version := []string{"JSON", "binary"}[i]
		q := New(Config{})
		if err := q.Load(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: load repairable corruption: %v", version, err)
		}
		//lint:allow guardedfield single-goroutine white-box test; no concurrent access to q
		for fi, m := range q.groups {
			//lint:allow detrange independent per-group verification; order immaterial
			for val, g := range m {
				if err := check.VerifyHistogram(g.hist); err != nil {
					t.Errorf("%s: feature %d group %q: restored sketch corrupt: %v", version, fi, val, err)
				}
			}
		}
		est := q.Estimate(mk("alice", "etl", 4))
		if est.Novel || math.IsNaN(est.Point) || est.Point <= 0 {
			t.Errorf("%s: estimate after repair = %+v", version, est)
		}
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
	legacy, err := os.ReadFile("testdata/save-decay.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add(saveBytes(f, New(Config{})))
	f.Add([]byte(`{"version":1,"groups":[{},{},{},{},{},{},{"*":{"recent":[5,6],"rpos":-3}}]}`))
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

// stateOf is p's state as the legacy JSON stream spells it: marshalled, the
// stream Save wrote before the binary one.
func stateOf(p *Predictor) predictorState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := predictorState{Version: jsonVersion, Groups: make([]map[string]groupState, len(p.groups))}
	for fi, m := range p.groups {
		st.Groups[fi] = make(map[string]groupState, len(m))
		for _, val := range sortedKeys(m) {
			gs := m[val].state()
			gs.Recent = slices.Clone(gs.Recent)
			st.Groups[fi][val] = gs
		}
	}
	return st
}

// encodeState is the binary stream of a state, which need not be one a
// predictor could hold.
func encodeState(st *predictorState) []byte {
	buf := append([]byte(persistMagic), persistVersion)
	buf = binary.AppendUvarint(buf, uint64(len(st.Groups)))
	for _, m := range st.Groups {
		buf = binary.AppendUvarint(buf, uint64(len(m)))
		for _, val := range sortedKeys(m) {
			gs := m[val]
			buf = appendGroup(buf, val, &gs)
		}
	}
	return buf
}
