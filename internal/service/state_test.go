package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"threesigma/internal/agent"
	"threesigma/internal/baselines"
	"threesigma/internal/core"
	"threesigma/internal/faults"
	"threesigma/internal/job"
	"threesigma/internal/predictor"
	"threesigma/internal/replog"
	"threesigma/internal/simulator"
)

// scriptConfig is sigmaConfig with a chaos injector that crashes some attempts:
// fresh scheduler, predictor and injector, as each process of a group has.
func scriptConfig() Config {
	cfg := sigmaConfig()
	cfg.Faults = &faults.Config{Seed: 3, CrashProb: 0.4, MaxRetries: 2}
	return cfg
}

// encode is the state's encoding with the scheduler's own carry-over cut out
// of it: previous plans (warm-start seeds), under-estimate extensions and
// abandoned markers are written by Cycle, which only a leader runs, so a
// replica holds the leader's only as far as a snapshot brought them. (A
// successor that took over without one would extend an over-running job's
// finish from scratch — DESIGN.md §14 "State machine" records the gap.)
// Everything else, the scheduler's cached distributions included, must agree
// byte for byte.
func encode(t *testing.T, svc *Service) []byte {
	t.Helper()
	svc.mu.Lock()
	raw, err := svc.st.wire()
	svc.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	h, secs := snapshotParts(t, raw)
	var top, sched map[string]json.RawMessage
	if err := json.Unmarshal(secs[0], &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["sched"], &sched); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"planned", "ue", "abandoned"} {
		delete(sched, k)
	}
	top["sched"] = mustJSON(t, sched)
	secs[0] = mustJSON(t, top)
	return resealSnapshot(h.epoch, secs)
}

// snapshotParts reads a snapshot payload's header and sections.
func snapshotParts(t testing.TB, payload []byte) (snapHeader, [len(snapshotSections)][]byte) {
	t.Helper()
	h, secs, err := splitSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	return h, secs
}

// resealSnapshot lays secs out as wire does, under a header at epoch whose
// predictor presence and hash are the predictor section's.
func resealSnapshot(epoch uint64, secs [len(snapshotSections)][]byte) []byte {
	buf := binary.AppendUvarint(append([]byte(snapshotMagic), snapshotVersion), epoch)
	if len(secs[2]) > 0 {
		sum := sha256.Sum256(secs[2])
		buf = append(append(buf, 1), sum[:]...)
	} else {
		buf = append(buf, make([]byte, 1+sha256.Size)...)
	}
	for _, sec := range secs {
		buf = appendSection(buf, sec)
	}
	return buf
}

// jsonSnapshot is a snapshot payload as older builds wrote it, its key
// order aside: one JSON object, the header's fields among the state's, and
// both binary streams as base64 strings.
func jsonSnapshot(t testing.TB, payload []byte) []byte {
	t.Helper()
	h, secs := snapshotParts(t, payload)
	var top, eng map[string]json.RawMessage
	if err := json.Unmarshal(secs[0], &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["engine"], &eng); err != nil {
		t.Fatal(err)
	}
	eng["outcomes"] = mustJSON(t, secs[1])
	top["engine"] = mustJSON(t, eng)
	top["engine_epoch"] = mustJSON(t, h.epoch)
	top["predictor_sha"] = mustJSON(t, h.predictorSHA())
	top["predictor"] = mustJSON(t, secs[2])
	return mustJSON(t, top)
}

// mustJSON is v's JSON encoding.
func mustJSON(t testing.TB, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// push feeds records to a replica the way a leader's sender does: through
// POST /v1/replog/append, a few per request.
func push(t *testing.T, svc *Service, recs []replog.Record) {
	t.Helper()
	for len(recs) > 0 {
		n := min(7, len(recs))
		if code, resp := pushOnce(t, svc, recs[:n]); code != 200 || resp.Acked != recs[n-1].Seq {
			t.Fatalf("push through seq %d: %d %+v", recs[n-1].Seq, code, resp)
		}
		recs = recs[n:]
	}
}

// pushOnce posts one append of recs to svc, at the last record's epoch, in
// the body a sender encodes, and returns the status and the decoded answer.
func pushOnce(t *testing.T, svc *Service, recs []replog.Record) (int, replAppendResp) {
	t.Helper()
	body, err := (&replAppendReq{From: 0, Epoch: recs[len(recs)-1].Epoch, Records: recs}).encode()
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/replog/append", bytes.NewReader(body)))
	var resp replAppendResp
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("push through seq %d: %d %s", recs[len(recs)-1].Seq, w.Code, w.Body)
	}
	return w.Code, resp
}

// runScript drives one scripted input stream — submits (one landing
// mid-solve), two train batches, a cancel of a queued and of a running job,
// fail / recover / drain / resize, an abandon out of the solve, chaos crashes
// — through a leader's public API, over the log l (nil: the log New opens,
// and so no snapshots) and on the agents given (none: the service's own
// local agent), and returns the leader. It is cycled by hand: no ticker
// decides which cycle an input lands in, and no compactor truncates the log.
func runScript(t testing.TB, l *replog.Log, agents []*agent.Client) *Service {
	t.Helper()
	var lead *Service
	cycle := 0
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("cycle %d: %s: %v", cycle, what, err)
		}
	}
	submit := func(id job.ID, tasks int, runtime, at float64) {
		t.Helper()
		_, err := lead.Submit(&job.Job{ID: id, Name: "train", User: "alice", Tasks: tasks,
			Runtime: runtime, Submit: at, NonPrefFactor: 1})
		must("submit", err)
	}
	train := func() {
		t.Helper()
		var recs []TrainRecord
		for i := 0; i < 6; i++ {
			recs = append(recs, TrainRecord{Job: &job.Job{Name: "train", User: "alice", Tasks: 4}, Runtime: float64(2 + i%3)})
		}
		_, _, err := lead.TrainBatch(recs)
		must("train", err)
	}
	cfg := scriptConfig()
	cfg.Log = l
	wantSnaps := int64(0)
	if l != nil {
		cfg.CompactEvery = 5
		wantSnaps = 2
	}
	cfg.Agents = agents
	cfg.Scheduler = &hookSched{Scheduler: cfg.Scheduler.(*core.Scheduler), hook: func() {
		switch cycle { // inside the solve: the leader's lock is free
		case 3:
			submit(7, 4, 3, 2.5) // stamped before this cycle, logged after its watermark
		case 6:
			lead.Abandon(5)
		}
	}}
	lead = mustService(t, cfg)
	lead.mu.Lock()
	lead.takeoverLocked(0)
	lead.mu.Unlock()
	run := func(n int) {
		for i := 0; i < n; i++ {
			cycle++
			lead.runCycle()
		}
	}

	train()
	for i := 1; i <= 4; i++ {
		submit(job.ID(i), 4, float64(5+i), 0.5)
	}
	submit(5, 16, 2, 1.5) // the whole cluster, once the others hold it: pending until abandoned
	submit(6, 2, 2, 100)  // stamped far ahead: queued until cancelled
	run(3)
	if st, _ := lead.Status(6); st.Phase != PhaseQueued {
		t.Fatalf("job 6 is %q before its cancel, want queued", st.Phase)
	}
	must("cancel queued", lead.Cancel(6))
	victim := job.ID(0)
	for id := job.ID(1); id <= 4; id++ {
		if st, _ := lead.Status(id); st.Phase == PhaseRunning {
			victim = id
			break
		}
	}
	if victim == 0 {
		t.Fatal("no job running after three cycles")
	}
	must("cancel running", lead.Cancel(victim))
	_, err := lead.FailNodes(0, 3)
	must("fail", err)
	run(2) // cycle 5 snapshots
	_, err = lead.RecoverNodes(0, 3)
	must("recover", err)
	_, err = lead.DrainNodes(0, 1) // partition 0's one free node (partition 1 has none: 409)
	must("drain", err)
	_, err = lead.Resize(1, 2)
	must("resize", err)
	run(2)
	train()
	for i := 8; i <= 11; i++ {
		submit(job.ID(i), 3, float64(i%3+2), float64(cycle)+0.5)
	}
	run(6) // cycle 10 snapshots; three cycles of suffix behind it

	m := lead.Metrics()
	if c := m.Counters; c.Cancelled != 2 || c.Abandoned != 1 || c.Trained != 12 || c.Accepted != 11 ||
		c.Evicted == 0 || c.Completed == 0 || m.Control.Snapshots != wantSnaps || m.Cycles != 13 {
		t.Fatalf("the script did not do what it says: %+v, %d snapshots, %d cycles", c, m.Control.Snapshots, m.Cycles)
	}
	return lead
}

// TestOneLogOneStateOnEveryPath is the property the state machine exists
// for: runScript's input stream leaves the same state, outcome digest and
// predictor hash on (i) the leader it drove, (ii) a follower pushed the
// leader's records, (iii) a process restarted over the leader's log, (iv) a
// standby pushed the leader's first snapshot, which it installs, and then
// the suffix, and (v) a leader driven through the same stream over the log
// New opened, which keeps only its last record and counts every other.
func TestOneLogOneStateOnEveryPath(t *testing.T) {
	dir := t.TempDir()
	l, err := replog.Open(filepath.Join(dir, "leader.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lead := runScript(t, l, nil)
	want := lead.Metrics()
	wantEnc := encode(t, lead)
	recs := l.Records()
	var firstSnap replog.Record
	snaps := uint64(0)
	for _, rec := range recs {
		if rec.Type == replog.TypeSnapshot {
			if snaps == 0 {
				firstSnap = rec
			}
			snaps++
		}
	}

	memLog := func() *replog.Log {
		ml, err := replog.Open("")
		if err != nil {
			t.Fatal(err)
		}
		return ml
	}
	paths := map[string]*Service{}

	// (ii) A follower, pushed every record.
	cfg := scriptConfig()
	cfg.Log = memLog()
	paths["follower"] = mustService(t, cfg)
	push(t, paths["follower"], recs)

	// (iii) A restart over (a copy of) the leader's log: the newest snapshot
	// installed, the records behind it applied.
	raw, err := os.ReadFile(filepath.Join(dir, "leader.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "restart.log"), raw, 0o600); err != nil {
		t.Fatal(err)
	}
	cfg = scriptConfig()
	if cfg.Log, err = replog.Open(filepath.Join(dir, "restart.log")); err != nil {
		t.Fatal(err)
	}
	defer cfg.Log.Close()
	paths["restart"] = mustService(t, cfg)

	// (iv) A standby that is pushed the first snapshot, then the rest.
	cfg = scriptConfig()
	cfg.Log = memLog()
	standby := mustService(t, cfg)
	push(t, standby, []replog.Record{firstSnap})
	if m := standby.Metrics(); m.Control.SnapshotInstalls != 1 || m.LogLen != firstSnap.Seq {
		t.Fatalf("standby: %d installs, log at %d, want 1 and %d", m.Control.SnapshotInstalls, m.LogLen, firstSnap.Seq)
	}
	push(t, standby, recs[firstSnap.Seq:])
	paths["standby"] = standby

	// (v) A leader over the log New opened: every record the leader logged
	// but its snapshots, of which it holds the last cycle record only.
	owned := runScript(t, nil, nil)
	if n, held := owned.log.Len(), len(owned.log.Records()); n != l.Len()-snaps || held != 1 {
		t.Errorf("owned log: len %d holding %d records, want %d holding 1", n, held, l.Len()-snaps)
	}
	paths["owned"] = owned

	for name, svc := range paths {
		m := svc.Metrics()
		if m.OutcomeDigest != want.OutcomeDigest || m.PredictorSHA != want.PredictorSHA || m.Cycles != want.Cycles {
			t.Errorf("%s: digest %.12s sha %.12s cycle %d, leader has %.12s %.12s %d",
				name, m.OutcomeDigest, m.PredictorSHA, m.Cycles, want.OutcomeDigest, want.PredictorSHA, want.Cycles)
		}
		if m.Control.Diverged != 0 {
			t.Errorf("%s flagged %d divergences", name, m.Control.Diverged)
		}
		// A replica that does not lead queues no evict (the script cancels a
		// running job and fails nodes under others), and no start for a run
		// that is not live: its outboxes stay bounded by the desired map.
		svc.mu.Lock()
		for _, as := range svc.agents {
			if len(as.outboxEvicts) != 0 || len(as.outboxStarts) > len(svc.st.Desired) {
				t.Errorf("%s: %d evicts and %d starts queued for %d live runs",
					name, len(as.outboxEvicts), len(as.outboxStarts), len(svc.st.Desired))
			}
		}
		svc.mu.Unlock()
		if got := encode(t, svc); !bytes.Equal(got, wantEnc) {
			i := 0
			for i < len(got) && i < len(wantEnc) && got[i] == wantEnc[i] {
				i++
			}
			t.Errorf("%s: state differs from the leader's at byte %d:\n got …%s\nwant …%s", name, i,
				got[max(0, i-60):min(len(got), i+60)], wantEnc[max(0, i-60):min(len(wantEnc), i+60)])
		}
	}
}

// TestLocalAndRemoteAgentsAgree: where the tasks run is not an input.
// runScript's stream on the service's own in-process agent and on two agent
// daemons behind HTTP that split the partitions between them leaves the same
// outcome digest, predictor hash and state encoding, byte for byte.
func TestLocalAndRemoteAgentsAgree(t *testing.T) {
	var remote []*agent.Client
	for p := 0; p < 2; p++ {
		srv := httptest.NewServer(agent.New(fmt.Sprintf("a%d", p), map[int]int{p: 8}).Handler())
		t.Cleanup(srv.Close)
		remote = append(remote, &agent.Client{Addr: srv.URL, Partitions: []int{p}})
	}
	var svcs []*Service
	for _, agents := range [][]*agent.Client{nil, remote} {
		l, err := replog.Open("")
		if err != nil {
			t.Fatal(err)
		}
		svcs = append(svcs, runScript(t, l, agents))
	}
	local, rem := svcs[0].Metrics(), svcs[1].Metrics()
	if local.AgentsLive != 1 || rem.AgentsLive != 2 || local.Control.DirectivesSent == 0 || rem.Control.DirectivesSent == 0 {
		t.Fatalf("agents live %d and %d, directives sent %d and %d: want 1 and 2, both > 0",
			local.AgentsLive, rem.AgentsLive, local.Control.DirectivesSent, rem.Control.DirectivesSent)
	}
	if rem.OutcomeDigest != local.OutcomeDigest || rem.PredictorSHA != local.PredictorSHA {
		t.Errorf("remote agents: digest %.12s sha %.12s, local agent %.12s %.12s",
			rem.OutcomeDigest, rem.PredictorSHA, local.OutcomeDigest, local.PredictorSHA)
	}
	if got, want := encode(t, svcs[1]), encode(t, svcs[0]); !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("state differs at byte %d:\n remote …%s\n  local …%s", i,
			got[max(0, i-60):min(len(got), i+60)], want[max(0, i-60):min(len(want), i+60)])
	}
}

// TestSnapshotRecordChecksPredictorSHA: a snapshot record carries the
// leader's predictor hash, and an in-sync follower that applies one whose
// hash is not its own counts a divergence — the cross-check replicas run on
// every snapshot, with no persistence path beside the log to run it.
func TestSnapshotRecordChecksPredictorSHA(t *testing.T) {
	l, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, l, nil)
	recs := l.Records()
	last := -1
	for i, rec := range recs {
		if rec.Type == replog.TypeSnapshot {
			last = i
		}
	}
	if last < 0 {
		t.Fatal("the script appended no snapshot")
	}

	var mu sync.Mutex
	var lines []string
	cfg := scriptConfig()
	cfg.Log, _ = replog.Open("")
	cfg.Logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	follower := mustService(t, cfg)
	push(t, follower, recs[:last]) // in sync up to the snapshot

	snap := recs[last]
	follower.mu.Lock()
	defer follower.mu.Unlock()
	own := follower.st.predictorSHA()
	if err := follower.applyRecordLocked(snap); err != nil {
		t.Fatal(err)
	}
	if d := follower.ctl.Diverged; d != 0 {
		t.Fatalf("the leader's own snapshot record: %d divergences, want 0", d)
	}
	h, rest, err := snapshotHeader(snap.Data)
	if err != nil || h.predictorSHA() != own {
		t.Fatalf("the leader's snapshot header names predictor %.12s (%v); the follower's hashes to %.12s", h.predictorSHA(), err, own)
	}
	// The same record under a header whose predictor hash is all zeros
	// (the record's own hash is not re-checked on this path).
	forged := snap
	forged.Data = bytes.Clone(snap.Data)
	clear(forged.Data[len(forged.Data)-len(rest)-sha256.Size : len(forged.Data)-len(rest)])
	if err := follower.applyRecordLocked(forged); err != nil {
		t.Fatal(err)
	}
	if d := follower.ctl.Diverged; d != 1 {
		t.Fatalf("a snapshot record with a foreign predictor hash: %d divergences, want 1", d)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range lines {
		if strings.Contains(line, "DIVERGED") && strings.Contains(line, "predictor sha") {
			return
		}
	}
	t.Fatalf("no predictor sha divergence logged:\n%s", strings.Join(lines, "\n"))
}

// FuzzSnapshotHeader holds the in-sync follower's read of a snapshot
// record's header: it never panics, reads back what wire() wrote, refuses
// an older build's JSON payload by name, and a header it accepts has one
// encoding — written back from what it read, it is the payload's front.
func FuzzSnapshotHeader(f *testing.F) {
	st := fuzzState(f)
	enc, err := st.wire()
	if err != nil {
		f.Fatal(err)
	}
	if h, _, err := snapshotHeader(enc); err != nil || h.epoch != st.eng.Epoch() || h.predictorSHA() != predictorSHA(st.pred) {
		f.Fatalf("snapshotHeader(wire()) = %d, %.12s, %v; want %d, %.12s",
			h.epoch, h.predictorSHA(), err, st.eng.Epoch(), predictorSHA(st.pred))
	}
	f.Add(enc)
	f.Add([]byte(`{"engine_epoch":7,"predictor_sha":"ab","cycle":1}`))
	f.Add([]byte(`{"engine_epoch":7,"predictor_sha":null}`))
	f.Add([]byte(`{"engine_epoch":7,"predictor_sha":"ab","Engine_Epoch":8}`))
	f.Add([]byte(`{"engine_epoch":-7,"predictor_sha":"ab"}`))
	f.Add([]byte(`{"engine_epoch":7,"cycle":1}`))
	f.Add([]byte(`{"cycle":1,"engine_epoch":7,"predictor_sha":"ab"}`))
	// The binary header: with and without a predictor, an epoch in a
	// longer varint than its shortest, a presence byte past 1, a hash
	// without a predictor, a header cut short, another version.
	var secs [len(snapshotSections)][]byte
	f.Add(resealSnapshot(7, secs))
	secs[2] = []byte("3SPR")
	f.Add(resealSnapshot(1<<40, secs))
	f.Add([]byte("3SSN\x01\x87\x80\x00\x00"))
	f.Add(append([]byte("3SSN\x01\x07\x02"), make([]byte, sha256.Size)...))
	f.Add(append([]byte("3SSN\x01\x07\x00\xab"), make([]byte, sha256.Size-1)...))
	f.Add([]byte("3SSN\x01\x07\x01\xab"))
	f.Add(append([]byte("3SSN\x02\x07\x00"), make([]byte, sha256.Size)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, rest, err := snapshotHeader(data)
		if len(data) > 0 && data[0] == '{' && !errors.Is(err, errJSONSnapshot) {
			t.Fatalf("a JSON payload read as %v", err)
		}
		if err != nil {
			return
		}
		front := binary.AppendUvarint(append([]byte(snapshotMagic), snapshotVersion), h.epoch)
		if h.pred {
			front = append(append(front, 1), h.sha[:]...)
		} else {
			front = append(front, make([]byte, 1+sha256.Size)...)
		}
		if !bytes.Equal(data[:len(data)-len(rest)], front) {
			t.Fatalf("snapshotHeader read %d, %q from a header that writes back otherwise", h.epoch, h.predictorSHA())
		}
	})
}

// FuzzSnapshotDecode throws arbitrary payloads at a snapshot install's
// decode: it never panics, and a payload that decodes, and whose predictor
// stream loads, re-encodes through wire to the same bytes — a state has one
// encoding, and decode refuses every other.
func FuzzSnapshotDecode(f *testing.F) {
	l, err := replog.Open("")
	if err != nil {
		f.Fatal(err)
	}
	runScript(f, l, nil)
	snap, ok := lastSnapshot(l)
	if !ok {
		f.Fatal("the script appended no snapshot")
	}
	real := []byte(snap.Data)
	if _, sg, err := fuzzState(f).decode(real); err != nil || len(sg.pred) == 0 {
		f.Fatalf("the script's snapshot does not decode, or carries no predictor: %v", err)
	}
	f.Add(real)
	// Cut at the end of the header and of each section but the last.
	_, rest, err := snapshotHeader(real)
	if err != nil {
		f.Fatal(err)
	}
	at := len(real) - len(rest)
	_, secs := snapshotParts(f, real)
	for _, sec := range secs[:len(secs)-1] {
		f.Add(real[:at])
		at += 4 + len(sec)
	}
	f.Add(real[:at])
	// A state section that claims more bytes than the payload holds.
	over := bytes.Clone(real)
	binary.BigEndian.PutUint32(over[len(real)-len(rest):], math.MaxUint32)
	f.Add(over)
	f.Add([]byte(jsonSnapshot(f, real)))
	f.Fuzz(func(t *testing.T, data []byte) {
		st := fuzzState(t)
		fresh, sg, err := st.decode(data)
		if err != nil {
			return
		}
		if err := fresh.loadPredictor(sg.pred); err != nil {
			return
		}
		if err := fresh.adopt(sg); err != nil {
			t.Fatalf("a decoded state does not adopt: %v", err)
		}
		again, err := fresh.wire()
		if err != nil {
			t.Fatalf("a decoded state does not encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decode, then wire: %d bytes from %d", len(again), len(data))
		}
	})
}

// fuzzState is a small live state — jobs queued, pending and running, a
// deferred input of each kind — for FuzzStateApply to throw records at.
func fuzzState(t testing.TB) *state {
	p := predictor.New(predictor.Config{})
	st := newState(env{
		sched: baselines.ThreeSigma(p, core.Config{CycleInterval: 1}),
		pred:  p,
		inj:   faults.New(faults.Config{Seed: 1, CrashProb: 0.5, MaxRetries: 1}, []int{8, 8}, 0),
	}, simulator.NewCluster(16, 2))
	seq := uint64(0)
	apply := func(typ string, payload any) {
		seq++
		data, _ := json.Marshal(payload)
		cyc := st.Cycles
		if typ == replog.TypeCycle {
			cyc++
		}
		if _, err := st.apply(replog.Record{Seq: seq, Epoch: 1, Type: typ, Cycle: cyc, Data: data}); err != nil {
			t.Fatalf("seed record %d (%s): %v", seq, typ, err)
		}
	}
	for id := job.ID(1); id <= 3; id++ {
		apply(replog.TypeAdmit, &admitPayload{Job: &job.Job{ID: id, Name: "train", User: "alice", Tasks: 4, Runtime: 5, Submit: 0.5, NonPrefFactor: 1}})
	}
	apply(replog.TypeCycle, &cyclePayload{Now: 1, InputsThrough: seq,
		Starts: []simulator.StartAction{{Job: 1, Alloc: simulator.Alloc{4, 0}}}})
	apply(replog.TypeAdmit, &admitPayload{Job: &job.Job{ID: 4, Tasks: 2, Runtime: 1, Submit: 9, NonPrefFactor: 1}})
	apply(replog.TypeTrain, []trainPayload{{Name: "train", User: "alice", Tasks: 4, Runtime: 3}, {Name: "etl", Runtime: 8}})
	apply(replog.TypeCancel, &cancelPayload{ID: 2})
	apply(replog.TypeNodeOp, &opPayload{Kind: opFail, Partition: 0, N: 2})
	return st
}

// TestTrainRecordAppliesWholeOrNotAtAll: a TypeTrain record is an array of
// observations. apply validates every entry before it defers any, so one bad
// entry refuses the record and leaves the state as it was; an accepted
// record defers each entry under its own seq, in order, and the cycle
// boundary observes them all.
func TestTrainRecordAppliesWholeOrNotAtAll(t *testing.T) {
	for _, data := range []string{
		`[{"name":"a","runtime":2},{"name":"b","runtime":0},{"name":"c","runtime":3}]`,
		`[{"name":"a","runtime":2},null]`,
		`[]`,
		`null`,
		`{"name":"a","runtime":2}`, // the one-observation form: no build writes it
	} {
		st := fuzzState(t)
		before, _ := st.wire()
		if _, err := st.apply(replog.Record{Seq: 50, Epoch: 1, Type: replog.TypeTrain, Cycle: st.Cycles, Data: []byte(data)}); err == nil {
			t.Errorf("%s: accepted", data)
		}
		if after, _ := st.wire(); !bytes.Equal(before, after) {
			t.Errorf("%s: refused, and the state changed", data)
		}
	}
	st := fuzzState(t)
	pending, trained := len(st.Trains), st.Counters.Trained
	data := `[{"name":"a","runtime":2},{"name":"b","user":"bob","tasks":3,"priority":1,"runtime":5},{"name":"c","runtime":3}]`
	if _, err := st.apply(replog.Record{Seq: 50, Epoch: 1, Type: replog.TypeTrain, Cycle: st.Cycles, Data: []byte(data)}); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range st.Trains[pending:] {
		if e.Seq != 50 {
			t.Errorf("observation %q deferred under seq %d, want the record's 50", e.In.Name, e.Seq)
		}
		names = append(names, e.In.Name)
	}
	if strings.Join(names, ",") != "a,b,c" {
		t.Fatalf("deferred %v, want a,b,c", names)
	}
	boundary, _ := json.Marshal(&cyclePayload{Now: st.CycleNow + 1, InputsThrough: 50})
	if _, err := st.apply(replog.Record{Seq: 51, Epoch: 1, Type: replog.TypeCycle, Cycle: st.Cycles + 1, Data: boundary}); err != nil {
		t.Fatal(err)
	}
	if got, want := st.Counters.Trained, trained+int64(pending)+3; got != want || len(st.Trains) != 0 {
		t.Fatalf("trained %d with %d still deferred, want %d and none", got, len(st.Trains), want)
	}
}

// TestPackTrainsSplitsInOrder: a batch whose encoding exceeds the budget is
// cut into several TypeTrain payloads — each within the budget, none empty,
// no more than the budget forces, and in the batch's order. Through
// TrainBatch, at the bound the service uses, a feed past one record lands as
// several records the log takes and the next cycle observes whole.
func TestPackTrainsSplitsInOrder(t *testing.T) {
	var obs []trainPayload
	for i := 0; i < 100; i++ {
		obs = append(obs, trainPayload{Name: fmt.Sprintf("job_%d", i), Tasks: 1 + i%5, Runtime: float64(i + 1)})
	}
	for budget := 100; budget <= 500; budget++ { // every cut position, by some budget
		payloads, err := packTrains(obs, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(payloads) < 2 {
			t.Fatalf("budget %d: %d payloads, want a split", budget, len(payloads))
		}
		var got []trainPayload
		for k, raw := range payloads {
			var part []trainPayload
			if err := json.Unmarshal(raw, &part); err != nil || len(part) == 0 || len(raw) > budget {
				t.Fatalf("budget %d, payload %d: %d bytes, %d observations, %v", budget, k, len(raw), len(part), err)
			}
			got = append(got, part...)
			if k+1 < len(payloads) {
				next, _ := json.Marshal(&obs[len(got)])
				if len(raw)+1+len(next) <= budget {
					t.Fatalf("budget %d: payload %d (%d bytes) was cut before an observation of %d bytes that fit it", budget, k, len(raw), len(next))
				}
			}
		}
		if a, b := fmt.Sprint(got), fmt.Sprint(obs); a != b {
			t.Fatalf("budget %d: the payloads carry\n%s\nwant\n%s", budget, a, b)
		}
	}
	const budget = 400
	_, err := packTrains([]trainPayload{{Name: strings.Repeat("x", budget), Runtime: 1}}, budget)
	if se, ok := err.(*SubmitError); !ok || se.Code != 413 {
		t.Fatalf("an observation no record can hold: %v, want a 413", err)
	}

	svc, l, _ := handLed(t, sigmaConfig())
	before := trainRecords(l)
	name := strings.Repeat("n", 1<<20)
	var recs []TrainRecord
	for i := 0; i < 17; i++ { // 17 MiB of names: past one record's bound
		recs = append(recs, TrainRecord{Job: &job.Job{Name: name, Tasks: 1 + i}, Runtime: float64(i + 1)})
	}
	if n, _, err := svc.TrainBatch(recs); err != nil || n != len(recs) {
		t.Fatalf("TrainBatch: %d, %v", n, err)
	}
	if got := trainRecords(l) - before; got != 2 {
		t.Fatalf("the feed appended %d train records, want 2", got)
	}
	svc.runCycle()
	if n := svc.Metrics().Counters.Trained; n != int64(len(recs)) {
		t.Fatalf("trained %d after the cycle, want %d", n, len(recs))
	}
}

// FuzzStateApply throws arbitrary records at the state machine: apply never
// panics, a record it refuses leaves the state's encoding untouched, and one
// it accepts can be carried across the next cycle boundary — where deferred
// inputs actually run — and encoded.
func FuzzStateApply(f *testing.F) {
	f.Add(replog.TypeAdmit, []byte(`{}`)) // TestAdmitReplayIdempotent's nil job
	f.Add(replog.TypeAdmit, []byte(`{`))  // and its garbled payload
	f.Add(replog.TypeAdmit, []byte(`{"job":{"ID":9,"Tasks":3,"Runtime":2,"Submit":1,"Preferred":[7,-1]}}`))
	f.Add(replog.TypeAdmit, []byte(`{"job":{"ID":1,"Tasks":-3}}`))
	f.Add(replog.TypeTrain, []byte(`[{"name":"train","tasks":4,"runtime":2.5},{"user":"bob","priority":2,"runtime":40}]`))
	f.Add(replog.TypeTrain, []byte(`[{"name":"train","runtime":2.5},{"runtime":-1},{"runtime":3}]`)) // refused whole
	f.Add(replog.TypeCancel, []byte(`{"id":1}`))
	f.Add(replog.TypeNodeOp, []byte(`{"kind":"resize","partition":1,"delta":-99}`))
	f.Add(replog.TypeNodeOp, []byte(`{"kind":"drain","partition":9,"n":1}`))
	f.Add(replog.TypeNodeOp, []byte(`{"kind":"reboot"}`))
	f.Add(replog.TypeCycle, []byte(`{"now":2,"inputs_through":99,"comps":[{"id":1,"run_id":1,"at":-4},{"id":1,"run_id":1,"at":1.5,"crash":true}],"agent_ops":[{"fail":true,"partition":1,"nodes":99},{"partition":-1}],"abandons":[3,77],"preempts":[1,1],"starts":[{"Job":3,"Alloc":[1]},{"Job":3,"Alloc":[2,2]}],"engine_epoch":1}`))
	f.Add(replog.TypeCycle, []byte(`{"now":-1e300}`))
	f.Add("ckpt", []byte(`{"cycle":1,"predictor_sha":"beef"}`)) // a retired type, refused like any unknown one
	f.Add(replog.TypeElect, []byte(`{"replica":2,"cycle":1}`))
	f.Add(replog.TypeSnapshot, []byte(`{"engine_epoch":7,"cycle":1}`))
	f.Add(replog.TypeSnapshot, []byte(`{"engine_epoch":7,"predictor_sha":"beef","cycle":1}`))
	f.Add(replog.TypeSnapshot, []byte(`{"cycle":1}`))
	f.Add("bogus", []byte(`null`))
	f.Add(replog.TypeTrain, []byte(`[]`))
	f.Add(replog.TypeTrain, []byte(`{"name":"train","tasks":4,"runtime":2.5}`)) // one observation, not an array: refused
	// The snapshot seeds above in the binary envelope, and a real one.
	var secs [len(snapshotSections)][]byte
	secs[0] = []byte(`{"cycle":1}`)
	f.Add(replog.TypeSnapshot, resealSnapshot(7, secs))
	secs[2] = []byte("3SPR")
	f.Add(replog.TypeSnapshot, resealSnapshot(7, secs))
	f.Add(replog.TypeSnapshot, []byte("3SSN\x01"))
	real, err := fuzzState(f).wire()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(replog.TypeSnapshot, real)
	f.Fuzz(func(t *testing.T, typ string, data []byte) {
		st := fuzzState(t)
		before, err := st.wire()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.apply(replog.Record{Seq: 50, Epoch: 1, Type: typ, Cycle: st.Cycles + 1, Data: data}); err != nil {
			if after, _ := st.wire(); !bytes.Equal(before, after) {
				t.Fatalf("a refused %q record changed the state:\n%s\n%s", typ, before, after)
			}
			return
		}
		boundary, _ := json.Marshal(&cyclePayload{Now: st.CycleNow + 1, InputsThrough: 50})
		if _, err := st.apply(replog.Record{Seq: 51, Epoch: 1, Type: replog.TypeCycle, Cycle: st.Cycles + 1, Data: boundary}); err != nil {
			t.Fatalf("the cycle after an accepted %q record: %v", typ, err)
		}
		if _, err := st.wire(); err != nil {
			t.Fatalf("state after an accepted %q record does not encode: %v", typ, err)
		}
	})
}
