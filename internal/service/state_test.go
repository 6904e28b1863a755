package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
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
	raw, err := json.Marshal(svc.st)
	svc.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	var top, sched map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["sched"], &sched); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"planned", "ue", "abandoned"} {
		delete(sched, k)
	}
	top["sched"], _ = json.Marshal(sched)
	out, _ := json.Marshal(top)
	return out
}

// push feeds records to a replica the way a leader's sender does: through
// POST /v1/replog/append, a few per request.
func push(t *testing.T, svc *Service, recs []replog.Record) {
	t.Helper()
	for len(recs) > 0 {
		n := min(7, len(recs))
		body, _ := json.Marshal(&replAppendReq{From: 0, Epoch: recs[n-1].Epoch, Records: recs[:n]})
		w := httptest.NewRecorder()
		svc.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/replog/append", bytes.NewReader(body)))
		var resp replAppendResp
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != 200 || resp.Acked != recs[n-1].Seq {
			t.Fatalf("push through seq %d: %d %s", recs[n-1].Seq, w.Code, w.Body)
		}
		recs = recs[n:]
	}
}

// runScript drives one scripted input stream — submits (one landing
// mid-solve), two train batches, a cancel of a queued and of a running job,
// fail / recover / drain / resize, an abandon out of the solve, chaos crashes
// — through a leader's public API, over the log l (nil: no log, and so no
// snapshots) and on the agents given (none: the service's own local agent),
// and returns the leader. It is cycled by hand: no ticker decides which cycle
// an input lands in, and no compactor truncates the log.
func runScript(t *testing.T, l *replog.Log, agents []*agent.Client) *Service {
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
		_, err := lead.TrainBatch(recs)
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
// standby that installed the leader's first snapshot and was pushed the
// suffix, and (v) a leader driven through the same stream with no log at
// all, whose inputs are framed at seq 0 and drain at the next cycle top.
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
	for _, rec := range recs {
		if rec.Type == replog.TypeSnapshot {
			firstSnap = rec
			break
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

	// (iv) A standby that fetches the first snapshot and is pushed the rest.
	donor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, firstSnap)
	}))
	defer donor.Close()
	cfg = scriptConfig()
	cfg.Log = memLog()
	standby := mustService(t, cfg)
	standby.fetchSnapshot(donor.URL)
	if m := standby.Metrics(); m.Control.SnapshotInstalls != 1 || m.LogLen != firstSnap.Seq {
		t.Fatalf("standby: %d installs, log at %d, want 1 and %d", m.Control.SnapshotInstalls, m.LogLen, firstSnap.Seq)
	}
	push(t, standby, recs[firstSnap.Seq:])
	paths["standby"] = standby

	// (v) A leader without a log.
	paths["logless"] = runScript(t, nil, nil)

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
	forged := snap
	forged.Data = bytes.Replace(snap.Data, []byte(`"predictor_sha":"`+own+`"`),
		[]byte(`"predictor_sha":"`+strings.Repeat("0", len(own))+`"`), 1)
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

// TestLegacyCheckpointRecordReplays: logs written while the daemon also kept
// predictor checkpoint files hold "ckpt" records — the last one right after
// the final cycle, flushed on Stop. A restart over such a log starts and
// lands where the same log without the record does.
func TestLegacyCheckpointRecordReplays(t *testing.T) {
	l, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	want := runScript(t, l, nil).Metrics()
	recs := l.Records()
	var got [2]Metrics
	for i, legacy := range []bool{false, true} {
		cl, err := replog.Open("")
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := cl.AppendRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		if legacy {
			last := recs[len(recs)-1]
			payload := fmt.Sprintf(`{"cycle":%d,"predictor_sha":%q,"groups":1}`, last.Cycle, want.PredictorSHA)
			if _, err := cl.Append(last.Epoch, replog.TypeCheckpoint, last.Cycle, json.RawMessage(payload)); err != nil {
				t.Fatal(err)
			}
		}
		cfg := scriptConfig()
		cfg.Log = cl
		svc, err := New(cfg)
		if err != nil {
			t.Fatalf("restart (legacy record: %v): %v", legacy, err)
		}
		got[i] = svc.Metrics()
	}
	plain, legacy := got[0], got[1]
	if plain.OutcomeDigest != want.OutcomeDigest || plain.PredictorSHA != want.PredictorSHA {
		t.Fatalf("restart: digest %.12s sha %.12s, leader has %.12s %.12s",
			plain.OutcomeDigest, plain.PredictorSHA, want.OutcomeDigest, want.PredictorSHA)
	}
	if legacy.OutcomeDigest != plain.OutcomeDigest || legacy.PredictorSHA != plain.PredictorSHA ||
		legacy.Cycles != plain.Cycles || legacy.Control.Diverged != 0 {
		t.Fatalf("with a ckpt record: digest %.12s sha %.12s cycle %d, %d divergences; without: %.12s %.12s %d",
			legacy.OutcomeDigest, legacy.PredictorSHA, legacy.Cycles, legacy.Control.Diverged,
			plain.OutcomeDigest, plain.PredictorSHA, plain.Cycles)
	}
}

// FuzzSnapshotHeader holds the in-sync follower's read of a snapshot
// record's front to the full decode: it never panics, reads back what wire()
// wrote, and whatever it accepts json.Unmarshal reads the same way — unless
// the payload names a header key again further on, where encoding/json keeps
// the last value and the header reader, by design, looks no further than the
// front.
func FuzzSnapshotHeader(f *testing.F) {
	st := fuzzState(f)
	enc, err := json.Marshal(st)
	if err != nil {
		f.Fatal(err)
	}
	if epoch, sha, ok := snapshotHeader(enc); !ok || epoch != st.eng.Epoch() || sha != predictorSHA(st.pred) {
		f.Fatalf("snapshotHeader(wire()) = %d, %.12s, %v; want %d, %.12s",
			epoch, sha, ok, st.eng.Epoch(), predictorSHA(st.pred))
	}
	f.Add(enc)
	f.Add([]byte(`{"engine_epoch":7,"predictor_sha":"ab","cycle":1}`))
	f.Add([]byte(`{"engine_epoch":7,"predictor_sha":null}`))
	f.Add([]byte(`{"engine_epoch":7,"predictor_sha":"ab","Engine_Epoch":8}`))
	f.Add([]byte(`{"engine_epoch":-7,"predictor_sha":"ab"}`))
	f.Add([]byte(`{"engine_epoch":7,"cycle":1}`))
	f.Add([]byte(`{"cycle":1,"engine_epoch":7,"predictor_sha":"ab"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, sha, ok := snapshotHeader(data)
		if !ok {
			return
		}
		var full struct {
			EngineEpoch  uint64 `json:"engine_epoch"`
			PredictorSHA string `json:"predictor_sha"`
		}
		if json.Unmarshal(data, &full) != nil || repeatsHeaderKey(data) {
			return
		}
		if full.EngineEpoch != epoch || full.PredictorSHA != sha {
			t.Fatalf("snapshotHeader read %d, %q; json.Unmarshal reads %d, %q",
				epoch, sha, full.EngineEpoch, full.PredictorSHA)
		}
	})
}

// repeatsHeaderKey reports whether an object names the snapshot header's
// keys, under encoding/json's case folding, more than once between them.
func repeatsHeaderKey(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	if _, err := dec.Token(); err != nil {
		return false
	}
	n := 0
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return false
		}
		if k, _ := t.(string); strings.EqualFold(k, "engine_epoch") || strings.EqualFold(k, "predictor_sha") {
			n++
		}
		var v json.RawMessage
		if dec.Decode(&v) != nil {
			return false
		}
	}
	return n > 2
}

// fuzzState is a small live state — jobs queued, pending and running, a
// deferred input of each kind — for FuzzStateApply to throw records at.
func fuzzState(t testing.TB) *state {
	p := predictor.New(predictor.Config{})
	st := newState(env{
		sched: baselines.ThreeSigma(p, core.Config{CycleInterval: 1}),
		pred:  p,
		inj:   faults.New(faults.Config{Seed: 1, CrashProb: 0.5, MaxRetries: 1}, []int{8, 8}, 0),
		clock: simulator.NewVirtualClock(),
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
	apply(replog.TypeTrain, &trainPayload{Name: "train", User: "alice", Tasks: 4, Runtime: 3})
	apply(replog.TypeCancel, &cancelPayload{ID: 2})
	apply(replog.TypeNodeOp, &opPayload{Kind: opFail, Partition: 0, N: 2})
	return st
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
	f.Add(replog.TypeTrain, []byte(`{"name":"train","tasks":4,"runtime":2.5}`))
	f.Add(replog.TypeTrain, []byte(`{"runtime":-1}`))
	f.Add(replog.TypeCancel, []byte(`{"id":1}`))
	f.Add(replog.TypeNodeOp, []byte(`{"kind":"resize","partition":1,"delta":-99}`))
	f.Add(replog.TypeNodeOp, []byte(`{"kind":"drain","partition":9,"n":1}`))
	f.Add(replog.TypeNodeOp, []byte(`{"kind":"reboot"}`))
	f.Add(replog.TypeCycle, []byte(`{"now":2,"inputs_through":99,"comps":[{"id":1,"run_id":1,"at":-4},{"id":1,"run_id":1,"at":1.5,"crash":true}],"agent_ops":[{"fail":true,"partition":1,"nodes":99},{"partition":-1}],"abandons":[3,77],"preempts":[1,1],"starts":[{"Job":3,"Alloc":[1]},{"Job":3,"Alloc":[2,2]}],"engine_epoch":1}`))
	f.Add(replog.TypeCycle, []byte(`{"now":-1e300}`))
	f.Add(replog.TypeCheckpoint, []byte(`{"cycle":1,"predictor_sha":"beef"}`))
	f.Add(replog.TypeElect, []byte(`{"replica":2,"cycle":1}`))
	f.Add(replog.TypeSnapshot, []byte(`{"engine_epoch":7,"cycle":1}`))
	f.Add(replog.TypeSnapshot, []byte(`{"engine_epoch":7,"predictor_sha":"beef","cycle":1}`))
	f.Add(replog.TypeSnapshot, []byte(`{"cycle":1}`))
	f.Add("bogus", []byte(`null`))
	f.Fuzz(func(t *testing.T, typ string, data []byte) {
		st := fuzzState(t)
		before, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.apply(replog.Record{Seq: 50, Epoch: 1, Type: typ, Cycle: st.Cycles + 1, Data: data}); err != nil {
			if after, _ := json.Marshal(st); !bytes.Equal(before, after) {
				t.Fatalf("a refused %q record changed the state:\n%s\n%s", typ, before, after)
			}
			return
		}
		boundary, _ := json.Marshal(&cyclePayload{Now: st.CycleNow + 1, InputsThrough: 50})
		if _, err := st.apply(replog.Record{Seq: 51, Epoch: 1, Type: replog.TypeCycle, Cycle: st.Cycles + 1, Data: boundary}); err != nil {
			t.Fatalf("the cycle after an accepted %q record: %v", typ, err)
		}
		if _, err := json.Marshal(st); err != nil {
			t.Fatalf("state after an accepted %q record does not encode: %v", typ, err)
		}
	})
}
