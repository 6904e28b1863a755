package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"threesigma/internal/job"
	"threesigma/internal/replog"
	"threesigma/internal/simulator"
)

// TestQuorumAckMatrix pins waitReplicated's majority semantics for a
// three-replica group (leader + two followers, quorum 2): the leader's own
// log counts, any one follower completes the quorum, a dead minority must
// not stall the wait, and a live laggard burns the full timeout.
func TestQuorumAckMatrix(t *testing.T) {
	newSvc := func(t *testing.T, quorum int) (*Service, [2]*followerConn) {
		cfg := sigmaConfig()
		cfg.SubmitSyncTimeout = 50 * time.Millisecond
		cfg.LeaseInterval = time.Hour
		cfg.Quorum = quorum
		svc := mustService(t, cfg)
		var fcs [2]*followerConn
		for i := range fcs {
			fcs[i] = newFollowerConn(i+1, "http://127.0.0.1:0", time.Second)
		}
		svc.mu.Lock()
		svc.role = RoleLeader
		svc.followers = []*followerConn{fcs[0], fcs[1]}
		svc.mu.Unlock()
		return svc, fcs
	}
	ack := func(fc *followerConn, seq uint64) {
		fc.fmu.Lock()
		fc.acked = seq
		fc.lastOK = time.Now()
		fc.fmu.Unlock()
	}
	live := func(fc *followerConn) {
		fc.fmu.Lock()
		fc.lastOK = time.Now()
		fc.fmu.Unlock()
	}

	t.Run("both followers acked", func(t *testing.T) {
		svc, fcs := newSvc(t, 2)
		ack(fcs[0], 5)
		ack(fcs[1], 5)
		if !svc.waitReplicated(5) {
			t.Fatal("full replication reported a gap")
		}
	})
	t.Run("one acked, one dead: quorum met", func(t *testing.T) {
		svc, fcs := newSvc(t, 2)
		ack(fcs[0], 5) // fcs[1] never acks and is lease-lapsed (zero lastOK)
		start := time.Now()
		if !svc.waitReplicated(5) {
			t.Fatal("2-of-3 durability reported a gap")
		}
		if el := time.Since(start); el > 25*time.Millisecond {
			t.Fatalf("quorum-met wait dawdled %v", el)
		}
		if n := svc.Metrics().Control.ReplLagTimeouts; n != 0 {
			t.Fatalf("repl_lag_timeouts = %d, want 0", n)
		}
	})
	t.Run("none acked, both dead: gap without timeout", func(t *testing.T) {
		svc, _ := newSvc(t, 2)
		start := time.Now()
		if svc.waitReplicated(5) {
			t.Fatal("leader-only durability reported as replicated")
		}
		if el := time.Since(start); el > 25*time.Millisecond {
			t.Fatalf("dead-minority wait burned %v instead of resolving early", el)
		}
		if n := svc.Metrics().Control.ReplLagTimeouts; n != 0 {
			t.Fatalf("repl_lag_timeouts = %d, want 0 (early resolve, not a timeout)", n)
		}
	})
	t.Run("live laggard: gap after the timeout", func(t *testing.T) {
		svc, fcs := newSvc(t, 2)
		live(fcs[0]) // reachable but behind: worth waiting for
		if svc.waitReplicated(5) {
			t.Fatal("laggard-bound wait reported success")
		}
		if n := svc.Metrics().Control.ReplLagTimeouts; n != 1 {
			t.Fatalf("repl_lag_timeouts = %d, want 1", n)
		}
	})
	t.Run("unanimous quorum: one acked is not enough", func(t *testing.T) {
		svc, fcs := newSvc(t, 3)
		ack(fcs[0], 5)
		if svc.waitReplicated(5) {
			t.Fatal("quorum of 3 satisfied by 2 logs")
		}
	})
}

// TestAdmitReplayIdempotent covers state.apply's admit fixes: a
// payload that decodes but carries no job must error as such (not
// "admit record N: <nil>"), a decode failure must say decode, and a
// replayed duplicate — the catch-up overlap a snapshot-installed standby
// sees — must not double-enqueue or double-count.
func TestAdmitReplayIdempotent(t *testing.T) {
	l, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sigmaConfig()
	cfg.Log = l
	svc := mustService(t, cfg)

	j := &job.Job{ID: 7, Name: "train", User: "alice", Tasks: 2, Runtime: 5, Submit: 0.5}
	rec, err := l.Append(1, replog.TypeAdmit, 0, &admitPayload{Job: j})
	if err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	for i := 0; i < 2; i++ {
		if err := svc.applyRecordLocked(rec); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	if len(svc.st.Queue) != 1 || svc.st.Counters.Accepted != 1 {
		t.Fatalf("duplicate admit double-applied: queue=%d accepted=%d", len(svc.st.Queue), svc.st.Counters.Accepted)
	}
	// A job already cancelled pre-admission stays gone.
	svc.st.Gone[8] = true
	rec2, err := l.Append(1, replog.TypeAdmit, 0, &admitPayload{Job: &job.Job{ID: 8, Tasks: 1, Runtime: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.applyRecordLocked(rec2); err != nil {
		t.Fatal(err)
	}
	if len(svc.st.Queue) != 1 {
		t.Fatal("admit resurrected a cancelled job")
	}

	nilJob := replog.Record{Seq: 99, Type: replog.TypeAdmit, Data: []byte(`{}`)}
	if err := svc.applyRecordLocked(nilJob); err == nil || !strings.Contains(err.Error(), "no job") {
		t.Fatalf("nil-job admit error = %v, want a 'no job' error", err)
	}
	garbled := replog.Record{Seq: 100, Type: replog.TypeAdmit, Data: []byte(`{`)}
	if err := svc.applyRecordLocked(garbled); err == nil || !strings.Contains(err.Error(), "decode") {
		t.Fatalf("garbled admit error = %v, want a decode error", err)
	}
}

// runLoggedWorkload drives one deterministic four-job workload through a
// service built on the given log, drains it, and returns its final metrics.
// All four submits are logged before the ticker starts: one that a cycle
// fired between would be admitted a cycle later than in another run.
func runLoggedWorkload(t *testing.T, l *replog.Log, compactEvery int64) Metrics {
	t.Helper()
	cfg := sigmaConfig()
	cfg.Log = l
	cfg.CompactEvery = compactEvery
	svc := mustService(t, cfg)
	ts := httptest.NewServer(svc.Handler())
	for i := 1; i <= 4; i++ {
		resp, body := postJSON(t, ts, "/v1/jobs", jobRequest{
			ID: int64(i), Name: "train", User: "alice", Tasks: 4,
			Runtime: float64(1 + i), SubmitAt: 0.5,
		})
		if resp.StatusCode != 202 {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
	}
	svc.Start()
	for i := 1; i <= 4; i++ {
		waitPhase(t, ts, i, PhaseCompleted)
	}
	ts.Close()
	svc.BeginDrain()
	if err := svc.Stop(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return svc.Metrics()
}

// TestCompactedWarmRestartDigestIdentical is the compaction acceptance
// gate: snapshotting + truncating the log must be invisible to outcomes. A
// run with CompactEvery produces digests byte-identical to an uncompacted
// run of the same workload, and a cold process booted from the compacted
// log (snapshot install + suffix replay) reproduces them again.
func TestCompactedWarmRestartDigestIdentical(t *testing.T) {
	refLog, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	ref := runLoggedWorkload(t, refLog, 0)
	if ref.OutcomeDigest == "" || ref.PredictorSHA == "" {
		t.Fatalf("reference run has empty digests: %+v", ref)
	}

	path := filepath.Join(t.TempDir(), "decision.log")
	l1, err := replog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m1 := runLoggedWorkload(t, l1, 2)
	if m1.OutcomeDigest != ref.OutcomeDigest {
		t.Fatalf("compaction changed the outcome digest: %q != %q", m1.OutcomeDigest, ref.OutcomeDigest)
	}
	if m1.PredictorSHA != ref.PredictorSHA {
		t.Fatalf("compaction changed the predictor SHA: %q != %q", m1.PredictorSHA, ref.PredictorSHA)
	}
	if m1.LogBase == 0 || m1.Control.Snapshots == 0 || m1.Control.Compactions == 0 {
		t.Fatalf("run never compacted: base=%d snapshots=%d compactions=%d",
			m1.LogBase, m1.Control.Snapshots, m1.Control.Compactions)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold restart from the compacted log: the first retained record is a
	// snapshot; replay must start there and land on identical digests.
	l2, err := replog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Base() == 0 {
		t.Fatal("compacted log reopened with base 0")
	}
	cfg := sigmaConfig()
	cfg.Log = l2
	cfg.CompactEvery = 2
	svc := mustService(t, cfg)
	m2 := svc.Metrics()
	if m2.OutcomeDigest != m1.OutcomeDigest {
		t.Fatalf("outcome digest diverged after compacted replay: %q != %q", m2.OutcomeDigest, m1.OutcomeDigest)
	}
	if m2.PredictorSHA != m1.PredictorSHA {
		t.Fatalf("predictor SHA diverged after compacted replay: %q != %q", m2.PredictorSHA, m1.PredictorSHA)
	}
	if m2.Cycles != m1.Cycles || m2.Counters.Completed != m1.Counters.Completed {
		t.Fatalf("compacted replay cycles/completions %d/%d, want %d/%d",
			m2.Cycles, m2.Counters.Completed, m1.Cycles, m1.Counters.Completed)
	}

	// And the restarted daemon keeps scheduling.
	svc.Start()
	defer svc.Stop(10 * time.Second)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts, "/v1/jobs", jobRequest{
		ID: 10, Name: "train", User: "alice", Tasks: 4, Runtime: 2, SubmitAt: 0.5,
	})
	if resp.StatusCode != 202 {
		t.Fatalf("post-restart submit: %d %s", resp.StatusCode, body)
	}
	waitPhase(t, ts, 10, PhaseCompleted)
}

// TestEmptyStandbySnapshotCatchUp covers snapshot-based catch-up end to
// end: a leader whose log is compacted twice over gains a brand-new empty
// standby, two snapshots behind — the leader must push it the snapshot its
// log begins with, in bodies under maxReplBody; the standby installs it,
// appends the suffix, converges to the leader's digests, and then survives
// the leader's death as a fully functional successor.
func TestEmptyStandbySnapshotCatchUp(t *testing.T) {
	dir := t.TempDir()
	var late [2]*lateHandler
	var tss [2]*httptest.Server
	for i := range late {
		late[i] = &lateHandler{}
		tss[i] = httptest.NewServer(late[i])
	}
	peers := map[int]string{0: tss[0].URL, 1: tss[1].URL}
	mkCfg := func(i int) Config {
		l, err := replog.Open(filepath.Join(dir, "r"+string(rune('0'+i))+".log"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		cfg := sigmaConfig()
		cfg.Log = l
		cfg.ReplicaID = i
		cfg.Peers = peers
		cfg.LeaseInterval = 250 * time.Millisecond
		cfg.SubmitSyncTimeout = time.Second
		cfg.Quorum = 1 // a lone survivor must keep working (see replicaPair)
		cfg.CompactEvery = 2
		return cfg
	}

	// Phase 1: replica 0 runs alone (replica 1's URL answers 503) and
	// compacts its log below the work it completes.
	svc0 := mustService(t, mkCfg(0))
	late[0].set(svc0.Handler())
	svc0.Start()
	waitUntil(t, 5*time.Second, "replica 0 to lead alone", svc0.IsLeader)
	for i := 1; i <= 3; i++ {
		resp, body := postJSON(t, tss[0], "/v1/jobs", jobRequest{
			ID: int64(i), Name: "train", User: "alice", Tasks: 4,
			Runtime: float64(1 + i), SubmitAt: 0.5,
		})
		if resp.StatusCode != 202 {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
	}
	for i := 1; i <= 3; i++ {
		waitPhase(t, tss[0], i, PhaseCompleted)
	}
	waitUntil(t, 5*time.Second, "leader to compact its log twice", func() bool {
		return svc0.Metrics().Control.Compactions >= 2
	})
	lead := svc0.Metrics()

	// Phase 2: an empty standby joins. Record-by-record catch-up is
	// impossible (its cursor is below the base) so it must install the
	// snapshot and converge. Every push body it is sent is measured.
	svc1 := mustService(t, mkCfg(1))
	var mu sync.Mutex
	var largest int64
	inner := svc1.Handler()
	late[1].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replog/append" {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			mu.Lock()
			largest = max(largest, int64(len(body)))
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	svc1.Start()
	waitUntil(t, 10*time.Second, "standby to install the snapshot and converge", func() bool {
		m := svc1.Metrics()
		return m.Control.SnapshotInstalls >= 1 && m.OutcomeDigest == lead.OutcomeDigest &&
			m.PredictorSHA == lead.PredictorSHA
	})
	if m := svc1.Metrics(); m.Control.Diverged != 0 {
		t.Fatalf("standby flagged %d divergences during catch-up", m.Control.Diverged)
	}
	mu.Lock()
	if largest == 0 || largest >= maxReplBody {
		t.Errorf("largest push body %d bytes, want under maxReplBody (%d)", largest, maxReplBody)
	}
	mu.Unlock()

	// Phase 3: the leader dies; the snapshot-born standby takes over and
	// schedules fresh work end to end.
	tss[0].Close()
	if err := svc0.Stop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	defer func() {
		svc1.Stop(5 * time.Second)
		tss[1].Close()
	}()
	waitUntil(t, 5*time.Second, "standby to take over", svc1.IsLeader)
	resp, body := postJSON(t, tss[1], "/v1/jobs", jobRequest{
		ID: 9, Name: "train", User: "alice", Tasks: 4, Runtime: 2, SubmitAt: 0.5,
	})
	if resp.StatusCode != 202 {
		t.Fatalf("post-failover submit: %d %s", resp.StatusCode, body)
	}
	waitPhase(t, tss[1], 9, PhaseCompleted)
}

// lastSnapshot returns the newest TypeSnapshot record l retains, or
// ok=false when it holds none.
func lastSnapshot(l *replog.Log) (replog.Record, bool) {
	recs := l.Committed()
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Type == replog.TypeSnapshot {
			return recs[i], true
		}
	}
	return replog.Record{}, false
}

// TestSnapshotTakeoverHandsLiveRunsOver: a standby that installed a snapshot
// and takes over must hand its fresh local agent every live run in its first
// phase A. Installing refills the agents' outboxes from the desired map for
// that; cleared instead, the agent learns of a run only from phase A's
// desired/actual diff, is handed it in phase F, and reports it a cycle late —
// here job 1, due in the first cycle after the takeover, whose nodes job 2 is
// waiting for: job 2 would start a cycle after it does on the leader.
func TestSnapshotTakeoverHandsLiveRunsOver(t *testing.T) {
	l, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sigmaConfig()
	cfg.Log = l
	lead := mustService(t, cfg)
	lead.mu.Lock()
	lead.takeoverLocked(0)
	lead.mu.Unlock()
	for i, at := range []float64{0.5, 1.5} { // job 1 alone at cycle 1; job 2 behind it
		if _, err := lead.Submit(&job.Job{ID: job.ID(i + 1), Name: "train", User: "alice", Tasks: 16, Runtime: 2.5,
			Submit: at, NonPrefFactor: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run := func(svc *Service, n int) {
		for i := 0; i < n; i++ {
			svc.runCycle()
		}
	}
	run(lead, 3) // job 1 started at 1, due at 3.5
	lead.mu.Lock()
	lead.snapshotLocked()
	lead.mu.Unlock()
	snap, ok := lastSnapshot(l)
	if !ok {
		t.Fatal("the leader took no snapshot")
	}
	if st, _ := lead.Status(1); st.Phase != PhaseRunning {
		t.Fatalf("job 1 is %q at the snapshot, want running", st.Phase)
	}
	run(lead, 3)
	want := lead.Metrics()
	if st, _ := lead.Status(2); st.FirstStart != 4 {
		t.Fatalf("job 2 first started at %v on the leader, want 4 (the cycle job 1's nodes came free)", st.FirstStart)
	}

	cfg = sigmaConfig()
	if cfg.Log, err = replog.Open(""); err != nil {
		t.Fatal(err)
	}
	standby := mustService(t, cfg)
	push(t, standby, []replog.Record{snap})
	standby.mu.Lock()
	standby.takeoverLocked(0)
	standby.mu.Unlock()
	run(standby, 3)
	if got := standby.Metrics(); got.OutcomeDigest != want.OutcomeDigest || got.Cycles != want.Cycles {
		st, _ := standby.Status(2)
		t.Fatalf("standby after takeover: digest %.12s at cycle %d (job 2 first started at %v), leader %.12s at cycle %d",
			got.OutcomeDigest, got.Cycles, st.FirstStart, want.OutcomeDigest, want.Cycles)
	}
}

// TestFailedSnapshotInstallChangesNothing: a snapshot a standby cannot
// install — a predictor stream its predictor refuses, a cached distribution
// the scheduler would refuse, a field this build does not write (an older
// build's "comps" or "attempts", its predictor as a JSON object), an older
// build's whole JSON payload — must
// leave the standby as it was: its log not
// reset to the snapshot, its state, scheduler and predictor untouched, one
// divergence counted. (The log used to be reset before the payload was even
// decoded, and the scheduler overwritten before the predictor was tried:
// a log at seq N over a scheduler from the snapshot and an engine from before.)
func TestFailedSnapshotInstallChangesNothing(t *testing.T) {
	// A donor's real snapshot, taken with work in flight.
	dl, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sigmaConfig()
	cfg.Log = dl
	donor := mustService(t, cfg)
	donor.mu.Lock()
	donor.takeoverLocked(0)
	donor.mu.Unlock()
	for i := 1; i <= 3; i++ {
		if _, err := donor.Submit(&job.Job{ID: job.ID(i), Name: "train", User: "alice", Tasks: 4,
			Runtime: float64(1 + i), Submit: 0.5, NonPrefFactor: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		donor.runCycle()
	}
	donor.mu.Lock()
	donor.snapshotLocked()
	donor.mu.Unlock()
	good, ok := lastSnapshot(dl)
	if !ok {
		t.Fatal("the donor took no snapshot")
	}

	// Each damage rewrites the good payload; a rewrite that leaves its
	// sections well-formed reseals them, so the predictor's hash and the
	// header's epoch agree with what the sections say and only the damage
	// itself is left to refuse.
	state := func(damage func(top map[string]json.RawMessage)) func([]byte) []byte {
		return func(payload []byte) []byte {
			h, secs := snapshotParts(t, payload)
			var top map[string]json.RawMessage
			if err := json.Unmarshal(secs[0], &top); err != nil {
				t.Fatal(err)
			}
			damage(top)
			secs[0] = mustJSON(t, top)
			return resealSnapshot(h.epoch, secs)
		}
	}
	section := func(i int, damage func([]byte) []byte) func([]byte) []byte {
		return func(payload []byte) []byte {
			h, secs := snapshotParts(t, payload)
			secs[i] = damage(secs[i])
			return resealSnapshot(h.epoch, secs)
		}
	}
	corrupt := map[string]func(payload []byte) []byte{
		"predictor stream": section(2, func([]byte) []byte { return []byte("3SPR\x63") }),
		"truncated binary stream": section(2, func(stream []byte) []byte {
			if len(stream) < 2 {
				t.Fatalf("the snapshot carries no binary predictor stream (%d bytes)", len(stream))
			}
			return stream[:len(stream)/2]
		}),
		"dists entry": state(func(top map[string]json.RawMessage) {
			var sched map[string]json.RawMessage
			if err := json.Unmarshal(top["sched"], &sched); err != nil {
				t.Fatal(err)
			}
			sched["dists"] = json.RawMessage(`{"2":{"kind":"no such distribution"}}`)
			top["sched"] = mustJSON(t, sched)
		}),
		// Fields older builds wrote and this one does not.
		"pre-agent comps": state(func(top map[string]json.RawMessage) {
			top["comps"] = json.RawMessage(`[{"id":1,"run_id":1,"at":5}]`)
			delete(top, "desired")
		}),
		"attempts": state(func(top map[string]json.RawMessage) {
			top["attempts"] = json.RawMessage(`{"1":1}`)
		}),
		"predictor JSON object": section(2, func([]byte) []byte {
			return []byte(`{"version":1,"groups":[{},{},{},{},{},{},{}]}`)
		}),
		// The engine's outcomes as older builds wrote them: JSON objects,
		// not the binary outcome stream.
		"JSON outcomes": section(1, func([]byte) []byte {
			return []byte(`[{"Job":{"ID":1,"Name":"train","User":"alice","Tasks":4,"Runtime":2,"NonPrefFactor":1},"Started":true}]`)
		}),
		// The whole payload as older builds wrote it: one JSON object.
		"JSON payload": func(payload []byte) []byte { return jsonSnapshot(t, payload) },
	}
	for name, damage := range corrupt {
		t.Run(name, func(t *testing.T) {
			// The same record with its payload damaged, re-sealed at the same
			// sequence so that the log's own checks pass.
			sealer, err := replog.Open("")
			if err != nil {
				t.Fatal(err)
			}
			for sealer.Len() < good.Seq-1 {
				if _, err := sealer.Append(good.Epoch, replog.TypeCancel, 0, &cancelPayload{}); err != nil {
					t.Fatal(err)
				}
			}
			sealed, err := sealer.AppendBatch(good.Epoch, replog.TypeSnapshot, good.Cycle, [][]byte{damage(good.Data)})
			if err != nil {
				t.Fatal(err)
			}
			bad := sealed[0]
			// A standby with a little state of its own, far behind the record.
			sl, err := replog.Open(filepath.Join(t.TempDir(), "standby.log"))
			if err != nil {
				t.Fatal(err)
			}
			defer sl.Close()
			cfg := sigmaConfig()
			cfg.Log = sl
			standby := mustService(t, cfg)
			if _, err := standby.Submit(&job.Job{ID: 9, Name: "train", User: "bob", Tasks: 2, Runtime: 3, Submit: 0.5, NonPrefFactor: 1}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := standby.TrainBatch([]TrainRecord{{Job: &job.Job{Name: "train", User: "bob", Tasks: 2}, Runtime: 3}}); err != nil {
				t.Fatal(err)
			}
			before, err := standby.st.wire()
			if err != nil {
				t.Fatal(err)
			}
			lenBefore, headBefore, shaBefore := sl.Len(), sl.Head(), predictorSHA(cfg.Predictor)

			if code, resp := pushOnce(t, standby, []replog.Record{bad}); code != http.StatusConflict || resp.Acked != lenBefore {
				t.Errorf("push of the damaged snapshot answered %d, acked %d; want 409 and %d", code, resp.Acked, lenBefore)
			}

			after, err := standby.st.wire()
			if err != nil {
				t.Fatal(err)
			}
			if sl.Len() != lenBefore || sl.Head() != headBefore {
				t.Errorf("log moved from seq %d (%.12s) to seq %d (%.12s)", lenBefore, headBefore, sl.Len(), sl.Head())
			}
			if !bytes.Equal(before, after) {
				t.Errorf("state changed: %d encoded bytes, then %d", len(before), len(after))
			}
			if sha := predictorSHA(cfg.Predictor); sha != shaBefore {
				t.Errorf("predictor changed: %.12s -> %.12s", shaBefore, sha)
			}
			if m := standby.Metrics(); m.Control.Diverged != 1 || m.Control.SnapshotInstalls != 0 {
				t.Errorf("diverged = %d, installs = %d, want 1 and 0", m.Control.Diverged, m.Control.SnapshotInstalls)
			}
			// And the undamaged record still installs.
			push(t, standby, []replog.Record{good})
			if m := standby.Metrics(); m.Control.SnapshotInstalls != 1 || m.LogLen != good.Seq ||
				m.OutcomeDigest != donor.Metrics().OutcomeDigest {
				t.Errorf("the good snapshot did not install: %d installs, log at %d", m.Control.SnapshotInstalls, m.LogLen)
			}
		})
	}
}

// TestJSONSnapshotFailsBootstrap: a log whose snapshot record holds the
// JSON payload older builds wrote does not start a replica; the error says
// what the payload is, and nothing of it is half read.
func TestJSONSnapshotFailsBootstrap(t *testing.T) {
	dl, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, dl, nil)
	good, ok := lastSnapshot(dl)
	if !ok {
		t.Fatal("the script appended no snapshot")
	}
	path := filepath.Join(t.TempDir(), "old.log")
	l, err := replog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(good.Epoch, replog.TypeSnapshot, good.Cycle, [][]byte{jsonSnapshot(t, good.Data)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = replog.Open(path); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cfg := scriptConfig()
	cfg.Log = l
	if _, err := New(cfg); !errors.Is(err, errJSONSnapshot) {
		t.Fatalf("a replica over a JSON snapshot record started with %v; want the JSON payload refused by name", err)
	}
}

// TestReplogGetServesSnapshotsAsBase64: GET /v1/replog over a range that
// holds snapshot records is valid JSON. A snapshot's data is a JSON string,
// its binary payload in base64; every other record's data is its payload
// as it is.
func TestReplogGetServesSnapshotsAsBase64(t *testing.T) {
	l, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	lead := runScript(t, l, nil)
	want := l.Records()
	w := httptest.NewRecorder()
	lead.Handler().ServeHTTP(w, httptest.NewRequest("GET", fmt.Sprintf("/v1/replog?from=0&limit=%d", len(want)), nil))
	if w.Code != http.StatusOK || !json.Valid(w.Body.Bytes()) {
		t.Fatalf("GET /v1/replog: %d, valid JSON %v", w.Code, json.Valid(w.Body.Bytes()))
	}
	var got struct {
		Records []struct {
			Seq  uint64          `json:"seq"`
			Type string          `json:"type"`
			Data json.RawMessage `json:"data"`
		} `json:"records"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want) {
		t.Fatalf("%d records served, the log holds %d", len(got.Records), len(want))
	}
	snaps := 0
	for i, rec := range got.Records {
		if rec.Seq != want[i].Seq || rec.Type != want[i].Type {
			t.Fatalf("record %d served as seq %d %q, the log has seq %d %q", i, rec.Seq, rec.Type, want[i].Seq, want[i].Type)
		}
		data := []byte(rec.Data)
		if rec.Type == replog.TypeSnapshot {
			snaps++
			if err := json.Unmarshal(rec.Data, &data); err != nil {
				t.Fatalf("snapshot seq %d: data is not a base64 string: %v", rec.Seq, err)
			}
		}
		if !bytes.Equal(data, want[i].Data) {
			t.Fatalf("seq %d (%s): served data differs from the log's payload", rec.Seq, rec.Type)
		}
	}
	if snaps == 0 {
		t.Fatal("the range held no snapshot record")
	}
}

// TestSnapshotInstallReproducesOutcomeDigest: a snapshot whose engine holds
// outcomes of every kind — completed on its preferred partition after a
// preemption, cancelled, failed out of its retry budget, still pending; with
// preferences, attributes and a negative ID — installs on a cold replica
// with the donor's outcome digest. The outcomes are made on the donor's
// engine directly: what is under test is the snapshot's outcome stream, not
// how a service reaches those states.
func TestSnapshotInstallReproducesOutcomeDigest(t *testing.T) {
	dl, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sigmaConfig()
	cfg.Log = dl
	donor := mustService(t, cfg)
	donor.mu.Lock()
	donor.takeoverLocked(0)
	eng := donor.st.eng
	eng.SetRetryBudget(1)
	for _, j := range []*job.Job{
		{ID: -1, Name: "etl", User: "alice", Priority: 3, Submit: 0.5, Deadline: 700.25, Tasks: 2, Runtime: 300,
			NonPrefFactor: 1.5, Preferred: []int{1}, Attrs: map[string]string{"user": "alice", "name": "etl"}},
		{ID: 2, Name: "train", User: "bob", Class: job.BestEffort, Submit: 1, Tasks: 1, Runtime: 50, NonPrefFactor: 1},
		{ID: 3, Name: "etl", User: "carol", Submit: 2, Deadline: 1e6, Tasks: 3, Runtime: 20, NonPrefFactor: 2},
		{ID: 4, Name: "idle", User: "dave", Class: job.BestEffort, Submit: 3, Tasks: 1, Runtime: 1, NonPrefFactor: 1},
	} {
		if err := eng.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	start := func(id job.ID, alloc simulator.Alloc, now float64) int64 {
		t.Helper()
		run, ok := eng.Start(simulator.StartAction{Job: id, Alloc: alloc}, now)
		if !ok {
			t.Fatalf("job %d did not start", id)
		}
		return run.RunID
	}
	start(-1, simulator.Alloc{0, 2}, 10)
	eng.Preempt(-1, 40)
	if _, _, ok := eng.Complete(-1, start(-1, simulator.Alloc{0, 2}, 50), 350); !ok {
		t.Fatal("job -1 did not complete")
	}
	start(2, simulator.Alloc{1, 0}, 60)
	eng.Cancel(2, 70)
	eng.CrashRun(3, start(3, simulator.Alloc{3, 0}, 80), 90)
	if requeued, _ := eng.CrashRun(3, start(3, simulator.Alloc{3, 0}, 100), 110); requeued {
		t.Fatal("job 3 was requeued past its retry budget")
	}
	donor.snapshotLocked()
	donor.mu.Unlock()
	want := donor.Metrics()
	if want.Control.Snapshots != 1 {
		t.Fatalf("the donor took %d snapshots, want 1", want.Control.Snapshots)
	}

	cold := sigmaConfig()
	cold.Log = dl
	got := mustService(t, cold).Metrics()
	if got.OutcomeDigest != want.OutcomeDigest {
		t.Fatalf("installed outcome digest %.12s, the donor has %.12s", got.OutcomeDigest, want.OutcomeDigest)
	}
}

// TestMinorityCannotElect pins the election quorum gate: a replica that can
// see fewer than Quorum group members (itself included) must never stand,
// no matter how long the leader lease has lapsed — a minority partition
// that could elect would fork the log from the majority side. Visibility of
// one peer restores the quorum and the election proceeds.
func TestMinorityCannotElect(t *testing.T) {
	l, err := replog.Open(filepath.Join(t.TempDir(), "r0.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	late := &lateHandler{}
	own := httptest.NewServer(late)
	defer own.Close()
	peerUp := false
	var peerMu sync.Mutex
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		peerMu.Lock()
		up := peerUp
		peerMu.Unlock()
		if !up || r.URL.Path != "/v1/control/status" {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, http.StatusOK, ctlStatus{Replica: 1, Role: string(RoleFollower), Seq: 0})
	}))
	defer peer.Close()

	cfg := sigmaConfig()
	cfg.Log = l
	cfg.ReplicaID = 0
	// Three replicas: this one, the controllable peer, and one that is
	// simply gone. Majority quorum is 2.
	cfg.Peers = map[int]string{0: own.URL, 1: peer.URL, 2: "http://127.0.0.1:9"}
	cfg.LeaseInterval = 200 * time.Millisecond
	svc := mustService(t, cfg)
	late.set(svc.Handler())
	svc.Start()
	defer svc.Stop(5 * time.Second)

	// Isolated (sees only itself): several full leases must pass without a
	// takeover.
	time.Sleep(4 * cfg.LeaseInterval)
	if svc.IsLeader() {
		t.Fatal("replica elected itself from a minority partition")
	}
	if m := svc.Metrics(); m.Control.Elections != 0 {
		t.Fatalf("minority replica recorded %d elections", m.Control.Elections)
	}

	// One peer becomes visible: 2 of 3 is a quorum, and with the longest
	// log among it this replica must now win.
	peerMu.Lock()
	peerUp = true
	peerMu.Unlock()
	waitUntil(t, 5*time.Second, "replica to elect itself once a quorum is visible", svc.IsLeader)
}
