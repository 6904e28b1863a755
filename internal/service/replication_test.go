package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"threesigma/internal/core"
	"threesigma/internal/job"
	"threesigma/internal/replog"
	"threesigma/internal/simulator"
)

// testGroup is an in-process replica group over httptest servers: every
// replica has its own log file and sits behind a lateHandler, so that one can
// be taken down (set(nil)) and brought back on the same URL.
type testGroup struct {
	svcs  []*Service
	logs  []*replog.Log
	late  []*lateHandler
	tss   []*httptest.Server
	peers map[int]string
	dir   string
}

// newTestGroup builds n replicas with a 250 ms lease; tune adjusts
// replica i's config before the service is built. Nothing is started.
func newTestGroup(t *testing.T, n int, tune func(i int, cfg *Config)) *testGroup {
	t.Helper()
	g := &testGroup{peers: map[int]string{}, dir: t.TempDir()}
	for i := 0; i < n; i++ {
		late := &lateHandler{}
		ts := httptest.NewServer(late)
		t.Cleanup(ts.Close)
		g.late, g.tss = append(g.late, late), append(g.tss, ts)
		g.peers[i] = ts.URL
	}
	for i := 0; i < n; i++ {
		g.svcs, g.logs = append(g.svcs, nil), append(g.logs, nil)
		g.build(t, i, tune)
	}
	return g
}

// build (re)creates replica i over its log file, as a restarted process
// would, and puts it behind the replica's URL.
func (g *testGroup) build(t *testing.T, i int, tune func(i int, cfg *Config)) {
	t.Helper()
	l, err := replog.Open(filepath.Join(g.dir, fmt.Sprintf("r%d.log", i)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cfg := sigmaConfig()
	cfg.Log = l
	cfg.ReplicaID = i
	cfg.Peers = g.peers
	cfg.LeaseInterval = 250 * time.Millisecond
	cfg.SubmitSyncTimeout = time.Second
	if tune != nil {
		tune(i, &cfg)
	}
	g.svcs[i], g.logs[i] = mustService(t, cfg), l
	g.late[i].set(g.svcs[i].Handler())
}

func (g *testGroup) start(t *testing.T) {
	t.Helper()
	for _, svc := range g.svcs {
		svc.Start()
	}
	t.Cleanup(func() {
		for _, svc := range g.svcs {
			svc.Stop(5 * time.Second)
		}
	})
	t.Cleanup(g.stopLeaderFirst)
	waitUntil(t, 5*time.Second, "replica 0 to lead and the others to follow it", func() bool {
		for i, svc := range g.svcs {
			role, _, lid := svc.Role()
			if (i == 0) != (role == RoleLeader) || (i > 0 && lid != 0) {
				return false
			}
		}
		return true
	})
}

// stopLeaderFirst stops the group at the end of a test, the current leader
// first. Registered after every other cleanup, it runs before any of them:
// a leader stopped after its followers would wait out its hand-off bound
// for acks that their closed logs refuse.
func (g *testGroup) stopLeaderFirst() {
	for _, svc := range g.svcs {
		if svc.IsLeader() {
			svc.Stop(5 * time.Second)
		}
	}
	for _, svc := range g.svcs {
		svc.Stop(5 * time.Second)
	}
}

// submitStream posts jobs first..last to the leader, one every gap, each
// stamped a few cycles ahead and a few cycles long.
func (g *testGroup) submitStream(t *testing.T, first, last int, gap time.Duration) {
	t.Helper()
	for i := first; i <= last; i++ {
		resp, body := postJSON(t, g.tss[0], "/v1/jobs", jobRequest{
			ID: int64(i), Name: "train", User: "alice", Tasks: 2,
			Runtime: float64(1 + i%3), SubmitAt: g.svcs[0].VirtualNow() + 3,
		})
		if resp.StatusCode != 202 {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		time.Sleep(gap)
	}
	for i := first; i <= last; i++ {
		waitPhase(t, g.tss[0], i, PhaseCompleted)
	}
}

// hookSched runs a hook inside every Cycle call — where the leader has
// released its lock and a submit can land mid-solve.
type hookSched struct {
	*core.Scheduler
	hook func()
}

func (h *hookSched) Cycle(st *simulator.State) simulator.Decision {
	if h.hook != nil {
		h.hook()
	}
	return h.Scheduler.Cycle(st)
}

// TestMidSolveSubmitAdmittedInTheSameCycleEverywhere is the regression for
// the benchmark's first finding: an unstamped submit that lands while the
// leader is solving cycle k is stamped with k's time and logged before k's
// cycle record, so a follower — which applies the admit record first and
// used to admit everything stamped <= now — put it into the engine one
// cycle before the leader did, and the engines parted ways. Admission is
// gated on the cycle record's InputsThrough now: same cycle on every replica.
func TestMidSolveSubmitAdmittedInTheSameCycleEverywhere(t *testing.T) {
	const jobs = 6
	var g *testGroup
	next := 0
	g = newTestGroup(t, 2, func(i int, cfg *Config) {
		cfg.Quorum = 1
		if i != 0 {
			return
		}
		// Only the leader solves; the hook runs on its loop goroutine.
		cfg.Scheduler = &hookSched{Scheduler: cfg.Scheduler.(*core.Scheduler), hook: func() {
			if g == nil || next >= jobs || !g.svcs[0].IsLeader() {
				return
			}
			next++
			resp, body := postJSON(t, g.tss[0], "/v1/jobs", jobRequest{
				ID: int64(next), Name: "train", User: "alice", Tasks: 2, Runtime: 2,
			})
			if resp.StatusCode != 202 {
				t.Errorf("mid-solve submit %d: %d %s", next, resp.StatusCode, body)
			}
		}}
	})
	g.start(t)
	for i := 1; i <= jobs; i++ {
		waitPhase(t, g.tss[0], i, PhaseCompleted)
	}
	lead := g.svcs[0].Metrics()
	waitUntil(t, 5*time.Second, "the follower to reach the leader's outcome digest", func() bool {
		return g.svcs[1].Metrics().OutcomeDigest == lead.OutcomeDigest
	})
	for i, svc := range g.svcs {
		if d := svc.Metrics().Control.Diverged; d != 0 {
			t.Errorf("replica %d flagged %d divergences", i, d)
		}
	}
}

// stableCut waits for an instant at which the followers named have caught up
// with the leader — same log length, base and outcome digest, read between
// two identical readings of the leader — and returns every replica's metrics
// at that instant, by replica ID (zero for a follower not named).
func (g *testGroup) stableCut(t *testing.T, followers ...int) []Metrics {
	t.Helper()
	cut := make([]Metrics, len(g.svcs))
	waitUntil(t, 10*time.Second, "followers to catch up with the leader", func() bool {
		cut[0] = g.svcs[0].Metrics()
		for _, i := range followers {
			cut[i] = g.svcs[i].Metrics()
			if cut[i].LogLen != cut[0].LogLen || cut[i].LogBase != cut[0].LogBase ||
				cut[i].OutcomeDigest != cut[0].OutcomeDigest {
				return false
			}
		}
		again := g.svcs[0].Metrics()
		return again.LogLen == cut[0].LogLen && again.LogBase == cut[0].LogBase
	})
	return cut
}

// TestInSyncFollowersCompactWithoutReinstalling is the tentpole's contract
// for compaction: the leader truncates its log only below a snapshot record
// its live followers already hold, so a follower that keeps up takes the
// check-and-compact branch every time and never re-installs state it has.
// Before, the leader compacted in the same hold of the lock that appended
// the snapshot — every follower fell below the base at every compaction,
// answered Busy and fetched the whole snapshot back.
//
// The replicas' compaction counts need not agree: settleCompaction keeps one
// pending snapshot record per replica, and a newer record replaces one not
// yet settled — on the leader while a follower's ack is outstanding, on a
// follower when its compactor runs late — so each replica may fold several
// snapshots into one truncation. What every follower must show is that it
// compacted, repeatedly, on its own.
func TestInSyncFollowersCompactWithoutReinstalling(t *testing.T) {
	g := newTestGroup(t, 3, func(i int, cfg *Config) { cfg.CompactEvery = 5 })
	g.start(t)
	g.submitStream(t, 1, 30, 10*time.Millisecond)

	cut := g.stableCut(t, 1, 2)
	lead := cut[0].Control
	if lead.Compactions < 3 || lead.Snapshots < 3 {
		t.Fatalf("the stream crossed %d compactions of %d snapshots, want >= 3", lead.Compactions, lead.Snapshots)
	}
	for i, m := range cut[1:] {
		if c := m.Control; c.Compactions < 3 || c.SnapshotInstalls != 0 || c.Diverged != 0 {
			t.Errorf("follower %d: %d compactions (want >= 3; leader %d), %d snapshot installs, %d divergences",
				i+1, c.Compactions, lead.Compactions, c.SnapshotInstalls, c.Diverged)
		}
	}
	// Same chain: the record at a sequence every replica still holds — the
	// group keeps cycling, so that is the end of the shortest log.
	common := g.logs[0].Len()
	for _, l := range g.logs[1:] {
		common = min(common, l.Len())
	}
	want := g.logs[0].Since(common-1, 1)
	for i, l := range g.logs[1:] {
		got := l.Since(common-1, 1)
		if len(want) != 1 || len(got) != 1 || got[0].Hash != want[0].Hash {
			t.Errorf("follower %d and the leader hold different records at seq %d", i+1, common)
		}
	}
	if m := g.svcs[0].Metrics(); m.Control.Diverged != 0 || m.Control.ReplLagTimeouts != 0 {
		t.Errorf("leader: %d divergences, %d replication timeouts", m.Control.Diverged, m.Control.ReplLagTimeouts)
	}
}

// TestTakeoverSendsNoSnapshotToAnInSyncFollower: a successor that takes over
// a compacted log probes each follower before it pushes, and pushes from the
// base only to one whose answer puts it at or below the base. A follower that
// holds the whole log is never sent the snapshot the log begins with; a
// sender that started every term at the base would send it to each of them.
func TestTakeoverSendsNoSnapshotToAnInSyncFollower(t *testing.T) {
	g := newTestGroup(t, 3, func(i int, cfg *Config) { cfg.CompactEvery = 5 })
	g.start(t)
	g.submitStream(t, 1, 12, 10*time.Millisecond)
	g.stableCut(t, 1, 2)

	// In front of replica 2: the pushes replica 1 sends it, and the snapshot
	// records among them that replica 2 already holds.
	var mu sync.Mutex
	var pushes, resent int
	inner := g.svcs[2].Handler()
	g.late[2].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replog/append" {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			if req, err := decodePush(body); err == nil && req.From == 1 {
				held := g.logs[2].Len()
				mu.Lock()
				pushes++
				for _, rec := range req.Records {
					if rec.Type == replog.TypeSnapshot && rec.Seq <= held {
						resent++
					}
				}
				mu.Unlock()
			}
		}
		inner.ServeHTTP(w, r)
	}))

	if err := g.svcs[0].Stop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "replica 1 to take over", g.svcs[1].IsLeader)
	if m := g.svcs[1].Metrics(); m.LogBase == 0 {
		t.Fatal("replica 1 took over an uncompacted log")
	}
	waitUntil(t, 5*time.Second, "replica 2 to hold the successor's log", func() bool {
		_, epoch, leader := g.svcs[2].Role()
		_, want, _ := g.svcs[1].Role()
		return leader == 1 && epoch == want && g.logs[2].Len() >= g.logs[1].Len()
	})
	mu.Lock()
	defer mu.Unlock()
	if pushes == 0 || resent != 0 {
		t.Errorf("the successor pushed replica 2 %d times, %d snapshot records it held; want some pushes and no snapshot", pushes, resent)
	}
	if m := g.svcs[2].Metrics(); m.Control.SnapshotInstalls != 0 || m.Control.Diverged != 0 {
		t.Errorf("replica 2: %d snapshot installs, %d divergences", m.Control.SnapshotInstalls, m.Control.Diverged)
	}
}

// TestDownFollowerDelaysCompactionByOneLeaseAtMost: a follower that stops
// acking holds a pending compaction back only until its lease lapses, and
// when it returns — below the base by then — it rejoins through the snapshot
// catch-up path, which exists for exactly this replica.
func TestDownFollowerDelaysCompactionByOneLeaseAtMost(t *testing.T) {
	tune := func(i int, cfg *Config) { cfg.CompactEvery = 5 }
	g := newTestGroup(t, 3, tune)
	g.start(t)
	g.submitStream(t, 1, 6, 10*time.Millisecond)
	g.stableCut(t, 1, 2)

	// Replica 2 goes away: its URL answers 503, its service stops.
	g.late[2].set(nil)
	if err := g.svcs[2].Stop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := g.logs[2].Close(); err != nil {
		t.Fatal(err)
	}
	down := time.Now()
	before := g.svcs[0].Metrics()
	lease := g.svcs[0].cfg.LeaseInterval
	waitUntil(t, 5*time.Second, "the leader to compact past the dead follower", func() bool {
		m := g.svcs[0].Metrics()
		return m.Control.Compactions > before.Control.Compactions+1 && m.LogBase > g.logs[2].Len()
	})
	// One lease for the dead follower to lapse, then the next cycle settles
	// what was pending; the allowance on top is for a loaded machine.
	if el := time.Since(down); el > lease+time.Second {
		t.Errorf("compaction resumed %v after the follower went down, lease is %v", el, lease)
	}
	g.submitStream(t, 7, 12, 10*time.Millisecond)

	// It comes back as a restarted process over its old log, far behind.
	g.build(t, 2, tune)
	g.svcs[2].Start()
	t.Cleanup(func() { g.svcs[2].Stop(5 * time.Second) })
	waitUntil(t, 10*time.Second, "the returning follower to install a snapshot", func() bool {
		return g.svcs[2].Metrics().Control.SnapshotInstalls >= 1
	})
	g.stableCut(t, 1, 2)
	if m := g.svcs[1].Metrics(); m.Control.SnapshotInstalls != 0 {
		t.Errorf("the follower that stayed up installed %d snapshots", m.Control.SnapshotInstalls)
	}
	for i, svc := range g.svcs {
		if d := svc.Metrics().Control.Diverged; d != 0 {
			t.Errorf("replica %d flagged %d divergences", i, d)
		}
	}
}

// laggard is a peer that answers every push with a well-formed ack of
// nothing: reachable, lease refreshed, never advancing — the follower a
// compaction must wait for.
func laggard(t *testing.T) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/replog/append" {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, http.StatusOK, replAppendResp{})
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestStopSettlesPendingCompaction: while a live follower is short of the
// newest snapshot record the leader must not compact below it — and Stop
// must, because nobody is pushed to any more and the log a stopped replica
// leaves has to begin at its newest snapshot for a restart to replay from
// there.
func TestStopSettlesPendingCompaction(t *testing.T) {
	peer := laggard(t)
	g := newTestGroup(t, 1, func(i int, cfg *Config) {
		cfg.Peers = map[int]string{0: cfg.Peers[0], 1: peer.URL}
		cfg.Quorum = 1
		cfg.CompactEvery = 3
	})
	svc := g.svcs[0]
	svc.Start()
	waitUntil(t, 5*time.Second, "two snapshots", func() bool { return svc.Metrics().Control.Snapshots >= 2 })
	if m := svc.Metrics(); m.Control.Compactions != 0 || m.LogBase != 0 {
		t.Fatalf("compacted %d times to base %d below a live follower that acked nothing",
			m.Control.Compactions, m.LogBase)
	}
	if err := svc.Stop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap, ok := lastSnapshot(g.logs[0])
	if !ok {
		t.Fatal("no snapshot in the stopped leader's log")
	}
	if recs := g.logs[0].Records(); recs[0].Seq != snap.Seq || recs[0].Type != replog.TypeSnapshot {
		t.Fatalf("stopped leader's log begins at seq %d (%s), newest snapshot is seq %d",
			recs[0].Seq, recs[0].Type, snap.Seq)
	}
	if m := svc.Metrics(); m.Control.Compactions != 1 || m.LogBase != snap.Seq-1 {
		t.Fatalf("after Stop: %d compactions, base %d, want 1 and %d", m.Control.Compactions, m.LogBase, snap.Seq-1)
	}
}

// TestQuorumWaitIsEventDriven: a replicated submit takes an append, a push
// and an ack — under a millisecond on loopback — and the wait must add
// nothing to that. Polling every 2 ms made every submit pay a poll period:
// not one could finish in under 2 ms (the fastest of 200 took 2.1 ms). The
// bound is on the fastest submit, which a sleep-poll can never bring under
// its period and which a slow machine, the race detector or a neighbour on
// the same cores — all of which make most submits slower — cannot push over.
func TestQuorumWaitIsEventDriven(t *testing.T) {
	if testing.Short() {
		t.Skip("times a few hundred fsync'd, replicated submits")
	}
	const n = 200
	g := newTestGroup(t, 3, func(i int, cfg *Config) { cfg.QueueCap = 2 * n })
	g.start(t)
	lats := make([]time.Duration, n)
	for i := range lats {
		j := &job.Job{ID: job.ID(i + 1), Name: "train", User: "alice", Tasks: 1, Runtime: 1,
			Submit: 1e6, NonPrefFactor: 1} // stamped far ahead: the cycles stay empty
		t0 := time.Now()
		replicated, err := g.svcs[0].Submit(j)
		lats[i] = time.Since(t0)
		if err != nil || !replicated {
			t.Fatalf("submit %d: replicated=%v err=%v", i, replicated, err)
		}
	}
	sort.Slice(lats, func(i, k int) bool { return lats[i] < lats[k] })
	if lats[0] >= 2*time.Millisecond {
		t.Errorf("the fastest of %d replicated submits took %v (median %v): the quorum wait is not woken by the ack",
			n, lats[0], lats[n/2])
	}
	if m := g.svcs[0].Metrics(); m.Control.ReplLagTimeouts != 0 {
		t.Errorf("%d replication waits timed out", m.Control.ReplLagTimeouts)
	}
}

// TestBlockedQuorumWaitReleasedAtOnce: losing the leadership or stopping
// ends a quorum wait immediately — the record's fate belongs to the next
// term — instead of at the next poll, lease expiry or timeout.
func TestBlockedQuorumWaitReleasedAtOnce(t *testing.T) {
	for name, release := range map[string]func(*Service){
		"step-down": func(svc *Service) { svc.stepDown(9, 1) },
		"stop":      func(svc *Service) { svc.Stop(5 * time.Second) },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := sigmaConfig()
			cfg.SubmitSyncTimeout = time.Minute
			cfg.LeaseInterval = time.Hour // the silent follower stays "live" throughout
			cfg.Quorum = 2
			svc := mustService(t, cfg)
			svc.Start() // no peers: leads at once
			defer svc.Stop(5 * time.Second)
			fc := newFollowerConn(1, "http://127.0.0.1:0", time.Second)
			fc.fmu.Lock()
			fc.lastOK = svc.cfg.Clock.Now()
			fc.fmu.Unlock()
			svc.mu.Lock()
			svc.followers = []*followerConn{fc}
			svc.mu.Unlock()

			done := make(chan bool, 1)
			go func() { done <- svc.waitReplicated(3) }()
			select {
			case <-done:
				t.Fatal("the wait did not block on a live follower that has not acked")
			case <-time.After(50 * time.Millisecond):
			}
			start := time.Now()
			release(svc)
			select {
			case ok := <-done:
				if ok {
					t.Error("a wait cut short reported the record replicated")
				}
				if el := time.Since(start); el > time.Second {
					t.Errorf("released after %v", el)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the waiter stayed blocked")
			}
			if n := svc.Metrics().Control.ReplLagTimeouts; n != 0 {
				t.Errorf("repl_lag_timeouts = %d: a release is not a timeout", n)
			}
		})
	}
}

// TestSnapshotEngineEpochLeadsThePayload pins what the in-sync follower's
// cheap check rests on: an exported snapshot begins with the engine epoch and
// the predictor hash, so reading them costs the same for a 1 KB payload and a
// 4 MB one. A payload whose header does not lead it — an older build's JSON,
// whatever its key order — is refused, not half read.
func TestSnapshotEngineEpochLeadsThePayload(t *testing.T) {
	l, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sigmaConfig()
	cfg.Log = l
	cfg.CompactEvery = 1
	svc := mustService(t, cfg)
	svc.mu.Lock()
	if err := svc.st.eng.Submit(&job.Job{ID: 1, Tasks: 1, Runtime: 1}); err != nil {
		t.Fatal(err)
	}
	svc.snapshotLocked()
	want, wantSHA := svc.st.eng.Epoch(), predictorSHA(cfg.Predictor)
	svc.mu.Unlock()
	rec, ok := lastSnapshot(l)
	if !ok {
		t.Fatal("no snapshot appended")
	}
	if h, _, err := snapshotHeader(rec.Data); err != nil || h.epoch != want || want == 0 || h.predictorSHA() != wantSHA {
		t.Fatalf("snapshotHeader = %d, %.12s, %v; the engine is at epoch %d, the predictor hashes to %.12s",
			h.epoch, h.predictorSHA(), err, want, wantSHA)
	}
	for _, bad := range []string{
		`{"cycle":3,"engine_epoch":7,"predictor_sha":"ab"}`,
		`{"engine_epoch":7,"cycle":3,"predictor_sha":"ab"}`,
		`{"predictor_sha":"ab","engine_epoch":7}`,
		`{"engine_epoch":7,"predictor_sha":"ab"}`,
	} {
		if _, _, err := snapshotHeader([]byte(bad)); err == nil {
			t.Fatalf("read a header that does not lead the payload %s", bad)
		}
	}
}

// failingExport is a scheduler whose state cannot be exported.
type failingExport struct{ *core.Scheduler }

func (failingExport) ExportState() (*core.SchedState, error) {
	return nil, fmt.Errorf("state too large to export")
}

// TestSnapshotFailureIsCounted: a snapshot that cannot be taken used to be a
// log line every CompactEvery cycles and nothing else; /v1/metrics must show
// a log that has stopped compacting.
func TestSnapshotFailureIsCounted(t *testing.T) {
	l, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sigmaConfig()
	cfg.Log = l
	cfg.CompactEvery = 2
	cfg.Scheduler = failingExport{cfg.Scheduler.(*core.Scheduler)}
	svc := mustService(t, cfg)
	svc.Start()
	defer svc.Stop(5 * time.Second)
	waitUntil(t, 5*time.Second, "two failed snapshots", func() bool {
		return svc.Metrics().Control.SnapshotFailures >= 2
	})
	if m := svc.Metrics(); m.Control.Snapshots != 0 || m.Control.Compactions != 0 || m.LogBase != 0 {
		t.Fatalf("snapshots=%d compactions=%d base=%d with a scheduler that cannot export",
			m.Control.Snapshots, m.Control.Compactions, m.LogBase)
	}
}

// trainRecords counts the TypeTrain records a log retains.
func trainRecords(l *replog.Log) int {
	n := 0
	for _, rec := range l.Since(l.Base(), 0) {
		if rec.Type == replog.TypeTrain {
			n++
		}
	}
	return n
}

// TestHistoryFeedIsOneReplicatedRecord: a 2 000-observation history feed
// grows the leader's log by exactly one TypeTrain record, which reaches the
// quorum, and the cycle boundary behind it observes every observation on
// every replica alike: the same trained count and predictor SHA.
func TestHistoryFeedIsOneReplicatedRecord(t *testing.T) {
	g := newTestGroup(t, 3, nil)
	g.start(t)
	before := trainRecords(g.logs[0])
	const n = 2000
	if tr := postTrain(t, g.tss[0], n); tr.Trained != n || tr.ReplicatedGap {
		t.Fatalf("feed: %+v", tr)
	}
	if got := trainRecords(g.logs[0]) - before; got != 1 {
		t.Fatalf("the feed appended %d train records, want 1", got)
	}
	waitUntil(t, 5*time.Second, "the next cycle to observe the feed", func() bool {
		return g.svcs[0].Metrics().Counters.Trained == n
	})
	cut := g.stableCut(t, 1, 2)
	if cut[0].PredictorSHA == "" {
		t.Fatal("the leader reports no predictor SHA")
	}
	for i, m := range cut[1:] {
		if m.Counters.Trained != n || m.PredictorSHA != cut[0].PredictorSHA {
			t.Errorf("follower %d: trained %d, predictor SHA %s; leader: %d, %s",
				i+1, m.Counters.Trained, m.PredictorSHA, cut[0].Counters.Trained, cut[0].PredictorSHA)
		}
	}
}

// TestCutBatchBoundsAPush: a push carries at most pushBudget payload bytes —
// so its body fits the maxReplBody the follower's handler reads — and always
// at least one record, so a single large snapshot still gets through.
func TestCutBatchBoundsAPush(t *testing.T) {
	big := make([]byte, pushBudget/2+1)
	batch := []replog.Record{{Seq: 1, Data: []byte("{}")}, {Seq: 2, Data: big}, {Seq: 3, Data: big}, {Seq: 4}}
	if got := cutBatch(batch); len(got) != 2 {
		t.Fatalf("cut to %d records, want the 2 that fit", len(got))
	}
	if got := cutBatch(batch[1:3]); len(got) != 1 {
		t.Fatalf("cut to %d records, want 1", len(got))
	}
	if got := cutBatch([]replog.Record{{Seq: 1, Data: make([]byte, 2*pushBudget)}}); len(got) != 1 {
		t.Fatalf("an oversized lone record was cut away: %d left", len(got))
	}
	if got := cutBatch(nil); len(got) != 0 {
		t.Fatalf("an empty heartbeat grew to %d records", len(got))
	}
}

// TestPushedFramesAreTheLeaders: records pushed through the append handler
// land in the follower's log file as the very bytes the leader's file holds
// for them. A record has one encoding, and no hop re-frames it.
func TestPushedFramesAreTheLeaders(t *testing.T) {
	dir := t.TempDir()
	open := func(name string) *replog.Log {
		l, err := replog.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	ll, fl := open("leader.log"), open("follower.log")
	cfg := sigmaConfig()
	cfg.Log = ll
	lead := mustService(t, cfg)
	lead.mu.Lock()
	lead.takeoverLocked(0)
	lead.mu.Unlock()
	for id := job.ID(1); id <= 4; id++ {
		if _, err := lead.Submit(&job.Job{ID: id, Name: "train", User: "alice", Tasks: 2, Runtime: 3, Submit: 0.5, NonPrefFactor: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := lead.TrainBatch([]TrainRecord{{Job: &job.Job{Name: "train", User: "alice", Tasks: 2}, Runtime: 3}}); err != nil {
		t.Fatal(err)
	}
	lead.runCycle()
	lead.runCycle()

	fcfg := sigmaConfig()
	fcfg.Log = fl
	push(t, mustService(t, fcfg), ll.Records())
	want, err := os.ReadFile(filepath.Join(dir, "leader.log"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "follower.log"))
	if err != nil {
		t.Fatal(err)
	}
	if fl.Len() != ll.Len() || !bytes.Equal(got, want) {
		t.Fatalf("the follower holds %d records in %d bytes, the leader %d in %d, and they differ",
			fl.Len(), len(got), ll.Len(), len(want))
	}
}

// TestRedeliveredPrefixIsHashChecked: a pushed record at a seq the
// follower already holds is acknowledged only when its hash is the one held
// there; another record at that seq is a divergence, answered 409, and the
// log stays as it was.
func TestRedeliveredPrefixIsHashChecked(t *testing.T) {
	chain := func(user string) []replog.Record {
		l, err := replog.Open("")
		if err != nil {
			t.Fatal(err)
		}
		for id := job.ID(1); id <= 3; id++ {
			j := &job.Job{ID: id, Name: "train", User: user, Tasks: 2, Runtime: 3, Submit: 0.5, NonPrefFactor: 1}
			if _, err := l.Append(1, replog.TypeAdmit, 0, &admitPayload{Job: j}); err != nil {
				t.Fatal(err)
			}
		}
		return l.Records()
	}
	ours, fork := chain("alice"), chain("bob")
	fl, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sigmaConfig()
	cfg.Log = fl
	follower := mustService(t, cfg)
	push(t, follower, ours)
	if code, resp := pushOnce(t, follower, ours[1:]); code != http.StatusOK || resp.Acked != 3 {
		t.Fatalf("a redelivered prefix answered %d, acked %d; want 200 and 3", code, resp.Acked)
	}
	if code, resp := pushOnce(t, follower, fork[1:2]); code != http.StatusConflict || resp.Acked != 3 {
		t.Fatalf("a forked record at a held seq answered %d, acked %d; want 409 and 3", code, resp.Acked)
	}
	if m := follower.Metrics(); m.Control.Diverged != 1 || fl.Head() != ours[2].Hash {
		t.Fatalf("%d divergences, head %s; want 1 and %s", m.Control.Diverged, fl.Head(), ours[2].Hash)
	}
}

// TestPeerlessLeaderIsNotDeposedByAPush: a leader without peers, over the log
// it was given or the one New opened, answers a push from a newer epoch with
// 409 and keeps leading and cycling. A deposed one would accept submits and
// never cycle again: no election runs without peers.
func TestPeerlessLeaderIsNotDeposedByAPush(t *testing.T) {
	donor, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := donor.Append(9, replog.TypeElect, 0, &electPayload{Replica: 1})
	if err != nil {
		t.Fatal(err)
	}
	given, _, _ := handLed(t, sigmaConfig())
	owned := mustService(t, sigmaConfig())
	owned.mu.Lock()
	owned.takeoverLocked(0)
	owned.mu.Unlock()
	for _, svc := range []*Service{given, owned} {
		code, resp := pushOnce(t, svc, []replog.Record{rec})
		svc.runCycle()
		if role, epoch, _ := svc.Role(); code != 409 || !resp.Leader || role != RoleLeader || epoch != 1 || svc.Metrics().Cycles != 1 {
			t.Errorf("push from epoch 9: %d %+v; then %s at epoch %d, %d cycles; want 409 leader, leader at 1, 1 cycle",
				code, resp, role, epoch, svc.Metrics().Cycles)
		}
	}
}

// TestJSONPushRefusedByName: a push in the JSON encoding an older build
// sends is refused with a 400 that names it, and the follower's log stays
// as it was.
func TestJSONPushRefusedByName(t *testing.T) {
	ll, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ll.Append(1, replog.TypeAdmit, 0, &admitPayload{})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sigmaConfig()
	cfg.Log = fl
	follower := mustService(t, cfg)
	body, err := json.Marshal(map[string]any{"from": 0, "epoch": 1, "records": []replog.Record{rec}})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	follower.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/replog/append", bytes.NewReader(body)))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "JSON push body") {
		t.Fatalf("a JSON push answered %d %s; want a 400 naming the JSON body", w.Code, w.Body)
	}
	if fl.Len() != 0 {
		t.Fatalf("the refused push left the log at seq %d", fl.Len())
	}
}

// FuzzPushBody throws arbitrary bytes at the follower's push decoder: it
// never panics, and a body it decodes re-encodes to the very same bytes.
func FuzzPushBody(f *testing.F) {
	l, err := replog.Open("")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := l.Append(1, replog.TypeAdmit, 0, &admitPayload{Job: &job.Job{ID: 1, Tasks: 2, Runtime: 3}}); err != nil {
		f.Fatal(err)
	}
	if _, err := l.Append(2, replog.TypeCycle, -1, nil); err != nil {
		f.Fatal(err)
	}
	good, err := (&replAppendReq{From: 2, Epoch: 2, Records: l.Records(), Resign: true}).encode()
	if err != nil {
		f.Fatal(err)
	}
	heartbeat, err := (&replAppendReq{From: 0, Epoch: 1}).encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(heartbeat)
	f.Add([]byte(`{"from":0,"epoch":1,"records":[]}`))                            // the retired JSON push
	f.Add(good[:len(good)-5])                                                     // a truncated frame
	f.Add(append(slices.Clone(heartbeat), 0xff, 0xff, 0xff, 0xff, 2, 1, 1, 0, 0)) // a length beyond any record
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodePush(body)
		if err != nil {
			return
		}
		again, err := req.encode()
		if err != nil {
			t.Fatalf("a decoded push does not encode: %v", err)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("a decoded push re-encodes to other bytes:\n got  %x\n want %x", again, body)
		}
	})
}
