package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"threesigma/internal/agent"
	"threesigma/internal/baselines"
	"threesigma/internal/core"
	"threesigma/internal/job"
	"threesigma/internal/predictor"
	"threesigma/internal/replog"
)

// sigmaConfig builds a config around a fresh 3σSched scheduler + predictor
// pair: the control-plane digests (outcome digest, predictor SHA) are only
// meaningful when every replica re-derives the same scheduler state.
func sigmaConfig() Config {
	p := predictor.New(predictor.Config{})
	cfg := fastConfig(baselines.ThreeSigma(p, core.Config{CycleInterval: 1}))
	cfg.Predictor = p
	return cfg
}

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// lateHandler lets an httptest.Server be created (fixing its URL) before
// the service that will serve it exists: Config.Peers must name every
// replica's URL at construction time.
type lateHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h == nil {
		http.Error(w, "replica not up", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// TestWarmRestartFromLogBitIdentical is the acceptance check for the
// decision log, the one way a daemon restarts warm: a drained daemon (the
// SIGTERM path: BeginDrain, then Stop) is rebuilt from its log by a
// brand-new process with a cold scheduler and predictor, every
// replay-derived digest must match bitwise, and the restored predictor must
// estimate — and serve over /v1/predict — exactly what the stopped one did.
func TestWarmRestartFromLogBitIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decision.log")
	l1, err := replog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sigmaConfig()
	cfg.Log = l1
	svc1 := mustService(t, cfg)
	svc1.Start()
	ts := httptest.NewServer(svc1.Handler())
	for i := 1; i <= 4; i++ {
		resp, body := postJSON(t, ts, "/v1/jobs", jobRequest{
			ID: int64(i), Name: "train", User: "alice", Tasks: 4,
			Runtime: float64(1 + i), SubmitAt: 0.5,
		})
		if resp.StatusCode != 202 {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
	}
	for i := 1; i <= 4; i++ {
		waitPhase(t, ts, i, PhaseCompleted)
	}
	ts.Close()
	svc1.BeginDrain()
	if err := svc1.Stop(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m1 := svc1.Metrics()
	if m1.OutcomeDigest == "" || m1.PredictorSHA == "" || m1.LogLen == 0 {
		t.Fatalf("drained metrics missing digests: %+v", m1)
	}
	probe := &job.Job{Name: "train", User: "alice", Tasks: 4}
	pre := cfg.Predictor.Estimate(probe)
	if pre.Novel || pre.Samples == 0 {
		t.Fatalf("predictor learned nothing: %+v", pre)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen the log into a cold service. The log alone must
	// reconstruct the predictor and outcomes.
	l2, err := replog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	cfg2 := sigmaConfig()
	cfg2.Log = l2
	svc2 := mustService(t, cfg2)
	m2 := svc2.Metrics()
	if m2.OutcomeDigest != m1.OutcomeDigest {
		t.Fatalf("outcome digest diverged after replay: %q != %q", m2.OutcomeDigest, m1.OutcomeDigest)
	}
	if m2.PredictorSHA != m1.PredictorSHA {
		t.Fatalf("predictor SHA diverged after replay: %q != %q", m2.PredictorSHA, m1.PredictorSHA)
	}
	if m2.Cycles != m1.Cycles || m2.Counters.Completed != m1.Counters.Completed {
		t.Fatalf("replayed cycles/completions %d/%d, want %d/%d",
			m2.Cycles, m2.Counters.Completed, m1.Cycles, m1.Counters.Completed)
	}
	post := cfg2.Predictor.Estimate(probe)
	if post.Point != pre.Point || post.Expert != pre.Expert || post.Samples != pre.Samples {
		t.Fatalf("post-restart estimate %+v != pre-kill %+v", post, pre)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if a, b := pre.Dist.Quantile(q), post.Dist.Quantile(q); math.Abs(a-b) > 1e-12 {
			t.Fatalf("quantile %.1f: %v != %v", q, a, b)
		}
	}

	// The restarted daemon keeps scheduling from where the log ends.
	svc2.Start()
	defer svc2.Stop(10 * time.Second)
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	resp, body := postJSON(t, ts2, "/v1/predict", predictRequest{Name: "train", User: "alice", Tasks: 4})
	if resp.StatusCode != 200 {
		t.Fatalf("predict = %d %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Point != pre.Point || pr.Expert != pre.Expert {
		t.Fatalf("served prediction %+v != pre-kill %+v", pr, pre)
	}
	resp, body = postJSON(t, ts2, "/v1/jobs", jobRequest{
		ID: 10, Name: "train", User: "alice", Tasks: 4, Runtime: 2, SubmitAt: 0.5,
	})
	if resp.StatusCode != 202 {
		t.Fatalf("post-restart submit: %d %s", resp.StatusCode, body)
	}
	waitPhase(t, ts2, 10, PhaseCompleted)
}

// replicaPair wires two services into a replica group over
// httptest servers and returns them started.
func replicaPair(t *testing.T) (svcs [2]*Service, tss [2]*httptest.Server) {
	t.Helper()
	// Availability over durability: with a majority quorum (2 of 2) a lone
	// survivor could neither elect itself nor ack, and the pair tests
	// exercise exactly that failover. Quorum durability has its own
	// three-replica tests.
	g := newTestGroup(t, 2, func(i int, cfg *Config) { cfg.Quorum = 1 })
	for i := range svcs {
		svcs[i], tss[i] = g.svcs[i], g.tss[i]
		svcs[i].Start()
	}
	return svcs, tss
}

// TestFollowerMirrorsLeader checks the replication path end to end: the
// lowest replica ID wins the election, the follower redirects submissions
// to it with a 307, answers /readyz 503 while following, and converges to
// the leader's outcome digest and predictor SHA from log records alone.
func TestFollowerMirrorsLeader(t *testing.T) {
	svcs, tss := replicaPair(t)
	defer func() {
		svcs[1].Stop(5 * time.Second)
		svcs[0].Stop(5 * time.Second)
		tss[0].Close()
		tss[1].Close()
	}()

	waitUntil(t, 5*time.Second, "replica 0 to win the election", func() bool {
		r0, _, _ := svcs[0].Role()
		r1, _, lid := svcs[1].Role()
		return r0 == RoleLeader && r1 == RoleFollower && lid == 0
	})

	// The follower withdraws readiness and names the leader.
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noRedirect.Get(tss[1].URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Role     string `json:"role"`
		LeaderID int    `json:"leader_id"`
	}
	json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if resp.StatusCode != 503 || ready.Role != "follower" || ready.LeaderID != 0 {
		t.Fatalf("follower readyz = %d %+v, want 503/follower/leader 0", resp.StatusCode, ready)
	}

	// A submission to the follower 307s to the leader's URL.
	b, _ := json.Marshal(jobRequest{ID: 1, Name: "train", User: "alice", Tasks: 4, Runtime: 2, SubmitAt: 0.5})
	resp, err = noRedirect.Post(tss[1].URL+"/v1/jobs", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 307 || !strings.HasPrefix(resp.Header.Get("Location"), tss[0].URL) {
		t.Fatalf("follower submit = %d Location %q, want 307 to %s",
			resp.StatusCode, resp.Header.Get("Location"), tss[0].URL)
	}

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
	lm := svcs[0].Metrics()
	if lm.OutcomeDigest == "" {
		t.Fatal("leader has no outcome digest")
	}
	waitUntil(t, 5*time.Second, "follower to converge to the leader's digests", func() bool {
		fm := svcs[1].Metrics()
		return fm.OutcomeDigest == lm.OutcomeDigest && fm.PredictorSHA == lm.PredictorSHA
	})
	if fm := svcs[1].Metrics(); fm.Control.Diverged != 0 {
		t.Fatalf("follower flagged %d divergences: %+v", fm.Control.Diverged, fm.Control)
	}
}

// TestFailoverPromotesStandby kills the leader (listener closed, loop
// stopped — the follower only observes silence) and requires the warm
// standby to take over on a bumped epoch and schedule new work.
func TestFailoverPromotesStandby(t *testing.T) {
	svcs, tss := replicaPair(t)
	defer func() {
		svcs[1].Stop(5 * time.Second)
		tss[1].Close()
	}()

	waitUntil(t, 5*time.Second, "replica 0 to win the election", func() bool {
		r0, _, _ := svcs[0].Role()
		return r0 == RoleLeader
	})
	_, epoch0, _ := svcs[0].Role()
	for i := 1; i <= 2; i++ {
		resp, body := postJSON(t, tss[0], "/v1/jobs", jobRequest{
			ID: int64(i), Name: "train", User: "alice", Tasks: 4, Runtime: 2, SubmitAt: 0.5,
		})
		if resp.StatusCode != 202 {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
	}
	for i := 1; i <= 2; i++ {
		waitPhase(t, tss[0], i, PhaseCompleted)
	}
	preKill := svcs[0].Metrics()
	waitUntil(t, 5*time.Second, "standby to mirror the leader before the kill", func() bool {
		return svcs[1].Metrics().OutcomeDigest == preKill.OutcomeDigest
	})

	// Kill the leader: its listener vanishes and its loop halts.
	tss[0].Close()
	if err := svcs[0].Stop(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	waitUntil(t, 5*time.Second, "standby to take over", func() bool {
		r, _, _ := svcs[1].Role()
		return r == RoleLeader
	})
	_, epoch1, _ := svcs[1].Role()
	if epoch1 <= epoch0 {
		t.Fatalf("takeover epoch %d, want > %d", epoch1, epoch0)
	}
	m := svcs[1].Metrics()
	if m.Control.Elections == 0 {
		t.Fatalf("standby shows no election: %+v", m.Control)
	}
	if m.OutcomeDigest != preKill.OutcomeDigest {
		t.Fatalf("standby digest %q != pre-kill leader digest %q", m.OutcomeDigest, preKill.OutcomeDigest)
	}

	// The new leader schedules fresh work end to end.
	resp, body := postJSON(t, tss[1], "/v1/jobs", jobRequest{
		ID: 5, Name: "train", User: "alice", Tasks: 4, Runtime: 2, SubmitAt: 0.5,
	})
	if resp.StatusCode != 202 {
		t.Fatalf("post-failover submit: %d %s", resp.StatusCode, body)
	}
	waitPhase(t, tss[1], 5, PhaseCompleted)
}

// TestAgentFenceDeposesLeader is the zombie-leader regression: a leader
// whose directives an agent fences (the agent has seen a newer epoch) must
// step down. Before the fix the client's 409 carried no epoch detail, the
// conditional depose no-oped on the zero value, and the fenced leader kept
// appending phantom cycles at its stale epoch forever.
func TestAgentFenceDeposesLeader(t *testing.T) {
	a := agent.New("a0", map[int]int{0: 8, 1: 8})
	as := httptest.NewServer(a.Handler())
	defer as.Close()

	cfg := sigmaConfig()
	cfg.Agents = []*agent.Client{{Addr: as.URL, Partitions: []int{0, 1}}}
	svc := mustService(t, cfg)
	svc.Start()
	defer svc.Stop(5 * time.Second)
	waitUntil(t, 5*time.Second, "the single replica to lead", svc.IsLeader)
	_, epoch0, _ := svc.Role()

	// A newer leadership elsewhere bumps the agent's fence past ours.
	fencer := &agent.Client{Addr: as.URL}
	if _, err := fencer.Reconcile(agent.ReconcileRequest{Epoch: epoch0 + 41}); err != nil {
		t.Fatal(err)
	}

	waitUntil(t, 5*time.Second, "the fenced leader to step down", func() bool {
		role, epoch, _ := svc.Role()
		return role == RoleFollower && epoch == epoch0+41
	})
}

// TestEqualEpochLeadersConverge is the split-brain regression: two replicas
// leading at the same epoch (the double takeover a symmetric partition
// allows) must converge — the lower replica ID keeps the term, the higher
// steps down. Before the fix every depose path demanded a strictly newer
// epoch, so after the partition healed both led and accepted mutations
// forever.
func TestEqualEpochLeadersConverge(t *testing.T) {
	svcs, tss := replicaPair(t)
	defer func() {
		svcs[1].Stop(5 * time.Second)
		svcs[0].Stop(5 * time.Second)
		tss[0].Close()
		tss[1].Close()
	}()

	waitUntil(t, 5*time.Second, "replica 0 to win the election", func() bool {
		r0, _, _ := svcs[0].Role()
		r1, _, _ := svcs[1].Role()
		return r0 == RoleLeader && r1 == RoleFollower
	})
	_, epoch0, _ := svcs[0].Role()

	// Force the dueling leadership a symmetric partition would produce:
	// replica 1 assumes the same epoch without either side seeing a newer
	// one.
	svcs[1].mu.Lock()
	svcs[1].role = RoleLeader
	svcs[1].leaderEpoch = epoch0
	svcs[1].leaderID = 1
	svcs[1].startSendersLocked()
	svcs[1].mu.Unlock()

	waitUntil(t, 5*time.Second, "the higher replica ID to step down", func() bool {
		r0, e0, _ := svcs[0].Role()
		r1, _, lid1 := svcs[1].Role()
		return r0 == RoleLeader && e0 == epoch0 && r1 == RoleFollower && lid1 == 0
	})
}

// TestErrorPushNotAnAck is the pushBatch regression: a peer answering
// /v1/replog/append with a 500 error body must be treated as unreachable.
// Before the fix the errResponse body decoded as an all-zero replAppendResp,
// which rewound the send cursor and refreshed the peer's liveness lease —
// and the "live" never-acking peer stalled every Submit for the full
// SubmitSyncTimeout. Under quorum acks (2 of 2 here) the submit must
// instead resolve as soon as the peer's seeded lease lapses: accepted,
// replicated_gap set, no timeout burned.
func TestErrorPushNotAnAck(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/control/status" {
			// Visible as a follower, so that 2 of 2 can elect: an error
			// body is no status, as it is no ack.
			writeJSON(w, http.StatusOK, ctlStatus{Replica: 1, Role: string(RoleFollower)})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errResponse{Error: "boom"})
	}))
	defer broken.Close()

	l, err := replog.Open(filepath.Join(t.TempDir(), "r0.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	late := &lateHandler{}
	own := httptest.NewServer(late)
	defer own.Close()
	cfg := sigmaConfig()
	cfg.Log = l
	cfg.ReplicaID = 0
	cfg.Peers = map[int]string{0: own.URL, 1: broken.URL}
	cfg.LeaseInterval = 250 * time.Millisecond
	cfg.SubmitSyncTimeout = 2 * time.Second
	svc := mustService(t, cfg)
	late.set(svc.Handler())
	svc.Start()
	defer svc.Stop(5 * time.Second)
	waitUntil(t, 5*time.Second, "replica 0 to take over", svc.IsLeader)

	start := time.Now()
	resp, body := postJSON(t, own, "/v1/jobs", jobRequest{
		ID: 1, Name: "train", User: "alice", Tasks: 4, Runtime: 2, SubmitAt: 0.5,
	})
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("submit stalled %v behind an error-answering peer (SubmitSyncTimeout %v)",
			el, cfg.SubmitSyncTimeout)
	}
	var jr jobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if !jr.ReplicatedGap {
		t.Fatalf("quorum of 2 reported met with a peer that never acked: %s", body)
	}
	if m := svc.Metrics(); m.Control.ReplLagTimeouts != 0 {
		t.Fatalf("repl_lag_timeouts = %d, want 0 (dead-minority waits resolve early)", m.Control.ReplLagTimeouts)
	}
}

// TestTrainReportsReplicationGap: with both followers down, a history feed
// reaches only the leader's log. /v1/train still takes it — the feed is not
// lost while the leader lives — but says so with "replicated_gap": true, as
// POST /v1/jobs does for a submit.
func TestTrainReportsReplicationGap(t *testing.T) {
	g := newTestGroup(t, 3, nil)
	g.start(t)
	if tr := postTrain(t, g.tss[0], 50); tr.Trained != 50 || tr.ReplicatedGap {
		t.Fatalf("feed with every follower up: %+v", tr)
	}
	for _, i := range []int{1, 2} {
		g.late[i].set(nil)
		if err := g.svcs[i].Stop(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if tr := postTrain(t, g.tss[0], 30); tr.Trained != 30 || !tr.ReplicatedGap {
		t.Fatalf("feed with every follower down: %+v, want 30 trained and a gap", tr)
	}
	waitUntil(t, 5*time.Second, "the leader to observe both feeds", func() bool {
		return g.svcs[0].Metrics().Counters.Trained == 80
	})
}

// TestWaitReplicatedReportsGap pins the ack-durability contract: when a
// live follower has not confirmed the record within SubmitSyncTimeout the
// wait must say so (the admission is durable only on the leader) instead
// of acknowledging silently.
func TestWaitReplicatedReportsGap(t *testing.T) {
	cfg := sigmaConfig()
	cfg.SubmitSyncTimeout = 50 * time.Millisecond
	cfg.LeaseInterval = time.Hour // the stuck follower stays "live" throughout
	cfg.Quorum = 2                // leader alone (1) must not satisfy the wait
	svc := mustService(t, cfg)
	fc := newFollowerConn(1, "http://127.0.0.1:0", time.Second)
	fc.lastOK = svc.cfg.Clock.Now()
	svc.mu.Lock()
	svc.role = RoleLeader
	svc.followers = []*followerConn{fc}
	svc.mu.Unlock()

	if svc.waitReplicated(3) {
		t.Fatal("timed-out replication wait reported success")
	}
	if n := svc.Metrics().Control.ReplLagTimeouts; n != 1 {
		t.Fatalf("repl_lag_timeouts = %d, want 1", n)
	}
	fc.fmu.Lock()
	fc.acked = 3
	fc.fmu.Unlock()
	if !svc.waitReplicated(3) {
		t.Fatal("caught-up follower reported as a gap")
	}
}
