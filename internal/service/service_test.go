package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"threesigma/internal/faults"
	"threesigma/internal/job"
	"threesigma/internal/replog"
	"threesigma/internal/simulator"
)

// fifoSched is a minimal scheduler for service tests: first-fit FIFO
// placement, no preemption.
type fifoSched struct{}

func (fifoSched) JobSubmitted(*job.Job, float64)          {}
func (fifoSched) JobCompleted(*job.Job, float64, float64) {}
func (fifoSched) Cycle(st *simulator.State) simulator.Decision {
	var d simulator.Decision
	free := st.Free.Clone()
	for _, j := range st.Pending {
		alloc := make(simulator.Alloc, len(free))
		need := j.Tasks
		for p := range free {
			n := free[p]
			if n > need {
				n = need
			}
			alloc[p] += n
			need -= n
			if need == 0 {
				break
			}
		}
		if need > 0 {
			continue
		}
		for p, n := range alloc {
			free[p] -= n
		}
		d.Start = append(d.Start, simulator.StartAction{Job: j.ID, Alloc: alloc})
	}
	return d
}

// fastConfig runs cycles every ~10ms of wall time (1 virtual second each).
func fastConfig(sched simulator.Scheduler) Config {
	return Config{
		Cluster:       simulator.NewCluster(16, 2),
		Scheduler:     sched,
		CycleInterval: 1,
		TimeScale:     100,
		QueueCap:      64,
	}
}

func mustService(t testing.TB, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// historyFeed is a POST /v1/train body of n observations spread over a few
// dozen (user, name) groups.
func historyFeed(n int) map[string]any {
	jobs := make([]map[string]any, n)
	for i := range jobs {
		jobs[i] = map[string]any{"name": fmt.Sprintf("job_%d", i%40), "user": fmt.Sprintf("user%d", i%7),
			"tasks": 1 + i%8, "runtime": float64(10 + i%50)}
	}
	return map[string]any{"jobs": jobs}
}

// postTrain posts a history feed of n observations to ts and decodes the
// 200 answer.
func postTrain(t *testing.T, ts *httptest.Server, n int) trainResponse {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/train", historyFeed(n))
	var tr trainResponse
	if resp.StatusCode != 200 || json.Unmarshal(body, &tr) != nil {
		t.Fatalf("train: %d %s", resp.StatusCode, body)
	}
	return tr
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		json.NewDecoder(resp.Body).Decode(v)
	}
	return resp.StatusCode
}

func waitPhase(t *testing.T, ts *httptest.Server, id int, want JobPhase) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		code := getJSON(t, ts, fmt.Sprintf("/v1/jobs/%d", id), &st)
		if code == 200 && st.Phase == want {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %d never reached phase %q", id, want)
	return JobStatus{}
}

func TestServiceEndToEnd(t *testing.T) {
	svc := mustService(t, fastConfig(fifoSched{}))
	svc.Start()
	defer svc.Stop(5 * time.Second)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	if code := getJSON(t, ts, "/healthz", nil); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	for i := 1; i <= 5; i++ {
		resp, body := postJSON(t, ts, "/v1/jobs", jobRequest{
			ID: int64(i), Name: "train", User: "alice", Tasks: 4, Runtime: 2,
		})
		if resp.StatusCode != 202 {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
	}
	for i := 1; i <= 5; i++ {
		st := waitPhase(t, ts, i, PhaseCompleted)
		if st.CompletionTime <= st.FirstStart {
			t.Fatalf("job %d: completion %v <= start %v", i, st.CompletionTime, st.FirstStart)
		}
	}
	var m Metrics
	getJSON(t, ts, "/v1/metrics", &m)
	if m.Counters.Accepted != 5 || m.Counters.Completed != 5 {
		t.Fatalf("counters = %+v", m.Counters)
	}
	if m.Cycles == 0 || m.Running != 0 || m.Pending != 0 {
		t.Fatalf("metrics = %#v", m)
	}
}

func TestBackpressure429(t *testing.T) {
	cfg := fastConfig(fifoSched{})
	cfg.QueueCap = 2
	svc := mustService(t, cfg)
	// Not started: the queue never drains, so the cap is deterministic.
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for i := 1; i <= 2; i++ {
		resp, _ := postJSON(t, ts, "/v1/jobs", jobRequest{ID: int64(i), Tasks: 1, Runtime: 1})
		if resp.StatusCode != 202 {
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
	}
	resp, _ := postJSON(t, ts, "/v1/jobs", jobRequest{ID: 3, Tasks: 1, Runtime: 1})
	if resp.StatusCode != 429 {
		t.Fatalf("over-cap submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	var m Metrics
	getJSON(t, ts, "/v1/metrics", &m)
	if m.Counters.Rejected != 1 || m.QueueLen != 2 {
		t.Fatalf("metrics = %#v", m)
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := mustService(t, fastConfig(fifoSched{}))
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		req  jobRequest
		want int
	}{
		{jobRequest{ID: 1, Tasks: 0, Runtime: 1}, 400},               // no tasks
		{jobRequest{ID: 1, Tasks: 17, Runtime: 1}, 400},              // over cluster
		{jobRequest{ID: 1, Tasks: 2, Runtime: 0}, 400},               // no runtime
		{jobRequest{ID: 1, Tasks: 2, Runtime: 1, Class: "x"}, 400},   // bad class
		{jobRequest{ID: 1, Tasks: 2, Runtime: 1, Class: "SLO"}, 400}, // SLO without deadline
		{jobRequest{ID: 1, Tasks: 2, Runtime: 1, NonPrefFactor: 0.5}, 400},
		{jobRequest{ID: -1, Tasks: 2, Runtime: 1}, 400},
		{jobRequest{ID: 1, Tasks: 2, Runtime: 1}, 202},
		{jobRequest{ID: 1, Tasks: 2, Runtime: 1}, 409}, // duplicate
	}
	for i, c := range cases {
		resp, body := postJSON(t, ts, "/v1/jobs", c.req)
		if resp.StatusCode != c.want {
			t.Fatalf("case %d: %d (want %d) %s", i, resp.StatusCode, c.want, body)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad JSON = %d", resp.StatusCode)
	}
}

// TestRequestBodiesAreBounded: the client endpoints read their bodies
// through maxInputBody. A body past it is refused with 413 — before it is
// decoded to the end, and without logging anything — while a history feed
// ten times the one 3sigma-loadgen posts is taken whole.
func TestRequestBodiesAreBounded(t *testing.T) {
	svc, l, ts := handLed(t, sigmaConfig())
	logged := l.Len()
	huge := `{"name":"` + strings.Repeat("x", maxInputBody) + `"}`
	for _, path := range []string{"/v1/jobs", "/v1/train"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: %d, want 413", path, len(huge), resp.StatusCode)
		}
	}
	if n := l.Len(); n != logged {
		t.Fatalf("refused bodies logged %d records", n-logged)
	}
	if tr := postTrain(t, ts, 25600); tr.Trained != 25600 || tr.ReplicatedGap {
		t.Fatalf("a 25 600-observation feed: %+v", tr)
	}
	if m := svc.Metrics(); m.LogLen != logged+1 {
		t.Fatalf("the feed logged %d records, want 1", m.LogLen-logged)
	}
}

// handLed builds a service over an in-memory decision log and makes it lead
// without starting it: no ticker runs, so the test decides where every cycle
// boundary falls (runCycle), and the log's length shows what a request
// logged.
func handLed(t *testing.T, cfg Config) (*Service, *replog.Log, *httptest.Server) {
	t.Helper()
	l, err := replog.Open("")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Log = l
	svc := mustService(t, cfg)
	svc.mu.Lock()
	svc.takeoverLocked(0)
	svc.mu.Unlock()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, l, ts
}

// TestOwnedLogIsBounded: a single replica given no log runs over one New
// opens in memory, which after every cycle holds no more than that cycle's
// record and the inputs logged since the previous one, while its length
// counts every record and the log endpoints serve it like any other.
func TestOwnedLogIsBounded(t *testing.T) {
	svc := mustService(t, sigmaConfig())
	svc.mu.Lock()
	svc.takeoverLocked(0)
	svc.mu.Unlock()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	postTrain(t, ts, 400)
	id := 0
	lastCycle := svc.log.Len()
	for cycle := 1; cycle <= 50; cycle++ {
		for i := 0; i < 4; i++ {
			id++
			if _, err := svc.Submit(&job.Job{ID: job.ID(id), Name: "train", User: "alice", Tasks: 1 + id%3,
				Runtime: float64(1 + id%3), Submit: float64(cycle - 1), NonPrefFactor: 1}); err != nil {
				t.Fatalf("submit %d: %v", id, err)
			}
		}
		svc.runCycle()
		n, held := svc.log.Len(), len(svc.log.Records())
		if want := uint64(1 + 1 + id + cycle); n != want { // elect, train, submits, cycles
			t.Fatalf("cycle %d: log len %d, want %d", cycle, n, want)
		}
		if held > 1+int(n-lastCycle) {
			t.Fatalf("cycle %d: log holds %d records, %d appended since the last cycle record", cycle, held, n-lastCycle)
		}
		lastCycle = n
	}

	var rl struct {
		Len uint64 `json:"len"`
	}
	if code := getJSON(t, ts, "/v1/replog", &rl); code != 200 || rl.Len != svc.log.Len() {
		t.Fatalf("GET /v1/replog: %d, len %d, want 200 and %d", code, rl.Len, svc.log.Len())
	}
	var st ctlStatus
	if code := getJSON(t, ts, "/v1/control/status", &st); code != 200 || st.Head == "" {
		t.Fatalf("GET /v1/control/status: %d, head %q", code, st.Head)
	}
}

func deleteJob(t *testing.T, ts *httptest.Server, id int) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCancelLifecycle: a cancel is validated against live state when it
// arrives — 404 for an unknown job, 409 for one already cancelled, with
// nothing logged — and removes the job at the next cycle boundary, queued or
// running.
func TestCancelLifecycle(t *testing.T) {
	svc, l, ts := handLed(t, fastConfig(fifoSched{}))
	phase := func(id job.ID) JobPhase {
		st, _ := svc.Status(id)
		return st.Phase
	}

	// Cancel while queued: stamped ahead, so no cycle admits it first.
	postJSON(t, ts, "/v1/jobs", jobRequest{ID: 1, Tasks: 2, Runtime: 50, SubmitAt: 100})
	if code := deleteJob(t, ts, 1); code != 200 {
		t.Fatalf("cancel queued = %d", code)
	}
	if p := phase(1); p != PhaseQueued {
		t.Fatalf("job 1 is %q before the cycle boundary, want queued", p)
	}
	svc.runCycle()
	var st JobStatus
	if code := getJSON(t, ts, "/v1/jobs/1", &st); code != 200 || st.Phase != PhaseCancelled {
		t.Fatalf("status after cancel: %d %+v", code, st)
	}
	// Refused on arrival, nothing logged: resubmitting the cancelled ID,
	// cancelling it again, cancelling an unknown job.
	logged := l.Len()
	if r, _ := postJSON(t, ts, "/v1/jobs", jobRequest{ID: 1, Tasks: 2, Runtime: 1}); r.StatusCode != 409 {
		t.Fatalf("resubmit cancelled = %d", r.StatusCode)
	}
	if code := deleteJob(t, ts, 1); code != 409 {
		t.Fatalf("cancel cancelled = %d", code)
	}
	if code := deleteJob(t, ts, 99); code != 404 {
		t.Fatalf("cancel unknown = %d", code)
	}
	if l.Len() != logged {
		t.Fatalf("refused requests logged %d records", l.Len()-logged)
	}

	// Cancel while running.
	postJSON(t, ts, "/v1/jobs", jobRequest{ID: 2, Tasks: 2, Runtime: 1000})
	svc.runCycle()
	if p := phase(2); p != PhaseRunning {
		t.Fatalf("job 2 is %q, want running", p)
	}
	if code := deleteJob(t, ts, 2); code != 200 {
		t.Fatalf("cancel running = %d", code)
	}
	svc.runCycle()
	if p := phase(2); p != PhaseCancelled {
		t.Fatalf("job 2 is %q after the boundary, want cancelled", p)
	}
	if m := svc.Metrics(); m.Running != 0 || m.Counters.Cancelled != 2 {
		t.Fatalf("metrics after cancel = %#v", m)
	}
	// The freed nodes are usable again.
	postJSON(t, ts, "/v1/jobs", jobRequest{ID: 3, Tasks: 16, Runtime: 1})
	for i := 0; i < 4 && phase(3) != PhaseCompleted; i++ {
		svc.runCycle()
	}
	if p := phase(3); p != PhaseCompleted {
		t.Fatalf("job 3 on the freed nodes is %q, want completed", p)
	}
}

// TestClusterResize: a resize is validated against the live partition — an
// out-of-range partition, or a shrink by more nodes than are free, answers
// 400 with nothing logged — and reshapes the cluster at the next cycle
// boundary.
func TestClusterResize(t *testing.T) {
	svc, l, ts := handLed(t, fastConfig(fifoSched{}))
	resize := func(part, delta, want int) {
		t.Helper()
		if r, body := postJSON(t, ts, "/v1/cluster/nodes", resizeRequest{Partition: part, Delta: delta}); r.StatusCode != want {
			t.Fatalf("resize partition %d by %d = %d %s, want %d", part, delta, r.StatusCode, body, want)
		}
	}
	shape := func(want0, wantTotal int) {
		t.Helper()
		m := svc.Metrics()
		if total := m.Partitions[0] + m.Partitions[1]; m.Partitions[0] != want0 || m.FreeNodes[0] != want0 || total != wantTotal {
			t.Fatalf("partitions %v, free %v: want partition 0 at %d, %d nodes in all", m.Partitions, m.FreeNodes, want0, wantTotal)
		}
	}

	resize(0, 4, 200)
	shape(8, 16)
	svc.runCycle()
	shape(12, 20)

	logged := l.Len()
	resize(0, -13, 400) // over-drain: 12 free
	resize(9, 1, 400)   // bad partition
	if l.Len() != logged {
		t.Fatalf("refused resizes logged %d records", l.Len()-logged)
	}
	resize(0, -2, 200)
	svc.runCycle()
	shape(10, 18)
}

// TestZeroNodePartitionRunsAfterResize: simulator.NewCluster(3, 4) leaves the
// fourth partition with no nodes, and the local agent owns it all the same.
// A resize grows it, a job is placed on it, and the job completes with the
// agent alive — an agent that took 0 nodes for "not owned" refused the start
// every round until it was declared dead and every partition failed.
func TestZeroNodePartitionRunsAfterResize(t *testing.T) {
	cfg := fastConfig(fifoSched{})
	cfg.Cluster = simulator.NewCluster(3, 4)
	svc := mustService(t, cfg)
	svc.mu.Lock()
	svc.takeoverLocked(0)
	svc.mu.Unlock()
	if _, err := svc.Resize(3, 4); err != nil {
		t.Fatal(err)
	}
	svc.runCycle() // the resize lands at this cycle's boundary
	// First fit over [1 1 1 4]: every partition, the grown one included.
	if _, err := svc.Submit(&job.Job{ID: 1, Tasks: 7, Runtime: 2, Submit: 1.5, NonPrefFactor: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*svc.cfg.AgentDeadRounds+2; i++ { // long enough to die of refused rounds
		svc.runCycle()
	}
	if st, _ := svc.Status(1); st.Phase != PhaseCompleted {
		t.Errorf("job 1 on the grown partition is %q, want completed", st.Phase)
	}
	if m := svc.Metrics(); m.AgentsDead != 0 || m.AgentsLive != 1 || m.Counters.Completed != 1 {
		t.Errorf("agents live %d, dead %d, completed %d: want 1, 0, 1", m.AgentsLive, m.AgentsDead, m.Counters.Completed)
	}
}

func TestDrainingRefusesSubmissions(t *testing.T) {
	svc := mustService(t, fastConfig(fifoSched{}))
	svc.Start()
	if err := svc.Stop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, _ := postJSON(t, ts, "/v1/jobs", jobRequest{ID: 1, Tasks: 1, Runtime: 1})
	if resp.StatusCode != 503 {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
}

func TestReadyzFlipsOnDrain(t *testing.T) {
	svc := mustService(t, fastConfig(fifoSched{}))
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	// Alive but not ready before Start.
	if code := getJSON(t, ts, "/readyz", nil); code != 503 {
		t.Fatalf("readyz before Start = %d, want 503", code)
	}
	svc.Start()
	defer svc.Stop(5 * time.Second)
	if code := getJSON(t, ts, "/readyz", nil); code != 200 {
		t.Fatalf("readyz after Start = %d, want 200", code)
	}
	svc.BeginDrain()
	svc.BeginDrain() // idempotent
	if code := getJSON(t, ts, "/readyz", nil); code != 503 {
		t.Fatalf("readyz during drain = %d, want 503", code)
	}
	// Liveness is unaffected: the process must not look dead mid-drain.
	if code := getJSON(t, ts, "/healthz", nil); code != 200 {
		t.Fatalf("healthz during drain = %d, want 200", code)
	}
	var m Metrics
	getJSON(t, ts, "/v1/metrics", &m)
	if m.Ready {
		t.Fatal("metrics still report ready during drain")
	}
}

// TestNodeOpEndpoints: node operations are validated against the live
// partition when they arrive — a drain of a partition without that many free
// nodes answers 409, an out-of-range partition or a non-positive count 400,
// with nothing logged — and take effect at the next cycle boundary, where a
// failure evicts the job on the failed nodes into the retry path.
func TestNodeOpEndpoints(t *testing.T) {
	svc, l, ts := handLed(t, fastConfig(fifoSched{})) // 16 nodes / 2 partitions
	status := func(id job.ID) JobStatus {
		st, _ := svc.Status(id)
		return st
	}

	// One job holding the whole cluster so failures must evict it.
	resp, body := postJSON(t, ts, "/v1/jobs", jobRequest{ID: 1, Tasks: 16, Runtime: 1000})
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	svc.runCycle()
	if st := status(1); st.Phase != PhaseRunning {
		t.Fatalf("job 1 is %q, want running", st.Phase)
	}

	// Refused on arrival, nothing logged. Drain never evicts: with every node
	// allocated it must 409.
	logged := l.Len()
	resp, body = postJSON(t, ts, "/v1/nodes/drain", nodeOpRequest{Partition: 0, Nodes: 1})
	if resp.StatusCode != 409 {
		t.Fatalf("drain on full partition: %d %s, want 409", resp.StatusCode, body)
	}
	for _, bad := range []nodeOpRequest{{Partition: 0, Nodes: 0}, {Partition: 9, Nodes: 1}} {
		for _, path := range []string{"/v1/nodes/fail", "/v1/nodes/recover", "/v1/nodes/drain"} {
			if resp, _ := postJSON(t, ts, path, bad); resp.StatusCode != 400 {
				t.Fatalf("%s %+v = %d, want 400", path, bad, resp.StatusCode)
			}
		}
	}
	if l.Len() != logged {
		t.Fatalf("refused node ops logged %d records", l.Len()-logged)
	}

	// Accepted: reported as asked, with the nodes as they stand until the
	// boundary.
	var op NodeOpResult
	resp, body = postJSON(t, ts, "/v1/nodes/fail", nodeOpRequest{Partition: 0, Nodes: 4})
	if resp.StatusCode != 200 {
		t.Fatalf("fail: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &op)
	if op.Partition != 0 || op.Nodes != 4 || op.DownNodes[0] != 0 || l.Len() != logged+1 {
		t.Fatalf("fail result = %+v, log grew by %d", op, l.Len()-logged)
	}
	svc.runCycle()
	// The cluster is now 12 effective nodes: a 16-task gang cannot restart.
	if st := status(1); st.Phase != PhasePending || st.Evictions != 1 {
		t.Fatalf("job 1 after the failure: %q with %d evictions, want pending with 1", st.Phase, st.Evictions)
	}
	var m Metrics
	getJSON(t, ts, "/v1/metrics", &m)
	if m.Counters.Evicted != 1 || m.DownNodes[0] != 4 {
		t.Fatalf("after the failure: counters %+v, down nodes %v: want 1 evicted, 4 down", m.Counters, m.DownNodes)
	}

	resp, body = postJSON(t, ts, "/v1/nodes/recover", nodeOpRequest{Partition: 0, Nodes: 4})
	if resp.StatusCode != 200 {
		t.Fatalf("recover: %d %s", resp.StatusCode, body)
	}
	svc.runCycle()
	if st := status(1); st.Phase != PhaseRunning {
		t.Fatalf("job 1 after the recovery: %q, want running", st.Phase)
	}
	getJSON(t, ts, "/v1/metrics", &m)
	if m.DownNodes[0] != 0 || m.NodeDownSeconds <= 0 {
		t.Fatalf("after the recovery: down nodes %v, node-down seconds %v: want 0 and > 0", m.DownNodes, m.NodeDownSeconds)
	}
}

// stepClock is a Config.Clock that moves only when told to.
type stepClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *stepClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// slowSched is fifoSched with every Cycle taking d on clk.
type slowSched struct {
	fifoSched
	clk *stepClock
	d   time.Duration
}

func (s slowSched) Cycle(st *simulator.State) simulator.Decision {
	s.clk.advance(s.d)
	return s.fifoSched.Cycle(st)
}

// TestMeanCycleMSIsMeasuredByTheShell: the scheduler's own timers read the
// logical clock, which stands still through a cycle, so mean_cycle_ms is the
// shell's measurement of Scheduler.Cycle on Config.Clock — in fractional
// milliseconds, and for a scheduler that keeps no stats of its own.
func TestMeanCycleMSIsMeasuredByTheShell(t *testing.T) {
	clk := &stepClock{now: time.Unix(1000, 0)}
	cfg := fastConfig(slowSched{clk: clk, d: 1500 * time.Microsecond})
	cfg.Clock = clk
	svc := mustService(t, cfg)
	svc.mu.Lock()
	svc.takeoverLocked(0)
	svc.mu.Unlock()
	for i := 0; i < 4; i++ {
		svc.runCycle()
	}
	if got := svc.Metrics().MeanCycleMS; math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("mean_cycle_ms = %v, want 1.5", got)
	}
}

func TestChaosCrashFailsJobOut(t *testing.T) {
	cfg := fastConfig(fifoSched{})
	// Every attempt crashes; one retry allowed, so attempt 2's crash is
	// terminal. The hash-based injector makes this exact regardless of
	// timing.
	cfg.Faults = &faults.Config{Seed: 1, CrashProb: 1, MaxRetries: 1}
	svc := mustService(t, cfg)
	svc.Start()
	defer svc.Stop(5 * time.Second)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/jobs", jobRequest{ID: 1, Tasks: 2, Runtime: 2})
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	st := waitPhase(t, ts, 1, PhaseFailed)
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2 (budget 1 + terminal crash)", st.Evictions)
	}
	var m Metrics
	getJSON(t, ts, "/v1/metrics", &m)
	if m.Counters.Evicted != 2 || m.Counters.FailedOut != 1 {
		t.Fatalf("counters = %+v, want evicted=2 failed=1", m.Counters)
	}
	if m.Running != 0 || m.Pending != 0 {
		t.Fatalf("failed-out job still in system: %#v", m)
	}
}

// TestMetricsKeys pins /v1/metrics' JSON keys: the scheduler counters come
// from the embedded counter set, and no key a client reads may go missing
// (scripts/smoke_service.sh reads solver_nodes and mean_cycle_ms).
func TestMetricsKeys(t *testing.T) {
	b, err := json.Marshal(Metrics{Shards: []ShardMetrics{{}}})
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	var shards []map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["shards"], &shards); err != nil || len(shards) != 1 {
		t.Fatalf("shards: %v, %s", err, b)
	}
	check := func(where string, got map[string]json.RawMessage, keys string) {
		for _, k := range strings.Fields(keys) {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: key %q missing", where, k)
			}
		}
	}
	check("metrics", top, `uptime_seconds virtual_now time_scale cycles jobs queue_len queue_cap
		pending running skipped_starts partitions free_nodes down_nodes node_down_seconds ready
		role replica_id leader_id leader_epoch control shards
		sched_cycles max_vars max_rows mean_cycle_ms
		solver_nodes solver_lp_iters solver_lp_work solver_proved solver_node_capped solver_cold_fallbacks solver_cutoffs
		starts preemptions predictions alloc_failures deferrals cache_hits cache_misses
		patched_cycles rebuild_fallbacks rows_patched cols_patched
		warm_basis_reuses incumbent_seed_hits reused_solves`)
	check("shards[0]", shards[0], `cycles max_vars max_rows
		solver_nodes solver_lp_iters solver_lp_work solver_proved solver_node_capped solver_cold_fallbacks solver_cutoffs
		starts preemptions patched_cycles reused_solves`)
}
