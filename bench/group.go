package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"threesigma/internal/agent"
	"threesigma/internal/core"
	"threesigma/internal/job"
	"threesigma/internal/replog"
	"threesigma/internal/service"
	"threesigma/internal/simulator"
	"threesigma/internal/trace"
)

// lateHandler lets a listener exist, and its URL be known to every peer,
// before the service behind it is built.
type lateHandler struct {
	h atomic.Pointer[http.Handler]
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := l.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "not up", http.StatusServiceUnavailable)
}

// endpoint is one loopback HTTP server of the harness.
type endpoint struct {
	url  string
	late lateHandler
	srv  *http.Server
	done chan struct{}
}

func listen() (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	e.srv = &http.Server{Handler: &e.late}
	go func() {
		defer close(e.done)
		_ = e.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return e, nil
}

func (e *endpoint) serve(h http.Handler) { e.late.h.Store(&h) }

func (e *endpoint) close() {
	_ = e.srv.Close() // the listener and every connection; nothing to flush
	<-e.done
}

// replica is one service with its log, scheduler probe and endpoint.
type replica struct {
	id      int
	ep      *endpoint
	svc     *service.Service
	log     *replog.Log
	path    string
	probe   *schedProbe
	stopped atomic.Bool
}

// group is a running control plane: replicas, agents, and the clients'
// view of who leads.
type group struct {
	spec     serveSpec
	tr       *tracer
	replicas []*replica
	agents   []*endpoint
	eps      []*endpoint // replicas' endpoints, including any not yet served
	peers    map[int]string
	clients  []*agent.Client
	leader   atomic.Int32
	fed      time.Duration // the history feed's POST /v1/train
}

// newReplica builds one service over the log at path. peers and agents are
// nil for a solo replica; tr, when not nil, puts tracing probes around the
// scheduler and the estimator.
func newReplica(id int, path string, peers map[int]string, agents []*agent.Client, tr *tracer) (*replica, time.Duration, time.Duration, error) {
	r := &replica{id: id, path: path, probe: &schedProbe{tr: tr}}
	t0 := clk.Now()
	var err error
	if r.log, err = replog.Open(path); err != nil {
		return nil, 0, 0, err
	}
	opened := clk.Since(t0)

	pred := trainedPredictor(nil)
	var wrap func(core.Estimator) core.Estimator
	if tr != nil {
		wrap = func(e core.Estimator) core.Estimator { return estProbe{inner: e, tr: tr, parent: &r.probe.cur} }
	}
	r.probe.inner = threeSigma(pred, core.Config{
		CycleInterval: serveCycle,
		SolverBudget:  solverBudget,
		// As cmd/3sigma-serverd does: a job the scheduler gives up on becomes
		// terminal in the service, or it would sit pending forever.
		OnDecision: func(e core.DecisionEvent) {
			if e.Kind == core.DecisionAbandon && r.svc != nil {
				r.svc.Abandon(e.Job)
			}
		},
	}, wrap)
	cfg := service.Config{
		Cluster:           simulator.NewCluster(serveNodes, serveParts),
		Scheduler:         r.probe,
		Predictor:         pred,
		CycleInterval:     serveCycle,
		TimeScale:         serveTimeScale,
		QueueCap:          1 << 16, // holds the closed loop's burst; the reference rate queues a hundred jobs
		DetCycles:         true,
		Log:               r.log,
		ReplicaID:         id,
		Peers:             peers,
		LeaseInterval:     serveLease,
		SubmitSyncTimeout: 2 * serveLease,
		Agents:            agents,
	}
	if len(peers) > 0 {
		cfg.Quorum = 2
		cfg.CompactEvery = 12
	}
	t1 := clk.Now()
	r.svc, err = service.New(cfg)
	if err != nil {
		_ = r.log.Close() // nothing was appended
		return nil, 0, 0, err
	}
	return r, opened, clk.Since(t1), nil
}

// startGroup brings a control plane up in dir: agents, replicas, election,
// and the predictor's training history fed through the leader.
func startGroup(spec serveSpec, dir string, train []trace.Record, tr *tracer) (*group, error) {
	g := &group{spec: spec, tr: tr}
	for p := 0; p < spec.agents; p++ {
		ep, err := listen()
		if err != nil {
			g.stop()
			return nil, err
		}
		g.agents = append(g.agents, ep)
		a := agent.New(fmt.Sprintf("agent-%d", p), map[int]int{p: serveNodes / serveParts})
		ep.serve(traceHandler(tr, "agent", a.Handler()))
		c := &agent.Client{Addr: ep.url, Partitions: []int{p}}
		c.HTTP = &http.Client{Timeout: 2 * time.Second}
		if tr != nil {
			c.HTTP.Transport = traceTransport{tr: tr, next: http.DefaultTransport}
		}
		g.clients = append(g.clients, c)
	}
	for i := 0; i < spec.replicas; i++ {
		ep, err := listen()
		if err != nil {
			g.stop()
			return nil, err
		}
		g.eps = append(g.eps, ep)
		if spec.replicas > 1 {
			if g.peers == nil {
				g.peers = map[int]string{}
			}
			g.peers[i] = ep.url
		}
	}
	for i, ep := range g.eps {
		r, _, _, err := newReplica(i, filepath.Join(dir, fmt.Sprintf("r%d.log", i)), g.peers, g.clients, tr)
		if err != nil {
			g.stop()
			return nil, err
		}
		r.ep = ep
		ep.serve(traceHandler(tr, "service", r.svc.Handler()))
		g.replicas = append(g.replicas, r)
	}
	for _, r := range g.replicas {
		r.svc.Start()
	}
	if err := g.awaitLeader(10 * time.Second); err != nil {
		g.stop()
		return nil, err
	}
	t0 := clk.Now()
	if err := g.feedHistory(train); err != nil {
		g.stop()
		return nil, err
	}
	g.fed = clk.Since(t0)
	return g, nil
}

// awaitLeader waits until one live replica leads and every other live one
// follows it.
func (g *group) awaitLeader(limit time.Duration) error {
	for deadline := clk.Now().Add(limit); clk.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		lead, settled := -1, true
		for _, r := range g.replicas {
			if r.stopped.Load() {
				continue
			}
			role, _, known := r.svc.Role()
			if role == service.RoleLeader {
				lead = r.id
			} else if known < 0 {
				settled = false
			}
		}
		if lead >= 0 && settled {
			g.leader.Store(int32(lead))
			return nil
		}
	}
	return errors.New("no leader elected")
}

func (g *group) lead() *replica { return g.replicas[g.leader.Load()] }

// feedHistory posts the pre-training history to the leader, as
// 3sigma-loadgen does before a replay.
func (g *group) feedHistory(train []trace.Record) error {
	type rec struct {
		Name     string  `json:"name"`
		User     string  `json:"user"`
		Tasks    int     `json:"tasks"`
		Priority int     `json:"priority"`
		Runtime  float64 `json:"runtime"`
	}
	var body struct {
		Jobs []rec `json:"jobs"`
	}
	for _, r := range train {
		body.Jobs = append(body.Jobs, rec{r.Name, r.User, r.Tasks, r.Priority, r.Runtime})
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(g.lead().ep.url+"/v1/train", "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("train: %d %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// stopReplica stops one replica's service and endpoint; its log stays open
// for the checks that read it.
func (g *group) stopReplica(r *replica) {
	if r.stopped.Swap(true) {
		return
	}
	r.svc.BeginDrain()
	_ = r.svc.Stop(10 * time.Second) // a loop that will not drain shows up in the checks that follow
	r.ep.close()
}

// stop tears the whole group down: replicas, agents, logs. It may be called
// twice.
func (g *group) stop() {
	for _, r := range g.replicas {
		g.stopReplica(r)
		_ = r.log.Close() // every append was synced when it was made
	}
	for _, ep := range append(g.eps, g.agents...) {
		ep.close()
	}
}

// jobRequest is the POST /v1/jobs body.
type jobRequest struct {
	ID            int64   `json:"id"`
	Name          string  `json:"name"`
	User          string  `json:"user"`
	Class         string  `json:"class"`
	Priority      int     `json:"priority"`
	Tasks         int     `json:"tasks"`
	Runtime       float64 `json:"runtime"`
	DeadlineIn    float64 `json:"deadline_in,omitempty"`
	NonPrefFactor float64 `json:"nonpref_factor,omitempty"`
	Preferred     []int   `json:"preferred,omitempty"`
	SubmitAt      float64 `json:"submit_at"`
}

// requestBody renders j as a submit stamped at virtual time at.
func requestBody(j *job.Job, at float64) []byte {
	req := jobRequest{ID: int64(j.ID), Name: j.Name, User: j.User, Class: "BE", Priority: j.Priority,
		Tasks: j.Tasks, Runtime: j.Runtime, NonPrefFactor: j.NonPrefFactor, Preferred: j.Preferred, SubmitAt: at}
	if j.HasDeadline() {
		req.Class, req.DeadlineIn = "SLO", j.Deadline-j.Submit
	}
	raw, _ := json.Marshal(req) // plain fields only: cannot fail
	return raw
}

// client is one connection of the load generator. It does not follow
// redirects: outside a failover the leader is known, and across one submit
// looks for the next leader itself.
type client struct {
	g    *group
	http *http.Client
}

func (g *group) newClient() *client {
	return &client{g: g, http: &http.Client{
		Timeout:       5 * time.Second,
		Transport:     &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request to the replica the group believes leads and returns
// the status code and body; 0 means the connection failed.
func (c *client) do(method, path string, body []byte, ref int64) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.g.lead().ep.url+path, rd)
	if err != nil {
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	if c.g.tr != nil {
		req.Header.Set(refHeader, strconv.FormatInt(ref, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	return resp.StatusCode, raw
}

// submit posts one job and reports whether it was accepted with its record
// on a quorum of logs. Outside a failover it never retries: a submit that is
// not answered 202 is a failed operation.
func (c *client) submit(j *job.Job, at float64, retry bool) (ok, gap bool) {
	body := requestBody(j, at)
	for try := 0; ; try++ {
		code, raw := c.do(http.MethodPost, "/v1/jobs", body, int64(j.ID))
		switch {
		case code == http.StatusAccepted:
			var resp struct {
				Gap bool `json:"replicated_gap"`
			}
			_ = json.Unmarshal(raw, &resp) // a body that does not parse reads as no gap reported
			return true, resp.Gap
		case !retry || try > 200:
			return false, false
		case code == http.StatusConflict:
			return true, false // the attempt whose answer was lost had landed
		}
		// The leader is gone or not yet known: look at the next live replica.
		next := (int(c.g.leader.Load()) + 1) % len(c.g.replicas)
		for c.g.replicas[next].stopped.Load() {
			next = (next + 1) % len(c.g.replicas)
		}
		c.g.leader.Store(int32(next))
		time.Sleep(10 * time.Millisecond)
	}
}
