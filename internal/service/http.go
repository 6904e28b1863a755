package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"

	"threesigma/internal/job"
)

// jobRequest is the POST /v1/jobs body. Times are virtual seconds; the
// deadline is given relative to submission (DeadlineIn) and anchored to the
// service's virtual clock at acceptance.
type jobRequest struct {
	ID       int64  `json:"id,omitempty"` // 0: assigned by the server
	Name     string `json:"name"`
	User     string `json:"user"`
	Class    string `json:"class"` // "SLO" or "BE" (default)
	Priority int    `json:"priority"`
	Tasks    int    `json:"tasks"`
	// Runtime is the execution time in virtual seconds on preferred
	// resources (the agents play tasks out against the logical clock, so
	// the daemon needs the ground truth to time completions — exactly like
	// the simulator's Job.Runtime).
	Runtime       float64 `json:"runtime"`
	DeadlineIn    float64 `json:"deadline_in,omitempty"` // SLO: seconds after submit
	NonPrefFactor float64 `json:"nonpref_factor,omitempty"`
	Preferred     []int   `json:"preferred,omitempty"`
	// SubmitAt pins the job's logical submission time (virtual seconds; 0:
	// the time of the cycle in flight). A pre-stamped workload can then be
	// burst in up front: which cycle admits each job depends only on its
	// stamp, never on wall-clock arrival jitter — the property the failover
	// digest gate relies on.
	SubmitAt float64 `json:"submit_at,omitempty"`
}

type jobResponse struct {
	ID         job.ID  `json:"id"`
	Phase      string  `json:"phase"`
	VirtualNow float64 `json:"virtual_now"`
	// ReplicatedGap is set when the admission was accepted but the
	// synchronous replication wait did not confirm every live follower —
	// the job is durable only on the leader until replication catches up
	// (see Service.Submit).
	ReplicatedGap bool `json:"replicated_gap,omitempty"`
}

type errResponse struct {
	Error string `json:"error"`
}

var nextServerID atomic.Int64

func init() { nextServerID.Store(1 << 40) } // far above any client-assigned ID

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) { writeErrFor(w, nil, err) }

// writeErrFor renders a SubmitError. A 307 is a not-the-leader redirect:
// Msg carries the leader's base URL, and when the request is known the
// original path+query is appended so clients can follow it verbatim.
func writeErrFor(w http.ResponseWriter, r *http.Request, err error) {
	if se, ok := err.(*SubmitError); ok {
		if se.RetryAfter > 0 {
			secs := int(se.RetryAfter.Seconds())
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		if se.Code == http.StatusTemporaryRedirect {
			loc := se.Msg
			if r != nil {
				loc += r.URL.RequestURI()
			}
			w.Header().Set("Location", loc)
			writeJSON(w, se.Code, errResponse{Error: "not the leader; retry at " + loc})
			return
		}
		writeJSON(w, se.Code, errResponse{Error: se.Msg})
		return
	}
	writeJSON(w, http.StatusInternalServerError, errResponse{Error: err.Error()})
}

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/cluster/nodes", s.handleResize)
	mux.HandleFunc("POST /v1/nodes/fail", s.handleNodeOp(s.FailNodes))
	mux.HandleFunc("POST /v1/nodes/recover", s.handleNodeOp(s.RecoverNodes))
	mux.HandleFunc("POST /v1/nodes/drain", s.handleNodeOp(s.DrainNodes))
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/train", s.handleTrain)
	// Control plane (DESIGN.md §14): replica status, the leader's log push
	// channel, and read access to the decision log.
	mux.HandleFunc("GET /v1/control/status", s.handleControlStatus)
	mux.HandleFunc("POST /v1/replog/append", s.handleReplogAppend)
	mux.HandleFunc("GET /v1/replog", s.handleReplogGet)
	mux.HandleFunc("GET /v1/replog/snapshot", s.handleReplogSnapshot)
	return mux
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "virtual_now": s.VirtualNow()})
}

// handleReady is the readiness probe: 200 while accepting work, 503 once a
// drain begins (SIGTERM) or before Start. Liveness (/healthz) stays 200
// through a drain, so load balancers stop routing without the process being
// declared dead mid-drain.
// In a replica group only the leader is ready: followers answer 503 with
// their role so load balancers route submissions to the leader.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	role, epoch, leader := s.Role()
	if !s.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "role": string(role), "leader_epoch": epoch, "leader_id": leader,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ready": true, "role": string(role), "leader_epoch": epoch,
		"virtual_now": s.VirtualNow(),
	})
}

// nodeOpRequest is the body of the POST /v1/nodes/{fail,recover,drain}
// operator endpoints.
type nodeOpRequest struct {
	Partition int `json:"partition"`
	Nodes     int `json:"nodes"`
}

func (s *Service) handleNodeOp(op func(partition, n int) (NodeOpResult, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req nodeOpRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, &SubmitError{Code: 400, Msg: "bad JSON: " + err.Error()})
			return
		}
		res, err := op(req.Partition, req.Nodes)
		if err != nil {
			writeErrFor(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, &SubmitError{Code: 400, Msg: "bad JSON: " + err.Error()})
		return
	}
	j, err := s.jobFromRequest(&req)
	if err != nil {
		writeErr(w, err)
		return
	}
	replicated, err := s.Submit(j)
	if err != nil {
		writeErrFor(w, r, err)
		return
	}
	writeJSON(w, http.StatusAccepted, jobResponse{
		ID: j.ID, Phase: string(PhaseQueued), VirtualNow: j.Submit, ReplicatedGap: !replicated,
	})
}

// jobFromRequest validates the request shape (schedulability is checked by
// Submit against live cluster state).
func (s *Service) jobFromRequest(req *jobRequest) (*job.Job, error) {
	cls := job.BestEffort
	switch req.Class {
	case "SLO", "slo":
		cls = job.SLO
	case "", "BE", "be", "BestEffort":
	default:
		return nil, &SubmitError{Code: 400, Msg: fmt.Sprintf("unknown class %q (want SLO or BE)", req.Class)}
	}
	if cls == job.SLO && req.DeadlineIn <= 0 {
		return nil, &SubmitError{Code: 400, Msg: "SLO jobs require deadline_in > 0"}
	}
	if req.DeadlineIn < 0 {
		return nil, &SubmitError{Code: 400, Msg: "deadline_in must be non-negative"}
	}
	if req.NonPrefFactor != 0 && req.NonPrefFactor < 1 {
		return nil, &SubmitError{Code: 400, Msg: "nonpref_factor must be >= 1"}
	}
	id := job.ID(req.ID)
	if id < 0 {
		return nil, &SubmitError{Code: 400, Msg: "id must be non-negative"}
	}
	if id == 0 {
		id = job.ID(nextServerID.Add(1))
	}
	now := s.VirtualNow()
	if req.SubmitAt != 0 {
		if req.SubmitAt < 0 {
			return nil, &SubmitError{Code: 400, Msg: "submit_at must be non-negative"}
		}
		// An explicit stamp decouples logical submission from wall arrival:
		// jobs stamped in the future are held until their cycle comes.
		now = req.SubmitAt
	}
	j := &job.Job{
		ID:            id,
		Name:          req.Name,
		User:          req.User,
		Class:         cls,
		Priority:      req.Priority,
		Submit:        now,
		Tasks:         req.Tasks,
		Runtime:       req.Runtime,
		NonPrefFactor: req.NonPrefFactor,
		Preferred:     append([]int(nil), req.Preferred...),
	}
	if j.NonPrefFactor == 0 {
		j.NonPrefFactor = 1
	}
	sort.Ints(j.Preferred)
	if cls == job.SLO {
		j.Deadline = now + req.DeadlineIn
	}
	return j, nil
}

func pathID(r *http.Request) (job.ID, error) {
	n, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil || n <= 0 {
		return 0, &SubmitError{Code: 400, Msg: "bad job id"}
	}
	return job.ID(n), nil
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	st, ok := s.Status(id)
	if !ok {
		writeErr(w, &SubmitError{Code: 404, Msg: fmt.Sprintf("unknown job %d", id)})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.Cancel(id); err != nil {
		writeErrFor(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, jobResponse{ID: id, Phase: string(PhaseCancelled), VirtualNow: s.VirtualNow()})
}

type resizeRequest struct {
	Partition int `json:"partition"`
	Delta     int `json:"delta"`
}

func (s *Service) handleResize(w http.ResponseWriter, r *http.Request) {
	var req resizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, &SubmitError{Code: 400, Msg: "bad JSON: " + err.Error()})
		return
	}
	c, err := s.Resize(req.Partition, req.Delta)
	if err != nil {
		writeErrFor(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"partitions": c.Partitions, "total_nodes": c.TotalNodes(),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// predictRequest describes a hypothetical job for /v1/predict.
type predictRequest struct {
	Name     string `json:"name"`
	User     string `json:"user"`
	Tasks    int    `json:"tasks"`
	Priority int    `json:"priority"`
}

type predictResponse struct {
	Point   float64 `json:"point"`
	Expert  string  `json:"expert"`
	Samples int     `json:"samples"`
	Novel   bool    `json:"novel"`
}

// trainRequest carries completed historical jobs for predictor
// pre-training (the paper's history-database warm-up).
type trainRequest struct {
	Jobs []struct {
		Name     string  `json:"name"`
		User     string  `json:"user"`
		Tasks    int     `json:"tasks"`
		Priority int     `json:"priority"`
		Runtime  float64 `json:"runtime"`
	} `json:"jobs"`
}

func (s *Service) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req trainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, &SubmitError{Code: 400, Msg: "bad JSON: " + err.Error()})
		return
	}
	recs := make([]TrainRecord, 0, len(req.Jobs))
	for _, rec := range req.Jobs {
		recs = append(recs, TrainRecord{
			Job:     &job.Job{Name: rec.Name, User: rec.User, Tasks: rec.Tasks, Priority: rec.Priority},
			Runtime: rec.Runtime,
		})
	}
	trained, err := s.TrainBatch(recs)
	if err != nil {
		writeErrFor(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"trained": trained})
}

func (s *Service) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, &SubmitError{Code: 400, Msg: "bad JSON: " + err.Error()})
		return
	}
	est := s.Predict(&job.Job{Name: req.Name, User: req.User, Tasks: req.Tasks, Priority: req.Priority})
	if est == nil {
		writeErr(w, &SubmitError{Code: 404, Msg: "no predictor configured"})
		return
	}
	writeJSON(w, http.StatusOK, predictResponse{
		Point: est.Point, Expert: est.Expert, Samples: est.Samples, Novel: est.Novel,
	})
}
