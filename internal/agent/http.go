package agent

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

type errResponse struct {
	Error string `json:"error"`
	// Got/Seen mirror ErrStaleEpoch on a 409 so the fenced leader learns
	// the epoch that outranks it (and can step down to it) instead of
	// guessing from an opaque error string.
	Got  uint64 `json:"got,omitempty"`
	Seen uint64 `json:"seen,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// Handler returns the agent's HTTP API:
//
//	POST /v1/reconcile — one epoch-fenced scheduler round (ack, evict,
//	                     start, advance time, report deltas + live tasks)
//	GET  /v1/status    — observability snapshot
//	GET  /healthz      — liveness
func (a *Agent) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/reconcile", a.handleReconcile)
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, a.Status())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "agent": a.id})
	})
	return mux
}

func (a *Agent) handleReconcile(w http.ResponseWriter, r *http.Request) {
	var req ReconcileRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: "bad JSON: " + err.Error()})
		return
	}
	resp, err := a.Reconcile(req)
	var se *ErrStaleEpoch
	if errors.As(err, &se) {
		// 409 Conflict: the deposed leader must stand down, not retry.
		writeJSON(w, http.StatusConflict, errResponse{Error: err.Error(), Got: se.Got, Seen: se.Seen})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// Client is the scheduler-side handle on one remote agent.
type Client struct {
	// Addr is the agent's base URL (e.g. http://127.0.0.1:8401).
	Addr string
	// Partitions lists the global partition indices the agent owns.
	Partitions []int
	// HTTP is the transport; a default with a short timeout is used when
	// nil (reconcile rounds sit inside the scheduling cycle, so a hung
	// agent must not stall the control plane for long).
	HTTP *http.Client
}

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 2 * time.Second}
}

// Reconcile runs one round against the remote agent. A *ErrStaleEpoch is
// returned verbatim when the agent fenced us off.
func (c *Client) Reconcile(req ReconcileRequest) (*ReconcileResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.client().Post(strings.TrimRight(c.Addr, "/")+"/v1/reconcile",
		"application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	switch resp.StatusCode {
	case http.StatusOK:
		var out ReconcileResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, fmt.Errorf("agent %s: bad reconcile response: %w", c.Addr, err)
		}
		return &out, nil
	case http.StatusConflict:
		var e errResponse
		json.Unmarshal(raw, &e)
		// Carry the agent's fencing epoch through so the caller can step
		// down to it (Seen stays 0 against an agent predating the field;
		// the fence itself is still proof the leadership is over).
		return nil, &ErrStaleEpoch{Got: e.Got, Seen: e.Seen}
	default:
		return nil, fmt.Errorf("agent %s: reconcile: %d %s", c.Addr, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
}

// ParseSpec parses an agent fleet spec of the form
//
//	addr=partition[:partition...][,addr=partitions...]
//
// e.g. "http://127.0.0.1:8401=0:1,http://127.0.0.1:8402=2:3" — each entry
// one agent and the global partitions it owns.
func ParseSpec(spec string) ([]*Client, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []*Client
	seen := map[int]bool{}
	for _, ent := range strings.Split(spec, ",") {
		addr, parts, ok := strings.Cut(strings.TrimSpace(ent), "=")
		if !ok || addr == "" {
			return nil, fmt.Errorf("agent: bad fleet entry %q (want addr=p0:p1:...)", ent)
		}
		var owned []int
		for _, ps := range strings.Split(parts, ":") {
			var p int
			if _, err := fmt.Sscanf(ps, "%d", &p); err != nil || p < 0 {
				return nil, fmt.Errorf("agent: bad partition %q in %q", ps, ent)
			}
			if seen[p] {
				return nil, fmt.Errorf("agent: partition %d assigned to two agents", p)
			}
			seen[p] = true
			owned = append(owned, p)
		}
		if len(owned) == 0 {
			return nil, fmt.Errorf("agent: entry %q owns no partitions", ent)
		}
		out = append(out, &Client{Addr: addr, Partitions: owned})
	}
	return out, nil
}
