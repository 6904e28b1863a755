package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"threesigma/internal/core"
	"threesigma/internal/dist"
	"threesigma/internal/job"
	"threesigma/internal/simulator"
)

// clk is the harness's only way to read time: 3sigma-lint confines
// time.Now/Since to simulator/clock.go.
var clk simulator.WallClock

// span is one timed call into a layer. Parent is the span that caused it
// (0: none); Ref is the job or cycle it belongs to, so the spans of one job
// or one cycle can be pulled out of the file together.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Ref    int64  `json:"ref,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the pass ends. A nil *tracer records
// nothing, which is how the measured pass runs.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: clk.Now()} }

func (t *tracer) begin(name string, parent int32, ref int64) int32 {
	if t == nil {
		return 0
	}
	now := int64(clk.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Ref: ref, Start: now})
	id := int32(len(t.spans))
	t.spans[id-1].ID = id
	t.mu.Unlock()
	return id
}

// add records a span whose interval the caller measured itself.
func (t *tracer) add(name string, parent int32, ref int64, start, end time.Time) {
	if t == nil {
		return
	}
	id := t.begin(name, parent, ref)
	t.mu.Lock()
	t.spans[id-1].Start = int64(start.Sub(t.epoch))
	t.spans[id-1].End = int64(end.Sub(t.epoch))
	t.mu.Unlock()
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(clk.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// finish computes every span's self time — its duration minus the part of
// that interval its children cover (children of concurrent shard cycles
// overlap, so the union is taken, not the sum) — and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int32][]int, len(t.spans)/2)
	for i, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return t.spans[ks[a]].Start < t.spans[ks[b]].Start })
		covered := s.Start
		for _, k := range ks {
			lo, hi := t.spans[k].Start, t.spans[k].End
			if lo < covered {
				lo = covered
			}
			if hi > lo {
				s.Self -= hi - lo
				covered = hi
			}
		}
	}
	return t.spans
}

// layerTimes sums duration and self time per span name.
type layerTime struct {
	calls     int
	busy      time.Duration
	self      time.Duration
	durations []time.Duration
}

func sumSpans(spans []span) map[string]*layerTime {
	out := map[string]*layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.calls++
		lt.busy += time.Duration(s.End - s.Start)
		lt.self += time.Duration(s.Self)
		lt.durations = append(lt.durations, time.Duration(s.End-s.Start))
	}
	return out
}

// get returns the named layer's totals, or zeros when it never ran.
func get(m map[string]*layerTime, name string) *layerTime {
	if lt := m[name]; lt != nil {
		return lt
	}
	return &layerTime{}
}

func writeTrace(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// schedProbe times calls into a scheduler from outside. With a nil tracer it
// keeps only what the end-to-end metrics need (admission and cycle
// durations); with one it also records a span per call.
//
// It forwards every optional interface the simulator and the service
// type-assert on their scheduler — Stats, ShardStats, JobRemoved, SetClock,
// ExportState/ImportState. Dropping one changes behaviour silently: without
// SetClock solver budgets read the wall clock, without JobRemoved cancelled
// jobs leak, without ExportState compaction is refused.
type schedProbe struct {
	inner simulator.Scheduler
	tr    *tracer
	cur   atomic.Int32 // span in progress, parent of the estimator's spans

	cycles int64 // calls to Cycle, the ref of their spans

	mu     sync.Mutex
	submit []time.Duration
	cycle  []time.Duration
	busy   time.Duration // all time inside scheduler calls
}

func (p *schedProbe) JobSubmitted(j *job.Job, now float64) {
	t0 := clk.Now()
	id := p.tr.begin("core.submit", 0, int64(j.ID))
	p.cur.Store(id)
	p.inner.JobSubmitted(j, now)
	p.cur.Store(0)
	p.tr.end(id)
	p.note(&p.submit, clk.Since(t0))
}

// note files one call's duration. The service calls its scheduler from one
// goroutine at a time, but the harness reads the totals while it runs.
func (p *schedProbe) note(into *[]time.Duration, d time.Duration) {
	p.mu.Lock()
	if into != nil {
		*into = append(*into, d)
	}
	p.busy += d
	p.mu.Unlock()
}

// totals returns copies of what the probe has timed so far.
func (p *schedProbe) totals() (submit, cycle []time.Duration, busy time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]time.Duration(nil), p.submit...), append([]time.Duration(nil), p.cycle...), p.busy
}

func (p *schedProbe) Cycle(st *simulator.State) simulator.Decision {
	t0 := clk.Now()
	p.cycles++
	id := p.tr.begin("core.cycle", 0, p.cycles)
	p.cur.Store(id)
	dec := p.inner.Cycle(st)
	p.cur.Store(0)
	if dec.SolverLatency > 0 {
		// Seen from outside the solve is some part of the cycle;
		// Decision.SolverLatency gives its length, so place it at the end.
		end := clk.Now()
		p.tr.add("milp.solve", id, p.cycles, end.Add(-dec.SolverLatency), end)
	}
	p.tr.end(id)
	p.note(&p.cycle, clk.Since(t0))
	return dec
}

func (p *schedProbe) JobCompleted(j *job.Job, base, now float64) {
	t0 := clk.Now()
	id := p.tr.begin("core.complete", 0, int64(j.ID))
	p.cur.Store(id)
	p.inner.JobCompleted(j, base, now)
	p.cur.Store(0)
	p.tr.end(id)
	p.note(nil, clk.Since(t0))
}

func (p *schedProbe) Stats() core.Stats {
	if s, ok := p.inner.(interface{ Stats() core.Stats }); ok {
		return s.Stats()
	}
	return core.Stats{}
}

func (p *schedProbe) ShardStats() []core.Stats {
	if s, ok := p.inner.(interface{ ShardStats() []core.Stats }); ok {
		return s.ShardStats()
	}
	return nil
}

func (p *schedProbe) JobRemoved(id job.ID) {
	if s, ok := p.inner.(interface{ JobRemoved(job.ID) }); ok {
		s.JobRemoved(id)
	}
}

func (p *schedProbe) SetClock(c simulator.Clock) {
	if s, ok := p.inner.(simulator.ClockAware); ok {
		s.SetClock(c)
	}
}

func (p *schedProbe) ExportState() (*core.SchedState, error) {
	if s, ok := p.inner.(interface {
		ExportState() (*core.SchedState, error)
	}); ok {
		return s.ExportState()
	}
	return nil, fmt.Errorf("bench: scheduler %T has no exportable state", p.inner)
}

func (p *schedProbe) ImportState(st *core.SchedState) error {
	if s, ok := p.inner.(interface {
		ImportState(*core.SchedState) error
	}); ok {
		return s.ImportState(st)
	}
	return fmt.Errorf("bench: scheduler %T cannot import state", p.inner)
}

// estProbe records a span around every predictor call. Shard cycles call the
// shared estimator concurrently, so it holds no state of its own; parent
// reads the scheduler probe's span in progress.
type estProbe struct {
	inner  core.Estimator
	tr     *tracer
	parent *atomic.Int32
}

func (e estProbe) EstimateDist(j *job.Job) dist.Distribution {
	id := e.tr.begin("predictor.estimate", e.parent.Load(), int64(j.ID))
	d := e.inner.EstimateDist(j)
	e.tr.end(id)
	return d
}

func (e estProbe) Observe(j *job.Job, rt float64) {
	id := e.tr.begin("predictor.observe", e.parent.Load(), int64(j.ID))
	e.inner.Observe(j, rt)
	e.tr.end(id)
}

// spanHeader carries the caller's span and job across an HTTP hop, so the
// handler's span on the other side can name its parent without reading the
// request body.
const (
	spanHeader = "X-Bench-Span"
	refHeader  = "X-Bench-Ref"
)

// traceHandler wraps a replica's or an agent's handler in a span per request
// named layer.route, e.g. "service.POST /v1/jobs".
func traceHandler(tr *tracer, layer string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 32)
		ref, _ := strconv.ParseInt(r.Header.Get(refHeader), 10, 64)
		path := r.URL.Path
		if len(path) > len("/v1/jobs/") && path[:len("/v1/jobs/")] == "/v1/jobs/" {
			path = "/v1/jobs/{id}"
		}
		id := tr.begin(layer+"."+r.Method+" "+path, int32(parent), ref)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// traceTransport is the timing RoundTripper given to agent.Client.HTTP: a
// span per reconcile round trip, whose id travels to the agent's handler.
type traceTransport struct {
	tr   *tracer
	next http.RoundTripper
}

func (t traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := t.tr.begin("agent.rtt", 0, 0)
	if id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.Itoa(int(id)))
	}
	resp, err := t.next.RoundTrip(r)
	t.tr.end(id)
	return resp, err
}
