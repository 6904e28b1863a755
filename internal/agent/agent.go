// Package agent is the node-side half of the distributed control plane
// (DESIGN.md §14): a per-node-group executor that owns task lifecycle —
// start, evict, complete, crash — for the cluster partitions assigned to
// it, while the scheduler side (internal/service) stays a pure
// reconciler that diffs desired against actual state and issues idempotent,
// epoch-fenced directives. Every service runs its tasks through one: a
// single in-process Agent owning the whole cluster by default, or remote
// agentd daemons behind a Client.
//
// The agent is deliberately clockless: task runtimes play out against the
// leader's logical clock, which arrives with every reconcile round ("time
// is now T; what happened?"). A task started with due time D completes at
// exactly D — reported in the first round whose now >= D — so an outcome's
// times depend on the decision log alone, not on where the agent runs, and
// a scheduler failover between rounds shifts nothing.
//
// Every round carries the leader epoch. The agent tracks the highest epoch
// it has seen and rejects rounds fenced below it, which is what makes a
// deposed leader harmless: its directives bounce with ErrStaleEpoch and the
// replica learns its reign is over.
package agent

import (
	"fmt"
	"sort"
	"sync"

	"threesigma/internal/job"
)

// Event kinds reported by the agent.
const (
	// EventCompleted: the attempt ran to its due time.
	EventCompleted = "completed"
	// EventCrashed: the attempt hit its fault-injected crash point.
	EventCrashed = "crashed"
)

// Event is one task-lifecycle transition, buffered until the scheduler
// acknowledges it (cumulative ack by Seq).
type Event struct {
	Seq   uint64  `json:"seq"`
	Job   job.ID  `json:"job"`
	RunID int64   `json:"run_id"`
	Kind  string  `json:"kind"`
	At    float64 `json:"at"` // virtual seconds (due or crash point)
}

// StartDirective asks the agent to run one attempt. Alloc is indexed by
// global partition and restricted to this agent's partitions; Due is the
// virtual completion time the scheduler computed; CrashAt, when positive,
// is an injected mid-run crash point (CrashAt < Due). Directives are
// idempotent on (Job, RunID): re-issuing a live or already-reported attempt
// changes nothing, so a failed-over scheduler can blindly replay its
// desired state.
type StartDirective struct {
	Job     job.ID  `json:"job"`
	RunID   int64   `json:"run_id"`
	Alloc   []int   `json:"alloc"`
	Due     float64 `json:"due"`
	CrashAt float64 `json:"crash_at,omitempty"`
}

// EvictDirective kills one attempt (scheduler preemption, node failure, or
// cancellation). Evicting an unknown or stale (Job, RunID) is a no-op.
type EvictDirective struct {
	Job   job.ID `json:"job"`
	RunID int64  `json:"run_id"`
}

// TaskState is one live attempt in the agent's report, carrying everything
// a freshly elected scheduler needs to adopt it.
type TaskState struct {
	Job     job.ID  `json:"job"`
	RunID   int64   `json:"run_id"`
	Alloc   []int   `json:"alloc"`
	Due     float64 `json:"due"`
	CrashAt float64 `json:"crash_at,omitempty"`
}

// Counters are the agent's cumulative lifecycle counts.
type Counters struct {
	Started   int64 `json:"started"`
	Completed int64 `json:"completed"`
	Crashed   int64 `json:"crashed"`
	Evicted   int64 `json:"evicted"`
	Stale     int64 `json:"stale"` // directives rejected by epoch fencing
}

// ErrStaleEpoch is returned to a deposed leader: the directive's epoch is
// below the highest this agent has observed.
type ErrStaleEpoch struct{ Got, Seen uint64 }

func (e *ErrStaleEpoch) Error() string {
	return fmt.Sprintf("agent: stale epoch %d (fenced at %d)", e.Got, e.Seen)
}

// ReconcileRequest is one scheduler round: the POST /v1/reconcile body.
type ReconcileRequest struct {
	Epoch  uint64           `json:"epoch"`
	Now    float64          `json:"now"`
	Ack    uint64           `json:"ack,omitempty"`
	Evicts []EvictDirective `json:"evicts,omitempty"`
	Starts []StartDirective `json:"starts,omitempty"`
	Reset  bool             `json:"reset,omitempty"`
}

// ReconcileResponse reports the agent's actual state back to the scheduler.
type ReconcileResponse struct {
	Agent   string      `json:"agent"`
	Epoch   uint64      `json:"epoch"`
	Events  []Event     `json:"events,omitempty"`
	Running []TaskState `json:"running,omitempty"`
}

// Reconciler is what the scheduler side runs its rounds against: an *Agent
// in its own process, a *Client over HTTP.
type Reconciler interface {
	Reconcile(ReconcileRequest) (*ReconcileResponse, error)
}

// Agent owns task lifecycle for a set of cluster partitions. Safe for
// concurrent use (rounds serialize through mu).
type Agent struct {
	id  string
	own map[int]int // partition -> provisioned nodes (immutable after New)

	mu       sync.Mutex
	epoch    uint64                // guarded by mu; highest leader epoch seen
	now      float64               // guarded by mu; leader's logical time, high-water
	tasks    map[job.ID]TaskState  // guarded by mu; live attempts by job (one attempt per job)
	reported map[job.ID]reportMark // guarded by mu; last attempt that produced an event, per job
	events   []Event               // guarded by mu; unacked lifecycle events
	eventSeq uint64                // guarded by mu; last assigned event seq
	counters Counters              // guarded by mu
}

// reportMark remembers that a job's attempt already produced an event, so a
// replayed start for it is swallowed rather than re-run. The mark lives
// until the event is acked: after that the scheduler has durably applied
// the completion and will never replay the start.
type reportMark struct {
	runID int64
	seq   uint64
}

// New builds an agent owning the given partitions (partition index ->
// provisioned node count; a partition listed with 0 nodes is owned too,
// ready for the nodes a resize adds).
func New(id string, own map[int]int) *Agent {
	o := make(map[int]int, len(own))
	//lint:allow detrange map-to-map copy: the result is identical in any iteration order
	for p, n := range own {
		o[p] = n
	}
	return &Agent{
		id:       id,
		own:      o,
		tasks:    make(map[job.ID]TaskState),
		reported: make(map[job.ID]reportMark),
	}
}

// Partitions returns the owned partition -> node-count map (copy).
func (a *Agent) Partitions() map[int]int {
	out := make(map[int]int, len(a.own))
	//lint:allow detrange map-to-map copy: the result is identical in any iteration order
	for p, n := range a.own {
		out[p] = n
	}
	return out
}

// Reconcile is one scheduler round: fence the epoch, clear everything on a
// Reset (a leader re-adopting an agent it had declared dead: the engine
// already evicted and requeued the agent's work, so anything still held here
// is orphaned), garbage-collect acked events, apply evictions then starts,
// advance the logical clock to now (emitting completion/crash events for
// every attempt whose time has come), and report the unacked events plus
// the full live-task state.
//
// All mutations are idempotent, so a failed-over scheduler replaying its
// desired state converges without duplicating work: re-starting a live
// attempt is a no-op, re-starting an attempt that already completed is
// swallowed (the event either is still buffered or was acked by the old
// leader), and re-evicting a gone attempt changes nothing.
func (a *Agent) Reconcile(req ReconcileRequest) (*ReconcileResponse, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if req.Epoch < a.epoch {
		a.counters.Stale++
		return nil, &ErrStaleEpoch{Got: req.Epoch, Seen: a.epoch}
	}
	a.epoch = req.Epoch
	if req.Reset {
		a.tasks = make(map[job.ID]TaskState)
		a.reported = make(map[job.ID]reportMark)
		a.events = nil
	}

	// Cumulative ack: drop events the scheduler has durably applied, and
	// with them the replay-suppression marks they anchored.
	if req.Ack > 0 {
		keep := a.events[:0]
		for _, ev := range a.events {
			if ev.Seq > req.Ack {
				keep = append(keep, ev)
			}
		}
		a.events = keep
		//lint:allow detrange deletion-only sweep: which order marks are dropped in is unobservable
		for id, mark := range a.reported {
			if mark.seq <= req.Ack {
				delete(a.reported, id)
			}
		}
	}

	for _, d := range req.Evicts {
		if t, ok := a.tasks[d.Job]; ok && t.RunID == d.RunID {
			delete(a.tasks, d.Job)
			a.counters.Evicted++
		}
	}
	for _, d := range req.Starts {
		if err := a.startLocked(d); err != nil {
			return nil, err
		}
	}

	a.advanceLocked(req.Now)

	resp := &ReconcileResponse{Agent: a.id, Epoch: a.epoch, Events: append([]Event(nil), a.events...),
		Running: make([]TaskState, 0, len(a.tasks))}
	for _, t := range a.tasks {
		resp.Running = append(resp.Running, t)
	}
	sort.Slice(resp.Running, func(i, j int) bool { return resp.Running[i].Job < resp.Running[j].Job })
	return resp, nil
}

// startLocked applies one start directive. Idempotent on (Job, RunID).
func (a *Agent) startLocked(d StartDirective) error {
	if t, ok := a.tasks[d.Job]; ok {
		if t.RunID >= d.RunID {
			return nil // a live duplicate, or a stale re-issue of a superseded attempt
		}
		// A newer attempt replaces an older one the scheduler has already
		// given up on (it will have evicted it engine-side).
		delete(a.tasks, d.Job)
	}
	if a.reported[d.Job].runID >= d.RunID {
		return nil // attempt already ran to an event; swallow the replay
	}
	total := 0
	for p, n := range d.Alloc {
		if n < 0 {
			return fmt.Errorf("agent %s: start job %d: negative alloc", a.id, d.Job)
		}
		if _, owned := a.own[p]; n > 0 && !owned {
			return fmt.Errorf("agent %s: start job %d: partition %d not owned", a.id, d.Job, p)
		}
		total += n
	}
	if total == 0 {
		return fmt.Errorf("agent %s: start job %d: empty allocation", a.id, d.Job)
	}
	a.tasks[d.Job] = TaskState{Job: d.Job, RunID: d.RunID, Alloc: append([]int(nil), d.Alloc...),
		Due: d.Due, CrashAt: d.CrashAt}
	a.counters.Started++
	return nil
}

// advanceLocked moves the logical clock to now and emits events for every
// attempt whose crash point or due time has passed, in deterministic
// (time, job) order. Time never moves backwards: a reconcile from a new
// leader that replays an older now (it resumes at the next cycle) keeps the
// high-water mark.
func (a *Agent) advanceLocked(now float64) {
	a.now = max(a.now, now)
	var due []Event
	//lint:allow detrange collect-only: fires are sorted by (time, job) before events are assigned
	for _, t := range a.tasks {
		if t.CrashAt > 0 && t.CrashAt <= a.now {
			due = append(due, Event{Job: t.Job, RunID: t.RunID, Kind: EventCrashed, At: t.CrashAt})
		} else if t.Due <= a.now {
			due = append(due, Event{Job: t.Job, RunID: t.RunID, Kind: EventCompleted, At: t.Due})
		}
	}
	sort.Slice(due, func(i, j int) bool {
		//lint:allow floateq exact tie-break: equal-bits fire times fall through to the job ID order
		if due[i].At != due[j].At {
			return due[i].At < due[j].At
		}
		return due[i].Job < due[j].Job
	})
	for _, ev := range due {
		a.eventSeq++
		ev.Seq = a.eventSeq
		a.events = append(a.events, ev)
		a.reported[ev.Job] = reportMark{runID: ev.RunID, seq: ev.Seq}
		delete(a.tasks, ev.Job)
		if ev.Kind == EventCrashed {
			a.counters.Crashed++
		} else {
			a.counters.Completed++
		}
	}
}

// Status is the agent's observability snapshot.
type Status struct {
	ID         string      `json:"id"`
	Epoch      uint64      `json:"epoch"`
	Now        float64     `json:"now"`
	Running    int         `json:"running"`
	Unacked    int         `json:"unacked_events"`
	Partitions map[int]int `json:"partitions"`
	Counters   Counters    `json:"counters"`
}

// Status returns the current snapshot.
func (a *Agent) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Status{
		ID: a.id, Epoch: a.epoch, Now: a.now,
		Running: len(a.tasks), Unacked: len(a.events),
		Partitions: a.Partitions(), Counters: a.counters,
	}
}
