// The replicated state machine (DESIGN.md §14, "State machine").
//
// state is everything the replicas of a group must agree on: the cluster
// engine, the admission queue, the deferred inputs, the desired-run map (what
// the agents should be running), the counters and cursors — and, by reference,
// the scheduler and predictor the daemon was built around. It is driven only
// through the methods below, which take no lock, read no clock, do no I/O and
// log nothing (purity_test.go parses this file and holds it to that): the
// same log therefore leaves the same state on the leader, on a follower, in
// a restarted process and on a snapshot-installed standby, because all four
// run the same code on the same records. What a transition wants done
// outside the state — a directive to an agent, a log line, a counted
// divergence — it returns as effects for the shell (service.go, control.go,
// reconcile.go, snapshot.go) to carry out under the one mutex it owns.
//
// A snapshot record's payload is this type's own encoding (wire, decode), so
// there is no second description of the state to keep in step — nor of the
// cycle: its window and starts run through the simulator's own
// simulator.Transition, in the simulator's order (DESIGN.md §7).
package service

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"threesigma/internal/binenc"
	"threesigma/internal/core"
	"threesigma/internal/dist"
	"threesigma/internal/faults"
	"threesigma/internal/job"
	"threesigma/internal/predictor"
	"threesigma/internal/replog"
	"threesigma/internal/simulator"
)

// --- record payloads: the state machine's input alphabet ---

// admitPayload is a TypeAdmit record: one accepted job, verbatim.
type admitPayload struct {
	Job *job.Job `json:"job"`
}

// trainPayload is one predictor observation. A TypeTrain record carries a
// JSON array of them — a whole /v1/train batch, or as much of it as fits
// one record — and each defers on its own under the record's seq.
type trainPayload struct {
	Name     string  `json:"name,omitempty"`
	User     string  `json:"user,omitempty"`
	Tasks    int     `json:"tasks,omitempty"`
	Priority int     `json:"priority,omitempty"`
	Runtime  float64 `json:"runtime"`
}

// cancelPayload is a TypeCancel record.
type cancelPayload struct {
	ID job.ID `json:"id"`
}

// Operator node-op kinds (opPayload.Kind).
const (
	opFail    = "fail"
	opRecover = "recover"
	opDrain   = "drain"
	opResize  = "resize"
)

// opPayload is a TypeNodeOp record: one operator action.
type opPayload struct {
	Kind      string `json:"kind"`
	Partition int    `json:"partition"`
	N         int    `json:"n,omitempty"`
	Delta     int    `json:"delta,omitempty"`
}

// electPayload is a TypeElect record: a replica assuming leadership.
type electPayload struct {
	Replica int   `json:"replica"`
	Cycle   int64 `json:"cycle"`
}

// agentOpEv is an agent-liveness transition the leader observed: a dead
// agent's partition failing (all provisioned nodes) or a returning agent's
// partition recovering. Recorded so followers mirror the wall-timing
// observation exactly.
type agentOpEv struct {
	Fail      bool `json:"fail"`
	Partition int  `json:"partition"`
	Nodes     int  `json:"nodes"`
}

// cyclePayload is a TypeCycle record: everything a replica needs to replay
// one scheduling round without running the solver. InputsThrough is the log
// seq watermark of inputs drained at the cycle top (inputs appended during
// the solve window belong to the next cycle).
type cyclePayload struct {
	Now           float64                 `json:"now"`
	InputsThrough uint64                  `json:"inputs_through"`
	Comps         []simulator.RunEnd      `json:"comps,omitempty"` // the runs the agents saw end
	AgentOps      []agentOpEv             `json:"agent_ops,omitempty"`
	Abandons      []job.ID                `json:"abandons,omitempty"`
	Preempts      []job.ID                `json:"preempts,omitempty"`
	Starts        []simulator.StartAction `json:"starts,omitempty"`
	EngineEpoch   uint64                  `json:"engine_epoch"`
}

// --- the state ---

// env is what a state runs against and does not own or encode: the
// scheduler and predictor the daemon was configured with (mutated in place —
// their exported state rides in the encoding), the chaos injector (an
// immutable schedule and pure per-attempt draws), and the cycle transition
// the simulator runs too, over the two.
type env struct {
	sched simulator.Scheduler
	pred  *predictor.Predictor
	inj   *faults.Injector
	tr    *simulator.Transition
}

// stateSnapshotter is the scheduler capability snapshots require:
// core.Scheduler implements it; greedy baselines and the sharded
// coordinator do not (Config.fill rejects CompactEvery for them).
type stateSnapshotter interface {
	ExportState() (*core.SchedState, error)
	ImportState(*core.SchedState) error
}

// queuedJob is one accepted job awaiting its admission cycle, tagged with its
// admit record's log seq (0 if decoded): a cycle admits only jobs its
// InputsThrough watermark covers, so a submit that lands while the leader is
// solving enters the engine in the next cycle on every replica, not one
// cycle early on those that apply the admit record before the cycle record.
//
// The seq is not encoded. A snapshot is taken at a cycle boundary and is
// itself a record: whatever it holds was logged before it, so the watermark
// of every cycle after it covers all of it, and a decoded entry's zero seq —
// which every watermark covers — gates exactly as the donor's would.
type queuedJob struct {
	Seq uint64 `json:"-"`
	*job.Job
}

// deferred is one input awaiting its cycle boundary: the record's own
// payload — for a train record, one entry of its array — beside the
// record's log seq (0 if decoded, as queuedJob's), so a replica applies
// exactly the entries the leader's cycle drained.
type deferred[P any] struct {
	Seq uint64 `json:"-"`
	In  P      `json:"in"`
}

// desiredRun is the reconciler's desired state for one live attempt: what
// some agent should be running right now.
type desiredRun struct {
	RunID   int64           `json:"run_id"`
	Alloc   simulator.Alloc `json:"alloc"`
	Due     float64         `json:"due"`
	CrashAt float64         `json:"crash_at,omitempty"`
}

// Counters are the service's cumulative admission and lifecycle counts.
type Counters struct {
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"` // 429s (queue full); this replica's own, not replicated
	Invalid   int64 `json:"invalid"`  // 400s; likewise
	Completed int64 `json:"completed"`
	Cancelled int64 `json:"cancelled"`
	Abandoned int64 `json:"abandoned"` // dropped by the scheduler (zero attainable utility)
	Trained   int64 `json:"trained"`   // history records fed via /v1/train
	Evicted   int64 `json:"evicted"`   // failure-induced evictions (node loss + crashes)
	FailedOut int64 `json:"failed"`    // jobs terminated after exhausting the retry budget
}

// state is the replicated state. The tagged fields are the encoding's own;
// the untagged ones are either encoded through their exported form (the
// engine, and env's scheduler and predictor) or derived.
type state struct {
	env

	eng    *simulator.Engine
	queued map[job.ID]*job.Job // Queue's members, by ID
	fx     []effect            // effects of the transition in progress

	// The predictor's history hash, cached: sha256 over the full serialized
	// history is too slow for the per-scrape /v1/metrics path, so it is
	// recomputed only after an observation marked it dirty.
	predSHA   string
	predDirty bool
	// The predictor section's size in the last snapshot wire wrote: the
	// next one reserves that much and an eighth more, so appending the
	// stream copies nothing unless the history grew past that.
	predBytes int

	Cycles   int64    `json:"cycle"`
	CycleNow float64  `json:"cycle_now"` // logical time of the in-flight/last cycle
	Counters Counters `json:"counters"`

	Queue     []queuedJob     `json:"queue,omitempty"`     // admission queue, drained each cycle
	Gone      map[job.ID]bool `json:"gone,omitempty"`      // cancelled or refused before admission (no Outcome)
	Abandoned map[job.ID]bool `json:"abandoned,omitempty"` // dropped by the scheduler (zero utility)
	Removed   []job.ID        `json:"removed,omitempty"`   // left the engine; sched.JobRemoved pending

	// Inputs awaiting a cycle boundary, in log order.
	Trains  []deferred[trainPayload]  `json:"trains,omitempty"`
	Cancels []deferred[cancelPayload] `json:"cancels,omitempty"`
	Ops     []deferred[opPayload]     `json:"ops,omitempty"`

	FaultIdx int                    `json:"fault_idx,omitempty"` // next unapplied chaos schedule event
	Desired  map[job.ID]*desiredRun `json:"desired,omitempty"`   // attempts the agents should be running
}

func newState(e env, cluster simulator.Cluster) *state {
	e.tr = &simulator.Transition{Sched: e.sched, Inj: e.inj}
	st := &state{
		env:       e,
		eng:       simulator.NewEngine(cluster),
		queued:    make(map[job.ID]*job.Job),
		Gone:      make(map[job.ID]bool),
		Abandoned: make(map[job.ID]bool),
		Desired:   make(map[job.ID]*desiredRun),
	}
	if e.inj != nil {
		st.eng.SetRetryBudget(e.inj.MaxRetries())
	}
	return st
}

// --- effects ---

// effect is one thing a transition wants done outside the state. The shell
// carries effects out in order, on every replica alike: a follower fills the
// same agent outboxes the leader does, so a takeover has nothing to rebuild.
type effect any

type (
	// logLine is an operational log line.
	logLine string
	// divergence is a cross-check against the leader's record that failed:
	// counted in ControlCounters.Diverged and logged.
	divergence string
	// startRun fans a fresh attempt out to the agents its allocation touches.
	startRun struct {
		id  job.ID
		run *desiredRun
	}
	// retireRun withdraws a job's attempt from the agents: an undelivered
	// start is dropped and, with evict set, the agents holding the attempt
	// (run; nil when none was desired) are told to kill it — preemptions,
	// cancellations and node loss, where an agent has a live task;
	// completions and crashes end at the agent already.
	retireRun struct {
		id    job.ID
		run   *desiredRun
		evict bool
	}
	// elected reports a TypeElect record: replica leads from epoch on.
	elected struct {
		replica int
		epoch   uint64
		cycle   int64
	}
	// snapshotAt reports a TypeSnapshot record at this seq: the state it
	// describes is the one held, so the log may be compacted below it.
	snapshotAt uint64
)

func (st *state) emit(e effect) { st.fx = append(st.fx, e) }

func (st *state) logf(format string, args ...any) { st.emit(logLine(fmt.Sprintf(format, args...))) }

// effects hands the finished transition's effects over.
func (st *state) effects() []effect {
	fx := st.fx
	st.fx = nil
	return fx
}

// retire drops a job's desired run (the attempt completed, crashed, was
// preempted, was cancelled, or lost its nodes).
func (st *state) retire(id job.ID, evict bool) {
	run := st.Desired[id]
	delete(st.Desired, id)
	st.emit(retireRun{id: id, run: run, evict: evict})
}

// --- records ---

// decodeAs unmarshals a record's payload.
func decodeAs[P any](rec replog.Record) (p P, err error) {
	if err = json.Unmarshal(rec.Data, &p); err != nil {
		err = fmt.Errorf("%s record %d: decode: %v", rec.Type, rec.Seq, err)
	}
	return p, err
}

// apply is the one place a log record becomes a state change: the leader
// calls it right after log.Append, a follower as records are pushed to it,
// a restarted process for every record its log retains, a standby for the
// suffix behind an installed snapshot. A record that cannot be applied
// returns an error and leaves the state exactly as it was.
func (st *state) apply(rec replog.Record) ([]effect, error) {
	switch rec.Type {
	case replog.TypeAdmit:
		p, err := decodeAs[admitPayload](rec)
		if err != nil {
			return nil, err
		}
		if p.Job == nil {
			return nil, fmt.Errorf("admit record %d: payload carries no job", rec.Seq)
		}
		// Idempotent on job ID: a snapshot-installed standby can see the
		// tail of its catch-up stream overlap jobs the snapshot already
		// carried (queued, admitted, or cancelled pre-admission). A replayed
		// duplicate must not double-enqueue or double-count.
		if !st.known(p.Job.ID) {
			st.Queue = append(st.Queue, queuedJob{Seq: rec.Seq, Job: p.Job})
			st.queued[p.Job.ID] = p.Job
			st.Counters.Accepted++
		}
	case replog.TypeTrain:
		batch, err := decodeAs[[]trainPayload](rec)
		if err != nil {
			return nil, err
		}
		if st.pred == nil {
			return nil, fmt.Errorf("train record %d: no predictor configured", rec.Seq)
		}
		if len(batch) == 0 {
			return nil, fmt.Errorf("train record %d: no observations", rec.Seq)
		}
		for i, p := range batch {
			if !(p.Runtime > 0) {
				return nil, fmt.Errorf("train record %d: observation %d: runtime %v is not positive", rec.Seq, i, p.Runtime)
			}
		}
		for _, p := range batch {
			st.Trains = append(st.Trains, deferred[trainPayload]{Seq: rec.Seq, In: p})
		}
	case replog.TypeCancel:
		p, err := decodeAs[cancelPayload](rec)
		if err != nil {
			return nil, err
		}
		st.Cancels = append(st.Cancels, deferred[cancelPayload]{Seq: rec.Seq, In: p})
	case replog.TypeNodeOp:
		p, err := decodeAs[opPayload](rec)
		if err != nil {
			return nil, err
		}
		switch p.Kind {
		case opFail, opRecover, opDrain, opResize:
		default:
			return nil, fmt.Errorf("node-op record %d: unknown kind %q", rec.Seq, p.Kind)
		}
		st.Ops = append(st.Ops, deferred[opPayload]{Seq: rec.Seq, In: p})
	case replog.TypeElect:
		p, err := decodeAs[electPayload](rec)
		if err != nil {
			return nil, err
		}
		st.emit(elected{replica: p.Replica, epoch: rec.Epoch, cycle: p.Cycle})
	case replog.TypeCycle:
		p, err := decodeAs[cyclePayload](rec)
		if err != nil {
			return nil, err
		}
		st.applyCycle(rec, &p)
	case replog.TypeSnapshot:
		// The state a snapshot record describes is the state held when it is
		// applied in log order — an in-sync replica installs nothing. It
		// checks its engine epoch and predictor hash against the export —
		// reading the payload's header, not the megabytes behind it — and
		// lets its own log be compacted at the same point, so retention
		// converges across the group. (Bootstrap replay and standby catch-up
		// install snapshots through decode, never here.)
		h, _, err := snapshotHeader(rec.Data)
		if err != nil {
			return nil, fmt.Errorf("snapshot record %d: %w", rec.Seq, err)
		}
		if h.epoch != st.eng.Epoch() {
			st.emit(divergence(fmt.Sprintf("engine epoch %d != snapshot %d at seq %d", st.eng.Epoch(), h.epoch, rec.Seq)))
		}
		if st.pred != nil {
			if got, sha := st.predictorSHA(), h.predictorSHA(); got != sha {
				st.emit(divergence(fmt.Sprintf("predictor sha %.12s != snapshot %.12s at seq %d", got, sha, rec.Seq)))
			}
		}
		st.emit(snapshotAt(rec.Seq))
	default:
		return nil, fmt.Errorf("unknown record type %q at seq %d", rec.Type, rec.Seq)
	}
	return st.effects(), nil
}

// known reports whether a job ID has been seen: queued, refused or cancelled
// before admission, or admitted (every admitted job keeps its Outcome).
func (st *state) known(id job.ID) bool {
	_, queued := st.queued[id]
	return queued || st.Gone[id] || st.eng.Outcome(id) != nil
}

// applyCycle replays one scheduling round from the leader's cycle record:
// the two halves the leader ran either side of its solve, back to back, with
// the solve's mid-cycle abandons — which no replica but the leader saw
// happen — in between, where they happened.
func (st *state) applyCycle(rec replog.Record, p *cyclePayload) {
	_, fx := st.cycleTop(p)
	for _, id := range p.Abandons {
		st.abandonAt(id, p.Now)
	}
	st.fx = append(fx, st.cycleDecide(p.Now, p.Preempts, p.Starts)...)
	if st.Cycles != rec.Cycle {
		st.emit(divergence(fmt.Sprintf("applied cycle %d, record says %d", st.Cycles, rec.Cycle)))
		st.Cycles = rec.Cycle
	}
	if got := st.eng.Epoch(); got != p.EngineEpoch {
		st.emit(divergence(fmt.Sprintf("engine epoch %d != leader %d after cycle %d", got, p.EngineEpoch, rec.Cycle)))
	}
}

// --- the cycle ---

// cycleTop is the first half of a cycle at logical time p.Now: deferred
// inputs the watermark covers; the cycle window — the jobs admission
// releases, the ends the leader's agents reported (read from p), the chaos
// schedule — through the simulator's transition, in its order (DESIGN.md
// §7); agent-liveness node ops; the JobRemoved sweep. It returns the engine
// snapshot the solver plans on, which every replica takes, solver or not.
func (st *state) cycleTop(p *cyclePayload) (*simulator.State, []effect) {
	now := p.Now
	st.CycleNow = now
	st.drainInputs(now, p.InputsThrough)

	var evs []faults.Event
	if st.inj != nil {
		evs = st.inj.Events()[st.FaultIdx:]
		evs = evs[:simulator.DueFaults(evs, now)]
		st.FaultIdx += len(evs)
	}
	done := st.tr.Apply(st.eng, st.admit(now, p.InputsThrough), evs, p.Comps)
	for _, id := range done.Refused {
		// The leader checked it at enqueue; a record that got here some
		// other way is refused for good.
		st.logf("admit job %d: refused by the engine", id)
		st.Gone[id] = true
	}
	for _, id := range done.Completed {
		st.retire(id, false)
	}
	for _, id := range done.Crashed {
		st.retire(id, false)
	}
	for _, id := range done.Evicted {
		st.retire(id, true) // agents that survive the failure kill the orphaned task
	}
	st.Counters.Completed += int64(len(done.Completed))
	st.Counters.Evicted += int64(len(done.Crashed) + len(done.Evicted))
	st.Counters.FailedOut += int64(len(done.FailedOut))
	st.predDirty = st.predDirty || len(done.Completed) > 0 // their runtimes just reached the predictor
	if len(evs) > 0 {
		st.logf("chaos: %d node events, %d runs evicted, %d jobs failed out", len(evs), len(done.Evicted), len(done.FailedOut))
	}

	// Agent-liveness transitions (dead agent = its partitions fail; a
	// returning agent restores them), recorded in the cycle record so
	// followers mirror what is otherwise a wall-timing observation.
	for _, op := range p.AgentOps {
		if op.Fail {
			n, evicted, exhausted, _ := st.failNodes(op.Partition, op.Nodes, now)
			st.logf("agent down: partition %d lost %d nodes (%d requeued, %d failed out)",
				op.Partition, n, len(evicted), len(exhausted))
		} else {
			n, _ := st.eng.RecoverNodes(op.Partition, op.Nodes, now)
			st.logf("agent back: partition %d recovered %d nodes", op.Partition, n)
		}
	}

	// Scheduler-side cleanup for jobs that left the engine since the last
	// cycle other than by completing or running out of retries in the window.
	st.tr.Removed(st.Removed)
	st.Removed = st.Removed[:0]
	return st.eng.Snapshot(now), st.effects()
}

// admit releases queued jobs into the cycle window in (Submit, ID) order,
// holding back future submissions, so the cycle at which a job enters the
// scheduler depends only on its stamp and on which cycle's input watermark
// first covers its admit record — a job logged while the leader was solving
// cycle k waits for cycle k+1 wherever the record is applied.
func (st *state) admit(now float64, through uint64) (due []*job.Job) {
	queue := st.Queue
	st.Queue = nil
	slices.SortStableFunc(queue, func(a, b queuedJob) int { return cmp.Or(cmp.Compare(a.Submit, b.Submit), cmp.Compare(a.ID, b.ID)) })
	for _, q := range queue {
		if !(simulator.Arrived(q.Submit, now) && q.Seq <= through) {
			st.Queue = append(st.Queue, q)
			continue
		}
		delete(st.queued, q.ID)
		due = append(due, q.Job)
	}
	return due
}

// cycleDecide is the second half of a cycle: a decision — fresh from the
// leader's solver, or out of its cycle record — applied to the engine.
// Every start enters the desired-run map and, as an effect, the outboxes of
// the agents its allocation touches.
func (st *state) cycleDecide(now float64, preempts []job.ID, starts []simulator.StartAction) []effect {
	for _, id := range preempts {
		if st.eng.Preempt(id, now) {
			st.retire(id, true)
		}
	}
	for _, a := range starts {
		run, due, crashAt, ok := st.tr.Launch(st.eng, a, now)
		if !ok {
			continue
		}
		d := &desiredRun{RunID: run.RunID, Alloc: a.Alloc.Clone(), Due: due, CrashAt: crashAt}
		st.Desired[run.Job.ID] = d
		st.emit(startRun{id: run.Job.ID, run: d})
	}
	st.Cycles++
	return st.effects()
}

// --- transitions at a cycle boundary ---

// drainInputs applies deferred inputs with log seq <= through, in
// type-phase order (trains, cancels, ops) and log order within each type —
// the same order on every replica. A zero seq (decoded) always drains.
func (st *state) drainInputs(now float64, through uint64) {
	for _, e := range takeThrough(&st.Trains, through) {
		st.observe(e.In)
	}
	for _, e := range takeThrough(&st.Cancels, through) {
		st.cancelAt(e.In.ID, now)
	}
	for _, e := range takeThrough(&st.Ops, through) {
		if err := st.applyOp(e.In, now); err != nil {
			st.logf("operator %s: %v", e.In.Kind, err)
		}
	}
}

// takeThrough splits off the prefix of entries with seq <= through (entries
// are appended in seq order; decoded zero seqs always qualify).
func takeThrough[P any](pend *[]deferred[P], through uint64) []deferred[P] {
	n := 0
	for n < len(*pend) && (*pend)[n].Seq <= through {
		n++
	}
	out := (*pend)[:n]
	*pend = append([]deferred[P](nil), (*pend)[n:]...)
	return out
}

// observe feeds one history observation to the predictor.
func (st *state) observe(p trainPayload) {
	st.pred.Observe(&job.Job{Name: p.Name, User: p.User, Tasks: p.Tasks, Priority: p.Priority}, p.Runtime)
	st.Counters.Trained++
	st.predDirty = true
}

// cancelAt removes a job at time now: a queued job is dropped before
// admission, a pending one leaves the engine's queue, a running one is
// killed and its nodes freed. Jobs that are already gone no-op (the job may
// have completed between the request and the boundary). The effects it
// leaves are taken by the caller's own effects().
func (st *state) cancelAt(id job.ID, now float64) {
	if _, ok := st.queued[id]; ok {
		delete(st.queued, id)
		for i, q := range st.Queue {
			if q.ID == id {
				st.Queue = append(st.Queue[:i], st.Queue[i+1:]...)
				break
			}
		}
		st.Gone[id] = true
		st.Counters.Cancelled++
		return
	}
	if _, ok := st.eng.Cancel(id, now); ok {
		st.retire(id, true)
		st.Removed = append(st.Removed, id)
		st.Counters.Cancelled++
	}
}

// abandonAt marks a pending job as dropped by the scheduler at time now: it
// leaves the engine's queue and its phase becomes "abandoned" (terminal).
// Unknown, running, or already-terminal jobs are ignored (false).
func (st *state) abandonAt(id job.ID, now float64) bool {
	if st.Abandoned[id] || !st.eng.IsPending(id) {
		return false
	}
	if _, ok := st.eng.Cancel(id, now); !ok {
		return false
	}
	st.Abandoned[id] = true
	st.Counters.Abandoned++
	// The scheduler swept the job's planning state when it abandoned it, but
	// still holds the abandoned-ID marker; queue a JobRemoved so the next
	// cycle clears that too and the marker set cannot grow forever.
	st.Removed = append(st.Removed, id)
	return true
}

// failNodes takes n nodes of a partition down at now. The runs the engine
// evicted are retired — agents that survive the failure are told to kill
// their now-orphaned tasks — and those out of retries leave for good.
func (st *state) failNodes(part, n int, now float64) (failed int, evicted, exhausted []job.ID, err error) {
	failed, evicted, exhausted, err = st.eng.FailNodes(part, n, now)
	for _, id := range evicted {
		st.retire(id, true)
	}
	for _, id := range exhausted {
		st.retire(id, true)
	}
	st.Counters.Evicted += int64(len(evicted) + len(exhausted))
	st.Counters.FailedOut += int64(len(exhausted))
	st.Removed = append(st.Removed, exhausted...)
	return failed, evicted, exhausted, err
}

// applyOp applies one operator action at time now. An action the engine
// refuses (partition out of range, not enough free nodes to drain) changes
// nothing and returns the engine's error.
func (st *state) applyOp(op opPayload, now float64) error {
	switch op.Kind {
	case opFail:
		n, evicted, exhausted, err := st.failNodes(op.Partition, op.N, now)
		if err != nil {
			return err
		}
		st.logf("operator: partition %d lost %d nodes (%d jobs requeued, %d failed out)",
			op.Partition, n, len(evicted), len(exhausted))
	case opRecover:
		n, err := st.eng.RecoverNodes(op.Partition, op.N, now)
		if err != nil {
			return err
		}
		if n > 0 {
			st.logf("operator: partition %d recovered %d nodes", op.Partition, n)
		}
	case opDrain:
		if err := st.eng.DrainNodes(op.Partition, op.N, now); err != nil {
			return err
		}
		st.logf("operator: partition %d drained %d nodes", op.Partition, op.N)
	case opResize:
		return st.eng.Resize(op.Partition, op.Delta)
	}
	return nil
}

// --- the predictor's hash ---

// predictorSHA hashes the predictor's serialized history. Two replicas that
// observed the same jobs in the same order hash identically — the warmness
// signal every snapshot record's header carries and /v1/metrics reports.
func predictorSHA(p *predictor.Predictor) string {
	h := sha256.New()
	if err := p.Save(h); err != nil {
		return "unserializable:" + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// predictorSHA is predictorSHA(st.pred) through the cache.
func (st *state) predictorSHA() string {
	if st.predSHA == "" || st.predDirty {
		st.predSHA = predictorSHA(st.pred)
		st.predDirty = false
	}
	return st.predSHA
}

// --- encoding ---

// plain is state without its methods, so that encoding it does not recurse.
type plain state

// A TypeSnapshot record's payload is the state's own encoding (wire,
// decode), a binary envelope:
//
//	magic "3SSN", version byte 1
//	engine epoch uvarint
//	predictor presence byte (0 or 1), then the raw 32-byte sha256 of the
//	  predictor section (zeros without a predictor)
//	three sections, each a 4-byte big-endian length and that many bytes:
//	  state      stateWire as JSON
//	  outcomes   the engine's outcome stream (magic "3SOC")
//	  predictor  the predictor's Save stream (magic "3SPR"; empty without one)
//
// Nothing follows the predictor section. The header is what an in-sync
// follower checks (snapshotHeader), read at fixed offsets past the epoch
// without touching the megabytes behind it. The two binary streams ride as
// they are: a decode slices them out of the record, and no JSON scanner
// passes over them. A state has one encoding: decode refuses a payload that
// wire would not write back byte for byte. A JSON payload, which older
// builds wrote, opens with '{' where the magic stands and is refused by
// name.
const (
	snapshotMagic   = "3SSN"
	snapshotVersion = 1
)

// errJSONSnapshot reports a snapshot payload in the retired encoding.
var errJSONSnapshot = errors.New("JSON snapshot payload, written by an older build; this build reads binary snapshots only")

// snapshotSections names the envelope's sections, in order.
var snapshotSections = [...]string{"state", "outcomes", "predictor"}

// stateWire is the envelope's state section: the state's own tagged fields
// and the exported forms of the engine — less its outcomes, which have a
// section of their own — and of the scheduler. Replaying the log suffix on
// top of a decoded state must reproduce the donor replica's outcome digest
// and predictor SHA byte for byte, so everything outcome-relevant is in the
// envelope; performance-only state (scheduler memo, incremental model,
// stats) is rebuilt cold, and the agent outboxes are refilled from the
// desired map. Map keys are sorted by encoding/json, so two replicas with
// equal state produce byte-identical encodings.
type stateWire struct {
	*plain
	Engine *simulator.EngineState `json:"engine"`
	Sched  *core.SchedState       `json:"sched"`
}

// wire encodes the state as a snapshot payload. The predictor's stream is
// appended in place, and hashed there. It fails when the scheduler cannot
// export its own (Config.fill rejects CompactEvery for such a scheduler).
func (st *state) wire() ([]byte, error) {
	snap, ok := st.sched.(stateSnapshotter)
	if !ok {
		return nil, fmt.Errorf("scheduler %T has no exportable state", st.sched)
	}
	sst, err := snap.ExportState()
	if err != nil {
		return nil, err
	}
	eng := st.eng.ExportState()
	js, err := json.Marshal(&stateWire{plain: (*plain)(st), Engine: eng, Sched: sst})
	if err != nil {
		return nil, fmt.Errorf("encode snapshot state: %w", err)
	}
	buf := make([]byte, 0, 64+len(js)+len(eng.Outcomes)+st.predBytes+st.predBytes/8)
	buf = append(buf, snapshotMagic...)
	buf = append(buf, snapshotVersion)
	buf = binary.AppendUvarint(buf, eng.Epoch)
	presence := len(buf)
	buf = append(buf, 0)
	buf = append(buf, make([]byte, sha256.Size)...)
	buf = appendSection(buf, js)
	buf = appendSection(buf, eng.Outcomes)
	buf = append(buf, 0, 0, 0, 0)
	at := len(buf)
	if st.pred != nil {
		buf = st.pred.AppendSave(buf)
		// The bytes predictorSHA hashes, so the cache is refreshed for free.
		sum := sha256.Sum256(buf[at:])
		buf[presence] = 1
		copy(buf[presence+1:], sum[:])
		st.predSHA, st.predDirty = hex.EncodeToString(sum[:]), false
		st.predBytes = len(buf) - at
	}
	binary.BigEndian.PutUint32(buf[at-4:], uint32(len(buf)-at))
	return buf, nil
}

// appendSection appends one envelope section: its length, then its bytes.
func appendSection(buf, sec []byte) []byte {
	return append(binary.BigEndian.AppendUint32(buf, uint32(len(sec))), sec...)
}

// savePredictor is the predictor's Save stream (nil without a predictor).
func (st *state) savePredictor() []byte {
	if st.pred == nil {
		return nil
	}
	return st.pred.AppendSave(nil)
}

// snapHeader is a snapshot payload's header.
type snapHeader struct {
	epoch uint64
	pred  bool // the payload carries a predictor
	sha   [sha256.Size]byte
}

// predictorSHA is the header's predictor hash in hex, as predictorSHA
// writes it; empty without a predictor.
func (h snapHeader) predictorSHA() string {
	if !h.pred {
		return ""
	}
	return hex.EncodeToString(h.sha[:])
}

// snapshotHeader reads a payload's header and returns the bytes after it,
// without reading its sections.
func snapshotHeader(data []byte) (h snapHeader, rest []byte, err error) {
	if len(data) > 0 && data[0] == '{' {
		return h, nil, errJSONSnapshot
	}
	if len(data) < len(snapshotMagic)+1 || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return h, nil, fmt.Errorf("snapshot payload does not begin with %q", snapshotMagic)
	}
	if v := data[len(snapshotMagic)]; v != snapshotVersion {
		return h, nil, fmt.Errorf("unsupported snapshot payload version %d", v)
	}
	r := binenc.NewReader(data[len(snapshotMagic)+1:])
	h.epoch = r.Uvarint()
	switch b := r.Byte(); b {
	case 0, 1:
		h.pred = b == 1
	default:
		r.Fail("predictor presence byte %d", b)
	}
	copy(h.sha[:], r.Bytes(sha256.Size))
	if r.Err() != nil {
		return h, nil, fmt.Errorf("snapshot header: %w", r.Err())
	}
	if !h.pred && h.sha != [sha256.Size]byte{} {
		return h, nil, errors.New("snapshot header: a predictor hash without a predictor")
	}
	return h, data[len(data)-r.Len():], nil
}

// splitSnapshot reads a payload's header and slices out its three
// sections, copying nothing. Each section is capped at its end.
func splitSnapshot(data []byte) (h snapHeader, secs [len(snapshotSections)][]byte, err error) {
	h, rest, err := snapshotHeader(data)
	if err != nil {
		return h, secs, err
	}
	for i, name := range snapshotSections {
		if len(rest) < 4 {
			return h, secs, fmt.Errorf("snapshot %s section: length cut short", name)
		}
		n := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(n) > uint64(len(rest)) {
			return h, secs, fmt.Errorf("snapshot %s section: %d bytes, %d remain", name, n, len(rest))
		}
		secs[i], rest = rest[:n:n], rest[n:]
	}
	if len(rest) > 0 {
		return h, secs, fmt.Errorf("snapshot: %d bytes after the predictor section", len(rest))
	}
	return h, secs, nil
}

// staged is the part of a decoded state that lives in env's scheduler and
// predictor once adopted, and until then only here.
type staged struct {
	sched *core.SchedState
	pred  []byte // the predictor's stream, a slice of the payload
}

// decode reads a snapshot payload into a fresh value over st's env and
// checks everything in it that can be checked without the predictor: the
// envelope, the predictor section against its hash, the JSON, the engine's
// cross-references, every cached distribution the scheduler would import.
// It touches nothing — not st, not the scheduler, not the predictor: a
// payload that fails here has changed no replica's mind about anything.
// The decode is strict: a build reads what it writes, so a field this build
// does not write is refused, not skipped, and so is a state section that
// wire would write otherwise (DESIGN.md §14).
func (st *state) decode(data []byte) (*state, *staged, error) {
	if _, ok := st.sched.(stateSnapshotter); !ok {
		return nil, nil, fmt.Errorf("scheduler %T cannot import snapshot state", st.sched)
	}
	h, secs, err := splitSnapshot(data)
	if err != nil {
		return nil, nil, fmt.Errorf("decode snapshot: %w", err)
	}
	js, outs, pred := secs[0], secs[1], secs[2]
	switch {
	case h.pred != (len(pred) > 0):
		return nil, nil, fmt.Errorf("decode snapshot: predictor presence %v beside a %d-byte predictor section", h.pred, len(pred))
	case h.pred != (st.pred != nil):
		return nil, nil, fmt.Errorf("decode snapshot: the snapshot carries a predictor: %v; this replica has one: %v", h.pred, st.pred != nil)
	case h.pred && sha256.Sum256(pred) != h.sha:
		return nil, nil, fmt.Errorf("decode snapshot: the predictor section does not hash to the header's sha")
	}
	fresh := &state{env: st.env, predDirty: true}
	w := stateWire{plain: (*plain)(fresh)}
	dec := json.NewDecoder(bytes.NewReader(js))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return nil, nil, fmt.Errorf("decode snapshot: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, nil, fmt.Errorf("decode snapshot: data after the state")
	}
	if w.Engine == nil || w.Sched == nil {
		return nil, nil, fmt.Errorf("snapshot misses engine or scheduler state")
	}
	if w.Engine.Epoch != h.epoch {
		return nil, nil, fmt.Errorf("decode snapshot: header epoch %d, engine epoch %d", h.epoch, w.Engine.Epoch)
	}
	w.Engine.Outcomes = outs
	if fresh.eng, err = simulator.EngineFromState(w.Engine); err != nil {
		return nil, nil, fmt.Errorf("restore engine: %w", err)
	}
	// The scheduler's state as it will export it once imported: every
	// distribution rebuilt once and snapshotted again, the abandoned
	// markers sorted.
	sched := &core.SchedState{UE: w.Sched.UE, Planned: w.Sched.Planned}
	for id, ds := range w.Sched.Dists {
		d, err := dist.FromState(ds)
		if err == nil {
			ds, err = dist.Snapshot(d)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("restore scheduler: job %d distribution: %w", id, err)
		}
		if sched.Dists == nil {
			sched.Dists = make(map[job.ID]dist.State, len(w.Sched.Dists))
		}
		sched.Dists[id] = ds
	}
	sched.Abandoned = slices.Clone(w.Sched.Abandoned)
	slices.Sort(sched.Abandoned)
	sched.Abandoned = slices.Compact(sched.Abandoned)
	fresh.queued = make(map[job.ID]*job.Job, len(fresh.Queue))
	for _, q := range fresh.Queue {
		if q.Job == nil {
			return nil, nil, fmt.Errorf("snapshot queue entry carries no job")
		}
		fresh.queued[q.ID] = q.Job
	}
	for id, d := range fresh.Desired {
		if d == nil {
			return nil, nil, fmt.Errorf("snapshot desires no run for job %d", id)
		}
	}
	if canon, err := json.Marshal(&stateWire{plain: (*plain)(fresh), Engine: w.Engine, Sched: sched}); err != nil || !bytes.Equal(canon, js) {
		return nil, nil, fmt.Errorf("decode snapshot: the state section is not in the form this build writes")
	}
	// Empty maps are omitted from the encoding.
	if fresh.Gone == nil {
		fresh.Gone = make(map[job.ID]bool)
	}
	if fresh.Abandoned == nil {
		fresh.Abandoned = make(map[job.ID]bool)
	}
	if fresh.Desired == nil {
		fresh.Desired = make(map[job.ID]*desiredRun)
	}
	return fresh, &staged{sched: sched, pred: pred}, nil
}

// loadPredictor replaces the predictor's history with a Save stream, all or
// nothing (predictor.Load's contract). Without a predictor, or with nothing
// to load, it does nothing.
func (st *state) loadPredictor(stream []byte) error {
	if st.pred == nil || len(stream) == 0 {
		return nil
	}
	if err := st.pred.LoadBytes(stream); err != nil {
		return fmt.Errorf("restore predictor: %w", err)
	}
	st.predDirty = true
	return nil
}

// adopt hands a decoded state's scheduler half to the scheduler. decode has
// already built every distribution in it once, so the import has nothing
// left to refuse.
func (st *state) adopt(sg *staged) error {
	if err := st.sched.(stateSnapshotter).ImportState(sg.sched); err != nil {
		return fmt.Errorf("restore scheduler: %w", err)
	}
	return nil
}
