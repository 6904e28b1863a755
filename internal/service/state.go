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
// A snapshot record's payload is this type's own JSON encoding (MarshalJSON,
// decode), so there is no second description of the state to keep in step.
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

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

// trainPayload is a TypeTrain record: one predictor observation.
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

// compEv is one execution event an agent reported: a completion or a
// fault-injected crash of the attempt (ID, RunID), at an exact virtual time.
type compEv struct {
	ID    job.ID  `json:"id"`
	RunID int64   `json:"run_id"`
	At    float64 `json:"at"`
	Crash bool    `json:"crash,omitempty"`
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
	Comps         []compEv                `json:"comps,omitempty"`
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
// immutable schedule and pure per-attempt draws), and the scheduler's
// logical clock.
type env struct {
	sched simulator.Scheduler
	pred  *predictor.Predictor
	inj   *faults.Injector
	clock *simulator.VirtualClock // the scheduler's clock, set at each cycle top
}

// stateSnapshotter is the scheduler capability snapshots require:
// core.Scheduler implements it; greedy baselines and the sharded
// coordinator do not (Config.fill rejects CompactEvery for them).
type stateSnapshotter interface {
	ExportState() (*core.SchedState, error)
	ImportState(*core.SchedState) error
}

// remover is implemented by schedulers that keep per-job state which must
// be dropped when a job is cancelled (core.Scheduler.JobRemoved).
type remover interface{ JobRemoved(id job.ID) }

// queuedJob is one accepted job awaiting its admission cycle, tagged with its
// admit record's log seq (0 without a log): a cycle admits only jobs its
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

// deferred is one input awaiting its cycle boundary: the record's
// own payload beside its log seq (0 without a log; not encoded, as
// queuedJob's), so a replica applies exactly the entries the leader's cycle
// drained.
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
	Attempts map[job.ID]int         `json:"attempts,omitempty"`  // starts per job, for per-attempt crash draws
	Desired  map[job.ID]*desiredRun `json:"desired,omitempty"`   // attempts the agents should be running
}

func newState(e env, cluster simulator.Cluster) *state {
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
		st.Attempts = make(map[job.ID]int)
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
		p, err := decodeAs[trainPayload](rec)
		if err != nil {
			return nil, err
		}
		if st.pred == nil {
			return nil, fmt.Errorf("train record %d: no predictor configured", rec.Seq)
		}
		if !(p.Runtime > 0) {
			return nil, fmt.Errorf("train record %d: runtime %v is not positive", rec.Seq, p.Runtime)
		}
		st.Trains = append(st.Trains, deferred[trainPayload]{Seq: rec.Seq, In: p})
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
	case replog.TypeCheckpoint:
		// Legacy, from logs older than predictor_sha on snapshots: no state.
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
		// reading those two leading fields, not the megabytes behind them —
		// and lets its own log be compacted at the same point, so retention
		// converges across the group. (Bootstrap replay and standby catch-up
		// install snapshots through decode, never here.)
		epoch, sha, ok := snapshotHeader(rec.Data)
		if !ok {
			return nil, fmt.Errorf("snapshot record %d: payload does not begin with the engine epoch and predictor sha", rec.Seq)
		}
		if epoch != st.eng.Epoch() {
			st.emit(divergence(fmt.Sprintf("engine epoch %d != snapshot %d at seq %d", st.eng.Epoch(), epoch, rec.Seq)))
		}
		if st.pred != nil {
			if got := st.predictorSHA(); got != sha {
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
// inputs the watermark covers, admission, execution events, the chaos
// schedule, agent-liveness node ops, and the JobRemoved sweep — in this
// exact order, so every replica drives the engine and scheduler through an
// identical mutation sequence. The execution events are what the leader's
// agents reported, read from p. It returns the engine snapshot the solver
// plans on. Taking one resets the engine's change counters, so every replica
// takes it, solver or not.
func (st *state) cycleTop(p *cyclePayload) (*simulator.State, []effect) {
	now := p.Now
	st.CycleNow = now
	st.clock.Set(now)
	st.drainInputs(now, p.InputsThrough)
	st.admit(now, p.InputsThrough)

	// Execution events. Stale entries (preempted or cancelled runs) drop;
	// crash entries kill the attempt through the engine's failure path.
	for _, c := range p.Comps {
		if c.Crash {
			requeued, ok := st.eng.CrashRun(c.ID, c.RunID, c.At)
			if !ok {
				continue
			}
			st.retire(c.ID, false)
			st.Counters.Evicted++
			if !requeued {
				st.Counters.FailedOut++
				st.Removed = append(st.Removed, c.ID)
			}
			continue
		}
		j, base, ok := st.eng.Complete(c.ID, c.RunID, c.At)
		if !ok {
			continue
		}
		st.retire(c.ID, false)
		st.Counters.Completed++
		st.sched.JobCompleted(j, base, c.At)
		st.predDirty = true // the completion's runtime just reached the predictor
	}

	// Replay the chaos schedule up to virtual now: node failures evict
	// running jobs (retry-budget exhaustion is terminal) and recoveries
	// return capacity before the snapshot is taken.
	if st.inj != nil {
		evs := st.inj.Events()
		for st.FaultIdx < len(evs) && evs[st.FaultIdx].Time <= now {
			ev := evs[st.FaultIdx]
			st.FaultIdx++
			switch ev.Kind {
			case faults.NodeFail:
				if n, evicted, exhausted, _ := st.failNodes(ev.Partition, ev.Nodes, now); n > 0 {
					st.logf("chaos: partition %d lost %d nodes (%d jobs requeued, %d failed out)",
						ev.Partition, n, len(evicted), len(exhausted))
				}
			case faults.NodeRecover:
				if n, _ := st.eng.RecoverNodes(ev.Partition, ev.Nodes, now); n > 0 {
					st.logf("chaos: partition %d recovered %d nodes", ev.Partition, n)
				}
			}
		}
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
	// cycle other than by completing.
	if rm, ok := st.sched.(remover); ok {
		for _, id := range st.Removed {
			rm.JobRemoved(id)
		}
	}
	st.Removed = st.Removed[:0]
	return st.eng.Snapshot(now), st.effects()
}

// admit moves queued jobs into the engine in (Submit, ID) order, holding
// back future submissions, so the cycle at which a job enters the scheduler
// depends only on its stamp and on which cycle's input watermark first
// covers its admit record — a job logged while the leader was solving cycle
// k waits for cycle k+1 wherever the record is applied.
func (st *state) admit(now float64, through uint64) {
	queue := st.Queue
	st.Queue = nil
	sort.SliceStable(queue, func(i, k int) bool {
		//lint:allow floateq exact tie-break: equal-bits submit stamps fall through to the ID order
		if queue[i].Submit != queue[k].Submit {
			return queue[i].Submit < queue[k].Submit
		}
		return queue[i].ID < queue[k].ID
	})
	for _, q := range queue {
		if !(q.Submit <= now && q.Seq <= through) {
			st.Queue = append(st.Queue, q)
			continue
		}
		delete(st.queued, q.ID)
		if err := st.eng.Submit(q.Job); err != nil {
			// The leader checked it at enqueue; a record that got here some
			// other way is refused for good.
			st.logf("admit job %d: %v", q.ID, err)
			st.Gone[q.ID] = true
			continue
		}
		st.sched.JobSubmitted(q.Job, now)
	}
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
		run, ok := st.eng.Start(a, now)
		if !ok {
			continue
		}
		id := run.Job.ID
		rt := run.EffectiveRuntime(run.Job.Runtime)
		if st.inj != nil {
			rt *= st.inj.Slowdown(id)
		}
		rt = math.Max(rt, 0.001)
		crashAt := 0.0
		if st.inj != nil {
			att := st.Attempts[id]
			st.Attempts[id] = att + 1
			if frac, crashes := st.inj.CrashPoint(id, att); crashes {
				crashAt = now + frac*rt
			}
		}
		d := &desiredRun{RunID: run.RunID, Alloc: a.Alloc.Clone(), Due: now + rt, CrashAt: crashAt}
		st.Desired[id] = d
		st.emit(startRun{id: id, run: d})
	}
	st.Cycles++
	return st.effects()
}

// --- transitions at a cycle boundary ---

// drainInputs applies deferred inputs with log seq <= through, in
// type-phase order (trains, cancels, ops) and log order within each type —
// the same order on every replica. A zero seq (no log) always drains.
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
// are appended in seq order; zero seqs always qualify).
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
// signal every snapshot record carries (stateWire.PredictorSHA) and
// /v1/metrics reports.
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

// stateWire is state's JSON encoding, and so a TypeSnapshot record's
// payload: the state's own tagged fields between a header — the engine
// epoch and the predictor hash, first, where an in-sync follower reads them
// without scanning the megabytes behind (snapshotHeader) — and the exported
// forms of what state holds by reference. Replaying the log suffix on top of
// a decoded state must reproduce the donor replica's outcome digest and
// predictor SHA byte for byte, so everything outcome-relevant is here;
// performance-only state (scheduler memo, incremental model, stats) is
// rebuilt cold, and the agent outboxes are refilled from the desired map.
// Map keys are sorted by encoding/json, so two replicas with equal state
// produce byte-identical encodings.
type stateWire struct {
	EngineEpoch  uint64 `json:"engine_epoch"`
	PredictorSHA string `json:"predictor_sha"` // predictorSHA's value; empty without a predictor
	*plain
	Engine    *simulator.EngineState `json:"engine"`
	Sched     *core.SchedState       `json:"sched"`
	Predictor json.RawMessage        `json:"predictor,omitempty"` // predictor.Save stream
	// Comps is never written: it is how decode recognizes a snapshot from
	// before every service ran its tasks on an agent, whose live runs sit in
	// the completion heap it encoded here and not in the desired map.
	Comps json.RawMessage `json:"comps,omitempty"`
}

// wire assembles the state's encoding. It fails when the scheduler cannot
// export its own (Config.fill rejects CompactEvery for such a scheduler).
func (st *state) wire() (*stateWire, error) {
	snap, ok := st.sched.(stateSnapshotter)
	if !ok {
		return nil, fmt.Errorf("scheduler %T has no exportable state", st.sched)
	}
	sst, err := snap.ExportState()
	if err != nil {
		return nil, err
	}
	w := &stateWire{plain: (*plain)(st), Engine: st.eng.ExportState(), Sched: sst}
	w.EngineEpoch = w.Engine.Epoch
	if w.Predictor, err = st.savePredictor(); err != nil {
		return nil, err
	}
	if st.pred != nil {
		// The bytes predictorSHA hashes, so the cache is refreshed for free.
		sum := sha256.Sum256(w.Predictor)
		w.PredictorSHA = hex.EncodeToString(sum[:])
		st.predSHA, st.predDirty = w.PredictorSHA, false
	}
	return w, nil
}

// MarshalJSON encodes the state. (A caller about to hand megabytes to an
// encoder of its own passes it wire() instead: encoding/json re-validates
// whatever a MarshalJSON returns, a second pass over all of it.)
func (st *state) MarshalJSON() ([]byte, error) {
	w, err := st.wire()
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// savePredictor is the predictor's Save stream (nil without a predictor).
func (st *state) savePredictor() ([]byte, error) {
	if st.pred == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := st.pred.Save(&buf); err != nil {
		return nil, fmt.Errorf("serialize predictor: %w", err)
	}
	return buf.Bytes(), nil
}

// snapshotHeader reads the engine epoch and the predictor hash off the
// front of an encoded state: its first two fields, by stateWire's
// declaration order. ok is false for a payload that does not begin with
// both.
func snapshotHeader(data []byte) (epoch uint64, predSHA string, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return 0, "", false
	}
	if t, err := dec.Token(); err != nil || t != "engine_epoch" || dec.Decode(&epoch) != nil {
		return 0, "", false
	}
	if t, err := dec.Token(); err != nil || t != "predictor_sha" || dec.Decode(&predSHA) != nil {
		return 0, "", false
	}
	return epoch, predSHA, true
}

// staged is the part of a decoded state that lives in env's scheduler and
// predictor once adopted, and until then only here.
type staged struct {
	sched *core.SchedState
	pred  json.RawMessage
}

// decode reads an encoded state into a fresh value over st's env and checks
// everything in it that can be checked without the predictor: the JSON, the
// engine's cross-references, every cached distribution the scheduler would
// import. It touches nothing — not st, not the scheduler, not the predictor:
// a payload that fails here has changed no replica's mind about anything.
func (st *state) decode(data []byte) (*state, *staged, error) {
	if _, ok := st.sched.(stateSnapshotter); !ok {
		return nil, nil, fmt.Errorf("scheduler %T cannot import snapshot state", st.sched)
	}
	fresh := &state{env: st.env, predDirty: true}
	w := stateWire{plain: (*plain)(fresh)}
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, nil, fmt.Errorf("decode snapshot: %w", err)
	}
	if w.Engine == nil || w.Sched == nil {
		return nil, nil, fmt.Errorf("snapshot misses engine or scheduler state")
	}
	if len(w.Comps) > 0 {
		// Installed, those runs would stay Running for good: no agent is
		// told to start them, so none reports them done.
		return nil, nil, fmt.Errorf("snapshot keeps its live runs in a completion heap (\"comps\"), not in \"desired\": written before tasks ran on agents")
	}
	var err error
	if fresh.eng, err = simulator.EngineFromState(w.Engine); err != nil {
		return nil, nil, fmt.Errorf("restore engine: %w", err)
	}
	for id, ds := range w.Sched.Dists {
		if _, err := dist.FromState(ds); err != nil {
			return nil, nil, fmt.Errorf("restore scheduler: job %d distribution: %w", id, err)
		}
	}
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
	if fresh.Attempts == nil && st.inj != nil {
		fresh.Attempts = make(map[job.ID]int)
	}
	return fresh, &staged{sched: w.Sched, pred: w.Predictor}, nil
}

// loadPredictor replaces the predictor's history with a Save stream, all or
// nothing (predictor.Load's contract). Without a predictor, or with nothing
// to load, it does nothing.
func (st *state) loadPredictor(stream []byte) error {
	if st.pred == nil || len(stream) == 0 {
		return nil
	}
	if err := st.pred.Load(bytes.NewReader(stream)); err != nil {
		return fmt.Errorf("restore predictor: %w", err)
	}
	st.predDirty = true
	return nil
}

// adopt hands a decoded state's scheduler half to the scheduler and sets
// the scheduler's clock to the state's time. decode has already built every
// distribution in it once, so the import has nothing left to refuse.
func (st *state) adopt(sg *staged) error {
	if err := st.sched.(stateSnapshotter).ImportState(sg.sched); err != nil {
		return fmt.Errorf("restore scheduler: %w", err)
	}
	st.clock.Set(st.CycleNow)
	return nil
}
