// Replicated decision log (DESIGN.md §14): every replay-relevant scheduler
// input (admissions, predictor observations, cancellations, operator node
// ops) and every cycle's decisions flow through an append-only hash-chained
// log (internal/replog). Inputs are appended before they are acknowledged
// and synchronously replicated to live followers; cycle records are derived
// state, streamed asynchronously — a lost tail is recomputed identically by
// the next leader because cycles are deterministic.
//
// A follower applies records in log order through the same engine/scheduler
// mutation sequence the leader ran (cycleTopLocked + applyDecisionLocked),
// which keeps it warm: on takeover it resumes at the next cycle with
// bitwise-identical outcomes. The engine's mutation counter is cross-checked
// against the leader's logged value after every applied cycle.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"threesigma/internal/job"
	"threesigma/internal/predictor"
	"threesigma/internal/replog"
	"threesigma/internal/simulator"
)

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

// opPayload is a TypeNodeOp record: one deferred operator action.
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

// ckptPayload is a TypeCheckpoint record: the leader checkpointed its
// predictor; followers recompute their own hash and flag divergence.
type ckptPayload struct {
	Cycle        int64  `json:"cycle"`
	PredictorSHA string `json:"predictor_sha"`
	Groups       int    `json:"groups"`
}

// compEv is one execution event applied in a cycle: a completion or a
// fault-injected crash, at an exact virtual time.
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

// cyclePayload is a TypeCycle record: everything a follower needs to replay
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

// predictorSHA hashes the predictor's serialized history. Two replicas that
// observed the same jobs in the same order hash identically — the standby
// warmness signal the checkpoint records carry.
func predictorSHA(p *predictor.Predictor) string {
	h := sha256.New()
	if err := p.Save(h); err != nil {
		return "unserializable:" + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// predictorSHALocked is predictorSHA(s.cfg.Predictor) through a cache that
// recomputes only after a mutation (train feed, replayed train record, a
// completion's observed runtime, snapshot install) marked it dirty — metrics scrapes between mutations reuse the hash
// instead of serializing the whole history under s.mu each time.
func (s *Service) predictorSHALocked() string {
	if s.predSHA == "" || s.predSHADirty {
		s.predSHA = predictorSHA(s.cfg.Predictor)
		s.predSHADirty = false
	}
	return s.predSHA
}

// deferCancelLocked validates a cancellation now and queues it for the next
// cycle boundary (det mode), appending it to the log first when replicated.
func (s *Service) deferCancelLocked(id job.ID) error {
	known := false
	if _, ok := s.queued[id]; ok {
		known = true
	} else if o := s.eng.Outcome(id); o != nil {
		if o.Completed {
			return &SubmitError{Code: 409, Msg: fmt.Sprintf("job %d already completed", id)}
		}
		if o.Cancelled {
			return &SubmitError{Code: 409, Msg: fmt.Sprintf("job %d already cancelled", id)}
		}
		known = true
	} else if s.gone[id] {
		return &SubmitError{Code: 409, Msg: fmt.Sprintf("job %d already cancelled", id)}
	}
	if !known {
		return &SubmitError{Code: 404, Msg: fmt.Sprintf("unknown job %d", id)}
	}
	var seq uint64
	if s.log != nil {
		rec, err := s.log.Append(s.leaderEpoch, replog.TypeCancel, s.cycles, &cancelPayload{ID: id})
		if err != nil {
			return &SubmitError{Code: 500, Msg: fmt.Sprintf("append cancel: %v", err)}
		}
		seq = rec.Seq
	}
	s.pendCancels = append(s.pendCancels, cancelEntry{seq: seq, id: id})
	s.notifyFollowersLocked()
	return nil
}

// deferOpLocked queues one operator action for the next cycle boundary.
func (s *Service) deferOpLocked(op opPayload) error {
	var seq uint64
	if s.log != nil {
		rec, err := s.log.Append(s.leaderEpoch, replog.TypeNodeOp, s.cycles, &op)
		if err != nil {
			return &SubmitError{Code: 500, Msg: fmt.Sprintf("append node op: %v", err)}
		}
		seq = rec.Seq
	}
	s.pendOps = append(s.pendOps, opEntry{seq: seq, op: op})
	s.notifyFollowersLocked()
	return nil
}

// deferNodeOpLocked is deferOpLocked shaped for the /v1/nodes endpoints:
// the action is validated for range, queued, and reported as accepted (its
// effects land at the next cycle boundary; det mode is asynchronous here).
func (s *Service) deferNodeOpLocked(op opPayload) (NodeOpResult, error) {
	if op.Partition < 0 || op.Partition >= len(s.eng.Cluster().Partitions) {
		return NodeOpResult{}, &SubmitError{Code: 400,
			Msg: fmt.Sprintf("partition %d out of range", op.Partition)}
	}
	if err := s.deferOpLocked(op); err != nil {
		return NodeOpResult{}, err
	}
	return NodeOpResult{Partition: op.Partition, Nodes: op.N,
		DownNodes: s.eng.DownNodes(), FreeNodes: s.eng.FreeNodes()}, nil
}

// drainInputsLocked applies deferred inputs with log seq <= through, in
// type-phase order (trains, cancels, ops) and log order within each type —
// the same order on leader and follower. A zero seq (det mode without a
// log) always drains.
func (s *Service) drainInputsLocked(now float64, through uint64) {
	trains := takeThrough(&s.pendTrains, through, func(e trainEntry) uint64 { return e.seq })
	for _, e := range trains {
		s.cfg.Predictor.Observe(e.j, e.runtime)
		s.counters.Trained++
	}
	if len(trains) > 0 {
		s.predSHADirty = true
	}
	cancels := takeThrough(&s.pendCancels, through, func(e cancelEntry) uint64 { return e.seq })
	for _, e := range cancels {
		s.cancelAtLocked(e.id, now)
	}
	ops := takeThrough(&s.pendOps, through, func(e opEntry) uint64 { return e.seq })
	for _, e := range ops {
		s.applyOpLocked(e.op, now)
	}
}

// takeThrough splits off the prefix of entries with seq <= through (entries
// are appended in seq order; zero seqs always qualify).
func takeThrough[T any](pend *[]T, through uint64, seq func(T) uint64) []T {
	n := 0
	for n < len(*pend) && seq((*pend)[n]) <= through {
		n++
	}
	out := (*pend)[:n]
	*pend = append([]T(nil), (*pend)[n:]...)
	return out
}

// cancelAtLocked applies one deferred cancellation at a cycle boundary,
// mirroring Cancel's wall-mode semantics at logical time now. Already-gone
// jobs no-op (the job may have completed between defer and apply).
func (s *Service) cancelAtLocked(id job.ID, now float64) {
	if s.dequeueLocked(id) {
		return
	}
	o := s.eng.Outcome(id)
	if o == nil || o.Completed || o.Cancelled {
		return
	}
	if _, ok := s.eng.Cancel(id, now); ok {
		s.dropDesiredLocked(id, true)
		s.removed = append(s.removed, id)
		s.counters.Cancelled++
	}
}

// abandonAtLocked mirrors Abandon at logical time now (follower path: the
// leader's solver abandoned this job mid-cycle).
func (s *Service) abandonAtLocked(id job.ID, now float64) {
	o := s.eng.Outcome(id)
	if o == nil || o.Completed || o.Cancelled || s.abandoned[id] || !s.eng.IsPending(id) {
		return
	}
	if _, ok := s.eng.Cancel(id, now); ok {
		s.abandoned[id] = true
		s.counters.Abandoned++
		s.removed = append(s.removed, id)
	}
}

// applyOpLocked applies one deferred operator action at a cycle boundary.
func (s *Service) applyOpLocked(op opPayload, now float64) {
	switch op.Kind {
	case opFail:
		failed, evicted, exhausted, err := s.eng.FailNodes(op.Partition, op.N, now)
		if err != nil {
			s.cfg.Logf("operator fail: %v", err)
			return
		}
		s.evictDesiredLocked(evicted, exhausted)
		s.counters.Evicted += int64(len(evicted) + len(exhausted))
		s.counters.FailedOut += int64(len(exhausted))
		s.removed = append(s.removed, exhausted...)
		s.cfg.Logf("operator: partition %d lost %d nodes (%d jobs requeued, %d failed out)",
			op.Partition, failed, len(evicted), len(exhausted))
	case opRecover:
		if rec, err := s.eng.RecoverNodes(op.Partition, op.N, now); err == nil && rec > 0 {
			s.cfg.Logf("operator: partition %d recovered %d nodes", op.Partition, rec)
		}
	case opDrain:
		if err := s.eng.DrainNodes(op.Partition, op.N, now); err != nil {
			s.cfg.Logf("operator drain: %v", err)
		} else {
			s.cfg.Logf("operator: partition %d drained %d nodes", op.Partition, op.N)
		}
	case opResize:
		if err := s.eng.Resize(op.Partition, op.Delta); err != nil {
			s.cfg.Logf("operator resize: %v", err)
		}
	}
}

// applyRecordLocked applies one replicated log record to local state. Called
// with the record already appended to (and verified against) the local log.
func (s *Service) applyRecordLocked(rec replog.Record) error {
	s.ctl.RecordsApplied++
	switch rec.Type {
	case replog.TypeAdmit:
		var p admitPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return fmt.Errorf("admit record %d: decode: %v", rec.Seq, err)
		}
		if p.Job == nil {
			return fmt.Errorf("admit record %d: payload carries no job", rec.Seq)
		}
		// Idempotent on job ID: a snapshot-installed standby can see the
		// tail of its catch-up stream overlap jobs the snapshot already
		// carried (queued, admitted, or cancelled pre-admission). A replayed
		// duplicate must not double-enqueue or double-count.
		if _, dup := s.queued[p.Job.ID]; dup || s.gone[p.Job.ID] || s.eng.Outcome(p.Job.ID) != nil {
			break
		}
		s.queue = append(s.queue, queuedJob{seq: rec.Seq, j: p.Job})
		s.queued[p.Job.ID] = p.Job
		s.counters.Accepted++
	case replog.TypeTrain:
		var p trainPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return fmt.Errorf("train record %d: %v", rec.Seq, err)
		}
		s.pendTrains = append(s.pendTrains, trainEntry{seq: rec.Seq, runtime: p.Runtime,
			j: &job.Job{Name: p.Name, User: p.User, Tasks: p.Tasks, Priority: p.Priority}})
	case replog.TypeCancel:
		var p cancelPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return fmt.Errorf("cancel record %d: %v", rec.Seq, err)
		}
		s.pendCancels = append(s.pendCancels, cancelEntry{seq: rec.Seq, id: p.ID})
	case replog.TypeNodeOp:
		var p opPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return fmt.Errorf("node-op record %d: %v", rec.Seq, err)
		}
		s.pendOps = append(s.pendOps, opEntry{seq: rec.Seq, op: p})
	case replog.TypeElect:
		var p electPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return fmt.Errorf("elect record %d: %v", rec.Seq, err)
		}
		s.leaderEpoch = rec.Epoch
		s.leaderID = p.Replica
		s.cfg.Logf("observed election: replica %d leads at epoch %d (cycle %d)", p.Replica, rec.Epoch, p.Cycle)
	case replog.TypeCheckpoint:
		var p ckptPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return fmt.Errorf("checkpoint record %d: %v", rec.Seq, err)
		}
		if s.cfg.Predictor != nil && p.PredictorSHA != "" {
			if got := s.predictorSHALocked(); got != p.PredictorSHA {
				s.ctl.Diverged++
				s.cfg.Logf("DIVERGED: predictor sha %.12s != leader %.12s at cycle %d",
					got, p.PredictorSHA, p.Cycle)
			}
		}
	case replog.TypeCycle:
		var p cyclePayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return fmt.Errorf("cycle record %d: %v", rec.Seq, err)
		}
		s.applyCycleLocked(rec, &p)
	case replog.TypeSnapshot:
		// An in-sync follower does not install the snapshot — its live
		// state already is the snapshot. It sanity-checks the engine epoch
		// against the leader's export — reading that one field, not the
		// megabytes behind it — and has its own log compacted at the same
		// point, so retention converges across the group. (Bootstrap replay
		// and standby catch-up install snapshots explicitly, never here.)
		epoch, ok := snapshotEngineEpoch(rec.Data)
		if !ok {
			return fmt.Errorf("snapshot record %d: payload does not begin with the engine epoch", rec.Seq)
		}
		if epoch != s.eng.Epoch() {
			s.ctl.Diverged++
			s.cfg.Logf("DIVERGED: engine epoch %d != snapshot %d at seq %d",
				s.eng.Epoch(), epoch, rec.Seq)
		}
		s.pendingCompact = rec.Seq
		s.wakeCompactorLocked()
	default:
		return fmt.Errorf("unknown record type %q at seq %d", rec.Type, rec.Seq)
	}
	return nil
}

// applyCycleLocked replays one scheduling round from the leader's cycle
// record: the identical engine/scheduler mutation sequence runCycle ran,
// minus the solve (the record carries its output).
func (s *Service) applyCycleLocked(rec replog.Record, p *cyclePayload) {
	now := p.Now
	s.cycleNow = now
	if s.schedClock != nil {
		s.schedClock.Set(now)
	}
	s.cycleTopLocked(now, p.Comps, p.AgentOps, p.InputsThrough)
	for _, id := range p.Abandons {
		s.abandonAtLocked(id, now)
	}
	s.applyDecisionLocked(now, p.Preempts, p.Starts)
	s.cycles++
	if s.cycles != rec.Cycle {
		s.ctl.Diverged++
		s.cfg.Logf("DIVERGED: applied cycle %d, record says %d", s.cycles, rec.Cycle)
		s.cycles = rec.Cycle
	}
	if got := s.eng.Epoch(); got != p.EngineEpoch {
		s.ctl.Diverged++
		s.cfg.Logf("DIVERGED: engine epoch %d != leader %d after cycle %d", got, p.EngineEpoch, rec.Cycle)
	}
}

// bootstrapReplay rebuilds service state from the local log on startup
// (warm restart): state resets to the most recent snapshot record if one is
// retained, then every record past it is re-applied in order,
// reconstructing the engine, scheduler, predictor, queues, and counters the
// killed process held at its last fsync. A log compacted at a snapshot
// starts with that snapshot, so replay cost is bounded by CompactEvery
// cycles regardless of total history.
func (s *Service) bootstrapReplay() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.log.Records()
	start := 0
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Type != replog.TypeSnapshot {
			continue
		}
		if err := s.installSnapshotLocked(recs[i]); err != nil {
			return 0, fmt.Errorf("snapshot seq %d: %w", recs[i].Seq, err)
		}
		s.ctl.RecordsApplied++
		start = i + 1
		if recs[i].Seq > s.log.Base()+1 {
			// The process died between appending this snapshot and
			// compacting below it: finish that once the service starts.
			s.pendingCompact = recs[i].Seq
			s.wakeCompactorLocked()
		}
		break
	}
	for _, rec := range recs[start:] {
		if err := s.applyRecordLocked(rec); err != nil {
			return 0, fmt.Errorf("seq %d: %w", rec.Seq, err)
		}
	}
	return len(recs), nil
}
