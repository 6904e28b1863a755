// Full-state snapshots and log compaction (DESIGN.md §14): every
// CompactEvery cycles the leader serializes its entire replay-relevant
// state — engine, scheduler, predictor, admission queue, deferred inputs,
// chaos cursor, desired-run map — into a TypeSnapshot record, and truncates
// the log below it once every follower with a live lease holds the record,
// so that compacting never pushes an in-sync follower below the base.
// Warm restarts then replay from the snapshot instead of genesis, and a
// replica whose catch-up cursor did fall below the compacted base — an empty
// standby, one that was down — installs the snapshot fetched over
// GET /v1/replog/snapshot before streaming the suffix.
package service

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"threesigma/internal/core"
	"threesigma/internal/job"
	"threesigma/internal/replog"
	"threesigma/internal/simulator"
)

// stateSnapshotter is the scheduler capability snapshots require:
// core.Scheduler implements it; greedy baselines and the sharded
// coordinator do not (Config.fill rejects CompactEvery for them).
type stateSnapshotter interface {
	ExportState() (*core.SchedState, error)
	ImportState(*core.SchedState) error
}

// snapTrain is one deferred predictor observation in a snapshot.
type snapTrain struct {
	Seq      uint64  `json:"seq"`
	Name     string  `json:"name,omitempty"`
	User     string  `json:"user,omitempty"`
	Tasks    int     `json:"tasks,omitempty"`
	Priority int     `json:"priority,omitempty"`
	Runtime  float64 `json:"runtime"`
}

// snapCancel is one deferred cancellation in a snapshot.
type snapCancel struct {
	Seq uint64 `json:"seq"`
	ID  job.ID `json:"id"`
}

// snapOp is one deferred operator action in a snapshot.
type snapOp struct {
	Seq uint64    `json:"seq"`
	Op  opPayload `json:"op"`
}

// snapDesired is one desired running attempt (agent mode) in a snapshot.
type snapDesired struct {
	Job     job.ID          `json:"job"`
	RunID   int64           `json:"run_id"`
	Alloc   simulator.Alloc `json:"alloc"`
	Due     float64         `json:"due"`
	CrashAt float64         `json:"crash_at,omitempty"`
}

// snapAttempt is one per-job start count (chaos crash draws) in a snapshot.
type snapAttempt struct {
	Job job.ID `json:"job"`
	N   int    `json:"n"`
}

// snapPayload is a TypeSnapshot record: the complete replay-relevant state
// of the service at a cycle boundary. Replaying the log suffix on top of an
// installed snapshot must reproduce the donor replica's outcome digest and
// predictor SHA byte for byte, so everything outcome-relevant is here;
// performance-only state (scheduler memo, incremental model, stats, agent
// outboxes) is rebuilt cold.
type snapPayload struct {
	// EngineEpoch repeats Engine.Epoch as the payload's first field, where an
	// in-sync follower reads it without scanning the megabytes behind it
	// (snapshotEngineEpoch).
	EngineEpoch uint64 `json:"engine_epoch"`

	Cycle    int64    `json:"cycle"`
	CycleNow float64  `json:"cycle_now"`
	Counters Counters `json:"counters"`
	Ckpts    int64    `json:"ckpts,omitempty"`

	Engine    *simulator.EngineState `json:"engine"`
	Sched     *core.SchedState       `json:"sched"`
	Predictor json.RawMessage        `json:"predictor,omitempty"` // predictor.Save stream

	Queue     []*job.Job   `json:"queue,omitempty"`      // admission queue (pre-admission)
	QueueSeqs []uint64     `json:"queue_seqs,omitempty"` // Queue[i]'s admit record seq (absent: all 0, no gate)
	Gone      []job.ID     `json:"gone,omitempty"`
	Abandoned []job.ID     `json:"abandoned,omitempty"`
	Removed   []job.ID     `json:"removed,omitempty"` // JobRemoved sweep pending
	Comps     []compEv     `json:"comps,omitempty"`   // emulated completion heap
	Trains    []snapTrain  `json:"trains,omitempty"`
	Cancels   []snapCancel `json:"cancels,omitempty"`
	Ops       []snapOp     `json:"ops,omitempty"`

	FaultIdx int           `json:"fault_idx,omitempty"`
	Attempts []snapAttempt `json:"attempts,omitempty"`
	Desired  []snapDesired `json:"desired,omitempty"`
}

func sortedIDs(m map[job.ID]bool) []job.ID {
	out := make([]job.ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, k int) bool { return out[i] < out[k] })
	return out
}

// exportStateLocked captures the service's full state as a snapshot
// payload, in deterministic order throughout so two replicas with equal
// state produce byte-identical payloads.
func (s *Service) exportStateLocked() (*snapPayload, error) {
	snap, ok := s.cfg.Scheduler.(stateSnapshotter)
	if !ok {
		return nil, fmt.Errorf("scheduler %T has no exportable state", s.cfg.Scheduler)
	}
	sst, err := snap.ExportState()
	if err != nil {
		return nil, err
	}
	p := &snapPayload{
		Cycle:     s.cycles,
		CycleNow:  s.cycleNow,
		Counters:  s.counters,
		Ckpts:     s.ckpts,
		Engine:    s.eng.ExportState(),
		Sched:     sst,
		Gone:      sortedIDs(s.gone),
		Abandoned: sortedIDs(s.abandoned),
		Removed:   append([]job.ID(nil), s.removed...),
		FaultIdx:  s.faultIdx,
	}
	p.EngineEpoch = p.Engine.Epoch
	for _, q := range s.queue {
		p.Queue = append(p.Queue, q.j)
		p.QueueSeqs = append(p.QueueSeqs, q.seq)
	}
	if s.cfg.Predictor != nil {
		var buf bytes.Buffer
		if err := s.cfg.Predictor.Save(&buf); err != nil {
			return nil, fmt.Errorf("serialize predictor: %w", err)
		}
		p.Predictor = buf.Bytes()
	}
	for _, c := range s.comps {
		p.Comps = append(p.Comps, compEv{ID: c.id, RunID: c.runID, At: c.at, Crash: c.crash})
	}
	sort.Slice(p.Comps, func(i, k int) bool {
		//lint:allow floateq exact tie-break: equal-bits due times fall through to the deterministic id order
		if p.Comps[i].At != p.Comps[k].At {
			return p.Comps[i].At < p.Comps[k].At
		}
		return p.Comps[i].ID < p.Comps[k].ID
	})
	for _, e := range s.pendTrains {
		p.Trains = append(p.Trains, snapTrain{Seq: e.seq, Name: e.j.Name, User: e.j.User,
			Tasks: e.j.Tasks, Priority: e.j.Priority, Runtime: e.runtime})
	}
	for _, e := range s.pendCancels {
		p.Cancels = append(p.Cancels, snapCancel{Seq: e.seq, ID: e.id})
	}
	for _, e := range s.pendOps {
		p.Ops = append(p.Ops, snapOp{Seq: e.seq, Op: e.op})
	}
	for id, n := range s.attempts {
		p.Attempts = append(p.Attempts, snapAttempt{Job: id, N: n})
	}
	sort.Slice(p.Attempts, func(i, k int) bool { return p.Attempts[i].Job < p.Attempts[k].Job })
	for id, d := range s.desired {
		p.Desired = append(p.Desired, snapDesired{Job: id, RunID: d.runID,
			Alloc: d.alloc.Clone(), Due: d.due, CrashAt: d.crashAt})
	}
	sort.Slice(p.Desired, func(i, k int) bool { return p.Desired[i].Job < p.Desired[k].Job })
	return p, nil
}

// snapshotEngineEpoch reads the engine epoch off the front of a snapshot
// payload: the first field, by snapPayload's declaration order. ok is false
// for a payload that does not begin with it.
func snapshotEngineEpoch(data []byte) (epoch uint64, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return 0, false
	}
	if t, err := dec.Token(); err != nil || t != "engine_epoch" {
		return 0, false
	}
	return epoch, dec.Decode(&epoch) == nil
}

// snapshotLocked appends a TypeSnapshot record capturing the leader's state
// and leaves the compaction below it pending. A failure is logged and
// counted — the log simply stays longer until the next attempt, and a
// snapshot_failures that keeps growing is a log that can no longer compact.
func (s *Service) snapshotLocked() {
	p, err := s.exportStateLocked()
	if err != nil {
		s.ctl.SnapshotFailures++
		s.cfg.Logf("snapshot: export: %v", err)
		return
	}
	rec, err := s.log.Append(s.leaderEpoch, replog.TypeSnapshot, s.cycles, p)
	if err != nil {
		s.ctl.SnapshotFailures++
		s.cfg.Logf("snapshot: append: %v", err)
		return
	}
	s.ctl.Snapshots++
	s.pendingCompact = rec.Seq
}

// wakeCompactorLocked nudges the compactor goroutine when a compaction is
// pending (non-blocking: the channel holds one level-triggered wake-up).
func (s *Service) wakeCompactorLocked() {
	if s.pendingCompact == 0 {
		return
	}
	select {
	case s.compactWake <- struct{}{}:
	default:
	}
}

// compactLoop owns log compaction for the life of the service, so that the
// file rewrite never runs under s.mu and never twice at once. After Stop it
// waits out the final cycle, which may append one more snapshot, and settles
// whatever is pending unconditionally: the log a stopped replica leaves
// begins at its newest snapshot.
func (s *Service) compactLoop() {
	defer close(s.compactDone)
	for {
		select {
		case <-s.stop:
			<-s.loopDone
			s.settleCompaction(true)
			return
		case <-s.compactWake:
			s.settleCompaction(false)
		}
	}
}

// settleCompaction truncates the log below the pending snapshot record,
// once no follower would be stranded by it: every follower whose lease is
// live has acked the record (so its own log reaches past the new base and it
// compacts at the same sequence when it applies the record), and a follower
// whose lease has lapsed is not waited for — snapshot catch-up exists for
// it. A follower, and a leader without peers, has nobody to wait for. force
// skips the check (Stop: nobody will be pushed to any more). Called from
// the compactor goroutine only, without s.mu.
func (s *Service) settleCompaction(force bool) {
	s.mu.Lock()
	seq := s.pendingCompact
	if seq != 0 && !force {
		now := s.cfg.Clock.Now()
		for _, fc := range s.followers {
			if acked, expires := fc.progress(s.cfg.LeaseInterval); acked < seq && !now.After(expires) {
				seq = 0 // held back; the follower's next ack or the next cycle asks again
				break
			}
		}
	}
	s.mu.Unlock()
	if seq == 0 {
		return
	}
	err := s.log.Compact(seq)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingCompact == seq {
		s.pendingCompact = 0
	}
	if err != nil {
		s.cfg.Logf("compact to %d: %v", seq, err)
		return
	}
	s.ctl.Compactions++
}

// installSnapshotLocked replaces the service's entire replay-relevant state
// with the snapshot record's payload. Used on two paths: bootstrap replay
// from a compacted log (the first record is a snapshot), and a far-behind
// standby installing the snapshot it fetched from the leader.
func (s *Service) installSnapshotLocked(rec replog.Record) error {
	snap, ok := s.cfg.Scheduler.(stateSnapshotter)
	if !ok {
		return fmt.Errorf("scheduler %T cannot import snapshot state", s.cfg.Scheduler)
	}
	var p snapPayload
	if err := json.Unmarshal(rec.Data, &p); err != nil {
		return fmt.Errorf("decode snapshot: %w", err)
	}
	if p.Engine == nil || p.Sched == nil {
		return fmt.Errorf("snapshot record %d misses engine or scheduler state", rec.Seq)
	}
	eng, err := simulator.EngineFromState(p.Engine)
	if err != nil {
		return fmt.Errorf("restore engine: %w", err)
	}
	if err := snap.ImportState(p.Sched); err != nil {
		return fmt.Errorf("restore scheduler: %w", err)
	}
	if s.cfg.Predictor != nil && len(p.Predictor) > 0 {
		if err := s.cfg.Predictor.Load(bytes.NewReader(p.Predictor)); err != nil {
			return fmt.Errorf("restore predictor: %w", err)
		}
	}
	s.eng = eng
	s.cycles = p.Cycle
	s.cycleNow = p.CycleNow
	s.counters = p.Counters
	s.ckpts = p.Ckpts
	if s.schedClock != nil {
		s.schedClock.Set(p.CycleNow)
	}
	s.queue = make([]queuedJob, len(p.Queue))
	s.queued = make(map[job.ID]*job.Job, len(p.Queue))
	for i, j := range p.Queue {
		s.queue[i].j = j
		if i < len(p.QueueSeqs) {
			s.queue[i].seq = p.QueueSeqs[i]
		}
		s.queued[j.ID] = j
	}
	s.gone = make(map[job.ID]bool, len(p.Gone))
	for _, id := range p.Gone {
		s.gone[id] = true
	}
	s.abandoned = make(map[job.ID]bool, len(p.Abandoned))
	for _, id := range p.Abandoned {
		s.abandoned[id] = true
	}
	s.removed = append([]job.ID(nil), p.Removed...)
	s.comps = s.comps[:0]
	for _, c := range p.Comps {
		s.comps = append(s.comps, completion{at: c.At, id: c.ID, runID: c.RunID, crash: c.Crash})
	}
	heap.Init(&s.comps)
	s.pendTrains = nil
	for _, e := range p.Trains {
		s.pendTrains = append(s.pendTrains, trainEntry{seq: e.Seq, runtime: e.Runtime,
			j: &job.Job{Name: e.Name, User: e.User, Tasks: e.Tasks, Priority: e.Priority}})
	}
	s.pendCancels = nil
	for _, e := range p.Cancels {
		s.pendCancels = append(s.pendCancels, cancelEntry{seq: e.Seq, id: e.ID})
	}
	s.pendOps = nil
	for _, e := range p.Ops {
		s.pendOps = append(s.pendOps, opEntry{seq: e.Seq, op: e.Op})
	}
	s.faultIdx = p.FaultIdx
	if s.attempts != nil || len(p.Attempts) > 0 {
		s.attempts = make(map[job.ID]int, len(p.Attempts))
		for _, a := range p.Attempts {
			s.attempts[a.Job] = a.N
		}
	}
	s.desired = make(map[job.ID]*desiredRun, len(p.Desired))
	for _, d := range p.Desired {
		s.desired[d.Job] = &desiredRun{runID: d.RunID, alloc: d.Alloc.Clone(), due: d.Due, crashAt: d.CrashAt}
	}
	s.resetAgentOutboxesLocked()
	if rec.Epoch > s.leaderEpoch {
		s.leaderEpoch = rec.Epoch
	}
	s.predSHA = ""
	s.predSHADirty = true
	s.cfg.Logf("installed snapshot seq %d: cycle %d, %d outcomes, %d queued",
		rec.Seq, p.Cycle, len(p.Engine.Outcomes), len(p.Queue))
	return nil
}

// maybeFetchSnapshotLocked starts one background snapshot catch-up from the
// leader at addr, if none is in flight. Called from handleReplogAppend when
// the leader's compaction base has moved past this replica's log.
func (s *Service) maybeFetchSnapshotLocked(from int) {
	if s.snapFetching {
		return
	}
	addr := s.cfg.Peers[from]
	if addr == "" {
		return
	}
	s.snapFetching = true
	go s.fetchSnapshot(addr)
}

// fetchSnapshot pulls the leader's snapshot record and installs it — log
// first (the chain resets to the snapshot), then service state. Runs off
// s.mu; the leader's pushes answer Busy until the install lands.
func (s *Service) fetchSnapshot(addr string) {
	defer func() {
		s.mu.Lock()
		s.snapFetching = false
		s.mu.Unlock()
	}()
	resp, err := s.snapClient.Get(addr + "/v1/replog/snapshot")
	if err != nil {
		s.cfg.Logf("snapshot fetch: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.cfg.Logf("snapshot fetch: leader answered %d", resp.StatusCode)
		return
	}
	var rec replog.Record
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxReplBody)).Decode(&rec); err != nil {
		s.cfg.Logf("snapshot fetch: decode: %v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil || rec.Seq <= s.log.Len() {
		return // caught up (or past it) some other way while fetching
	}
	if err := s.log.InstallSnapshot(rec); err != nil {
		s.cfg.Logf("snapshot install (log): %v", err)
		return
	}
	s.pendingCompact = 0 // the log begins at this snapshot now
	if err := s.installSnapshotLocked(rec); err != nil {
		s.ctl.Diverged++
		s.cfg.Logf("DIVERGED: snapshot install (state): %v", err)
		return
	}
	s.ctl.SnapshotInstalls++
}

// handleReplogSnapshot serves GET /v1/replog/snapshot: the most recent
// TypeSnapshot record, whole — a far-behind replica installs it and streams
// the suffix from the leader's push channel.
func (s *Service) handleReplogSnapshot(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	if s.log == nil {
		s.mu.Unlock()
		writeErr(w, &SubmitError{Code: 404, Msg: "no decision log configured"})
		return
	}
	rec, ok := s.log.LastSnapshot()
	s.mu.Unlock()
	if !ok {
		writeErr(w, &SubmitError{Code: 404, Msg: "no snapshot recorded yet"})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}
