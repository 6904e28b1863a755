// Full-state snapshots and log compaction (DESIGN.md §14): every
// CompactEvery cycles the leader serializes its entire replay-relevant
// state — engine, scheduler, predictor, admission queue, deferred inputs,
// chaos cursor, desired-run map — into a TypeSnapshot record, a binary
// envelope (state.go's wire): a header with the engine epoch and the
// predictor's hash, the state's JSON, then the engine's outcome stream and
// the predictor's stream as they are. It truncates
// the log below it once every follower with a live lease holds the record,
// so that compacting never pushes an in-sync follower below the base.
// Warm restarts then replay from the snapshot instead of genesis, and a
// replica whose log ends at or below the compacted base — an empty standby,
// one that was down — is pushed the snapshot the leader's log begins with,
// on the same channel as every other record, and installs it before the
// suffix appends (handleReplogAppend).
package service

import (
	"fmt"

	"threesigma/internal/replog"
)

// snapshotLocked appends a TypeSnapshot record — the state's own encoding —
// and applies it like any replica does, which leaves the compaction below it
// pending. A failure is logged and counted — the log simply stays longer
// until the next attempt, and a snapshot_failures that keeps growing is a log
// that can no longer compact.
func (s *Service) snapshotLocked() {
	w, err := s.st.wire()
	var recs []replog.Record
	if err == nil {
		recs, err = s.log.AppendBatch(s.leaderEpoch, replog.TypeSnapshot, s.st.Cycles, [][]byte{w})
	}
	if err == nil {
		err = s.applyRecordLocked(recs[0])
	}
	if err != nil {
		s.ctl.SnapshotFailures++
		s.cfg.Logf("snapshot: %v", err)
		return
	}
	s.ctl.Snapshots++
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
// waits out the final cycle, which may append one more snapshot, and the
// hand-off that pushes it, and settles whatever is pending unconditionally:
// the log a stopped replica leaves begins at its newest snapshot.
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
	s.logBase = s.log.Base()
}

// installSnapshotLocked replaces the service's entire replay-relevant state
// with the snapshot record's payload, validate-then-commit: a record that
// cannot be installed leaves the state, the scheduler, the predictor and the
// log exactly as they were. Used on two paths: bootstrap replay (the log
// already holds the record) and a far-behind replica installing the snapshot
// the leader pushed it (resetLog: the chain restarts at the record).
//
// Everything that can be checked without side effects is checked by decode.
// The predictor alone validates only by loading; its Load is all-or-nothing,
// so it runs as the last check and the first commit, and is undone if the
// one fallible step after it — the log's file rewrite — fails. What follows
// that cannot fail: the scheduler imports distributions decode already
// built once, and the state is swapped whole.
func (s *Service) installSnapshotLocked(rec replog.Record, resetLog bool) error {
	fresh, staged, err := s.st.decode(rec.Data)
	if err != nil {
		return err
	}
	var undo []byte
	if resetLog {
		undo = s.st.savePredictor()
	}
	if err := fresh.loadPredictor(staged.pred); err != nil {
		return err
	}
	if resetLog {
		if err := s.log.InstallSnapshot(rec); err != nil {
			if uerr := s.st.loadPredictor(undo); uerr != nil {
				s.cfg.Logf("snapshot install: predictor not restored: %v", uerr)
			}
			return fmt.Errorf("reset log: %w", err)
		}
		s.pendingCompact = 0 // the log begins at this snapshot now
		s.logBase = s.log.Base()
	}
	if err := fresh.adopt(staged); err != nil {
		return err
	}
	s.st = fresh
	s.refillOutboxesLocked()
	if rec.Epoch > s.leaderEpoch {
		s.leaderEpoch = rec.Epoch
	}
	s.cfg.Logf("installed snapshot seq %d: cycle %d, %d outcomes, %d queued",
		rec.Seq, fresh.Cycles, fresh.eng.OutcomeCount(), len(fresh.Queue))
	return nil
}

// bootstrapReplay rebuilds service state from the local log on startup
// (warm restart): state resets to the most recent snapshot record if one is
// retained, then every record past it is re-applied in order,
// reconstructing the engine, scheduler, predictor, queues, and counters the
// killed process held at its last fsync. A log compacted at a snapshot
// starts with that snapshot, so replay cost is bounded by CompactEvery
// cycles regardless of total history. It returns how many records it
// applied, the installed snapshot included.
func (s *Service) bootstrapReplay() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logBase = s.log.Base()
	recs := s.log.Committed() // read once, here: no copy
	start, applied := 0, 0
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Type != replog.TypeSnapshot {
			continue
		}
		if err := s.installSnapshotLocked(recs[i], false); err != nil {
			return 0, fmt.Errorf("snapshot seq %d: %w", recs[i].Seq, err)
		}
		start, applied = i+1, 1
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
	applied += len(recs) - start
	s.ctl.RecordsApplied += int64(applied)
	s.cfg.Logf("applied %d log records: cycle %d, epoch %d, %d outcomes",
		applied, s.st.Cycles, s.log.LastEpoch(), s.st.eng.OutcomeCount())
	return applied, nil
}
