package simulator

import (
	"fmt"
	"sort"

	"threesigma/internal/job"
)

// EngineState is the full serializable state of an Engine, used by the
// control plane's snapshot records (DESIGN.md §14): a restored engine must
// be observationally identical to the original — same outcomes, same
// epoch, same free/down accounting — so that replaying the log suffix on
// top of it reproduces the donor's outcome digest byte for byte.
//
// Jobs are serialized once, inside their Outcome records (every job the
// engine has ever admitted has one); Pending and Running reference them by
// ID and are re-linked on restore, preserving the engine's single-instance-
// per-job aliasing without duplicating payloads.
type EngineState struct {
	Cluster     Cluster    `json:"cluster"`
	Free        Alloc      `json:"free"`
	Down        Alloc      `json:"down"`
	Pending     []job.ID   `json:"pending,omitempty"`
	Running     []RunState `json:"running,omitempty"`
	RunSeq      int64      `json:"run_seq"`
	Outcomes    []*Outcome `json:"outcomes,omitempty"`
	Skipped     int        `json:"skipped,omitempty"`
	Epoch       uint64     `json:"epoch"`
	RetryBudget int        `json:"retry_budget,omitempty"`
	DownSec     float64    `json:"down_sec,omitempty"`
	DownMark    float64    `json:"down_mark,omitempty"`
}

// RunState is one running attempt in an EngineState.
type RunState struct {
	Job         job.ID  `json:"job"`
	Start       float64 `json:"start"`
	Alloc       Alloc   `json:"alloc"`
	OnPreferred bool    `json:"on_preferred"`
	RunID       int64   `json:"run_id"`
}

// ExportState captures the engine's complete state in deterministic
// (job-ID-sorted) order.
func (e *Engine) ExportState() *EngineState {
	st := &EngineState{
		Cluster:     Cluster{Partitions: append([]int(nil), e.cluster.Partitions...)},
		Free:        e.free.Clone(),
		Down:        e.down.Clone(),
		RunSeq:      e.runSeq,
		Skipped:     e.skipped,
		Epoch:       e.epoch,
		RetryBudget: e.retryBudget,
		DownSec:     e.downSec,
		DownMark:    e.downMark,
	}
	for _, j := range e.pending {
		st.Pending = append(st.Pending, j.ID)
	}
	for id, ri := range e.running {
		st.Running = append(st.Running, RunState{
			Job:         id,
			Start:       ri.rj.Start,
			Alloc:       ri.rj.Alloc.Clone(),
			OnPreferred: ri.rj.OnPreferred,
			RunID:       ri.runID,
		})
	}
	sort.Slice(st.Running, func(i, k int) bool { return st.Running[i].Job < st.Running[k].Job })
	st.Outcomes = e.Outcomes() // already copied and job-ID sorted
	return st
}

// EngineFromState reconstructs an engine from an exported state. Pending
// and running jobs are re-linked to the job instances carried by their
// Outcome records; a dangling reference is corruption and errors out.
func EngineFromState(st *EngineState) (*Engine, error) {
	e := NewEngine(Cluster{Partitions: append([]int(nil), st.Cluster.Partitions...)})
	if len(st.Free) != len(e.cluster.Partitions) || len(st.Down) != len(e.cluster.Partitions) {
		return nil, fmt.Errorf("simulator: engine state free/down width does not match %d partitions", len(e.cluster.Partitions))
	}
	copy(e.free, st.Free)
	copy(e.down, st.Down)
	e.runSeq = st.RunSeq
	e.skipped = st.Skipped
	e.epoch = st.Epoch
	e.retryBudget = st.RetryBudget
	e.downSec = st.DownSec
	e.downMark = st.DownMark
	for _, o := range st.Outcomes {
		if o == nil || o.Job == nil {
			return nil, fmt.Errorf("simulator: engine state outcome without a job")
		}
		e.out[o.Job.ID] = o
	}
	for _, id := range st.Pending {
		o, ok := e.out[id]
		if !ok {
			return nil, fmt.Errorf("simulator: pending job %d has no outcome record", id)
		}
		e.pending = append(e.pending, o.Job)
	}
	for _, r := range st.Running {
		o, ok := e.out[r.Job]
		if !ok {
			return nil, fmt.Errorf("simulator: running job %d has no outcome record", r.Job)
		}
		if len(r.Alloc) != len(e.cluster.Partitions) {
			return nil, fmt.Errorf("simulator: running job %d alloc width does not match cluster", r.Job)
		}
		e.running[r.Job] = &runEntry{
			rj: &RunningJob{
				Job:         o.Job,
				Start:       r.Start,
				Alloc:       r.Alloc.Clone(),
				OnPreferred: r.OnPreferred,
			},
			runID: r.RunID,
		}
	}
	return e, nil
}
