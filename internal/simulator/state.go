package simulator

import (
	"encoding/binary"
	"fmt"
	"sort"

	"threesigma/internal/binenc"
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
// per-job aliasing without duplicating payloads. The outcomes — the one part
// that grows with every job ever admitted — are one binary stream
// (appendOutcomes), which the JSON form leaves out: a snapshot carries it
// beside the rest, as it is.
type EngineState struct {
	Cluster     Cluster    `json:"cluster"`
	Free        Alloc      `json:"free"`
	Down        Alloc      `json:"down"`
	Pending     []job.ID   `json:"pending,omitempty"`
	Running     []RunState `json:"running,omitempty"`
	RunSeq      int64      `json:"run_seq"`
	Outcomes    []byte     `json:"-"`
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
	st.Outcomes = appendOutcomes(nil, e.Outcomes())
	return st
}

// EngineFromState reconstructs an engine from an exported state. Pending
// and running jobs are re-linked to the job instances carried by their
// Outcome records; a dangling reference is corruption and errors out, and
// so are running jobs out of ExportState's ascending order.
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
	outs, err := decodeOutcomes(st.Outcomes)
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		e.out[o.Job.ID] = o
	}
	for _, id := range st.Pending {
		o, ok := e.out[id]
		if !ok {
			return nil, fmt.Errorf("simulator: pending job %d has no outcome record", id)
		}
		e.pending = append(e.pending, o.Job)
	}
	for i, r := range st.Running {
		if i > 0 && r.Job <= st.Running[i-1].Job {
			return nil, fmt.Errorf("simulator: running job %d follows job %d", r.Job, st.Running[i-1].Job)
		}
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

// The outcome stream: every outcome record the engine holds, with its job,
//
//	magic "3SOC", version byte 1, uvarint outcome count, then per outcome
//	in strictly ascending job ID order:
//	  job      ID varint; name, user (uvarint length, bytes); class byte;
//	           priority varint; submit, deadline; tasks varint; runtime,
//	           non-preferred factor; preferred (uvarint count, varints);
//	           attrs (uvarint count, then key, value per pair in ascending
//	           key order)
//	  outcome  flags byte (started, completed, on preferred, cancelled,
//	           failed from bit 0 up); first start, completion time, actual
//	           runtime; preemptions varint; wasted work; evictions varint;
//	           lost to failures
//
// where every float is its IEEE-754 bits (binenc), so every value comes back
// exactly. Nothing may follow the last outcome. An empty Preferred or Attrs
// decodes as nil, the one form of "none".
const (
	outcomesMagic   = "3SOC"
	outcomesVersion = 1
)

// Outcome flag bits.
const (
	flagStarted = 1 << iota
	flagCompleted
	flagOnPreferred
	flagCancelled
	flagFailed
	flagsKnown = flagStarted | flagCompleted | flagOnPreferred | flagCancelled | flagFailed
)

// minOutcomeBytes is the smallest encoding of an outcome: its eleven
// varints, lengths, counts and single bytes one byte each, and its nine
// floats.
const minOutcomeBytes = 11 + 9*8

// appendOutcomes appends the stream of outs, which must be sorted by job ID
// (Engine.Outcomes' order).
func appendOutcomes(buf []byte, outs []*Outcome) []byte {
	buf = append(buf, outcomesMagic...)
	buf = append(buf, outcomesVersion)
	buf = binary.AppendUvarint(buf, uint64(len(outs)))
	var keys []string
	for _, o := range outs {
		j := o.Job
		buf = binary.AppendVarint(buf, int64(j.ID))
		buf = binenc.AppendString(buf, j.Name)
		buf = binenc.AppendString(buf, j.User)
		buf = append(buf, byte(j.Class))
		buf = binary.AppendVarint(buf, int64(j.Priority))
		buf = binenc.AppendFloat(binenc.AppendFloat(buf, j.Submit), j.Deadline)
		buf = binary.AppendVarint(buf, int64(j.Tasks))
		buf = binenc.AppendFloat(binenc.AppendFloat(buf, j.Runtime), j.NonPrefFactor)
		buf = binary.AppendUvarint(buf, uint64(len(j.Preferred)))
		for _, p := range j.Preferred {
			buf = binary.AppendVarint(buf, int64(p))
		}
		keys = keys[:0]
		for k := range j.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf = binary.AppendUvarint(buf, uint64(len(keys)))
		for _, k := range keys {
			buf = binenc.AppendString(binenc.AppendString(buf, k), j.Attrs[k])
		}
		var flags byte
		for i, set := range [...]bool{o.Started, o.Completed, o.OnPreferred, o.Cancelled, o.Failed} {
			if set {
				flags |= 1 << i
			}
		}
		buf = append(buf, flags)
		buf = binenc.AppendFloat(buf, o.FirstStart)
		buf = binenc.AppendFloat(buf, o.CompletionTime)
		buf = binenc.AppendFloat(buf, o.ActualRuntime)
		buf = binary.AppendVarint(buf, int64(o.Preemptions))
		buf = binenc.AppendFloat(buf, o.WastedWork)
		buf = binary.AppendVarint(buf, int64(o.Evictions))
		buf = binenc.AppendFloat(buf, o.LostToFailures)
	}
	return buf
}

// decodeOutcomes reads an outcome stream, all or nothing: on any error it
// returns no outcome. Every count is checked against the bytes that remain
// before anything is allocated for it, and a stream that decodes is the
// one appendOutcomes writes for what it decoded to, byte for byte. The
// outcomes and their jobs live in two slabs, one allocation each; equal
// strings share one copy.
func decodeOutcomes(data []byte) ([]*Outcome, error) {
	if len(data) < len(outcomesMagic)+1 || string(data[:len(outcomesMagic)]) != outcomesMagic {
		return nil, fmt.Errorf("simulator: outcome stream does not begin with %q", outcomesMagic)
	}
	if v := data[len(outcomesMagic)]; v != outcomesVersion {
		return nil, fmt.Errorf("simulator: unsupported outcome stream version %d", v)
	}
	r := binenc.NewReader(data[len(outcomesMagic)+1:])
	n := r.Length(minOutcomeBytes)
	slab := make([]Outcome, n)
	jobs := make([]job.Job, n)
	outs := make([]*Outcome, n)
	strs := make(map[string]string)
	intern := func(b []byte) string {
		s, ok := strs[string(b)]
		if !ok {
			s = string(b)
			strs[s] = s
		}
		return s
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		j := &jobs[i]
		j.ID = job.ID(r.Varint())
		if i > 0 && j.ID <= jobs[i-1].ID {
			r.Fail("job %d follows job %d", j.ID, jobs[i-1].ID)
			break
		}
		j.Name = intern(r.Prefixed())
		j.User = intern(r.Prefixed())
		j.Class = job.Class(r.Byte())
		j.Priority = r.SignedInt()
		j.Submit, j.Deadline = r.Float(), r.Float()
		j.Tasks = r.SignedInt()
		j.Runtime, j.NonPrefFactor = r.Float(), r.Float()
		if np := r.Length(1); np > 0 {
			j.Preferred = make([]int, np)
			for k := range j.Preferred {
				j.Preferred[k] = r.SignedInt()
			}
		}
		if na := r.Length(2); na > 0 {
			j.Attrs = make(map[string]string, na)
			prev := ""
			for k := 0; k < na && r.Err() == nil; k++ {
				key := intern(r.Prefixed())
				if k > 0 && key <= prev {
					r.Fail("job %d: attribute %q follows %q", j.ID, key, prev)
				}
				j.Attrs[key] = intern(r.Prefixed())
				prev = key
			}
		}
		o := &slab[i]
		o.Job = j
		flags := r.Byte()
		if flags&^flagsKnown != 0 {
			r.Fail("job %d: unknown outcome flags %#x", j.ID, flags)
		}
		o.Started, o.Completed = flags&flagStarted != 0, flags&flagCompleted != 0
		o.OnPreferred, o.Cancelled = flags&flagOnPreferred != 0, flags&flagCancelled != 0
		o.Failed = flags&flagFailed != 0
		o.FirstStart, o.CompletionTime, o.ActualRuntime = r.Float(), r.Float(), r.Float()
		o.Preemptions = r.SignedInt()
		o.WastedWork = r.Float()
		o.Evictions = r.SignedInt()
		o.LostToFailures = r.Float()
		outs[i] = o
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("simulator: outcome stream: %w", r.Err())
	}
	if r.Len() > 0 {
		return nil, fmt.Errorf("simulator: outcome stream: %d bytes after the last outcome", r.Len())
	}
	return outs, nil
}
