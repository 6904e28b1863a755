package simulator

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"threesigma/internal/job"
)

func sortRunning(rs []*RunningJob) {
	slices.SortFunc(rs, func(a, b *RunningJob) int { return cmp.Compare(a.Job.ID, b.Job.ID) })
}

func sortOutcomes(os []*Outcome) {
	sort.Slice(os, func(i, j int) bool { return os[i].Job.ID < os[j].Job.ID })
}

// Engine is the cluster-state substrate shared by the discrete-event
// simulator (Sim) and the online scheduling daemon (internal/service): it
// owns free-node accounting, the pending queue, running allocations, and
// per-job outcome records, and enforces the same validation rules for both.
// Callers advance time however they like — Sim through its event heap, the
// daemon by cycle index — and hand the Engine absolute times; the Engine
// itself is clockless.
//
// The Engine is not safe for concurrent use; callers serialize access.
type Engine struct {
	cluster Cluster
	free    Alloc
	pending []*job.Job
	running map[job.ID]*runEntry
	runSeq  int64
	out     map[job.ID]*Outcome
	skipped int

	// epoch advances on every mutating call; the replicated control plane
	// cross-checks it between replicas (Epoch, DESIGN.md §14).
	epoch uint64

	// Node-lifecycle layer: down[p] nodes of partition p are failed or
	// drained and excluded from scheduling until recovered. Invariant per
	// partition: free + allocated + down == provisioned.
	down        Alloc
	retryBudget int     // failure evictions allowed per job; 0 = unlimited
	downSec     float64 // accumulated node-seconds of down capacity
	downMark    float64 // time of the last down-count change
}

type runEntry struct {
	rj    *RunningJob
	runID int64
}

// StartedRun describes a successfully launched attempt. RunID is the
// attempt generation: completions carry it back so a completion raced by a
// preemption (and restart) of the same job is recognized as stale.
type StartedRun struct {
	Job         *job.Job
	RunID       int64
	OnPreferred bool
}

// EffectiveRuntime returns the attempt's execution time for a given base
// runtime, applying the non-preferred slowdown when the attempt runs off
// the job's preferred partitions.
func (r *StartedRun) EffectiveRuntime(base float64) float64 {
	if !r.OnPreferred && r.Job.NonPrefFactor > 1 {
		return base * r.Job.NonPrefFactor
	}
	return base
}

// NewEngine returns an empty engine over the cluster (all nodes free).
func NewEngine(c Cluster) *Engine {
	e := &Engine{
		cluster: c,
		running: make(map[job.ID]*runEntry),
		out:     make(map[job.ID]*Outcome),
	}
	e.free = make(Alloc, len(c.Partitions))
	copy(e.free, c.Partitions)
	e.down = make(Alloc, len(c.Partitions))
	return e
}

// Cluster returns the provisioned cluster shape, ignoring down nodes.
func (e *Engine) Cluster() Cluster { return e.cluster }

// EffectiveCluster returns the live cluster shape: provisioned minus down
// nodes. With nothing down it returns the provisioned cluster unchanged, so
// fault-free runs see bitwise-identical state to builds without faults.
func (e *Engine) EffectiveCluster() Cluster {
	any := false
	for _, d := range e.down {
		if d > 0 {
			any = true
			break
		}
	}
	if !any {
		return e.cluster
	}
	parts := append([]int(nil), e.cluster.Partitions...)
	for p, d := range e.down {
		parts[p] -= d
	}
	return Cluster{Partitions: parts}
}

// FreeNodes returns a copy of the per-partition free-node counts.
func (e *Engine) FreeNodes() Alloc { return e.free.Clone() }

// PendingCount returns the number of jobs waiting for placement.
func (e *Engine) PendingCount() int { return len(e.pending) }

// RunningCount returns the number of executing jobs.
func (e *Engine) RunningCount() int { return len(e.running) }

// Idle reports whether no job is pending or running.
func (e *Engine) Idle() bool { return len(e.pending) == 0 && len(e.running) == 0 }

// IsRunning reports whether the job is currently executing.
func (e *Engine) IsRunning(id job.ID) bool {
	_, ok := e.running[id]
	return ok
}

// IsPending reports whether the job is waiting for placement.
func (e *Engine) IsPending(id job.ID) bool {
	for _, j := range e.pending {
		if j.ID == id {
			return true
		}
	}
	return false
}

// SkippedStarts returns how many start actions failed validation.
func (e *Engine) SkippedStarts() int { return e.skipped }

// Epoch returns the engine's mutation counter. Two engines that applied the
// same mutation sequence hold equal epochs, which is what the replicated
// control plane cross-checks after every applied cycle record: a follower
// whose epoch drifts from the leader's logged value has diverged.
func (e *Engine) Epoch() uint64 { return e.epoch }

// Submit admits a job into the pending queue. It rejects gangs that can
// never fit the cluster and duplicate job IDs.
func (e *Engine) Submit(j *job.Job) error {
	total := e.cluster.TotalNodes()
	if j.Tasks <= 0 || j.Tasks > total {
		return fmt.Errorf("simulator: job %d requests %d nodes on a %d-node cluster", j.ID, j.Tasks, total)
	}
	if _, ok := e.out[j.ID]; ok {
		return fmt.Errorf("simulator: duplicate job id %d", j.ID)
	}
	e.out[j.ID] = &Outcome{Job: j}
	e.pending = append(e.pending, j)
	e.epoch++
	return nil
}

// Snapshot builds the cluster state handed to a scheduler's Cycle: cloned
// free counts, a copy of the pending queue, and the running set in
// deterministic job-ID order. The snapshot's Cluster is the effective
// (down-adjusted) shape, so schedulers — including the MILP capacity rows
// of Eq. 3 and preferred-partition feasibility checks — plan against live
// capacity, not the provisioned ideal.
func (e *Engine) Snapshot(now float64) *State {
	st := &State{
		Now:     now,
		Free:    e.free.Clone(),
		Cluster: e.EffectiveCluster(),
		Pending: append([]*job.Job(nil), e.pending...),
	}
	st.Running = make([]*RunningJob, 0, len(e.running))
	for _, ri := range e.running {
		st.Running = append(st.Running, ri.rj)
	}
	// Deterministic order for reproducibility.
	sortRunning(st.Running)
	return st
}

// Start launches a pending job at startTime on the action's allocation.
// Invalid actions (unknown or already-running job, wrong allocation width
// or total, over free capacity) are counted as skipped and return false.
func (e *Engine) Start(a StartAction, startTime float64) (*StartedRun, bool) {
	idx := -1
	for i, j := range e.pending {
		if j.ID == a.Job {
			idx = i
			break
		}
	}
	if idx < 0 {
		e.skipped++
		return nil, false
	}
	j := e.pending[idx]
	if len(a.Alloc) != len(e.free) || a.Alloc.Total() != j.Tasks {
		e.skipped++
		return nil, false
	}
	for p, n := range a.Alloc {
		if n < 0 || n > e.free[p] {
			e.skipped++
			return nil, false
		}
	}
	e.pending = append(e.pending[:idx], e.pending[idx+1:]...)
	onPref := true
	for p, n := range a.Alloc {
		if n > 0 && !j.PrefersPartition(p) {
			onPref = false
			break
		}
	}
	for p, n := range a.Alloc {
		e.free[p] -= n
	}
	e.runSeq++
	ri := &runEntry{
		rj:    &RunningJob{Job: j, Start: startTime, Alloc: a.Alloc.Clone(), OnPreferred: onPref},
		runID: e.runSeq,
	}
	e.running[j.ID] = ri
	o := e.out[j.ID]
	if !o.Started {
		o.Started = true
		o.FirstStart = startTime
	}
	e.epoch++
	return &StartedRun{Job: j, RunID: ri.runID, OnPreferred: onPref}, true
}

// Preempt evicts a running job, losing its work: nodes are freed, wasted
// machine-seconds are charged, and the job rejoins the pending queue for a
// restart. Preempting a job that is not running is a no-op.
func (e *Engine) Preempt(id job.ID, now float64) bool {
	ri, ok := e.running[id]
	if !ok {
		return false
	}
	delete(e.running, id)
	for p, n := range ri.rj.Alloc {
		e.free[p] += n
	}
	o := e.out[id]
	o.Preemptions++
	o.WastedWork += (now - ri.rj.Start) * float64(ri.rj.Job.Tasks)
	e.pending = append(e.pending, ri.rj.Job)
	e.epoch++
	return true
}

// Complete finishes the attempt identified by (id, runID) at now, freeing
// its nodes and recording the outcome. It returns the job and its
// base-equivalent runtime (actual runtime normalized by the non-preferred
// slowdown) for the predictor feedback loop. Stale completions — the
// attempt was preempted and the job possibly restarted since — return
// ok=false and change nothing.
func (e *Engine) Complete(id job.ID, runID int64, now float64) (j *job.Job, base float64, ok bool) {
	ri, found := e.running[id]
	if !found || ri.runID != runID {
		return nil, 0, false
	}
	delete(e.running, id)
	for p, n := range ri.rj.Alloc {
		e.free[p] += n
	}
	o := e.out[id]
	o.Completed = true
	o.CompletionTime = now
	o.OnPreferred = ri.rj.OnPreferred
	o.ActualRuntime = now - ri.rj.Start
	base = o.ActualRuntime
	if !ri.rj.OnPreferred && ri.rj.Job.NonPrefFactor > 1 {
		base /= ri.rj.Job.NonPrefFactor
	}
	e.epoch++
	return ri.rj.Job, base, true
}

// Cancel removes a job from the system without completing it: a pending
// job leaves the queue, a running job is killed and its nodes freed (no
// requeue, no predictor observation). It reports whether the job was
// pending or running; ok=false when the job is in neither set.
func (e *Engine) Cancel(id job.ID, now float64) (wasRunning bool, ok bool) {
	if ri, found := e.running[id]; found {
		delete(e.running, id)
		for p, n := range ri.rj.Alloc {
			e.free[p] += n
		}
		o := e.out[id]
		o.WastedWork += (now - ri.rj.Start) * float64(ri.rj.Job.Tasks)
		o.Cancelled = true
		e.epoch++
		return true, true
	}
	for i, j := range e.pending {
		if j.ID == id {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			e.out[id].Cancelled = true
			e.epoch++
			return false, true
		}
	}
	return false, false
}

// Resize grows (delta > 0) or drains (delta < 0) partition part. Draining
// only takes free nodes: it fails when the partition does not have |delta|
// nodes free, leaving the caller to retry after completions. The cluster's
// partition slice is copied on write so states snapshotted earlier keep
// their original shape.
func (e *Engine) Resize(part, delta int) error {
	if part < 0 || part >= len(e.cluster.Partitions) {
		return fmt.Errorf("simulator: partition %d out of range [0,%d)", part, len(e.cluster.Partitions))
	}
	if delta == 0 {
		return nil
	}
	if delta < 0 {
		if e.free[part]+delta < 0 {
			return fmt.Errorf("simulator: drain %d from partition %d: only %d free", -delta, part, e.free[part])
		}
		if e.cluster.Partitions[part]+delta < 0 {
			return fmt.Errorf("simulator: drain %d from partition %d: only %d provisioned", -delta, part, e.cluster.Partitions[part])
		}
	}
	parts := append([]int(nil), e.cluster.Partitions...)
	parts[part] += delta
	e.cluster = Cluster{Partitions: parts}
	e.free[part] += delta
	e.epoch++
	return nil
}

// SetRetryBudget bounds failure-induced restarts: a job evicted more than n
// times by node loss or crashes fails out terminally instead of requeueing.
// n <= 0 means unlimited retries.
func (e *Engine) SetRetryBudget(n int) {
	if n < 0 {
		n = 0
	}
	e.retryBudget = n
}

// DownNodes returns a copy of the per-partition down-node counts.
func (e *Engine) DownNodes() Alloc { return e.down.Clone() }

// noteDown accrues node-down-seconds up to now before a down-count change.
func (e *Engine) noteDown(now float64) {
	if now > e.downMark {
		e.downSec += float64(e.down.Total()) * (now - e.downMark)
	}
	e.downMark = now
}

// NodeDownSeconds returns cumulative node-seconds of down capacity through
// now — the denominator-side loss for availability accounting.
func (e *Engine) NodeDownSeconds(now float64) float64 {
	s := e.downSec
	if now > e.downMark {
		s += float64(e.down.Total()) * (now - e.downMark)
	}
	return s
}

// evictRun removes a running attempt after a failure (node loss or crash),
// freeing its nodes and charging failure-distinct accounting (Evictions /
// LostToFailures, separate from scheduler-initiated Preemptions). The job
// requeues unless its retry budget is exhausted, in which case it fails out
// terminally and requeued=false.
func (e *Engine) evictRun(ri *runEntry, now float64) (requeued bool) {
	id := ri.rj.Job.ID
	delete(e.running, id)
	for p, n := range ri.rj.Alloc {
		e.free[p] += n
	}
	o := e.out[id]
	o.Evictions++
	o.LostToFailures += (now - ri.rj.Start) * float64(ri.rj.Job.Tasks)
	e.epoch++
	if e.retryBudget > 0 && o.Evictions > e.retryBudget {
		o.Failed = true
		return false
	}
	e.pending = append(e.pending, ri.rj.Job)
	return true
}

// victimIn picks the eviction victim among jobs running on partition part:
// the youngest attempt first (largest Start, ties broken by larger job ID),
// minimizing the work destroyed per freed node. Returns nil when no running
// job holds nodes there.
func (e *Engine) victimIn(part int) *runEntry {
	var best *runEntry
	//lint:allow detrange argmax under the strict total order (Start, ID) picks the same victim in any iteration order
	for _, ri := range e.running {
		if ri.rj.Alloc[part] <= 0 {
			continue
		}
		if best == nil || ri.rj.Start > best.rj.Start ||
			//lint:allow floateq exact Start tie-break falls through to the unique job ID, keeping the order total
			(ri.rj.Start == best.rj.Start && ri.rj.Job.ID > best.rj.Job.ID) {
			best = ri
		}
	}
	return best
}

// FailNodes marks n nodes of partition part as down at now, evicting
// running jobs (youngest first) until enough nodes are free to take down.
// n is capped at the partition's up-node count. It returns how many nodes
// actually failed plus the evicted-and-requeued and failed-out job IDs.
func (e *Engine) FailNodes(part, n int, now float64) (failed int, evicted, exhausted []job.ID, err error) {
	if part < 0 || part >= len(e.cluster.Partitions) {
		return 0, nil, nil, fmt.Errorf("simulator: partition %d out of range [0,%d)", part, len(e.cluster.Partitions))
	}
	if up := e.cluster.Partitions[part] - e.down[part]; n > up {
		n = up
	}
	if n <= 0 {
		return 0, nil, nil, nil
	}
	for e.free[part] < n {
		ri := e.victimIn(part)
		if ri == nil {
			// Unreachable while free+allocated+down == provisioned holds, but
			// degrade to failing only the free nodes rather than corrupting
			// the accounting.
			n = e.free[part]
			break
		}
		id := ri.rj.Job.ID
		if e.evictRun(ri, now) {
			evicted = append(evicted, id)
		} else {
			exhausted = append(exhausted, id)
		}
	}
	e.noteDown(now)
	e.free[part] -= n
	e.down[part] += n
	e.epoch++
	return n, evicted, exhausted, nil
}

// RecoverNodes returns up to n down nodes of partition part to service at
// now, reporting how many actually recovered.
func (e *Engine) RecoverNodes(part, n int, now float64) (int, error) {
	if part < 0 || part >= len(e.cluster.Partitions) {
		return 0, fmt.Errorf("simulator: partition %d out of range [0,%d)", part, len(e.cluster.Partitions))
	}
	if n > e.down[part] {
		n = e.down[part]
	}
	if n <= 0 {
		return 0, nil
	}
	e.noteDown(now)
	e.down[part] -= n
	e.free[part] += n
	e.epoch++
	return n, nil
}

// DrainNodes takes n free nodes of partition part out of service at now
// without evicting anything — the graceful-maintenance counterpart of
// FailNodes. It fails when the partition lacks n free nodes, leaving the
// caller to retry after completions; recovery is via RecoverNodes.
func (e *Engine) DrainNodes(part, n int, now float64) error {
	if part < 0 || part >= len(e.cluster.Partitions) {
		return fmt.Errorf("simulator: partition %d out of range [0,%d)", part, len(e.cluster.Partitions))
	}
	if n <= 0 {
		return fmt.Errorf("simulator: drain of %d nodes is not positive", n)
	}
	if e.free[part] < n {
		return fmt.Errorf("simulator: drain %d from partition %d: only %d free", n, part, e.free[part])
	}
	e.noteDown(now)
	e.free[part] -= n
	e.down[part] += n
	e.epoch++
	return nil
}

// CrashRun kills the attempt identified by (id, runID) at now — the
// job-level failure path, subject to the same retry budget as node-loss
// evictions. Stale runIDs (the attempt was preempted or already finished)
// return ok=false and change nothing.
func (e *Engine) CrashRun(id job.ID, runID int64, now float64) (requeued, ok bool) {
	ri, found := e.running[id]
	if !found || ri.runID != runID {
		return false, false
	}
	return e.evictRun(ri, now), true
}

// Outcome returns the outcome record for one job (nil when unknown).
func (e *Engine) Outcome(id job.ID) *Outcome { return e.out[id] }

// Outcomes returns all outcome records sorted by job ID.
func (e *Engine) Outcomes() []*Outcome {
	outs := make([]*Outcome, 0, len(e.out))
	for _, o := range e.out {
		outs = append(outs, o)
	}
	sortOutcomes(outs)
	return outs
}
