// Package shard partitions the cluster into scheduling domains and runs one
// independent 3σSched instance per domain, with a thin deterministic
// coordinator owning every cross-shard concern (DESIGN.md §13).
//
// Domain assignment is seed-stable and host-independent: domains are
// contiguous machine-type partition ranges computed by
// simulator.PartitionDomains, and every job is routed by a pure function of
// the job itself (its preferred partitions, or ID modulo shard count for
// flexible jobs). Each shard reuses the full incremental re-solve path of
// DESIGN.md §12 — model patching, warm-started simplex, solve-quantum
// solution reuse — over its own per-domain snapshot with a per-domain epoch,
// so one busy domain no longer invalidates every other domain's warm state.
//
// The coordinator owns: gang jobs spanning domains (placed greedily on the
// capacity left over after the per-shard solves), periodic load rebalancing
// of flexible pending jobs, and work stealing into idle shards. Shard cycles
// run concurrently, but decisions are merged in shard-index order and every
// coordinator policy is a deterministic function of snapshot state, so
// results are bitwise-identical at any solver worker count.
package shard

import (
	"fmt"
	"sync"
	"time"

	"threesigma/internal/core"
	"threesigma/internal/job"
	"threesigma/internal/simulator"
)

// DefaultRebalanceEvery is the default rebalancing period in coordinator
// cycles.
const DefaultRebalanceEvery = 25

// spanState tracks one cross-domain job: its per-shard shadow (Class pinned
// to SLO so no single shard tries to preempt a job it only partially sees)
// and the set of shards whose sub-snapshots have carried it as a running
// shadow — exactly the shards holding lazily cached distribution state that
// must be dropped when the job leaves.
type spanState struct {
	shadow  *job.Job
	touched map[int]bool
}

// Coordinator drives n per-domain 3σSched instances behind the
// simulator.Scheduler interface. Like core.Scheduler, all scheduling entry
// points (JobSubmitted, Cycle, JobCompleted, JobRemoved) must run on one
// goroutine; Stats and ShardStats are safe to call concurrently with them.
type Coordinator struct {
	n        int
	doms     []simulator.Domain
	partDom  []int // partition index -> domain index
	domNodes []int // provisioned nodes per domain
	shards   []*core.Scheduler
	cfg      core.Config // proto configuration, defaults filled
	est      core.Estimator
	clock    simulator.Clock
	epochs   *simulator.DomainEpochs

	// RebalanceEvery is the load-rebalancing period in coordinator cycles
	// (default DefaultRebalanceEvery; set before the first cycle).
	RebalanceEvery int

	owner     map[job.ID]int // shard index; spanShard for cross-domain jobs
	shadows   map[job.ID]*job.Job
	span      map[job.ID]*spanState
	abandoned map[job.ID]bool // coordinator-abandoned spanning SLO jobs

	// decMu serializes the shared OnDecision callback across concurrently
	// cycling shards and the coordinator's own decision log.
	decMu sync.Mutex

	// statsMu guards the coordinator-side counters below (shard counters
	// live in the shards and are already concurrency-safe via Stats).
	statsMu      sync.Mutex
	cycles       int           // guarded by statsMu
	cycleTime    time.Duration // guarded by statsMu
	maxCycleTime time.Duration // guarded by statsMu
	spanStarts   int           // guarded by statsMu
	spanAbandons int           // guarded by statsMu
	rebalanced   int           // guarded by statsMu
	stolen       int           // guarded by statsMu
}

// spanShard is the owner-map marker for jobs no single domain can hold.
const spanShard = -1

// NewCoordinator builds a coordinator over n scheduling domains, cloning the
// prototype scheduler's configuration (and sharing its estimator) into one
// core.Scheduler per domain. The cluster fixes the domain layout; n must be
// in [1, partitions].
func NewCoordinator(proto *core.Scheduler, cluster simulator.Cluster, n int) (*Coordinator, error) {
	nParts := len(cluster.Partitions)
	if n < 1 || n > nParts {
		return nil, fmt.Errorf("shard: %d shards for %d partitions (want 1..%d)", n, nParts, nParts)
	}
	cfg := proto.Config()
	c := &Coordinator{
		n:              n,
		doms:           simulator.PartitionDomains(nParts, n),
		cfg:            cfg,
		est:            proto.Estimator(),
		clock:          cfg.Clock,
		epochs:         simulator.NewDomainEpochs(n),
		RebalanceEvery: DefaultRebalanceEvery,
		owner:          make(map[job.ID]int),
		shadows:        make(map[job.ID]*job.Job),
		span:           make(map[job.ID]*spanState),
		abandoned:      make(map[job.ID]bool),
	}
	c.partDom = make([]int, nParts)
	c.domNodes = make([]int, n)
	for i, d := range c.doms {
		for p := d.Lo; p < d.Hi; p++ {
			c.partDom[p] = i
			c.domNodes[i] += cluster.Partitions[p]
		}
	}
	shardCfg := cfg
	if cfg.OnDecision != nil {
		user := cfg.OnDecision
		shardCfg.OnDecision = func(e core.DecisionEvent) {
			c.decMu.Lock()
			defer c.decMu.Unlock()
			user(e)
		}
	}
	c.shards = make([]*core.Scheduler, n)
	for i := range c.shards {
		c.shards[i] = core.New(c.est, shardCfg)
	}
	return c, nil
}

// NumShards returns the number of scheduling domains.
func (c *Coordinator) NumShards() int { return c.n }

// Domains returns the domain layout (contiguous partition ranges).
func (c *Coordinator) Domains() []simulator.Domain {
	return append([]simulator.Domain(nil), c.doms...)
}

// SetClock re-bases the coordinator's own latency measurements and every
// shard onto the given clock (simulator.ClockAware).
func (c *Coordinator) SetClock(clk simulator.Clock) {
	if clk == nil {
		return
	}
	c.clock = clk
	for _, sh := range c.shards {
		sh.SetClock(clk)
	}
}

// classify returns the home shard for a job, or spanShard when no single
// domain can hold it: its preferred partitions cross domain boundaries, or
// its gang exceeds the domain's provisioned node count. classify is a pure
// function of the job and the (static) domain layout — routing is
// reproducible from the workload alone.
func (c *Coordinator) classify(j *job.Job) int {
	if len(j.Preferred) > 0 {
		sh := -2
		for _, p := range j.Preferred {
			if p < 0 || p >= len(c.partDom) {
				return spanShard
			}
			if sh == -2 {
				sh = c.partDom[p]
			} else if c.partDom[p] != sh {
				return spanShard
			}
		}
		if j.Tasks > c.domNodes[sh] {
			return spanShard
		}
		return sh
	}
	sh := int(uint64(j.ID) % uint64(c.n))
	if j.Tasks > c.domNodes[sh] {
		return spanShard
	}
	return sh
}

// DigestShard attributes a job to a digest shard in [0, NumShards): jobs
// with placement preferences go to the domain of their first preferred
// partition, flexible jobs to ID modulo shard count. Unlike the live owner
// map this is a pure function, so per-shard outcome digests are stable even
// for jobs the rebalancer migrated between shards (they are attributed to
// their home shard).
func (c *Coordinator) DigestShard(j *job.Job) int {
	if len(j.Preferred) > 0 {
		p := j.Preferred[0]
		if p >= 0 && p < len(c.partDom) {
			return c.partDom[p]
		}
	}
	return int(uint64(j.ID) % uint64(c.n))
}

// ownerOf returns the routed shard for the job, classifying (and recording)
// lazily for jobs never seen through JobSubmitted — e.g. jobs already
// pending when a restarted daemon attached the coordinator.
func (c *Coordinator) ownerOf(j *job.Job) int {
	if sh, ok := c.owner[j.ID]; ok {
		return sh
	}
	sh := c.classify(j)
	c.owner[j.ID] = sh
	if sh == spanShard {
		c.ensureSpan(j)
	}
	return sh
}

func (c *Coordinator) ensureSpan(j *job.Job) *spanState {
	ss := c.span[j.ID]
	if ss == nil {
		shadow := new(job.Job)
		*shadow = *j
		// A spanning job appears in a shard's sub-snapshot only as running
		// capacity. Class SLO suppresses per-shard preemption indicators (no
		// shard may evict a gang it only partially sees), and clearing
		// Preferred makes the shadow's residual-survival scaling follow the
		// engine's OnPreferred verdict rather than a partial local view.
		shadow.Class = job.SLO
		shadow.Preferred = nil
		ss = &spanState{shadow: shadow, touched: make(map[int]bool)}
		c.span[j.ID] = ss
	}
	return ss
}

// shadowFor returns the job's per-domain shadow: an identical copy whose
// preferred partitions are remapped into the owner domain's local indices.
// Every predictor-visible feature (user, name, task count) is untouched, so
// shards produce bitwise the estimates a monolithic scheduler would.
func (c *Coordinator) shadowFor(sh int, j *job.Job) *job.Job {
	if sj, ok := c.shadows[j.ID]; ok {
		return sj
	}
	sj := new(job.Job)
	*sj = *j
	if len(j.Preferred) > 0 {
		lo := c.doms[sh].Lo
		pref := make([]int, len(j.Preferred))
		for i, p := range j.Preferred {
			pref[i] = p - lo
		}
		sj.Preferred = pref
	}
	c.shadows[j.ID] = sj
	return sj
}

// JobSubmitted routes an arriving job to its home shard (estimating its
// runtime distribution there), or registers it as a cross-domain job the
// coordinator will place itself.
func (c *Coordinator) JobSubmitted(j *job.Job, now float64) {
	sh := c.classify(j)
	c.owner[j.ID] = sh
	if sh == spanShard {
		c.ensureSpan(j)
		return
	}
	c.shards[sh].JobSubmitted(c.shadowFor(sh, j), now)
}

// JobCompleted feeds the completion to the owning shard — or, for a
// cross-domain job, directly to the shared estimator — and drops all
// coordinator-side state. Shards that carried a spanning job as a running
// shadow get a JobRemoved so their lazily cached distributions go too.
func (c *Coordinator) JobCompleted(j *job.Job, baseRuntime, now float64) {
	sh := c.ownerOf(j)
	if sh == spanShard {
		c.est.Observe(j, baseRuntime)
		c.removeSpan(j.ID)
	} else {
		c.shards[sh].JobCompleted(c.shadowFor(sh, j), baseRuntime, now)
	}
	delete(c.owner, j.ID)
	delete(c.shadows, j.ID)
	delete(c.abandoned, j.ID)
}

// JobRemoved clears state for a job that left without completing (cancelled,
// or retry budget exhausted under fault injection). Nothing is fed back to
// the estimator.
func (c *Coordinator) JobRemoved(id job.ID) {
	sh, ok := c.owner[id]
	if ok && sh != spanShard {
		c.shards[sh].JobRemoved(id)
	} else {
		c.removeSpan(id)
	}
	delete(c.owner, id)
	delete(c.shadows, id)
	delete(c.abandoned, id)
}

// removeSpan fans a JobRemoved out to every shard that saw the spanning job
// as a running shadow, in shard order (determinism of the shards' dirty
// transitions), then forgets it.
func (c *Coordinator) removeSpan(id job.ID) {
	ss := c.span[id]
	if ss == nil {
		return
	}
	for i := 0; i < c.n; i++ {
		if ss.touched[i] {
			c.shards[i].JobRemoved(id)
		}
	}
	delete(c.span, id)
}

// logDecision emits a coordinator-side decision event through the same
// serialized callback the shards use.
func (c *Coordinator) logDecision(e core.DecisionEvent) {
	if c.cfg.OnDecision == nil {
		return
	}
	c.decMu.Lock()
	defer c.decMu.Unlock()
	c.cfg.OnDecision(e)
}

// Stats returns the combined scheduler statistics: shard counters summed
// (work counters, caches, patch/reuse counters), maxima taken where a sum is
// meaningless (model size, solve latency, worker-pool size), and
// cycle-latency accounting replaced by the coordinator's own end-to-end
// measurements — a coordinator cycle is one scheduling round, however many
// shard solves ran inside it. Safe to call concurrently with a running
// cycle, like core.Scheduler.Stats.
func (c *Coordinator) Stats() core.Stats {
	var out core.Stats
	for _, sh := range c.shards {
		st := sh.Stats()
		out.SolveTime += st.SolveTime
		if st.MaxSolveTime > out.MaxSolveTime {
			out.MaxSolveTime = st.MaxSolveTime
		}
		out.PredictTime += st.PredictTime
		if st.MaxPredictTime > out.MaxPredictTime {
			out.MaxPredictTime = st.MaxPredictTime
		}
		out.Predictions += st.Predictions
		if st.MaxVars > out.MaxVars {
			out.MaxVars = st.MaxVars
			out.LastModel = st.LastModel
		}
		if st.MaxRows > out.MaxRows {
			out.MaxRows = st.MaxRows
		}
		out.Preemptions += st.Preemptions
		out.Starts += st.Starts
		out.AllocFailures += st.AllocFailures
		out.Deferrals += st.Deferrals
		out.SolverNodes += st.SolverNodes
		out.SolverLPIters += st.SolverLPIters
		out.SolverProved += st.SolverProved
		out.SolverNodeCapped += st.SolverNodeCapped
		out.SolverDeadlineStops += st.SolverDeadlineStops
		out.SolverColdFallbacks += st.SolverColdFallbacks
		out.CacheHits += st.CacheHits
		out.CacheMisses += st.CacheMisses
		out.PatchedCycles += st.PatchedCycles
		out.RebuildFallbacks += st.RebuildFallbacks
		out.RowsPatched += st.RowsPatched
		out.ColsPatched += st.ColsPatched
		out.WarmBasisReuses += st.WarmBasisReuses
		out.IncumbentSeedHits += st.IncumbentSeedHits
		out.ReusedSolves += st.ReusedSolves
	}
	c.statsMu.Lock()
	out.Cycles = c.cycles
	out.CycleTime = c.cycleTime
	out.MaxCycleTime = c.maxCycleTime
	out.Starts += c.spanStarts
	c.statsMu.Unlock()
	return out
}

// ShardStats returns each shard's own statistics, indexed by shard.
func (c *Coordinator) ShardStats() []core.Stats {
	out := make([]core.Stats, c.n)
	for i, sh := range c.shards {
		out[i] = sh.Stats()
	}
	return out
}

// CoordinatorStats reports the coordinator's cross-shard activity counters.
type CoordinatorStats struct {
	SpanStarts   int `json:"span_starts"`   // cross-domain gangs started by the coordinator
	SpanAbandons int `json:"span_abandons"` // cross-domain SLO jobs abandoned as hopeless
	Rebalanced   int `json:"rebalanced"`    // flexible pending jobs moved by periodic rebalancing
	Stolen       int `json:"stolen"`        // flexible pending jobs pulled into idle shards
}

// CoordStats returns the coordinator's own activity counters.
func (c *Coordinator) CoordStats() CoordinatorStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return CoordinatorStats{
		SpanStarts:   c.spanStarts,
		SpanAbandons: c.spanAbandons,
		Rebalanced:   c.rebalanced,
		Stolen:       c.stolen,
	}
}
