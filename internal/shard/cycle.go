package shard

import (
	"sort"
	"sync"

	"threesigma/internal/core"
	"threesigma/internal/job"
	"threesigma/internal/simulator"
)

// stopwatch times the coordinator's cycles; no decision reads it.
var stopwatch simulator.WallClock

// Cycle runs one scheduling round: work stealing and periodic rebalancing of
// flexible pending jobs, per-domain sub-snapshot construction, concurrent
// per-shard solves, a deterministic shard-index-order merge, and finally the
// coordinator's own greedy placement of cross-domain gangs on whatever
// capacity the shards left free. Shard goroutines touch only their own
// scheduler and sub-snapshot (the shared estimator serializes reads
// internally), and every coordinator policy is a pure function of snapshot
// state, so the merged decision is bitwise-identical at any worker count.
func (c *Coordinator) Cycle(st *simulator.State) simulator.Decision {
	t0 := stopwatch.Now()
	c.statsMu.Lock()
	c.cycles++
	cyc := c.cycles
	c.statsMu.Unlock()

	if c.n > 1 {
		c.steal(st)
		if c.RebalanceEvery > 0 && cyc%c.RebalanceEvery == 0 {
			c.rebalance(st)
		}
	}

	subs, spanning := c.buildSubStates(st)
	decs := make([]simulator.Decision, c.n)
	var wg sync.WaitGroup
	for i := range c.shards {
		if len(subs[i].Pending) == 0 && len(subs[i].Running) == 0 {
			continue // idle domain: nothing to decide (mirrors Sim's idle skip)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			decs[i] = c.shards[i].Cycle(subs[i])
		}(i)
	}
	wg.Wait()

	// Deterministic merge in shard-index order. The engine applies all
	// preemptions before any start, so freed nodes are visible to every
	// shard's starts and to the spanning placement below.
	dec := simulator.Decision{}
	free := st.Free.Clone()
	runAlloc := make(map[job.ID]simulator.Alloc, len(st.Running))
	for _, r := range st.Running {
		runAlloc[r.Job.ID] = r.Alloc
	}
	for i := range decs {
		for _, id := range decs[i].Preempt {
			dec.Preempt = append(dec.Preempt, id)
			for p, n := range runAlloc[id] {
				free[p] += n
			}
		}
		if decs[i].SolverLatency > dec.SolverLatency {
			dec.SolverLatency = decs[i].SolverLatency
		}
	}
	for i := range decs {
		lo := c.doms[i].Lo
		for _, a := range decs[i].Start {
			ga := make(simulator.Alloc, len(free))
			copy(ga[lo:], a.Alloc)
			for p, n := range ga {
				free[p] -= n
			}
			dec.Start = append(dec.Start, simulator.StartAction{Job: a.Job, Alloc: ga})
		}
	}
	c.placeSpanning(st, spanning, free, &dec)

	el := stopwatch.Since(t0)
	dec.CycleLatency = el
	c.statsMu.Lock()
	c.cycleTime += el
	if el > c.maxCycleTime {
		c.maxCycleTime = el
	}
	c.statsMu.Unlock()
	return dec
}

// buildSubStates slices the engine snapshot into one sub-snapshot per
// domain: local free/partition vectors, the domain's own pending shadows in
// submission order, and running shadows for every job holding nodes in the
// domain (including cross-domain gangs, which appear as non-preemptible
// running capacity in each shard they touch). Per-domain epochs are assigned
// by deep comparison so quiet domains keep their incremental-solve
// eligibility. Returns the sub-snapshots and the cross-domain pending jobs.
func (c *Coordinator) buildSubStates(st *simulator.State) ([]*simulator.State, []*job.Job) {
	subs := make([]*simulator.State, c.n)
	for i, d := range c.doms {
		subs[i] = &simulator.State{
			Now:     st.Now,
			Free:    st.Free[d.Lo:d.Hi].Clone(),
			Cluster: simulator.Cluster{Partitions: append([]int(nil), st.Cluster.Partitions[d.Lo:d.Hi]...)},
		}
	}
	var spanning []*job.Job
	for _, j := range st.Pending {
		sh := c.ownerOf(j)
		if sh == spanShard {
			spanning = append(spanning, j)
			continue
		}
		subs[sh].Pending = append(subs[sh].Pending, c.shadowFor(sh, j))
	}
	for _, r := range st.Running {
		sh := c.ownerOf(r.Job)
		if sh != spanShard {
			d := c.doms[sh]
			subs[sh].Running = append(subs[sh].Running, &simulator.RunningJob{
				Job:         c.shadowFor(sh, r.Job),
				Start:       r.Start,
				Alloc:       r.Alloc[d.Lo:d.Hi].Clone(),
				OnPreferred: r.OnPreferred,
			})
			continue
		}
		ss := c.ensureSpan(r.Job)
		for i, d := range c.doms {
			local := r.Alloc[d.Lo:d.Hi]
			if local.Total() == 0 {
				continue
			}
			ss.touched[i] = true
			subs[i].Running = append(subs[i].Running, &simulator.RunningJob{
				Job:         ss.shadow,
				Start:       r.Start,
				Alloc:       local.Clone(),
				OnPreferred: r.OnPreferred,
			})
		}
	}
	for i := range subs {
		c.epochs.Observe(i, subs[i])
	}
	return subs, spanning
}

// placeSpanning greedily places cross-domain pending gangs on the capacity
// left after the per-shard starts: SLO jobs first in EDF order, then
// best-effort in FIFO order, full gang or nothing, preferred partitions
// filled first (core.GreedyAlloc, the shards' own allocator). Hopeless SLO
// jobs (core.Config.Hopeless, the rule the shards apply) are abandoned.
func (c *Coordinator) placeSpanning(st *simulator.State, spanning []*job.Job, free simulator.Alloc, dec *simulator.Decision) {
	if len(spanning) == 0 {
		return
	}
	order := append([]*job.Job(nil), spanning...)
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := order[a], order[b]
		if ja.HasDeadline() != jb.HasDeadline() {
			return ja.HasDeadline()
		}
		if ja.HasDeadline() {
			//lint:allow floateq exact tie-break: equal deadlines fall through to submit/id order
			if ja.Deadline != jb.Deadline {
				return ja.Deadline < jb.Deadline
			}
		}
		//lint:allow floateq exact tie-break: equal submit times fall through to id order
		if ja.Submit != jb.Submit {
			return ja.Submit < jb.Submit
		}
		return ja.ID < jb.ID
	})
	for _, j := range order {
		if c.abandoned[j.ID] {
			continue
		}
		if c.cfg.Hopeless(j, st.Now) {
			c.abandoned[j.ID] = true
			c.statsMu.Lock()
			c.spanAbandons++
			c.statsMu.Unlock()
			c.logDecision(core.DecisionEvent{Time: st.Now, Kind: core.DecisionAbandon, Job: j.ID})
			continue
		}
		alloc := core.GreedyAlloc(j, free, false)
		if alloc == nil {
			continue
		}
		for p, n := range alloc {
			free[p] -= n
		}
		dec.Start = append(dec.Start, simulator.StartAction{Job: j.ID, Alloc: alloc})
		onPref := true
		for p, n := range alloc {
			if n > 0 && !j.PrefersPartition(p) {
				onPref = false
				break
			}
		}
		c.statsMu.Lock()
		c.spanStarts++
		c.statsMu.Unlock()
		c.logDecision(core.DecisionEvent{
			Time: st.Now, Kind: core.DecisionStart, Job: j.ID,
			PlannedStart: st.Now, OnPreferred: onPref,
		})
	}
}

// pendingLoad computes each shard's pending-queue length and the per-shard
// lists of movable (flexible, fully unconstrained) pending jobs in
// submission order.
func (c *Coordinator) pendingLoad(st *simulator.State) (counts []int, movable [][]*job.Job) {
	counts = make([]int, c.n)
	movable = make([][]*job.Job, c.n)
	for _, j := range st.Pending {
		sh := c.ownerOf(j)
		if sh == spanShard {
			continue
		}
		counts[sh]++
		if len(j.Preferred) == 0 {
			movable[sh] = append(movable[sh], j)
		}
	}
	return counts, movable
}

// move reassigns a flexible pending job from shard src to shard dst: the
// source forgets it (no estimator feedback), the destination adopts it. Both
// shards' next cycles see the change through their per-job dirty flags.
func (c *Coordinator) move(j *job.Job, src, dst int, now float64) {
	c.shards[src].JobRemoved(j.ID)
	c.owner[j.ID] = dst
	c.shards[dst].JobSubmitted(c.shadowFor(dst, j), now)
}

// rebalance equalizes pending-queue lengths across shards by migrating
// flexible pending jobs from the most- to the least-loaded shard until the
// spread drops below 2. The latest-submitted movable job migrates first:
// queue heads keep their position (and their accumulated EDF/FIFO priority)
// in the shard that has been considering them.
func (c *Coordinator) rebalance(st *simulator.State) {
	counts, movable := c.pendingLoad(st)
	for {
		maxSh, minSh := 0, 0
		for i := 1; i < c.n; i++ {
			if counts[i] > counts[maxSh] {
				maxSh = i
			}
			if counts[i] < counts[minSh] {
				minSh = i
			}
		}
		if counts[maxSh]-counts[minSh] < 2 {
			return
		}
		cand := movable[maxSh]
		picked := -1
		for k := len(cand) - 1; k >= 0; k-- {
			if cand[k].Tasks <= c.domNodes[minSh] {
				picked = k
				break
			}
		}
		if picked < 0 {
			return
		}
		j := cand[picked]
		movable[maxSh] = append(cand[:picked], cand[picked+1:]...)
		c.move(j, maxSh, minSh, st.Now)
		counts[maxSh]--
		counts[minSh]++
		movable[minSh] = append(movable[minSh], j)
		c.statsMu.Lock()
		c.rebalanced++
		c.statsMu.Unlock()
	}
}

// stealThreshold is the minimum flexible-pending backlog a shard must carry
// before an idle shard steals from it.
const stealThreshold = 4

// steal runs every cycle: a shard with an empty pending queue pulls the
// earliest-submitted flexible job from the shard with the deepest flexible
// backlog (at least stealThreshold deep), servicing queue heads on idle
// capacity without waiting for the periodic rebalance.
func (c *Coordinator) steal(st *simulator.State) {
	counts, movable := c.pendingLoad(st)
	for i := 0; i < c.n; i++ {
		if counts[i] != 0 {
			continue
		}
		src, depth := -1, stealThreshold-1
		for s := 0; s < c.n; s++ {
			if s != i && len(movable[s]) > depth {
				src, depth = s, len(movable[s])
			}
		}
		if src < 0 {
			continue
		}
		picked := -1
		for k := 0; k < len(movable[src]); k++ {
			if movable[src][k].Tasks <= c.domNodes[i] {
				picked = k
				break
			}
		}
		if picked < 0 {
			continue
		}
		j := movable[src][picked]
		movable[src] = append(movable[src][:picked], movable[src][picked+1:]...)
		c.move(j, src, i, st.Now)
		counts[src]--
		counts[i]++
		c.statsMu.Lock()
		c.stolen++
		c.statsMu.Unlock()
	}
}
