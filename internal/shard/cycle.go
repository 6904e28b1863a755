package shard

import (
	"cmp"
	"runtime"
	"slices"

	"threesigma/internal/core"
	"threesigma/internal/job"
	"threesigma/internal/simulator"
)

// stopwatch times the coordinator's cycles; no decision reads it.
var stopwatch simulator.WallClock

// sub is one domain's cycle storage, reused from cycle to cycle: the
// sub-snapshot handed to the domain's scheduler and what it is built from.
// The coordinator routes jobs into it (pending shadows, running references);
// the domain's worker fills in the rest and runs the shard's cycle on it.
type sub struct {
	st     simulator.State
	refs   []runRef               // running jobs holding nodes in the domain, in snapshot order
	runs   []simulator.RunningJob // their shadows; st.Running points into it
	allocs []int                  // slab behind the shadows' local Allocs
	dec    simulator.Decision     // the last cycle's decision (zero when idle)
}

// runRef is a running job as a domain sees it: its index in the engine
// snapshot's Running and the shadow that stands for it in the domain.
type runRef struct {
	src    int
	shadow *job.Job
}

// Cycle runs one scheduling round: work stealing and periodic rebalancing of
// flexible pending jobs, routing of every job into its domain's
// sub-snapshot, concurrent per-domain cycles, a deterministic
// shard-index-order merge, and finally the coordinator's own greedy
// placement of cross-domain gangs on whatever capacity the shards left free.
//
// Domain cycles run on min(GOMAXPROCS, busy domains) workers, the calling
// goroutine among them, which take the busy domains longest previous cycle
// first. A worker fills its domain's sub-snapshot and runs the domain's
// scheduler on it; it touches only that domain's storage and scheduler (the
// shared estimator serializes reads internally). An idle domain is neither
// filled nor cycled. The merge reads the decisions in shard-index order, and
// every coordinator policy is a pure function of snapshot state, so the
// merged decision is bitwise-identical at any GOMAXPROCS and whichever domain
// finishes first.
//
// Lifetime: a domain's sub-snapshot — its State, Pending and Running slices,
// the RunningJob shadows and their Allocs — is the coordinator's storage and
// is valid until the next Cycle, which refills it; this is the rule
// core.Scheduler's builder already follows for its own cycle storage, and
// the scheduler keeps nothing from a snapshot past its cycle but job IDs,
// the job shadows, which the coordinator owns for the job's lifetime, and
// its snapshot fingerprint, which is a copy. The returned Decision is the
// caller's: nothing in it is reused.
func (c *Coordinator) Cycle(st *simulator.State) simulator.Decision {
	t0 := stopwatch.Now()
	c.statsMu.Lock()
	c.cycles++
	cyc := c.cycles
	c.statsMu.Unlock()

	if c.n > 1 {
		c.steal(st)
		if cyc%rebalanceEvery == 0 {
			c.rebalance(st)
		}
	}

	c.route(st)
	c.order = c.order[:0]
	for i := range c.subs {
		sb := &c.subs[i]
		if len(sb.st.Pending) == 0 && len(sb.refs) == 0 {
			// Idle domain: nothing to decide (mirrors Sim's idle skip).
			sb.dec = simulator.Decision{}
			continue
		}
		c.order = append(c.order, i)
	}
	// Longest previous cycle first (an idle domain's decision is zero).
	slices.SortFunc(c.order, func(a, b int) int {
		if la, lb := c.subs[a].dec.CycleLatency, c.subs[b].dec.CycleLatency; la != lb {
			return cmp.Compare(lb, la)
		}
		return a - b
	})
	c.cur = st
	c.next.Store(0)
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(c.order)); w++ {
		c.wg.Add(1)
		go domainWorker()
		domainWorkers <- c
	}
	c.work()
	c.wg.Wait()
	c.cur = nil

	dec := c.merge(st)

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

// domainWorkers hands a coordinator to a worker goroutine. A goroutine
// started on a closure allocates the closure; one started on a plain
// function allocates nothing, so Cycle's extra workers take their
// coordinator from here. Any worker may take any coordinator's turn: a
// coordinator sends once for each worker it has started, so every send finds
// a receiver. The buffer lets the coordinator go on to its own domains
// without waiting for a worker's thread to be scheduled; 64 covers the
// workers of any GOMAXPROCS this runs at, and past it a send only waits for
// a started worker to receive.
var domainWorkers = make(chan *Coordinator, 64)

func domainWorker() {
	c := <-domainWorkers
	c.work()
	c.wg.Done()
}

// work runs busy domains' cycles on the cycle's snapshot, taking them from
// c.order until none is left.
func (c *Coordinator) work() {
	st := c.cur
	for {
		k := int(c.next.Add(1)) - 1
		if k >= len(c.order) {
			return
		}
		i := c.order[k]
		sb := &c.subs[i]
		c.fill(i, st)
		sb.dec = c.shards[i].Cycle(&sb.st)
	}
}

// route sorts the engine snapshot's jobs into the domains: each domain's own
// pending shadows in submission order, and a reference for every running job
// holding nodes in the domain — including cross-domain gangs, which appear as
// non-preemptible running capacity in each shard they touch. Cross-domain
// pending jobs are collected in c.spanning. Routing reads and writes the
// coordinator's job maps, so it runs before the workers start.
func (c *Coordinator) route(st *simulator.State) {
	for i := range c.subs {
		c.subs[i].st.Pending = c.subs[i].st.Pending[:0]
		c.subs[i].refs = c.subs[i].refs[:0]
	}
	c.spanning = c.spanning[:0]
	for _, j := range st.Pending {
		sh := c.ownerOf(j)
		if sh == spanShard {
			c.spanning = append(c.spanning, j)
			continue
		}
		sb := &c.subs[sh]
		sb.st.Pending = append(sb.st.Pending, c.shadowFor(sh, j))
	}
	for k, r := range st.Running {
		sh := c.ownerOf(r.Job)
		if sh != spanShard {
			sb := &c.subs[sh]
			sb.refs = append(sb.refs, runRef{src: k, shadow: c.shadowFor(sh, r.Job)})
			continue
		}
		ss := c.ensureSpan(r.Job)
		for i, d := range c.doms {
			if r.Alloc[d.Lo:d.Hi].Total() == 0 {
				continue
			}
			ss.touched[i] = true
			c.subs[i].refs = append(c.subs[i].refs, runRef{src: k, shadow: ss.shadow})
		}
	}
}

// fill completes domain i's sub-snapshot from the engine snapshot: local
// free and partition vectors, and a running shadow with the domain's slice
// of the allocation for every routed running job. The domain's scheduler
// tells a quiet cycle from it by comparing it with the last one it built
// from (DESIGN.md §12).
func (c *Coordinator) fill(i int, st *simulator.State) {
	sb, d := &c.subs[i], c.doms[i]
	sub := &sb.st
	sub.Now = st.Now
	sub.Free = append(sub.Free[:0], st.Free[d.Lo:d.Hi]...)
	sub.Cluster.Partitions = append(sub.Cluster.Partitions[:0], st.Cluster.Partitions[d.Lo:d.Hi]...)
	np := d.NumParts()
	sb.allocs = slices.Grow(sb.allocs[:0], len(sb.refs)*np)[:len(sb.refs)*np]
	sb.runs = slices.Grow(sb.runs[:0], len(sb.refs))[:len(sb.refs)]
	sub.Running = sub.Running[:0]
	for k, ref := range sb.refs {
		r := st.Running[ref.src]
		local := simulator.Alloc(sb.allocs[k*np : (k+1)*np : (k+1)*np])
		copy(local, r.Alloc[d.Lo:d.Hi])
		sb.runs[k] = simulator.RunningJob{Job: ref.shadow, Start: r.Start, Alloc: local, OnPreferred: r.OnPreferred}
		sub.Running = append(sub.Running, &sb.runs[k])
	}
}

// merge combines the domains' decisions in shard-index order. The engine
// applies all preemptions before any start, so freed nodes are visible to
// every shard's starts and to the spanning placement.
func (c *Coordinator) merge(st *simulator.State) simulator.Decision {
	dec := simulator.Decision{}
	nPreempt, nStart := 0, 0
	for i := range c.subs {
		nPreempt += len(c.subs[i].dec.Preempt)
		nStart += len(c.subs[i].dec.Start)
	}
	if nPreempt > 0 {
		dec.Preempt = make([]job.ID, 0, nPreempt)
	}
	if nStart+len(c.spanning) > 0 {
		dec.Start = make([]simulator.StartAction, 0, nStart+len(c.spanning))
	}
	free := append(c.free[:0], st.Free...)
	c.free = free
	for i := range c.subs {
		sb := &c.subs[i]
		for _, id := range sb.dec.Preempt {
			dec.Preempt = append(dec.Preempt, id)
			for _, ref := range sb.refs {
				if ref.shadow.ID == id {
					for p, n := range st.Running[ref.src].Alloc {
						free[p] += n
					}
					break
				}
			}
		}
		if sb.dec.SolverLatency > dec.SolverLatency {
			dec.SolverLatency = sb.dec.SolverLatency
		}
	}
	// Every start's global allocation comes out of one slab.
	slab := make([]int, nStart*len(free))
	for i := range c.subs {
		lo := c.doms[i].Lo
		for _, a := range c.subs[i].dec.Start {
			ga := simulator.Alloc(slab[:len(free):len(free)])
			slab = slab[len(free):]
			copy(ga[lo:], a.Alloc)
			for p, n := range ga {
				free[p] -= n
			}
			dec.Start = append(dec.Start, simulator.StartAction{Job: a.Job, Alloc: ga})
		}
	}
	c.placeSpanning(st, c.spanning, free, &dec)
	return dec
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
	// spanning is the coordinator's scratch: it is sorted in place.
	slices.SortStableFunc(spanning, func(ja, jb *job.Job) int {
		if ja.HasDeadline() != jb.HasDeadline() {
			if ja.HasDeadline() {
				return -1
			}
			return 1
		}
		if ja.HasDeadline() {
			if o := cmp.Compare(ja.Deadline, jb.Deadline); o != 0 {
				return o
			}
		}
		if o := cmp.Compare(ja.Submit, jb.Submit); o != 0 {
			return o
		}
		return cmp.Compare(ja.ID, jb.ID)
	})
	for _, j := range spanning {
		if c.abandoned[j.ID] {
			continue
		}
		if core.Hopeless(j, st.Now) {
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
// submission order, in the coordinator's scratch.
func (c *Coordinator) pendingLoad(st *simulator.State) (counts []int, movable [][]*job.Job) {
	counts, movable = c.counts, c.movable
	clear(counts)
	for i := range movable {
		movable[i] = movable[i][:0]
	}
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
