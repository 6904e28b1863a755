// Agent reconciliation (DESIGN.md §14): with Config.Agents the service owns
// no task execution — remote node-group agents (internal/agent) do. The
// state keeps a desired-run map (which attempt should be running where), its
// start/retire effects fill per-agent outboxes, and each cycle diffs desired against the
// agent's reported actual state: missing attempts are re-issued, unknown
// ones evicted, and lifecycle events (completions, crashes) feed the cycle
// exactly where the emulated completion heap would. Every directive is
// idempotent and epoch-fenced, so redelivery after a failover is harmless
// and a deposed leader's directives bounce.
package service

import (
	"sort"

	"threesigma/internal/agent"
	"threesigma/internal/job"
)

// agentState is the reconciler's view of one remote agent. All fields are
// guarded by s.mu (the Client itself is immutable and called off the lock).
type agentState struct {
	c            *agent.Client
	appliedSeq   uint64                          // guarded by mu; highest agent event seq folded into a cycle
	outboxStarts map[job.ID]agent.StartDirective // guarded by mu; undelivered starts
	outboxEvicts map[job.ID]agent.EvictDirective // guarded by mu; undelivered evicts
	failRounds   int                             // guarded by mu; consecutive failed reconcile rounds
	dead         bool                            // guarded by mu; declared dead (partitions failed) until it returns
}

// resetAgentOutboxesLocked clears every agent's undelivered directives.
// After a snapshot install the desired map is authoritative and the next
// leader cycle's desired/actual diff re-issues exactly what is missing;
// stale pre-snapshot directives would race that diff.
func (s *Service) resetAgentOutboxesLocked() {
	for _, as := range s.agents {
		as.outboxStarts = make(map[job.ID]agent.StartDirective)
		as.outboxEvicts = make(map[job.ID]agent.EvictDirective)
	}
}

// owns reports whether the agent owns partition p.
func (as *agentState) owns(p int) bool {
	for _, q := range as.c.Partitions {
		if q == p {
			return true
		}
	}
	return false
}

// intersects reports whether an allocation touches the agent's partitions.
func (as *agentState) intersects(alloc []int) bool {
	for _, p := range as.c.Partitions {
		if p < len(alloc) && alloc[p] > 0 {
			return true
		}
	}
	return false
}

// restrict zeroes the allocation outside the agent's partitions: a job
// spanning two agents sends each a directive covering only its share.
func (as *agentState) restrict(alloc []int) []int {
	out := make([]int, len(alloc))
	for _, p := range as.c.Partitions {
		if p < len(alloc) {
			out[p] = alloc[p]
		}
	}
	return out
}

// reconcileAgents is phase A of a leader cycle: one reconcile round per
// agent, off the lock. It collects lifecycle events past each agent's
// applied watermark (the cycle's completions), detects agent death and
// recovery (surfaced as node ops so followers replay the same capacity
// transitions), and heals desired/actual drift by re-queueing lost starts
// and evicting orphaned tasks.
func (s *Service) reconcileAgents() ([]compEv, []agentOpEv) {
	var comps []compEv
	var agentOps []agentOpEv
	for _, as := range s.agents {
		s.mu.Lock()
		if s.role != RoleLeader {
			s.mu.Unlock()
			return nil, nil
		}
		req := agent.ReconcileRequest{
			Epoch: s.leaderEpoch,
			Now:   float64(s.st.Cycles+1) * s.cfg.CycleInterval,
			Ack:   as.appliedSeq,
			Reset: as.dead,
		}
		for _, d := range as.outboxEvicts {
			req.Evicts = append(req.Evicts, d)
		}
		for _, d := range as.outboxStarts {
			req.Starts = append(req.Starts, d)
		}
		sortDirectives(req.Evicts, req.Starts)
		s.mu.Unlock()

		resp, err := as.c.Reconcile(req)

		s.mu.Lock()
		if err != nil {
			if se, ok := err.(*agent.ErrStaleEpoch); ok {
				// An agent fence is proof of a newer leadership (the agent's
				// epoch is strictly above the directive's), so step down even
				// if se.Seen is stale or unset — a conditional depose would
				// leave a fenced-off zombie leading forever.
				s.stepDownLocked(se.Seen, -1)
				s.mu.Unlock()
				return nil, nil
			}
			as.failRounds++
			if !as.dead && as.failRounds >= s.cfg.AgentDeadRounds {
				as.dead = true
				s.ctl.AgentsFailed++
				for _, p := range as.c.Partitions {
					agentOps = append(agentOps, agentOpEv{
						Fail: true, Partition: p, Nodes: s.st.eng.Cluster().Partitions[p],
					})
				}
				s.cfg.Logf("agent %s dead after %d failed rounds; failing partitions %v",
					as.c.Addr, as.failRounds, as.c.Partitions)
			}
			s.mu.Unlock()
			continue
		}
		as.failRounds = 0
		if as.dead {
			// The agent answered a Reset round: it starts empty and its
			// partitions return to service.
			as.dead = false
			s.ctl.AgentsRecovered++
			for _, p := range as.c.Partitions {
				agentOps = append(agentOps, agentOpEv{
					Fail: false, Partition: p, Nodes: s.st.eng.Cluster().Partitions[p],
				})
			}
			s.cfg.Logf("agent %s recovered; partitions %v returning", as.c.Addr, as.c.Partitions)
		}
		// Outbox entries carried by this round are delivered.
		for _, d := range req.Evicts {
			delete(as.outboxEvicts, d.Job)
		}
		for _, d := range req.Starts {
			delete(as.outboxStarts, d.Job)
		}
		s.ctl.DirectivesSent += int64(len(req.Evicts) + len(req.Starts))

		// Fold fresh lifecycle events into this cycle — but only those due
		// by this cycle's logical now. The agent's clock is a high-water
		// mark across leaderships: a leader resuming at cycle j after a
		// crash at cycle k>j sees events the dead leader's reconciles
		// already fired for cycles (j, k]. Folding one early would free its
		// nodes cycles before an uninterrupted run does and fork the solver;
		// the fence holds each event (and, since the ack is a cumulative
		// watermark, everything after it) for the cycle where the reference
		// timeline folds it.
		eventful := map[job.ID]bool{}
		fenced := false
		for _, ev := range resp.Events {
			eventful[ev.Job] = true
			if ev.Seq <= as.appliedSeq {
				continue
			}
			if fenced || ev.At > req.Now {
				fenced = true
				continue
			}
			as.appliedSeq = ev.Seq
			s.ctl.EventsApplied++
			comps = append(comps, compEv{
				ID: ev.Job, RunID: ev.RunID, At: ev.At, Crash: ev.Kind == agent.EventCrashed,
			})
		}

		// Diff desired against the agent's actual state.
		running := map[job.ID]int64{}
		for _, t := range resp.Running {
			running[t.Job] = t.RunID
		}
		for id, d := range s.st.Desired {
			if !as.intersects(d.Alloc) || eventful[id] {
				continue
			}
			if run, ok := running[id]; ok && run == d.RunID {
				continue
			}
			if _, queued := as.outboxStarts[id]; queued {
				continue
			}
			as.outboxStarts[id] = as.startDirective(id, d)
			s.ctl.Reissued++
		}
		for id, run := range running {
			if d, ok := s.st.Desired[id]; ok && d.RunID == run {
				continue
			}
			if eventful[id] {
				continue
			}
			if _, queued := as.outboxEvicts[id]; !queued {
				as.outboxEvicts[id] = agent.EvictDirective{Job: id, RunID: run}
				s.ctl.OrphansEvicted++
			}
		}
		s.mu.Unlock()
	}
	// Deterministic merge across agents: events apply in (time, id) order,
	// matching the emulated completion heap.
	sort.Slice(comps, func(i, k int) bool {
		//lint:allow floateq exact tie-break: equal-bits event times fall through to the id order
		if comps[i].At != comps[k].At {
			return comps[i].At < comps[k].At
		}
		return comps[i].ID < comps[k].ID
	})
	return comps, agentOps
}

// deliverDirectives is phase F of a leader cycle: flush the outboxes born
// this cycle so remote execution sees a directive the same cycle the
// decision was made (matching the emulated path's latency). Events in the
// responses are deliberately ignored — they stay unacked at the agent and
// reappear in the next phase A, keeping all event application in one place.
func (s *Service) deliverDirectives(now float64) {
	for _, as := range s.agents {
		s.mu.Lock()
		if s.role != RoleLeader || as.dead ||
			(len(as.outboxStarts) == 0 && len(as.outboxEvicts) == 0) {
			s.mu.Unlock()
			continue
		}
		req := agent.ReconcileRequest{Epoch: s.leaderEpoch, Now: now, Ack: as.appliedSeq}
		for _, d := range as.outboxEvicts {
			req.Evicts = append(req.Evicts, d)
		}
		for _, d := range as.outboxStarts {
			req.Starts = append(req.Starts, d)
		}
		sortDirectives(req.Evicts, req.Starts)
		s.mu.Unlock()

		_, err := as.c.Reconcile(req)

		s.mu.Lock()
		if err != nil {
			if se, ok := err.(*agent.ErrStaleEpoch); ok {
				// Unconditional: see reconcileAgents.
				s.stepDownLocked(se.Seen, -1)
			}
			// Otherwise keep the outbox; the next phase A retries.
			s.mu.Unlock()
			continue
		}
		for _, d := range req.Evicts {
			delete(as.outboxEvicts, d.Job)
		}
		for _, d := range req.Starts {
			delete(as.outboxStarts, d.Job)
		}
		s.ctl.DirectivesSent += int64(len(req.Evicts) + len(req.Starts))
		s.mu.Unlock()
	}
}

func sortDirectives(evicts []agent.EvictDirective, starts []agent.StartDirective) {
	sort.Slice(evicts, func(i, k int) bool { return evicts[i].Job < evicts[k].Job })
	sort.Slice(starts, func(i, k int) bool { return starts[i].Job < starts[k].Job })
}

// startDirective is the agent's share of a desired run (a job spanning two
// agents sends each a directive covering only its partitions).
func (as *agentState) startDirective(id job.ID, d *desiredRun) agent.StartDirective {
	return agent.StartDirective{Job: id, RunID: d.RunID, Alloc: as.restrict(d.Alloc), Due: d.Due, CrashAt: d.CrashAt}
}

// queueStartLocked carries out a startRun effect: the fresh attempt goes
// into the outbox of every agent whose partitions it touches.
func (s *Service) queueStartLocked(e startRun) {
	for _, as := range s.agents {
		if as.intersects(e.run.Alloc) {
			as.outboxStarts[e.id] = as.startDirective(e.id, e.run)
		}
	}
}

// queueRetireLocked carries out a retireRun effect: an undelivered start is
// withdrawn, and with evict set the agents still holding the attempt are
// told to kill it.
func (s *Service) queueRetireLocked(e retireRun) {
	for _, as := range s.agents {
		delete(as.outboxStarts, e.id)
		if e.evict && e.run != nil && as.intersects(e.run.Alloc) {
			as.outboxEvicts[e.id] = agent.EvictDirective{Job: e.id, RunID: e.run.RunID}
		}
	}
}
