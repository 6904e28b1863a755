// Agent reconciliation (DESIGN.md §14): the service runs no task itself —
// agents (internal/agent) do. By default that is one agent.Agent in this
// process, owning every partition and called directly; with Config.Agents,
// remote node-group agents over HTTP. The state keeps a desired-run map
// (which attempt should be running where), its start/retire effects fill
// per-agent outboxes, and each cycle diffs desired against the agent's
// reported actual state: missing attempts are re-issued, unknown ones
// evicted, and lifecycle events (completions, crashes) are folded into the
// cycle at their exact logical times. Every directive is idempotent and
// epoch-fenced, so redelivery after a failover is harmless and a deposed
// leader's directives bounce.
package service

import (
	"errors"
	"sort"

	"threesigma/internal/agent"
	"threesigma/internal/job"
	"threesigma/internal/simulator"
)

// agentState is the reconciler's view of one agent. The first three fields
// are immutable (the Reconciler is called off the lock); the rest are
// guarded by s.mu.
type agentState struct {
	r            agent.Reconciler
	name         string                          // for log lines: the agent's address
	parts        []int                           // the partitions it owns
	appliedSeq   uint64                          // guarded by mu; highest agent event seq folded into a cycle
	outboxStarts map[job.ID]agent.StartDirective // guarded by mu; undelivered starts
	outboxEvicts map[job.ID]agent.EvictDirective // guarded by mu; undelivered evicts
	failRounds   int                             // guarded by mu; consecutive failed reconcile rounds
	dead         bool                            // guarded by mu; declared dead (partitions failed) until it returns
}

func newAgentState(r agent.Reconciler, name string, parts []int) *agentState {
	return &agentState{r: r, name: name, parts: parts,
		outboxStarts: make(map[job.ID]agent.StartDirective),
		outboxEvicts: make(map[job.ID]agent.EvictDirective)}
}

// localAgent is the agent a service without Config.Agents runs its tasks
// on: an agent.Agent in this process that owns every partition of the
// cluster, zero-node ones included, called directly instead of over HTTP.
func localAgent(c simulator.Cluster) *agentState {
	own := make(map[int]int, len(c.Partitions))
	parts := make([]int, len(c.Partitions))
	for p, n := range c.Partitions {
		own[p], parts[p] = n, p
	}
	return newAgentState(agent.New("local", own), "local", parts)
}

// refillOutboxesLocked rebuilds every agent's outboxes from the desired map
// of a state a snapshot install just swapped in: directives queued against
// the old state are void, and each agent must be handed every live run of
// the new one before it next advances. A fresh agent — the local one of a
// standby that installed the snapshot — would otherwise learn of a live run
// only from phase A's desired/actual diff, be handed it in phase F, and
// report its due event a cycle after every other timeline folds it. An
// agent that already runs the attempt takes the start as the no-op it is.
func (s *Service) refillOutboxesLocked() {
	for _, as := range s.agents {
		as.outboxStarts = make(map[job.ID]agent.StartDirective)
		as.outboxEvicts = make(map[job.ID]agent.EvictDirective)
	}
	for id, d := range s.st.Desired {
		s.queueStartLocked(startRun{id: id, run: d})
	}
}

// intersects reports whether an allocation touches the agent's partitions.
func (as *agentState) intersects(alloc []int) bool {
	for _, p := range as.parts {
		if p < len(alloc) && alloc[p] > 0 {
			return true
		}
	}
	return false
}

// startDirective is the agent's share of a desired run: the allocation
// zeroed outside its partitions, so a job spanning two agents sends each a
// directive covering only its own.
func (as *agentState) startDirective(id job.ID, d *desiredRun) agent.StartDirective {
	alloc := make([]int, len(d.Alloc))
	for _, p := range as.parts {
		if p < len(alloc) {
			alloc[p] = d.Alloc[p]
		}
	}
	return agent.StartDirective{Job: id, RunID: d.RunID, Alloc: alloc, Due: d.Due, CrashAt: d.CrashAt}
}

// round is one reconcile round with an agent at logical time now: phase
// A's, or phase F's flush, which skips a dead agent and one with nothing to
// deliver. The request carries the agent's outboxes, sorted, and goes out
// off the lock; the directives a successful round delivered leave the
// outboxes and are counted, and an epoch fence steps this replica down. It
// sends nothing (nil, nil) when this replica does not lead. Called without
// s.mu.
func (s *Service) round(as *agentState, now float64, flush bool) (*agent.ReconcileResponse, error) {
	s.mu.Lock()
	if s.role != RoleLeader || flush && (as.dead || len(as.outboxStarts)+len(as.outboxEvicts) == 0) {
		s.mu.Unlock()
		return nil, nil
	}
	req := agent.ReconcileRequest{Epoch: s.leaderEpoch, Now: now, Ack: as.appliedSeq, Reset: as.dead}
	for _, d := range as.outboxEvicts {
		req.Evicts = append(req.Evicts, d)
	}
	for _, d := range as.outboxStarts {
		req.Starts = append(req.Starts, d)
	}
	sort.Slice(req.Evicts, func(i, k int) bool { return req.Evicts[i].Job < req.Evicts[k].Job })
	sort.Slice(req.Starts, func(i, k int) bool { return req.Starts[i].Job < req.Starts[k].Job })
	s.mu.Unlock()

	resp, err := as.r.Reconcile(req)

	s.mu.Lock()
	defer s.mu.Unlock()
	var se *agent.ErrStaleEpoch
	if errors.As(err, &se) {
		// An agent fence is proof of a newer leadership (the agent's epoch
		// is strictly above the directive's), so step down even if se.Seen
		// is stale or unset — a conditional depose would leave a fenced-off
		// zombie leading forever.
		s.stepDownLocked(se.Seen, -1)
	}
	if err != nil {
		return nil, err // the outboxes keep what it carried; the next round retries
	}
	for _, d := range req.Evicts {
		delete(as.outboxEvicts, d.Job)
	}
	for _, d := range req.Starts {
		delete(as.outboxStarts, d.Job)
	}
	s.ctl.DirectivesSent += int64(len(req.Evicts) + len(req.Starts))
	return resp, nil
}

// reconcileAgents is phase A of a leader cycle at logical time now: one
// round per agent. It collects lifecycle events past each agent's applied
// watermark (the cycle's completions), detects agent death and recovery
// (surfaced as node ops so followers replay the same capacity transitions),
// and heals desired/actual drift by re-queueing lost starts and evicting
// orphaned tasks.
func (s *Service) reconcileAgents(now float64) ([]simulator.RunEnd, []agentOpEv) {
	var comps []simulator.RunEnd
	var agentOps []agentOpEv
	for _, as := range s.agents {
		resp, err := s.round(as, now, false)
		s.mu.Lock()
		if s.role != RoleLeader {
			s.mu.Unlock()
			return nil, nil
		}
		switch {
		case err != nil:
			as.failRounds++
			if !as.dead && as.failRounds >= s.cfg.AgentDeadRounds {
				as.dead = true
				s.ctl.AgentsFailed++
				agentOps = s.partitionOpsLocked(agentOps, as)
				s.cfg.Logf("agent %s dead after %d failed rounds; failing partitions %v",
					as.name, as.failRounds, as.parts)
			}
		case resp != nil:
			as.failRounds = 0
			if as.dead {
				// The agent answered a Reset round: it starts empty and its
				// partitions return to service.
				as.dead = false
				s.ctl.AgentsRecovered++
				agentOps = s.partitionOpsLocked(agentOps, as)
				s.cfg.Logf("agent %s recovered; partitions %v returning", as.name, as.parts)
			}
			comps = s.absorbLocked(comps, as, now, resp)
		}
		s.mu.Unlock()
	}
	// The cycle transition orders the events (simulator.Transition.Apply).
	return comps, agentOps
}

// partitionOpsLocked appends the node ops of an agent's death or return:
// each of its partitions fails or recovers whole.
func (s *Service) partitionOpsLocked(ops []agentOpEv, as *agentState) []agentOpEv {
	for _, p := range as.parts {
		ops = append(ops, agentOpEv{Fail: as.dead, Partition: p, Nodes: s.st.eng.Cluster().Partitions[p]})
	}
	return ops
}

// absorbLocked folds a phase-A response into the cycle: the agent's fresh
// lifecycle events are appended to comps, and its actual state is diffed
// against desired.
func (s *Service) absorbLocked(comps []simulator.RunEnd, as *agentState, now float64, resp *agent.ReconcileResponse) []simulator.RunEnd {
	// Fold only the events in this cycle's window (simulator.Due). The agent's
	// clock is a high-water mark across leaderships: a leader resuming at
	// cycle j after a crash at cycle k>j sees events the dead leader's
	// reconciles already fired for cycles (j, k]. Folding one early would
	// free its nodes cycles before an uninterrupted run does and fork the
	// solver; the fence holds each event (and, since the ack is a cumulative
	// watermark, everything after it) for the cycle where the reference
	// timeline folds it.
	eventful := map[job.ID]bool{}
	fenced := false
	for _, ev := range resp.Events {
		eventful[ev.Job] = true
		if ev.Seq <= as.appliedSeq {
			continue
		}
		if fenced || !simulator.Due(ev.At, now) {
			fenced = true
			continue
		}
		as.appliedSeq = ev.Seq
		s.ctl.EventsApplied++
		comps = append(comps, simulator.RunEnd{ID: ev.Job, RunID: ev.RunID, At: ev.At, Crash: ev.Kind == agent.EventCrashed})
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
	return comps
}

// deliverDirectives is phase F of a leader cycle: flush the outboxes born
// this cycle, so an agent starts a decision's tasks in the cycle that made
// it. Events in the responses are deliberately ignored — they stay unacked
// at the agent and reappear in the next phase A, keeping all event
// application in one place.
func (s *Service) deliverDirectives(now float64) {
	for _, as := range s.agents {
		s.round(as, now, true)
	}
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
// told to kill it — by a leader only. A follower or a replay would only
// pile up evicts for runs its agents never held, to send them all at a
// takeover whose first phase-A diff evicts any attempt still running that
// is not desired anyway.
func (s *Service) queueRetireLocked(e retireRun) {
	for _, as := range s.agents {
		delete(as.outboxStarts, e.id)
		if e.evict && e.run != nil && s.role == RoleLeader && as.intersects(e.run.Alloc) {
			as.outboxEvicts[e.id] = agent.EvictDirective{Job: e.id, RunID: e.run.RunID}
		}
	}
}
