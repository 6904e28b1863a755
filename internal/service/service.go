// Package service is the online face of 3σSched: a daemon that wraps a
// scheduler and 3σPredict behind a JSON HTTP API (see cmd/3sigma-serverd).
// It drives the same cluster Engine as the discrete-event simulator, in
// periodic cycles: submissions arrive through a bounded admission queue with
// backpressure, and the scheduler only decides — node-group agents
// (internal/agent) run the tasks, each completing once logical time passes
// its runtime, the way the paper's YARN testbed runs what 3σSched places.
//
// Cycles are deterministic (DESIGN.md §14): cycle k executes at logical time
// k·CycleInterval whatever the wall clock does. A wall-clock ticker paces
// them every CycleInterval/TimeScale seconds, so a multi-hour workload can be
// replayed against a live daemon in minutes (cmd/3sigma-loadgen's -speedup
// must match), but no decision reads the wall: submissions carry submit_at
// stamps (an unstamped one gets the time of the cycle in flight) and are
// admitted in (Submit, ID) order once their logical time arrives, and
// cancels, trains and operator node actions are validated on arrival and
// take effect at the next cycle boundary. Every such input and every cycle
// decision is a record — appended to an append-only hash-chained log
// (internal/replog), synchronously replicated to standby replicas and
// replayed on restart — so a warm standby that takes over after a leader
// kill -9 resumes with a bitwise-identical outcome digest, and a restarted
// daemon predicts exactly as the one that was stopped: the log, with its
// snapshot records, is the one way state persists (given no Config.Log, the
// service keeps one in memory, and a restart is cold). The service is a pure
// reconciler that diffs desired against actual state and issues idempotent
// epoch-fenced directives (reconcile.go) — to one agent in its own process,
// or to remote agent daemons (Config.Agents).
//
// Everything the replicas must agree on is one value, state (state.go),
// changed only by applying log records and running cycles through its
// methods; the rest of the package is the shell around it (DESIGN.md §14,
// "State machine").
package service

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"threesigma/internal/agent"
	"threesigma/internal/core"
	"threesigma/internal/faults"
	"threesigma/internal/job"
	"threesigma/internal/metrics"
	"threesigma/internal/predictor"
	"threesigma/internal/replog"
	"threesigma/internal/simulator"
)

// Config assembles a Service. Scheduler and Cluster are required.
type Config struct {
	Cluster   simulator.Cluster
	Scheduler simulator.Scheduler
	// Predictor, when non-nil, enables the /v1/predict endpoint. It must be
	// the same instance the Scheduler estimates from: its history is part
	// of the replicated state, replayed from the Log on a warm restart.
	Predictor *predictor.Predictor

	// CycleInterval is the scheduling period in virtual seconds
	// (default 10): cycle k runs at logical time k·CycleInterval, and
	// cycles fire every CycleInterval/TimeScale wall seconds.
	CycleInterval float64
	// TimeScale is the virtual-seconds-per-wall-second replay speed
	// (default 1: real time). It paces the cycle ticker and nothing else.
	TimeScale float64

	// QueueCap bounds the admission queue; submissions beyond it are
	// rejected with 429 + Retry-After (default 256).
	QueueCap int

	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)

	// Clock is the shell's time source (default simulator.WallClock): uptime,
	// leader and follower leases, quorum-wait deadlines and the
	// mean_cycle_ms measurement of Scheduler.Cycle are read through it. It
	// feeds no scheduling decision — cycles run on logical time and the
	// solver is bounded by its node cap — and the cycle ticker and drain
	// timeout stay on real time.
	Clock simulator.Clock

	// Faults, when non-nil, runs a chaos injector inside the scheduling
	// loop: a deterministic node crash/recover schedule (over virtual time,
	// Faults.Horizon seconds long) plus per-attempt job crashes and
	// straggler slowdowns. Operators can also fail/recover/drain nodes
	// directly via the /v1/nodes endpoints regardless of this setting.
	Faults *faults.Config

	// --- distributed control plane (DESIGN.md §14) ---

	// Log records every replay-relevant input and cycle decision in an
	// append-only hash-chained log. On New, a non-empty log is replayed into
	// the engine/scheduler/predictor before the service starts (warm
	// restart). Nil: New opens an in-memory log of its own, which keeps no
	// more than the records since the last cycle (DESIGN.md §14).
	Log *replog.Log

	// ReplicaID identifies this replica in Peers; Peers maps every replica
	// of the group (including this one) to its base URL. With Peers set the
	// service starts as a follower and runs lease-based leader election:
	// the lowest live replica ID leads, bumping the epoch on takeover.
	ReplicaID int
	Peers     map[int]string

	// LeaseInterval bounds failover detection: a follower that has not
	// heard from a leader (log push or status poll) for a full lease starts
	// an election (default 2s).
	LeaseInterval time.Duration

	// SubmitSyncTimeout bounds how long an input append waits for quorum
	// acknowledgement before proceeding anyway (counted in
	// Metrics.ReplLagTimeouts; default 2s).
	SubmitSyncTimeout time.Duration

	// Quorum is how many replica logs (the leader's included) must hold a
	// record before Submit reports it replicated, and the minimum group
	// visibility a candidate needs to stand for election. 0 defaults to a
	// majority of Peers (⌈(N+1)/2⌉ for N replicas), or 1 without Peers.
	// Setting 1 in a multi-replica group trades durability for
	// availability: a lone survivor keeps acking and can elect itself.
	Quorum int

	// CompactEvery, when > 0, makes the leader append a full-state snapshot
	// record every CompactEvery cycles and truncate the log below it once
	// every live follower holds the record (DESIGN.md §14). Requires Log and
	// a scheduler with exportable state (core.Scheduler; baselines and the
	// sharded coordinator are not).
	CompactEvery int64

	// Agents, when non-empty, runs the tasks on remote node-group agents
	// instead of one agent.Agent in this process that owns the whole
	// cluster. The agents' partitions must exactly cover the cluster's.
	Agents []*agent.Client

	// AgentDeadRounds is how many consecutive failed reconcile rounds
	// declare an agent dead (its partitions fail, evicting its tasks into
	// the retry path; default 3).
	AgentDeadRounds int

	// Deprecated: ignored; every Service runs deterministic cycles.
	DetCycles bool
}

func (c *Config) fill() error {
	if c.Scheduler == nil {
		return fmt.Errorf("service: Config.Scheduler is required")
	}
	if c.Cluster.TotalNodes() <= 0 {
		return fmt.Errorf("service: Config.Cluster has no nodes")
	}
	if c.CycleInterval <= 0 {
		c.CycleInterval = 10
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Clock == nil {
		c.Clock = simulator.WallClock{}
	}
	if c.LeaseInterval <= 0 {
		c.LeaseInterval = 2 * time.Second
	}
	if c.SubmitSyncTimeout <= 0 {
		c.SubmitSyncTimeout = 2 * time.Second
	}
	if c.AgentDeadRounds <= 0 {
		c.AgentDeadRounds = 3
	}
	if len(c.Peers) > 0 {
		if c.Log == nil {
			return fmt.Errorf("service: Peers require a replicated Log")
		}
		if _, ok := c.Peers[c.ReplicaID]; !ok {
			return fmt.Errorf("service: ReplicaID %d missing from Peers", c.ReplicaID)
		}
	}
	if c.Quorum < 0 {
		return fmt.Errorf("service: Quorum must be >= 0")
	}
	if len(c.Peers) > 0 && c.Quorum > len(c.Peers) {
		return fmt.Errorf("service: Quorum %d exceeds the %d-replica group", c.Quorum, len(c.Peers))
	}
	if c.Quorum == 0 {
		if n := len(c.Peers); n > 0 {
			c.Quorum = n/2 + 1
		} else {
			c.Quorum = 1
		}
	}
	if c.CompactEvery > 0 {
		if c.Log == nil {
			return fmt.Errorf("service: CompactEvery requires a Log to compact")
		}
		if _, ok := c.Scheduler.(stateSnapshotter); !ok {
			return fmt.Errorf("service: CompactEvery requires a scheduler with exportable state, not %T", c.Scheduler)
		}
	}
	if len(c.Agents) > 0 {
		covered := map[int]bool{}
		for _, a := range c.Agents {
			for _, p := range a.Partitions {
				if covered[p] {
					return fmt.Errorf("service: partition %d owned by two agents", p)
				}
				covered[p] = true
			}
		}
		for p := range c.Cluster.Partitions {
			if !covered[p] {
				return fmt.Errorf("service: partition %d not owned by any agent", p)
			}
		}
		if len(covered) != len(c.Cluster.Partitions) {
			return fmt.Errorf("service: agents own %d partitions, cluster has %d", len(covered), len(c.Cluster.Partitions))
		}
	}
	return nil
}

// Role is a replica's position in the control-plane group.
type Role string

// Replica roles. A single-replica service (no Peers) is always the leader.
const (
	RoleLeader   Role = "leader"
	RoleFollower Role = "follower"
)

// statser is implemented by core.Scheduler; greedy baselines are exempt.
type statser interface{ Stats() core.Stats }

// shardStatser is implemented by the shard coordinator: per-domain scheduler
// counters alongside the combined Stats view (DESIGN.md §13).
type shardStatser interface{ ShardStats() []core.Stats }

// ControlCounters are the control plane's cumulative counters.
type ControlCounters struct {
	Elections        int64 `json:"elections"`         // leaderships assumed by this replica
	ReplLagTimeouts  int64 `json:"repl_lag_timeouts"` // input appends that outwaited a follower ack
	Diverged         int64 `json:"diverged"`          // chain/epoch/predictor-hash mismatches observed
	RecordsApplied   int64 `json:"records_applied"`   // log records applied as a follower (or replayed)
	DirectivesSent   int64 `json:"directives_sent"`   // start+evict directives delivered to agents
	EventsApplied    int64 `json:"events_applied"`    // agent lifecycle events applied
	Reissued         int64 `json:"reissued"`          // starts re-issued after a desired/actual diff
	OrphansEvicted   int64 `json:"orphans_evicted"`   // agent tasks evicted as unknown to the scheduler
	AgentsFailed     int64 `json:"agents_failed"`     // agents declared dead
	AgentsRecovered  int64 `json:"agents_recovered"`  // dead agents re-adopted (reset + recover)
	Snapshots        int64 `json:"snapshots"`         // full-state snapshot records appended (leader)
	SnapshotFailures int64 `json:"snapshot_failures"` // snapshots not exported or appended (one beyond replog.MaxRecordBytes lands here every time: the log can no longer compact)
	Compactions      int64 `json:"compactions"`       // log truncations below a snapshot
	SnapshotInstalls int64 `json:"snapshot_installs"` // snapshots installed for catch-up (follower)
}

// Service is one running daemon instance. Create with New, start with
// Start, stop with Stop; the HTTP handler is Handler.
//
// It is a shell around one replicated state machine (state.go; DESIGN.md §14
// "State machine"): the shell owns HTTP, validation, the decision log and its
// fsyncs, quorum waits, election, agent round-trips, timers, logging and the
// only mutex; everything the replicas of a group must agree on lives in st
// and changes only through st's methods.
type Service struct {
	cfg   Config
	epoch time.Time // wall time of Start

	mu       sync.Mutex
	st       *state   // guarded by mu; the replicated state, swapped whole by a snapshot install
	draining bool     // guarded by mu
	refused  Counters // guarded by mu; Rejected and Invalid only: submits this replica turned away, which no record carries

	// Scheduler.Cycle time on Config.Clock over the cycles this replica
	// solved (Metrics.MeanCycleMS).
	solveTime time.Duration // guarded by mu
	solves    int64         // guarded by mu

	// Distributed control plane (DESIGN.md §14).
	log         *replog.Log // Config.Log, or the in-memory log New opened
	role        Role        // guarded by mu
	leaderEpoch uint64      // guarded by mu; current leader epoch (ours when leading)
	leaderID    int         // guarded by mu; last known leader replica (-1 unknown)
	lastLeader  time.Time   // guarded by mu; Clock time of last leader contact
	// cycleRec is the cycle record the leader is building: non-nil while the
	// state sits between a cycle's top and its decision. Until it lands,
	// depositions back off — a replication push or status poll that proves a
	// newer epoch waits for the cycle (see handleReplogAppend) — and abandons
	// out of the solve are collected into it.
	cycleRec  *cyclePayload   // guarded by mu
	agents    []*agentState   // immutable after New; agentState marks the fields mu guards
	followers []*followerConn // guarded by mu (appended on takeover); conns have own locks
	ctl       ControlCounters // guarded by mu

	// ackWake is the quorum waiters' broadcast: closed and replaced by
	// wakeWaitersLocked whenever something waitReplicated's verdict depends
	// on may have changed (a follower's ack advanced, the role flipped, Stop).
	ackWake chan struct{} // guarded by mu

	// pendingCompact is the sequence of the newest snapshot record the log
	// has not been compacted to yet (0: none). The compactor goroutine
	// settles it off the lock once no lease-live follower is short of it.
	pendingCompact uint64        // guarded by mu
	compactWake    chan struct{} // capacity 1: level-triggered, like followerConn.notify
	compactDone    chan struct{} // closed when the compactor goroutine has exited

	// logBase is the log's compaction base as this service has settled it:
	// moved in the same hold of mu that counts the compaction (or installs
	// the snapshot) that moved the log's, so /v1/metrics never shows a new
	// log_base beside the old compactions count. The log's own base moves
	// earlier, inside Compact, off mu.
	logBase uint64 // guarded by mu

	started   bool
	stopped   bool // guarded by mu; stop channel closed (Stop called)
	stop      chan struct{}
	loopDone  chan struct{} // closed when the loop has run the final cycle and the hand-off
	electDone chan struct{}
	electWake chan struct{} // capacity 1: a resign asks for an election tick now
}

// New builds a Service. A non-empty Config.Log is replayed into the state
// before the service accepts any work.
func New(cfg Config) (*Service, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	e := env{sched: cfg.Scheduler, pred: cfg.Predictor}
	if cfg.Faults != nil {
		e.inj = faults.New(*cfg.Faults, cfg.Cluster.Partitions, 0)
		cfg.Logf("chaos injector armed: %d node-lifecycle events over %.0fs virtual",
			len(e.inj.Events()), e.inj.Config().Horizon)
	}
	var agents []*agentState
	if len(cfg.Agents) == 0 {
		agents = append(agents, localAgent(cfg.Cluster))
	}
	for _, c := range cfg.Agents {
		agents = append(agents, newAgentState(c, c.Addr, c.Partitions))
	}
	s := &Service{
		cfg:         cfg,
		st:          newState(e, cfg.Cluster),
		log:         cfg.Log,
		leaderID:    -1,
		agents:      agents,
		stop:        make(chan struct{}),
		loopDone:    make(chan struct{}),
		electDone:   make(chan struct{}),
		electWake:   make(chan struct{}, 1),
		ackWake:     make(chan struct{}),
		compactWake: make(chan struct{}, 1),
		compactDone: make(chan struct{}),
	}
	if cfg.Log == nil {
		s.log, _ = replog.Open("") // in memory: cannot fail
	}
	if s.log.Len() > 0 {
		if _, err := s.bootstrapReplay(); err != nil {
			return nil, fmt.Errorf("service: replay decision log: %w", err)
		}
	}
	return s, nil
}

// Start launches the scheduling loop. It may be called once. A replica with
// Peers starts as a follower and joins leader election; otherwise the
// service leads immediately, bumping the log epoch.
func (s *Service) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	s.epoch = s.cfg.Clock.Now()
	if len(s.cfg.Peers) > 0 {
		s.role = RoleFollower
		s.lastLeader = s.cfg.Clock.Now()
		go s.electionLoop()
	} else {
		close(s.electDone)
		s.takeoverLocked(0)
	}
	go s.loop()
	go s.compactLoop()
}

// BeginDrain flips the service into draining mode without stopping the
// scheduling loop: new submissions are refused with 503 and Ready reports
// false (so /readyz tells load balancers to stop routing here), while
// admitted work keeps cycling until Stop. Idempotent.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.cfg.Logf("draining: submissions refused, readiness withdrawn")
	}
}

// Ready reports whether the service accepts new work: started, not
// draining, and — in a replica group — currently the leader (followers
// answer /readyz with 503 so load balancers route submissions to the
// leader). Liveness (/healthz) stays true through a drain and on followers.
func (s *Service) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started && !s.draining && s.role == RoleLeader
}

// Role returns the replica's current role, leader epoch, and last known
// leader replica ID (-1 when unknown).
func (s *Service) Role() (Role, uint64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.role, s.leaderEpoch, s.leaderID
}

// IsLeader reports whether this replica currently leads.
func (s *Service) IsLeader() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.role == RoleLeader
}

// Stop drains the service: every input is refused from now on, the in-flight
// cycle finishes and one final cycle runs. A leader in a replica group then
// hands off (handOff): its log reaches every follower it can, and they elect
// a successor without waiting out its lease. It blocks until the loop has
// exited (or timeout elapses; 0 means wait forever).
func (s *Service) Stop(timeout time.Duration) error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return nil
	}
	already := s.stopped
	s.stopped = true
	s.draining = true
	// A submit still waiting for its quorum reports the gap now instead of
	// when the followers' leases lapse; the hand-off does not wait for it.
	s.wakeWaitersLocked()
	s.mu.Unlock()
	if !already {
		close(s.stop)
	}
	if timeout <= 0 {
		<-s.loopDone
		<-s.electDone
		<-s.compactDone
		return nil
	}
	select {
	case <-s.loopDone:
		<-s.electDone
		<-s.compactDone
		return nil
	//lint:allow wallclock the drain timeout bounds real shutdown latency; it must fire on the wall even if the virtual clock stands still
	case <-time.After(timeout):
		return fmt.Errorf("service: loop did not drain within %v", timeout)
	}
}

// cycleWall is the wall-clock scheduling period.
func (s *Service) cycleWall() time.Duration {
	return time.Duration(s.cfg.CycleInterval / s.cfg.TimeScale * float64(time.Second))
}

func (s *Service) loop() {
	defer close(s.loopDone)
	ticker := time.NewTicker(s.cycleWall())
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			// One final cycle applies whatever is already admitted, and
			// the hand-off pushes it to the followers. Followers skip both:
			// their state is the leader's replica.
			if s.IsLeader() {
				s.runCycle()
				s.handOff()
			}
			s.mu.Lock()
			c, cyc := s.st.Counters, s.st.Cycles
			s.mu.Unlock()
			s.cfg.Logf("drained: %d completed, %d cancelled, %d cycles", c.Completed, c.Cancelled, cyc)
			return
		case <-ticker.C:
			if !s.IsLeader() {
				continue // follower: state advances via replicated records
			}
			s.runCycle()
		}
	}
}

// runCycle is one scheduling round on the leader: reconcile the agents, run
// the state machine's cycle top, solve on the snapshot it returns with the
// lock released, run the cycle's second half on the decision, append the
// cycle record — from which every other replica replays both halves in one
// apply — and deliver fresh directives. All scheduler methods are invoked
// from this goroutine only (while leading; a follower applies records from
// the replication handler, and the roles hand over under mu).
func (s *Service) runCycle() {
	// The cycle's logical time, fixed before anything runs at it: cycle k
	// runs at k·CycleInterval, so a wall-clock pause (a failover, a slow
	// solve) costs zero virtual time.
	s.mu.Lock()
	p := &cyclePayload{Now: float64(s.st.Cycles+1) * s.cfg.CycleInterval}
	s.mu.Unlock()

	// Agent reconcile rounds run before the cycle body, off the lock: they
	// collect lifecycle events (completions/crashes at exact logical times)
	// and flush any directives a previous round failed to deliver.
	p.Comps, p.AgentOps = s.reconcileAgents(p.Now)

	s.mu.Lock()
	if s.role != RoleLeader {
		s.mu.Unlock() // deposed between the tick and here
		return
	}
	p.InputsThrough = s.log.Len()
	s.cycleRec = p
	snap, fx := s.st.cycleTop(p)
	s.runEffectsLocked(fx)
	s.mu.Unlock()

	// The solve runs unlocked: handlers may submit, cancel or resize
	// concurrently, and whatever they log waits for the next cycle's top.
	// Config.Clock times it.
	t0 := s.cfg.Clock.Now()
	dec := s.cfg.Scheduler.Cycle(snap)
	took := s.cfg.Clock.Since(t0)

	s.mu.Lock()
	s.solveTime += took
	s.solves++
	p.Preempts, p.Starts = dec.Preempt, dec.Start
	s.runEffectsLocked(s.st.cycleDecide(p.Now, p.Preempts, p.Starts))
	p.EngineEpoch = s.st.eng.Epoch()
	s.cycleRec = nil
	if _, err := s.log.Append(s.leaderEpoch, replog.TypeCycle, s.st.Cycles, p); err != nil {
		s.cfg.Logf("append cycle record: %v", err)
	}
	if s.cfg.Log == nil {
		// New's own log: all applied, read by nobody else, and in memory, so
		// Forget never refuses.
		_ = s.log.Forget()
	}
	// Snapshot on the cycle boundary, in the same hold of the lock as the
	// cycle record: the snapshot captures exactly the state that record left
	// behind. Compacting below it waits for the followers (settleCompaction).
	if s.cfg.CompactEvery > 0 && s.st.Cycles%s.cfg.CompactEvery == 0 {
		s.snapshotLocked()
	}
	// Every cycle re-examines an unsettled compaction: a follower that held
	// it back may have let its lease lapse since, which no ack announces.
	s.wakeCompactorLocked()
	s.mu.Unlock()
	s.notifyFollowers()

	// Deliver directives born this cycle right away: an agent starts a
	// decision's tasks in the cycle that made it, and reports each due event
	// in the first phase A at or after its time.
	s.deliverDirectives(p.Now)
}

// inputLocked is inputsLocked for one payload, which it JSON-encodes.
func (s *Service) inputLocked(typ string, payload any) (uint64, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return 0, &SubmitError{Code: 500, Msg: fmt.Sprintf("encode %s record: %v", typ, err)}
	}
	return s.inputsLocked(typ, data)
}

// inputsLocked is every leader-side input's way into the state: one record
// per encoded payload, appended to the decision log as one group commit (a
// single fsync), and then applied by the very call a follower's push
// handler, bootstrap replay and snapshot catch-up make. It returns the last
// record's seq for the caller to wait on.
func (s *Service) inputsLocked(typ string, payloads ...[]byte) (uint64, error) {
	recs, err := s.log.AppendBatch(s.leaderEpoch, typ, s.st.Cycles, payloads)
	if err != nil {
		return 0, &SubmitError{Code: 500, Msg: fmt.Sprintf("append %s record: %v", typ, err)}
	}
	for _, rec := range recs {
		if err := s.applyRecordLocked(rec); err != nil {
			// The shell built the payload: not applying it is a bug here, not
			// bad input. The record is logged, so say so loudly.
			s.cfg.Logf("apply own %s record %d: %v", typ, rec.Seq, err)
			return 0, &SubmitError{Code: 500, Msg: err.Error()}
		}
	}
	s.notifyFollowersLocked()
	return recs[len(recs)-1].Seq, nil
}

// applyRecordLocked runs one log record through the state machine and
// carries out the effects it returns.
func (s *Service) applyRecordLocked(rec replog.Record) error {
	fx, err := s.st.apply(rec)
	if err != nil {
		return err
	}
	s.runEffectsLocked(fx)
	return nil
}

// runEffectsLocked carries out what a state transition asked for, in order:
// log lines, counted divergences, agent outbox entries (reconcile.go), and
// the two record types whose consequence is the shell's to draw.
func (s *Service) runEffectsLocked(fx []effect) {
	for _, e := range fx {
		switch e := e.(type) {
		case logLine:
			s.cfg.Logf("%s", string(e))
		case divergence:
			s.ctl.Diverged++
			s.cfg.Logf("DIVERGED: %s", string(e))
		case startRun:
			s.queueStartLocked(e)
		case retireRun:
			s.queueRetireLocked(e)
		case elected:
			s.leaderEpoch = e.epoch
			s.leaderID = e.replica
			s.cfg.Logf("observed election: replica %d leads at epoch %d (cycle %d)", e.replica, e.epoch, e.cycle)
		case snapshotAt:
			s.pendingCompact = uint64(e)
			s.wakeCompactorLocked()
		}
	}
}

// SubmitError is a rejection with an HTTP-ready status code.
type SubmitError struct {
	Code       int // 400, 409, 429, 503
	RetryAfter time.Duration
	Msg        string
}

func (e *SubmitError) Error() string { return e.Msg }

// Submit validates and enqueues a job for admission at the next cycle. On a
// replicated leader the admission is appended to the decision log and
// synchronously replicated to live followers before returning, so an
// accepted job normally survives a leader kill -9.
//
// That durability has a bounded gap: the replication wait gives up after
// SubmitSyncTimeout (and excludes followers whose liveness lease has
// lapsed), so an accepted job may exist only on the leader's log. The
// returned replicated flag reports the distinction — true when every live
// follower acknowledged the admission (vacuously true without peers), false
// when the wait timed out or the replica was deposed mid-wait. HTTP clients
// see a false flag as "replicated_gap": true in the 202 body;
// durability-sensitive clients should resubmit after a failover (a duplicate
// ID is rejected with 409, which redelivery treats as delivered).
func (s *Service) Submit(j *job.Job) (replicated bool, err error) {
	s.mu.Lock()
	seq, err := s.submitLocked(j)
	s.mu.Unlock()
	if err != nil {
		return false, err
	}
	return s.quorumDurable(seq), nil
}

// quorumDurable is the wait an accepted input's answer makes on its last
// record: waitReplicated's verdict, vacuously true without peers.
func (s *Service) quorumDurable(seq uint64) bool {
	return len(s.cfg.Peers) == 0 || s.waitReplicated(seq)
}

// submitLocked is Submit up to the quorum wait: validation against live
// state, then the admit record. It returns the record's seq.
func (s *Service) submitLocked(j *job.Job) (uint64, error) {
	if err := s.notLeaderLocked(); err != nil {
		return 0, err
	}
	if s.draining {
		return 0, &SubmitError{Code: 503, Msg: "service is draining"}
	}
	if total := s.st.eng.Cluster().TotalNodes(); j.Tasks <= 0 || j.Tasks > total {
		s.refused.Invalid++
		return 0, &SubmitError{Code: 400,
			Msg: fmt.Sprintf("job requests %d nodes on a %d-node cluster", j.Tasks, total)}
	}
	if j.Runtime <= 0 {
		s.refused.Invalid++
		return 0, &SubmitError{Code: 400, Msg: "job runtime must be positive"}
	}
	if s.st.known(j.ID) {
		s.refused.Invalid++
		return 0, &SubmitError{Code: 409, Msg: fmt.Sprintf("job id %d already submitted", j.ID)}
	}
	if len(s.st.Queue) >= s.cfg.QueueCap {
		s.refused.Rejected++
		return 0, &SubmitError{Code: 429, RetryAfter: s.cycleWall(),
			Msg: fmt.Sprintf("admission queue full (%d)", s.cfg.QueueCap)}
	}
	return s.inputLocked(replog.TypeAdmit, &admitPayload{Job: j})
}

// notLeaderLocked rejects mutations on a follower and on a stopped replica:
// clients are redirected to the current leader (307 at the HTTP layer) or
// told to retry when no leader is known yet.
func (s *Service) notLeaderLocked() error {
	if s.stopped {
		// Nothing logged after the final cycle would be applied or handed
		// off: a successor's log could not continue this one.
		return &SubmitError{Code: 503, Msg: "service is stopping"}
	}
	if len(s.cfg.Peers) == 0 || s.role == RoleLeader {
		return nil
	}
	if addr := s.cfg.Peers[s.leaderID]; s.leaderID >= 0 && addr != "" {
		return &SubmitError{Code: 307, Msg: addr}
	}
	return &SubmitError{Code: 503, RetryAfter: s.cfg.LeaseInterval,
		Msg: "replica is a follower and no leader is known yet"}
}

// JobPhase is a job's lifecycle position as reported by the status API.
type JobPhase string

// Job phases.
const (
	PhaseQueued    JobPhase = "queued"  // accepted, awaiting admission cycle
	PhasePending   JobPhase = "pending" // admitted, awaiting placement
	PhaseRunning   JobPhase = "running"
	PhaseCompleted JobPhase = "completed"
	PhaseCancelled JobPhase = "cancelled"
	// PhaseAbandoned marks an SLO job the scheduler dropped because no
	// attainable start could earn utility any more (§4.2's zero-utility
	// abandonment, surfaced to the submitter as a terminal state).
	PhaseAbandoned JobPhase = "abandoned"
	// PhaseFailed marks a job terminated by the fault subsystem after
	// exhausting its retry budget (terminal).
	PhaseFailed JobPhase = "failed"
)

// JobStatus is the status API's view of one job.
type JobStatus struct {
	ID             job.ID   `json:"id"`
	Phase          JobPhase `json:"phase"`
	Tasks          int      `json:"tasks"`
	Class          string   `json:"class"`
	SubmitTime     float64  `json:"submit_time"` // virtual seconds
	FirstStart     float64  `json:"first_start,omitempty"`
	CompletionTime float64  `json:"completion_time,omitempty"`
	Preemptions    int      `json:"preemptions,omitempty"`
	Evictions      int      `json:"evictions,omitempty"` // failure-induced
	OnPreferred    bool     `json:"on_preferred,omitempty"`
}

// Status returns a job's current phase, or ok=false for unknown IDs.
func (s *Service) Status(id job.ID) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.st.queued[id]; ok {
		return JobStatus{ID: id, Phase: PhaseQueued, Tasks: j.Tasks,
			Class: j.Class.String(), SubmitTime: j.Submit}, true
	}
	if s.st.Gone[id] {
		return JobStatus{ID: id, Phase: PhaseCancelled}, true
	}
	o := s.st.eng.Outcome(id)
	if o == nil {
		return JobStatus{}, false
	}
	st := JobStatus{
		ID: id, Tasks: o.Job.Tasks, Class: o.Job.Class.String(),
		SubmitTime: o.Job.Submit, Preemptions: o.Preemptions,
		Evictions: o.Evictions,
	}
	switch {
	case s.st.Abandoned[id]:
		st.Phase = PhaseAbandoned
	case o.Failed:
		st.Phase = PhaseFailed
	case o.Cancelled:
		st.Phase = PhaseCancelled
	case o.Completed:
		st.Phase = PhaseCompleted
		st.CompletionTime = o.CompletionTime
		st.OnPreferred = o.OnPreferred
	case s.st.eng.IsRunning(id):
		st.Phase = PhaseRunning
	default:
		st.Phase = PhasePending
	}
	if o.Started {
		st.FirstStart = o.FirstStart
	}
	return st, true
}

// Cancel removes a job: queued jobs are dropped before admission, pending
// jobs leave the queue, running jobs are killed and their nodes freed. The
// scheduler's per-job state is cleared on the next cycle. Completed or
// unknown jobs return a SubmitError (409 / 404). The cancellation is
// validated now but applied at the next cycle boundary (and, when
// replicated, logged first), so every replica removes the job at the same
// logical instant.
func (s *Service) Cancel(id job.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.notLeaderLocked(); err != nil {
		return err
	}
	if _, queued := s.st.queued[id]; !queued {
		switch o := s.st.eng.Outcome(id); {
		case o == nil && s.st.Gone[id], o != nil && o.Cancelled:
			return &SubmitError{Code: 409, Msg: fmt.Sprintf("job %d already cancelled", id)}
		case o == nil:
			return &SubmitError{Code: 404, Msg: fmt.Sprintf("unknown job %d", id)}
		case o.Completed:
			return &SubmitError{Code: 409, Msg: fmt.Sprintf("job %d already completed", id)}
		}
	}
	_, err := s.inputLocked(replog.TypeCancel, &cancelPayload{ID: id})
	return err
}

// Abandon marks a job as dropped by the scheduler: it leaves the pending
// queue and its phase becomes "abandoned" (terminal). Wire the scheduler's
// DecisionAbandon audit events here (cmd/3sigma-serverd does) so
// zero-utility SLO jobs don't linger as pending forever. Unknown,
// running, or already-terminal jobs are ignored.
func (s *Service) Abandon(id job.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Abandons fire from inside the solve, which only the leader runs: they
	// ride in the cycle record so every other replica mirrors them.
	if s.st.abandonAt(id, s.st.CycleNow) && s.cycleRec != nil {
		s.cycleRec.Abandons = append(s.cycleRec.Abandons, id)
	}
}

// TrainRecord is one predictor observation fed through TrainBatch.
type TrainRecord struct {
	Job     *job.Job
	Runtime float64
}

// TrainBatch feeds completed historical jobs to the predictor — the paper's
// pre-training step, so that a fresh daemon can be warmed from a trace. The
// observations defer to the next cycle boundary, logged and replicated
// first, so they are ordered against the scheduler's estimate reads alike on
// every replica. The /v1/train warm-up feed carries thousands of them, so
// they ride in as few TypeTrain records as trainBudget allows — one for
// every feed this repo makes — appended as one group commit (a single
// fsync) and replicated with a single wait on the last record. It returns
// the number of observations taken and whether they reached a quorum (as
// Submit reports it); the error is the follower rejection (307/503) when
// this replica is not the leader, or a 413 for an observation no record can
// hold.
func (s *Service) TrainBatch(recs []TrainRecord) (trained int, replicated bool, err error) {
	if s.cfg.Predictor == nil {
		return 0, false, &SubmitError{Code: 404, Msg: "no predictor configured"}
	}
	var valid []trainPayload
	for _, r := range recs {
		if r.Job != nil && r.Runtime > 0 {
			valid = append(valid, trainPayload{Name: r.Job.Name, User: r.Job.User,
				Tasks: r.Job.Tasks, Priority: r.Job.Priority, Runtime: r.Runtime})
		}
	}
	if len(valid) == 0 {
		return 0, true, nil
	}
	payloads, err := packTrains(valid, trainBudget)
	if err != nil {
		return 0, false, err
	}
	s.mu.Lock()
	err = s.notLeaderLocked()
	var lastSeq uint64
	if err == nil {
		lastSeq, err = s.inputsLocked(replog.TypeTrain, payloads...)
	}
	s.mu.Unlock()
	if err != nil {
		return 0, false, err
	}
	return len(valid), s.quorumDurable(lastSeq), nil
}

// trainBudget bounds one TypeTrain record's payload: replog.MaxRecordBytes
// less room for the frame header around it (about 100 bytes: version, seq,
// epoch, cycle, type and two hashes).
const trainBudget = replog.MaxRecordBytes - 1<<10

// packTrains encodes observations as TypeTrain payloads — JSON arrays of
// trainPayload — cut in order into as few non-empty arrays as keep each
// within budget bytes. An observation too large for a record of its own is
// refused with a 413.
func packTrains(obs []trainPayload, budget int) ([][]byte, error) {
	var out [][]byte
	arr := []byte{'['}
	for i := range obs {
		item, err := json.Marshal(&obs[i])
		if err != nil {
			return nil, &SubmitError{Code: 500, Msg: fmt.Sprintf("frame train record: %v", err)}
		}
		if len(item)+2 > budget {
			return nil, &SubmitError{Code: 413, Msg: fmt.Sprintf(
				"a history observation encodes to %d bytes, beyond the %d-byte record bound", len(item), budget)}
		}
		if len(arr) > 1 {
			if len(arr)+1+len(item)+1 > budget {
				out = append(out, append(arr, ']'))
				arr = []byte{'['}
			} else {
				arr = append(arr, ',')
			}
		}
		arr = append(arr, item...)
	}
	return append(out, append(arr, ']')), nil
}

// Resize grows or drains a cluster partition (operator API). Draining only
// takes free nodes, mirroring the simulator's drain semantics. The resize
// applies at the next cycle boundary; the cluster returned is the one that
// stands until then.
func (s *Service) Resize(partition, delta int) (simulator.Cluster, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.nodeOpLocked(opPayload{Kind: opResize, Partition: partition, Delta: delta}); err != nil {
		return simulator.Cluster{}, err
	}
	return s.st.eng.Cluster(), nil
}

// NodeOpResult reports an accepted node-lifecycle operator action. The
// action lands at the next cycle boundary; the node counts are the ones that
// stand until then (its evictions show in job status and counters.evicted
// once it has landed).
type NodeOpResult struct {
	Partition int   `json:"partition"`
	Nodes     int   `json:"nodes"` // nodes asked for
	DownNodes []int `json:"down_nodes"`
	FreeNodes []int `json:"free_nodes"`
}

// FailNodes is the operator API behind POST /v1/nodes/fail: n nodes of the
// partition crash at the next cycle boundary, evicting their jobs (youngest
// first) into the retry path. Scheduler state for failed-out jobs is cleared
// on the cycle after.
func (s *Service) FailNodes(partition, n int) (NodeOpResult, error) {
	return s.nodeOp(opPayload{Kind: opFail, Partition: partition, N: n})
}

// RecoverNodes is the operator API behind POST /v1/nodes/recover: up to n
// down (failed or drained) nodes of the partition return to service.
func (s *Service) RecoverNodes(partition, n int) (NodeOpResult, error) {
	return s.nodeOp(opPayload{Kind: opRecover, Partition: partition, N: n})
}

// DrainNodes is the operator API behind POST /v1/nodes/drain: n free nodes
// of the partition leave service gracefully (no evictions; 409 when the
// partition lacks that many free nodes — retry after completions).
func (s *Service) DrainNodes(partition, n int) (NodeOpResult, error) {
	return s.nodeOp(opPayload{Kind: opDrain, Partition: partition, N: n})
}

// nodeOp is the three /v1/nodes endpoints' shared front half.
func (s *Service) nodeOp(op opPayload) (NodeOpResult, error) {
	if op.N <= 0 {
		return NodeOpResult{}, &SubmitError{Code: 400, Msg: "nodes must be positive"}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodeOpLocked(op)
}

// nodeOpLocked runs one operator action: validated against the live
// partition — its range, and for a drain or a shrink its free nodes — then
// logged and reported as accepted. Its effects land at the next cycle
// boundary through state.applyOp, whose own checks there remain the
// authoritative refusal (inputs logged ahead of it in the same cycle may
// have changed the partition since).
func (s *Service) nodeOpLocked(op opPayload) (NodeOpResult, error) {
	if err := s.notLeaderLocked(); err != nil {
		return NodeOpResult{}, err
	}
	if op.Partition < 0 || op.Partition >= len(s.st.eng.Cluster().Partitions) {
		return NodeOpResult{}, &SubmitError{Code: 400,
			Msg: fmt.Sprintf("partition %d out of range", op.Partition)}
	}
	free := s.st.eng.FreeNodes()
	switch f := free[op.Partition]; {
	case op.Kind == opDrain && f < op.N:
		// A valid partition, without that many free nodes right now.
		return NodeOpResult{}, &SubmitError{Code: 409,
			Msg: fmt.Sprintf("drain %d from partition %d: only %d free", op.N, op.Partition, f)}
	case op.Kind == opResize && f+op.Delta < 0:
		return NodeOpResult{}, &SubmitError{Code: 400,
			Msg: fmt.Sprintf("shrink partition %d by %d: only %d free", op.Partition, -op.Delta, f)}
	}
	res := NodeOpResult{Partition: op.Partition, Nodes: op.N, DownNodes: s.st.eng.DownNodes(), FreeNodes: free}
	if _, err := s.inputLocked(replog.TypeNodeOp, &op); err != nil {
		return NodeOpResult{}, err
	}
	return res, nil
}

// Predict runs 3σPredict on a hypothetical job (nil when no predictor is
// configured). It does not mutate history.
func (s *Service) Predict(j *job.Job) *predictor.Estimate {
	if s.cfg.Predictor == nil {
		return nil
	}
	est := s.cfg.Predictor.Estimate(j)
	return &est
}

// Metrics is the observability snapshot served at /v1/metrics.
type Metrics struct {
	UptimeSeconds   float64  `json:"uptime_seconds"`
	VirtualNow      float64  `json:"virtual_now"`
	TimeScale       float64  `json:"time_scale"`
	Cycles          int64    `json:"cycles"`
	Counters        Counters `json:"jobs"`
	QueueLen        int      `json:"queue_len"`
	QueueCap        int      `json:"queue_cap"`
	Pending         int      `json:"pending"`
	Running         int      `json:"running"`
	SkippedStarts   int      `json:"skipped_starts"`
	Partitions      []int    `json:"partitions"`
	FreeNodes       []int    `json:"free_nodes"`
	DownNodes       []int    `json:"down_nodes"`
	NodeDownSeconds float64  `json:"node_down_seconds"`
	Ready           bool     `json:"ready"` // started, not draining, leading
	PredictorGroups int      `json:"predictor_groups,omitempty"`

	// Control plane (DESIGN.md §14).
	Role          string          `json:"role"`
	ReplicaID     int             `json:"replica_id"`
	LeaderID      int             `json:"leader_id"` // -1 when unknown
	LeaderEpoch   uint64          `json:"leader_epoch"`
	LogLen        uint64          `json:"log_len,omitempty"`
	LogBase       uint64          `json:"log_base,omitempty"`       // compaction base (seqs <= base live in the snapshot)
	LogHead       string          `json:"log_head,omitempty"`       // chain head hash (first 12 hex)
	Quorum        int             `json:"quorum,omitempty"`         // replicas (leader incl.) a record needs for durability
	ReplicatedSeq uint64          `json:"replicated_seq,omitempty"` // min live-follower ack (leader)
	Control       ControlCounters `json:"control,omitempty"`
	AgentsLive    int             `json:"agents_live,omitempty"`
	AgentsDead    int             `json:"agents_dead,omitempty"`

	// OutcomeDigest hashes every finished job's fate (metrics.JobsDigest):
	// the cross-deployment determinism signal the cluster smoke gate
	// compares between a failover run and an uninterrupted one.
	OutcomeDigest string `json:"outcome_digest,omitempty"`
	// PredictorSHA hashes the predictor's serialized history, pinning
	// standby warmness.
	PredictorSHA string `json:"predictor_sha,omitempty"`

	// Scheduler-side counters (zero for greedy baselines).
	SchedCycles int     `json:"sched_cycles"`
	MaxVars     int     `json:"max_vars"`
	MaxRows     int     `json:"max_rows"`
	MeanCycleMS float64 `json:"mean_cycle_ms"` // Scheduler.Cycle on Config.Clock, over the cycles this replica solved
	metrics.SolverStats

	// Shards carries each scheduling domain's counters when the scheduler
	// is the cross-shard coordinator (DESIGN.md §13); the scalar scheduler
	// counters above then hold the combined view.
	Shards []ShardMetrics `json:"shards,omitempty"`
}

// ShardMetrics is one scheduling domain's scheduler counters.
type ShardMetrics struct {
	Cycles  int `json:"cycles"`
	MaxVars int `json:"max_vars"`
	MaxRows int `json:"max_rows"`
	metrics.SolverStats
}

// Metrics returns the current observability snapshot. Scheduler counters
// are read live from the scheduler (core.Scheduler.Stats is
// concurrent-safe), not from a per-cycle copy, so a metrics poll during a
// long solve sees up-to-date values.
func (s *Service) Metrics() Metrics {
	var cs core.Stats
	if ss, ok := s.cfg.Scheduler.(statser); ok {
		cs = ss.Stats()
	}
	var shardStats []core.Stats
	if ss, ok := s.cfg.Scheduler.(shardStatser); ok {
		shardStats = ss.ShardStats()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	counters := s.st.Counters
	counters.Rejected, counters.Invalid = s.refused.Rejected, s.refused.Invalid
	m := Metrics{
		UptimeSeconds:   s.cfg.Clock.Since(s.epoch).Seconds(),
		VirtualNow:      s.st.CycleNow,
		TimeScale:       s.cfg.TimeScale,
		Cycles:          s.st.Cycles,
		Counters:        counters,
		QueueLen:        len(s.st.Queue),
		QueueCap:        s.cfg.QueueCap,
		Pending:         s.st.eng.PendingCount(),
		Running:         s.st.eng.RunningCount(),
		SkippedStarts:   s.st.eng.SkippedStarts(),
		Partitions:      append([]int(nil), s.st.eng.Cluster().Partitions...),
		FreeNodes:       s.st.eng.FreeNodes(),
		DownNodes:       s.st.eng.DownNodes(),
		Ready:           s.started && !s.draining && s.role == RoleLeader,
		NodeDownSeconds: s.st.eng.NodeDownSeconds(s.st.CycleNow),
		SchedCycles:     cs.Cycles,
		MaxVars:         cs.MaxVars,
		MaxRows:         cs.MaxRows,
		SolverStats:     cs.SolverStats,
	}
	for _, st := range shardStats {
		m.Shards = append(m.Shards, ShardMetrics{
			Cycles: st.Cycles, MaxVars: st.MaxVars, MaxRows: st.MaxRows, SolverStats: st.SolverStats,
		})
	}
	if s.solves > 0 {
		m.MeanCycleMS = float64(s.solveTime) / float64(time.Millisecond) / float64(s.solves)
	}
	if s.cfg.Predictor != nil {
		m.PredictorGroups = s.cfg.Predictor.GroupCount()
		m.PredictorSHA = s.st.predictorSHA()
	}
	m.Role = string(s.role)
	m.ReplicaID = s.cfg.ReplicaID
	m.LeaderID = s.leaderID
	m.LeaderEpoch = s.leaderEpoch
	m.Control = s.ctl
	m.LogLen = s.log.Len()
	m.LogBase = s.logBase
	m.LogHead = s.log.Head().String()[:12]
	m.Quorum = s.cfg.Quorum
	m.ReplicatedSeq = s.minFollowerAckLocked()
	for _, as := range s.agents {
		if as.dead {
			m.AgentsDead++
		} else {
			m.AgentsLive++
		}
	}
	m.OutcomeDigest = metrics.JobsDigest(s.st.eng.Outcomes())
	return m
}

// VirtualNow exposes the service's logical time — that of the cycle in
// flight or last run — for clients mapping deadlines into service time.
func (s *Service) VirtualNow() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.CycleNow
}
