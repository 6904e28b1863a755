// Package service is the online face of 3σSched: a wall-clock daemon that
// wraps a scheduler and 3σPredict behind a JSON HTTP API (see cmd/3sigma-serverd).
// It drives the same cluster Engine as the discrete-event simulator, but on
// real time: scheduling cycles fire on a wall-clock ticker, submissions
// arrive through a bounded admission queue with backpressure, and job
// execution is emulated by completing each started job once virtual time
// passes its runtime (the daemon stands in for a cluster manager the way
// the simulator stands in for the paper's YARN testbed).
//
// Time runs at Config.TimeScale virtual seconds per wall second, so a
// multi-hour workload can be replayed against a live daemon in minutes
// (cmd/3sigma-loadgen's -speedup must match). The predictor's history is
// checkpointed periodically and on shutdown, and restored on startup, so a
// restarted daemon predicts exactly as the one that was killed
// (warm restart).
//
// With Config.DetCycles the daemon runs in deterministic-cycle mode
// (DESIGN.md §14): cycle k executes at logical time k·CycleInterval
// regardless of wall noise, submissions carry explicit submit_at stamps and
// are admitted in (Submit, ID) order once their logical time arrives, and
// cancels/operator actions defer to cycle boundaries. Every replay-relevant
// input and decision then flows through an append-only hash-chained log
// (internal/replog) that is synchronously replicated to standby replicas and
// replayed on restart, so a warm standby that takes over after a leader
// kill -9 resumes with a bitwise-identical outcome digest. Task execution
// can further be delegated to remote node-group agents (internal/agent): the
// service becomes a pure reconciler that diffs desired against actual state
// and issues idempotent epoch-fenced directives.
package service

import (
	"container/heap"
	"fmt"
	"math"
	"net/http"
	"sort"
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
	// Predictor, when non-nil, enables the /v1/predict endpoint and
	// checkpointing. It must be the same instance the Scheduler estimates
	// from for warm restarts to be meaningful.
	Predictor *predictor.Predictor

	// CycleInterval is the scheduling period in virtual seconds
	// (default 10); cycles fire every CycleInterval/TimeScale wall
	// seconds.
	CycleInterval float64
	// TimeScale is the virtual-seconds-per-wall-second replay speed
	// (default 1: real time).
	TimeScale float64

	// QueueCap bounds the admission queue; submissions beyond it are
	// rejected with 429 + Retry-After (default 256).
	QueueCap int

	// CheckpointPath, when set with a Predictor, persists the predictor's
	// history there every CheckpointEvery (default 30s) and on Stop,
	// via an atomic temp-file rename. On startup an existing checkpoint
	// is loaded before the first cycle.
	CheckpointPath  string
	CheckpointEvery time.Duration

	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)

	// Clock is the daemon's time source (default simulator.WallClock).
	// Virtual time, checkpoint pacing, and uptime are all measured through
	// it, so tests can pin the clock and replay the loop deterministically;
	// only the cycle ticker and drain timeout stay on real time.
	Clock simulator.Clock

	// Faults, when non-nil, runs a chaos injector inside the scheduling
	// loop: a deterministic node crash/recover schedule (over virtual time,
	// Faults.Horizon seconds long) plus per-attempt job crashes and
	// straggler slowdowns. Operators can also fail/recover/drain nodes
	// directly via the /v1/nodes endpoints regardless of this setting.
	Faults *faults.Config

	// --- distributed control plane (DESIGN.md §14) ---

	// DetCycles switches the daemon into deterministic-cycle mode: cycle k
	// runs at logical time k·CycleInterval (the ticker still paces cycles on
	// the wall, but the logical clock is cycle-indexed, so a pause — such as
	// a failover — costs wall time and zero virtual time). Required whenever
	// Log, Peers, or Agents are configured.
	DetCycles bool

	// Log, when non-nil, records every replay-relevant input and cycle
	// decision in an append-only hash-chained log. On New, a non-empty log
	// is replayed into the engine/scheduler/predictor before the service
	// starts (warm restart); the predictor checkpoint file is then ignored
	// on restore, since the log is authoritative.
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

	// Agents, when non-empty, delegates task execution to remote node-group
	// agents instead of the in-process completion heap. The agents'
	// partitions must exactly cover the cluster's.
	Agents []*agent.Client

	// AgentDeadRounds is how many consecutive failed reconcile rounds
	// declare an agent dead (its partitions fail, evicting its tasks into
	// the retry path; default 3).
	AgentDeadRounds int
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
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 30 * time.Second
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
	if (c.Log != nil || len(c.Peers) > 0 || len(c.Agents) > 0) && !c.DetCycles {
		return fmt.Errorf("service: Log/Peers/Agents require DetCycles (the replicated control plane only replays deterministic cycles)")
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

// remover is implemented by schedulers that keep per-job state which must
// be dropped when a job is cancelled (core.Scheduler.JobRemoved).
type remover interface{ JobRemoved(id job.ID) }

// completion is one emulated run event, due when virtual time reaches at:
// either a job finish or (crash=true) a fault-injected mid-run crash.
type completion struct {
	at    float64
	id    job.ID
	runID int64
	crash bool
}

type compHeap []completion

func (h compHeap) Len() int { return len(h) }
func (h compHeap) Less(i, j int) bool {
	//lint:allow floateq exact tie-break: equal-bits due times fall through to the deterministic id order
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h compHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *compHeap) Push(x interface{}) { *h = append(*h, x.(completion)) }
func (h *compHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Counters are the service's cumulative admission and lifecycle counts.
type Counters struct {
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"` // 429s (queue full)
	Invalid   int64 `json:"invalid"`  // 400s
	Completed int64 `json:"completed"`
	Cancelled int64 `json:"cancelled"`
	Abandoned int64 `json:"abandoned"` // dropped by the scheduler (zero attainable utility)
	Trained   int64 `json:"trained"`   // history records fed via /v1/train
	Evicted   int64 `json:"evicted"`   // failure-induced evictions (node loss + crashes)
	FailedOut int64 `json:"failed"`    // jobs terminated after exhausting the retry budget
}

// Service is one running daemon instance. Create with New, start with
// Start, stop with Stop; the HTTP handler is Handler.
type Service struct {
	cfg   Config
	epoch time.Time // wall time of Start

	mu        sync.Mutex
	eng       *simulator.Engine
	queue     []queuedJob         // guarded by mu; admission queue, drained each cycle
	queued    map[job.ID]*job.Job // guarded by mu; members of queue, by ID
	gone      map[job.ID]bool     // guarded by mu; cancelled before admission (no Outcome)
	abandoned map[job.ID]bool     // guarded by mu; dropped by the scheduler (zero utility)
	removed   []job.ID            // guarded by mu; cancelled after admission; sched.JobRemoved pending
	comps     compHeap            // guarded by mu
	draining  bool                // guarded by mu
	counters  Counters            // guarded by mu
	cycles    int64               // guarded by mu
	ckpts     int64               // guarded by mu

	// Chaos injector state (nil / unused without Config.Faults).
	inj      *faults.Injector
	faultIdx int            // next unapplied schedule event
	attempts map[job.ID]int // starts per job, for per-attempt crash draws

	// Distributed control plane (DESIGN.md §14).
	log          *replog.Log
	schedClock   *simulator.VirtualClock // det mode; Set under mu at each cycle top
	role         Role                    // guarded by mu
	leaderEpoch  uint64                  // guarded by mu; current leader epoch (ours when leading)
	leaderID     int                     // guarded by mu; last known leader replica (-1 unknown)
	lastLeader   time.Time               // guarded by mu; Clock time of last leader contact
	cycleNow     float64                 // guarded by mu; logical time of the in-flight/last cycle
	pendTrains   []trainEntry            // guarded by mu; det-mode inputs awaiting a cycle boundary
	pendCancels  []cancelEntry           // guarded by mu
	pendOps      []opEntry               // guarded by mu
	recAbandons  []job.ID                // guarded by mu; abandons applied during the in-flight solve
	desired      map[job.ID]*desiredRun  // guarded by mu; agent mode: attempts that should be running
	agents       []*agentState           // slice immutable; element state guarded by mu
	followers    []*followerConn         // guarded by mu (appended on takeover); conns have own locks
	ctl          ControlCounters         // guarded by mu
	cycleBusy    bool                    // guarded by mu; a leader cycle is between its top and its log append
	snapFetching bool                    // guarded by mu; a snapshot catch-up fetch is in flight
	snapClient   *http.Client            // snapshot catch-up fetches (immutable)

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

	// Cached predictor history hash: sha256 over the full serialized
	// history is too slow for the per-scrape /v1/metrics path (it grows
	// with every /v1/train observation), so it recomputes only after a
	// predictor mutation marks it dirty.
	predSHA      string // guarded by mu; "" = never computed
	predSHADirty bool   // guarded by mu; predictor observed (train feed, completion, snapshot install) since last hash

	started   bool
	stopped   bool // stop channel closed (Stop called)
	stop      chan struct{}
	loopDone  chan struct{}
	electDone chan struct{}
}

// queuedJob is one accepted job awaiting its admission cycle, tagged with its
// admit record's log seq (0 without a log): a cycle admits only jobs its
// InputsThrough watermark covers, so a submit that lands while the leader is
// solving enters the engine in the next cycle on every replica, not one
// cycle early on those that apply the admit record before the cycle record.
type queuedJob struct {
	seq uint64
	j   *job.Job
}

// trainEntry is one deferred predictor observation (det mode), tagged with
// its log seq so a follower applies exactly the entries the leader drained.
type trainEntry struct {
	seq     uint64
	j       *job.Job
	runtime float64
}

// cancelEntry is one deferred cancellation (det mode).
type cancelEntry struct {
	seq uint64
	id  job.ID
}

// opEntry is one deferred operator action (det mode).
type opEntry struct {
	seq uint64
	op  opPayload
}

// desiredRun is the reconciler's desired state for one live attempt (agent
// mode): what some agent should be running right now.
type desiredRun struct {
	runID   int64
	alloc   simulator.Alloc
	due     float64
	crashAt float64
}

// ControlCounters are the control plane's cumulative counters.
type ControlCounters struct {
	Elections        int64 `json:"elections"`         // leaderships assumed by this replica
	ReplLagTimeouts  int64 `json:"repl_lag_timeouts"` // input appends that outwaited a follower ack
	Diverged         int64 `json:"diverged"`          // chain/epoch/checkpoint mismatches observed
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

// New builds a Service. If a checkpoint exists at Config.CheckpointPath it
// is restored into the predictor before the service accepts any work.
func New(cfg Config) (*Service, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:       cfg,
		eng:       simulator.NewEngine(cfg.Cluster),
		queued:    make(map[job.ID]*job.Job),
		gone:      make(map[job.ID]bool),
		abandoned: make(map[job.ID]bool),
		log:       cfg.Log,
		leaderID:  -1,
		desired:   make(map[job.ID]*desiredRun),
		stop:      make(chan struct{}),
		loopDone:  make(chan struct{}),
		electDone: make(chan struct{}),

		// A snapshot is one record of up to replog.MaxRecordBytes: give the
		// fetch several leases, and never less than ten seconds.
		snapClient:  &http.Client{Timeout: max(4*cfg.LeaseInterval, 10*time.Second)},
		ackWake:     make(chan struct{}),
		compactWake: make(chan struct{}, 1),
		compactDone: make(chan struct{}),
	}
	if cfg.Faults != nil {
		s.inj = faults.New(*cfg.Faults, cfg.Cluster.Partitions, 0)
		s.eng.SetRetryBudget(s.inj.MaxRetries())
		s.attempts = make(map[job.ID]int)
		cfg.Logf("chaos injector armed: %d node-lifecycle events over %.0fs virtual",
			len(s.inj.Events()), s.inj.Config().Horizon)
	}
	if cfg.DetCycles {
		// Pin the scheduler onto the cycle-indexed logical clock so solver
		// budgets measure zero inside a cycle: the solve explores the same
		// tree on a loaded box, an idle one, and a replaying standby.
		s.schedClock = simulator.NewVirtualClock()
		if ca, ok := cfg.Scheduler.(simulator.ClockAware); ok {
			ca.SetClock(s.schedClock)
		}
	}
	for _, c := range cfg.Agents {
		//lint:allow guardedfield New owns the fresh Service exclusively until it returns
		s.agents = append(s.agents, &agentState{
			c:            c,
			outboxStarts: make(map[job.ID]agent.StartDirective),
			outboxEvicts: make(map[job.ID]agent.EvictDirective),
		})
	}
	replayed := false
	if s.log != nil && s.log.Len() > 0 {
		n, err := s.bootstrapReplay()
		if err != nil {
			return nil, fmt.Errorf("service: replay decision log: %w", err)
		}
		replayed = n > 0
		//lint:allow guardedfield New owns the fresh Service exclusively until it returns
		cyc := s.cycles
		cfg.Logf("replayed %d log records: cycle %d, epoch %d, %d outcomes",
			n, cyc, s.log.LastEpoch(), len(s.eng.Outcomes()))
	}
	if cfg.Predictor != nil && cfg.CheckpointPath != "" && !replayed {
		found, err := loadCheckpoint(cfg.Predictor, cfg.CheckpointPath)
		if err != nil {
			return nil, fmt.Errorf("service: restore checkpoint: %w", err)
		}
		if found {
			cfg.Logf("restored predictor checkpoint from %s (%d history groups)",
				cfg.CheckpointPath, cfg.Predictor.GroupCount())
		}
	}
	return s, nil
}

// Start launches the scheduling loop. It may be called once. A replica with
// Peers starts as a follower and joins leader election; otherwise the
// service leads immediately (bumping the log epoch when a log is attached).
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

// Stop drains the service: new submissions are refused, the in-flight
// cycle finishes, and a final checkpoint is flushed. It blocks until the
// loop has exited (or timeout elapses; 0 means wait forever).
func (s *Service) Stop(timeout time.Duration) error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return nil
	}
	already := s.stopped
	s.stopped = true
	s.draining = true
	// No sender pushes past the stop: a submit still waiting for its quorum
	// reports the gap now instead of when the followers' leases lapse.
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

// vnowLocked returns the current virtual time in seconds (callers hold s.mu).
// tolerate small skew (the wall clock is monotonic). In deterministic-cycle
// mode virtual time is cycle-indexed — it advances only when a cycle runs —
// so a wall-clock pause (a failover, a slow solve) costs zero virtual time.
func (s *Service) vnowLocked() float64 {
	if s.cfg.DetCycles {
		return s.cycleNow
	}
	return s.cfg.Clock.Since(s.epoch).Seconds() * s.cfg.TimeScale
}

// cycleWall is the wall-clock scheduling period.
func (s *Service) cycleWall() time.Duration {
	return time.Duration(s.cfg.CycleInterval / s.cfg.TimeScale * float64(time.Second))
}

func (s *Service) loop() {
	defer close(s.loopDone)
	ticker := time.NewTicker(s.cycleWall())
	defer ticker.Stop()
	lastCkpt := s.cfg.Clock.Now()
	for {
		select {
		case <-s.stop:
			// One final cycle applies whatever is already admitted, then
			// the predictor state is flushed so a restart resumes warm.
			// Followers skip both: their state is the leader's replica.
			if s.IsLeader() {
				s.runCycle()
				s.checkpoint()
			}
			s.mu.Lock()
			comp, canc, cyc := s.counters.Completed, s.counters.Cancelled, s.cycles
			s.mu.Unlock()
			s.cfg.Logf("drained: %d completed, %d cancelled, %d cycles", comp, canc, cyc)
			return
		case <-ticker.C:
			if !s.IsLeader() {
				continue // follower: state advances via replicated records
			}
			s.runCycle()
			if s.cfg.Predictor != nil && s.cfg.CheckpointPath != "" &&
				s.cfg.Clock.Since(lastCkpt) >= s.cfg.CheckpointEvery {
				s.checkpoint()
				lastCkpt = s.cfg.Clock.Now()
			}
		}
	}
}

// runCycle is one scheduling round on the leader: reconcile remote agents
// (when configured), admit queued jobs, apply due completions, clear
// cancelled jobs' scheduler state, run the scheduler on a snapshot (lock
// released during the solve), apply its decision, append the cycle record to
// the decision log, and deliver fresh directives. All scheduler methods are
// invoked from this goroutine only (while leading; a follower applies
// records from the replication handler, and the roles hand over under mu).
func (s *Service) runCycle() {
	// Agent reconcile rounds run before the cycle body, off the lock: they
	// collect lifecycle events (completions/crashes at exact logical times)
	// and flush any directives a previous round failed to deliver.
	var comps []compEv
	var agentOps []agentOpEv
	if len(s.agents) > 0 {
		comps, agentOps = s.reconcileAgents()
	}

	s.mu.Lock()
	if s.role != RoleLeader {
		s.mu.Unlock() // deposed between the tick and here
		return
	}
	// cycleBusy fences depositions while state sits between the cycle top
	// and the cycle record: a replication push or status poll that proves a
	// newer epoch backs off until the cycle lands (see handleReplogAppend).
	s.cycleBusy = true
	now := s.nextNowLocked()
	if len(s.agents) == 0 {
		comps = s.popDueLocked(now)
	}
	var inputsThrough uint64
	if s.log != nil {
		inputsThrough = s.log.Len()
	}
	s.cycleTopLocked(now, comps, agentOps, inputsThrough)

	st := s.eng.Snapshot(now)
	s.mu.Unlock()

	// The solve runs unlocked: handlers may cancel or resize concurrently
	// (immediately in wall mode, queued to the next boundary in det mode),
	// and Engine.Start revalidates every decision against current state
	// (stale ones are counted as skipped, as in the simulator).
	dec := s.cfg.Scheduler.Cycle(st)

	s.mu.Lock()
	s.applyDecisionLocked(now, dec.Preempt, dec.Start)
	abandons := s.recAbandons
	s.recAbandons = nil
	s.cycles++
	if s.log != nil {
		_, err := s.log.Append(s.leaderEpoch, replog.TypeCycle, s.cycles, &cyclePayload{
			Now:           now,
			InputsThrough: inputsThrough,
			Comps:         comps,
			AgentOps:      agentOps,
			Abandons:      abandons,
			Preempts:      dec.Preempt,
			Starts:        dec.Start,
			EngineEpoch:   s.eng.Epoch(),
		})
		if err != nil {
			s.cfg.Logf("append cycle record: %v", err)
		}
		// Snapshot on the cycle boundary, in the same hold of the lock as
		// the cycle record: the snapshot captures exactly the state that
		// record left behind. Compacting below it waits for the followers
		// (settleCompaction).
		if s.cfg.CompactEvery > 0 && s.cycles%s.cfg.CompactEvery == 0 {
			s.snapshotLocked()
		}
	}
	s.cycleBusy = false
	// Every cycle re-examines an unsettled compaction: a follower that held
	// it back may have let its lease lapse since, which no ack announces.
	s.wakeCompactorLocked()
	s.mu.Unlock()
	s.notifyFollowers()

	// Deliver directives born this cycle right away so remote execution has
	// the same cycle latency as the in-process emulation (a completion is
	// observed one cycle after it is due in both).
	if len(s.agents) > 0 {
		s.deliverDirectives(now)
	}
}

// nextNowLocked advances to the next cycle's virtual time. Deterministic
// mode counts cycles; wall mode reads the scaled wall clock.
func (s *Service) nextNowLocked() float64 {
	if s.cfg.DetCycles {
		s.cycleNow = float64(s.cycles+1) * s.cfg.CycleInterval
		s.schedClock.Set(s.cycleNow)
		return s.cycleNow
	}
	return s.vnowLocked()
}

// popDueLocked drains emulated completions due by now, in deterministic
// (time, id) heap order.
func (s *Service) popDueLocked(now float64) []compEv {
	var out []compEv
	for len(s.comps) > 0 && s.comps[0].at <= now {
		c := heap.Pop(&s.comps).(completion)
		out = append(out, compEv{ID: c.id, RunID: c.runID, At: c.at, Crash: c.crash})
	}
	return out
}

// cycleTopLocked is the first half of a cycle, shared verbatim between the
// leader and a follower applying the leader's cycle record: deferred inputs
// (det mode), admission, completions, the chaos schedule, agent-liveness
// node ops, and the JobRemoved sweep — in this exact order, so both replicas
// drive the engine and scheduler through an identical mutation sequence.
func (s *Service) cycleTopLocked(now float64, comps []compEv, agentOps []agentOpEv, through uint64) {
	if s.cfg.DetCycles {
		s.drainInputsLocked(now, through)
	}

	// Admission: arrival order on the wall path; (Submit, ID) order with
	// future submissions held back on the deterministic path, so the cycle
	// at which a job enters the scheduler depends only on its stamp and on
	// which cycle's input watermark first covers its admit record — a job
	// logged while the leader was solving cycle k waits for cycle k+1
	// wherever the record is applied.
	admit := s.queue
	s.queue = nil
	if s.cfg.DetCycles {
		sort.SliceStable(admit, func(i, k int) bool {
			//lint:allow floateq exact tie-break: equal-bits submit stamps fall through to the ID order
			if admit[i].j.Submit != admit[k].j.Submit {
				return admit[i].j.Submit < admit[k].j.Submit
			}
			return admit[i].j.ID < admit[k].j.ID
		})
		n := 0
		for _, q := range admit {
			if q.j.Submit <= now && q.seq <= through {
				admit[n] = q
				n++
			} else {
				s.queue = append(s.queue, q)
			}
		}
		admit = admit[:n]
	}
	for _, q := range admit {
		j := q.j
		delete(s.queued, j.ID)
		if err := s.eng.Submit(j); err != nil {
			// Validated at enqueue; only a duplicate raced in could fail.
			s.cfg.Logf("admit job %d: %v", j.ID, err)
			s.gone[j.ID] = true
			continue
		}
		s.cfg.Scheduler.JobSubmitted(j, now)
	}

	// Execution events: emulated heap pops or remote agent reports. Stale
	// entries (preempted or cancelled runs) drop; crash entries kill the
	// attempt through the engine's failure path.
	for _, c := range comps {
		if c.Crash {
			requeued, ok := s.eng.CrashRun(c.ID, c.RunID, c.At)
			if !ok {
				continue
			}
			s.dropDesiredLocked(c.ID, false)
			s.counters.Evicted++
			if !requeued {
				s.counters.FailedOut++
				s.removed = append(s.removed, c.ID)
			}
			continue
		}
		j, base, ok := s.eng.Complete(c.ID, c.RunID, c.At)
		if !ok {
			continue
		}
		s.dropDesiredLocked(c.ID, false)
		s.counters.Completed++
		s.cfg.Scheduler.JobCompleted(j, base, c.At)
		s.predSHADirty = true // the completion's runtime just reached the predictor
	}

	// Replay the chaos schedule up to virtual now: node failures evict
	// running jobs (retry-budget exhaustion is terminal) and recoveries
	// return capacity before the snapshot is taken.
	if s.inj != nil {
		evs := s.inj.Events()
		for s.faultIdx < len(evs) && evs[s.faultIdx].Time <= now {
			ev := evs[s.faultIdx]
			s.faultIdx++
			switch ev.Kind {
			case faults.NodeFail:
				n, evicted, exhausted, _ := s.eng.FailNodes(ev.Partition, ev.Nodes, now)
				s.evictDesiredLocked(evicted, exhausted)
				s.counters.Evicted += int64(len(evicted) + len(exhausted))
				s.counters.FailedOut += int64(len(exhausted))
				s.removed = append(s.removed, exhausted...)
				if n > 0 {
					s.cfg.Logf("chaos: partition %d lost %d nodes (%d jobs requeued, %d failed out)",
						ev.Partition, n, len(evicted), len(exhausted))
				}
			case faults.NodeRecover:
				if n, _ := s.eng.RecoverNodes(ev.Partition, ev.Nodes, now); n > 0 {
					s.cfg.Logf("chaos: partition %d recovered %d nodes", ev.Partition, n)
				}
			}
		}
	}

	// Agent-liveness transitions (dead agent = its partitions fail; a
	// returning agent restores them), recorded in the cycle record so
	// followers mirror what is otherwise a wall-timing observation.
	for _, op := range agentOps {
		if op.Fail {
			n, evicted, exhausted, _ := s.eng.FailNodes(op.Partition, op.Nodes, now)
			s.evictDesiredLocked(evicted, exhausted)
			s.counters.Evicted += int64(len(evicted) + len(exhausted))
			s.counters.FailedOut += int64(len(exhausted))
			s.removed = append(s.removed, exhausted...)
			s.cfg.Logf("agent down: partition %d lost %d nodes (%d requeued, %d failed out)",
				op.Partition, n, len(evicted), len(exhausted))
		} else {
			n, _ := s.eng.RecoverNodes(op.Partition, op.Nodes, now)
			s.cfg.Logf("agent back: partition %d recovered %d nodes", op.Partition, n)
		}
	}

	// Scheduler-side cleanup for jobs cancelled since the last cycle.
	if rm, ok := s.cfg.Scheduler.(remover); ok {
		for _, id := range s.removed {
			rm.JobRemoved(id)
		}
	}
	s.removed = s.removed[:0]
}

// applyDecisionLocked applies a cycle decision to the engine, shared between
// the leader (fresh from the solver) and a follower (from the cycle record).
// Starts schedule their completion: onto the emulated heap, or into the
// desired-state map plus per-agent outboxes in agent mode.
func (s *Service) applyDecisionLocked(now float64, preempts []job.ID, starts []simulator.StartAction) {
	for _, id := range preempts {
		if s.eng.Preempt(id, now) {
			s.dropDesiredLocked(id, true)
		}
	}
	for _, a := range starts {
		run, ok := s.eng.Start(a, now)
		if !ok {
			continue
		}
		rt := run.EffectiveRuntime(run.Job.Runtime)
		if s.inj != nil {
			rt *= s.inj.Slowdown(run.Job.ID)
		}
		rt = math.Max(rt, 0.001)
		crashAt := 0.0
		if s.inj != nil {
			att := s.attempts[run.Job.ID]
			s.attempts[run.Job.ID] = att + 1
			if frac, crashes := s.inj.CrashPoint(run.Job.ID, att); crashes {
				crashAt = now + frac*rt
			}
		}
		if len(s.agents) > 0 {
			d := &desiredRun{runID: run.RunID, alloc: a.Alloc.Clone(), due: now + rt, crashAt: crashAt}
			s.desired[run.Job.ID] = d
			s.queueStartLocked(run.Job.ID, d)
			continue
		}
		if crashAt > 0 {
			heap.Push(&s.comps, completion{at: crashAt, id: run.Job.ID, runID: run.RunID, crash: true})
			continue
		}
		heap.Push(&s.comps, completion{at: now + rt, id: run.Job.ID, runID: run.RunID})
	}
}

func (s *Service) checkpoint() {
	if s.cfg.Predictor == nil || s.cfg.CheckpointPath == "" {
		return
	}
	if err := saveCheckpoint(s.cfg.Predictor, s.cfg.CheckpointPath); err != nil {
		s.cfg.Logf("checkpoint: %v", err)
		return
	}
	s.mu.Lock()
	s.ckpts++
	// Record the checkpoint's predictor hash: followers recompute theirs on
	// apply and flag any divergence, which pins standby warmness in CI.
	if s.log != nil {
		_, err := s.log.Append(s.leaderEpoch, replog.TypeCheckpoint, s.cycles, &ckptPayload{
			Cycle:        s.cycles,
			PredictorSHA: s.predictorSHALocked(),
			Groups:       s.cfg.Predictor.GroupCount(),
		})
		if err != nil {
			s.cfg.Logf("append checkpoint record: %v", err)
		}
	}
	s.mu.Unlock()
	s.notifyFollowers()
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
// follower acknowledged the admission (vacuously true without a log or
// peers), false when the wait timed out or the replica was deposed
// mid-wait. HTTP clients see a false flag as "replicated_gap": true in the
// 202 body; durability-sensitive clients should resubmit after a failover
// (a duplicate ID is rejected with 409, which redelivery treats as
// delivered).
func (s *Service) Submit(j *job.Job) (replicated bool, err error) {
	s.mu.Lock()
	if err := s.notLeaderLocked(); err != nil {
		s.mu.Unlock()
		return false, err
	}
	if s.draining {
		s.mu.Unlock()
		return false, &SubmitError{Code: 503, Msg: "service is draining"}
	}
	if total := s.eng.Cluster().TotalNodes(); j.Tasks <= 0 || j.Tasks > total {
		s.counters.Invalid++
		s.mu.Unlock()
		return false, &SubmitError{Code: 400,
			Msg: fmt.Sprintf("job requests %d nodes on a %d-node cluster", j.Tasks, total)}
	}
	if j.Runtime <= 0 {
		s.counters.Invalid++
		s.mu.Unlock()
		return false, &SubmitError{Code: 400, Msg: "job runtime must be positive"}
	}
	if _, dup := s.queued[j.ID]; dup || s.gone[j.ID] || s.eng.Outcome(j.ID) != nil {
		s.counters.Invalid++
		s.mu.Unlock()
		return false, &SubmitError{Code: 409, Msg: fmt.Sprintf("job id %d already submitted", j.ID)}
	}
	if len(s.queue) >= s.cfg.QueueCap {
		s.counters.Rejected++
		s.mu.Unlock()
		return false, &SubmitError{Code: 429, RetryAfter: s.cycleWall(),
			Msg: fmt.Sprintf("admission queue full (%d)", s.cfg.QueueCap)}
	}
	var seq uint64
	if s.log != nil {
		rec, err := s.log.Append(s.leaderEpoch, replog.TypeAdmit, s.cycles, &admitPayload{Job: j})
		if err != nil {
			s.mu.Unlock()
			return false, &SubmitError{Code: 500, Msg: fmt.Sprintf("append admission: %v", err)}
		}
		seq = rec.Seq
	}
	s.queue = append(s.queue, queuedJob{seq: seq, j: j})
	s.queued[j.ID] = j
	s.counters.Accepted++
	s.notifyFollowersLocked()
	s.mu.Unlock()
	replicated = true
	if seq > 0 && len(s.cfg.Peers) > 0 {
		replicated = s.waitReplicated(seq)
	}
	return replicated, nil
}

// notLeaderLocked rejects mutations on a follower: clients are redirected to
// the current leader (307 at the HTTP layer) or told to retry when no leader
// is known yet.
func (s *Service) notLeaderLocked() error {
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
	if j, ok := s.queued[id]; ok {
		return JobStatus{ID: id, Phase: PhaseQueued, Tasks: j.Tasks,
			Class: j.Class.String(), SubmitTime: j.Submit}, true
	}
	if s.gone[id] {
		return JobStatus{ID: id, Phase: PhaseCancelled}, true
	}
	o := s.eng.Outcome(id)
	if o == nil {
		return JobStatus{}, false
	}
	st := JobStatus{
		ID: id, Tasks: o.Job.Tasks, Class: o.Job.Class.String(),
		SubmitTime: o.Job.Submit, Preemptions: o.Preemptions,
		Evictions: o.Evictions,
	}
	switch {
	case s.abandoned[id]:
		st.Phase = PhaseAbandoned
	case o.Failed:
		st.Phase = PhaseFailed
	case o.Cancelled:
		st.Phase = PhaseCancelled
	case o.Completed:
		st.Phase = PhaseCompleted
		st.CompletionTime = o.CompletionTime
		st.OnPreferred = o.OnPreferred
	case s.eng.IsRunning(id):
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
// unknown jobs return a SubmitError (409 / 404). In deterministic-cycle
// mode the cancellation is validated now but applied at the next cycle
// boundary (and, when replicated, logged first), so every replica removes
// the job at the same logical instant.
func (s *Service) Cancel(id job.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.notLeaderLocked(); err != nil {
		return err
	}
	if s.cfg.DetCycles {
		return s.deferCancelLocked(id)
	}
	if s.dequeueLocked(id) {
		return nil
	}
	if o := s.eng.Outcome(id); o != nil {
		if o.Completed {
			return &SubmitError{Code: 409, Msg: fmt.Sprintf("job %d already completed", id)}
		}
		if o.Cancelled {
			return &SubmitError{Code: 409, Msg: fmt.Sprintf("job %d already cancelled", id)}
		}
		if _, ok := s.eng.Cancel(id, s.vnowLocked()); ok {
			s.removed = append(s.removed, id)
			s.counters.Cancelled++
			return nil
		}
	}
	if s.gone[id] {
		return &SubmitError{Code: 409, Msg: fmt.Sprintf("job %d already cancelled", id)}
	}
	return &SubmitError{Code: 404, Msg: fmt.Sprintf("unknown job %d", id)}
}

// dequeueLocked cancels a job that is still in the admission queue: it
// leaves the queue and is remembered as gone. It reports false for a job
// that is not queued.
func (s *Service) dequeueLocked(id job.ID) bool {
	if _, ok := s.queued[id]; !ok {
		return false
	}
	delete(s.queued, id)
	for i, q := range s.queue {
		if q.j.ID == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	s.gone[id] = true
	s.counters.Cancelled++
	return true
}

// Abandon marks a job as dropped by the scheduler: it leaves the pending
// queue and its phase becomes "abandoned" (terminal). Wire the scheduler's
// DecisionAbandon audit events here (cmd/3sigma-serverd does) so
// zero-utility SLO jobs don't linger as pending forever. Unknown,
// running, or already-terminal jobs are ignored.
func (s *Service) Abandon(id job.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.eng.Outcome(id)
	if o == nil || o.Completed || o.Cancelled || s.abandoned[id] || !s.eng.IsPending(id) {
		return
	}
	if _, ok := s.eng.Cancel(id, s.vnowLocked()); ok {
		s.abandoned[id] = true
		s.counters.Abandoned++
		// The scheduler swept the job's planning state when it abandoned it,
		// but still holds the abandoned-ID marker; queue a JobRemoved so the
		// next cycle clears that too and the marker set cannot grow forever.
		s.removed = append(s.removed, id)
		// Abandons fire from inside the solve, which followers do not run:
		// collect them for the cycle record so the replica mirrors them.
		if s.log != nil {
			s.recAbandons = append(s.recAbandons, id)
		}
	}
}

// Train feeds one completed historical job into the predictor (the paper's
// pre-training step, exposed so a fresh daemon can be warmed from a trace).
// It reports false when no predictor is configured.
// In deterministic-cycle mode the observation defers to the next cycle
// boundary (logged and replicated first) so it is ordered against the
// scheduler's estimate reads identically on every replica.
func (s *Service) Train(j *job.Job, runtime float64) bool {
	n, err := s.TrainBatch([]TrainRecord{{Job: j, Runtime: runtime}})
	return err == nil && n == 1
}

// TrainRecord is one predictor observation fed through TrainBatch.
type TrainRecord struct {
	Job     *job.Job
	Runtime float64
}

// TrainBatch feeds a batch of history observations to the predictor. In det
// mode the whole batch is appended to the decision log as one group commit
// (a single fsync) and replicated with a single wait on the last record —
// the /v1/train warm-up feed carries thousands of observations, and a
// per-record fsync + replication round trip would stall it for seconds.
// Returns the number of observations taken; the error is the follower
// rejection (307/503) when this replica is not the leader.
func (s *Service) TrainBatch(recs []TrainRecord) (int, error) {
	if s.cfg.Predictor == nil {
		return 0, &SubmitError{Code: 404, Msg: "no predictor configured"}
	}
	valid := recs[:0:0]
	for _, r := range recs {
		if r.Job != nil && r.Runtime > 0 {
			valid = append(valid, r)
		}
	}
	if !s.cfg.DetCycles {
		for _, r := range valid {
			s.cfg.Predictor.Observe(r.Job, r.Runtime)
		}
		s.mu.Lock()
		s.counters.Trained += int64(len(valid))
		if len(valid) > 0 {
			s.predSHADirty = true
		}
		s.mu.Unlock()
		return len(valid), nil
	}
	if len(valid) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	if err := s.notLeaderLocked(); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	var lastSeq uint64
	if s.log != nil {
		payloads := make([]any, len(valid))
		for i, r := range valid {
			payloads[i] = &trainPayload{
				Name: r.Job.Name, User: r.Job.User, Tasks: r.Job.Tasks,
				Priority: r.Job.Priority, Runtime: r.Runtime,
			}
		}
		lrecs, err := s.log.AppendBatch(s.leaderEpoch, replog.TypeTrain, s.cycles, payloads)
		if err != nil {
			s.cfg.Logf("append train records: %v", err)
			s.mu.Unlock()
			return 0, &SubmitError{Code: 500, Msg: fmt.Sprintf("append train records: %v", err)}
		}
		for i, r := range valid {
			s.pendTrains = append(s.pendTrains, trainEntry{seq: lrecs[i].Seq, j: r.Job, runtime: r.Runtime})
		}
		lastSeq = lrecs[len(lrecs)-1].Seq
	} else {
		for _, r := range valid {
			s.pendTrains = append(s.pendTrains, trainEntry{j: r.Job, runtime: r.Runtime})
		}
	}
	s.mu.Unlock()
	if lastSeq > 0 {
		s.notifyFollowers()
		s.waitReplicated(lastSeq)
	}
	return len(valid), nil
}

// Resize grows or drains a cluster partition (operator API). Draining only
// takes free nodes, mirroring the simulator's drain semantics. In
// deterministic-cycle mode the resize applies at the next cycle boundary.
func (s *Service) Resize(partition, delta int) (simulator.Cluster, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.notLeaderLocked(); err != nil {
		return simulator.Cluster{}, err
	}
	if s.cfg.DetCycles {
		if partition < 0 || partition >= len(s.eng.Cluster().Partitions) {
			return simulator.Cluster{}, &SubmitError{Code: 400,
				Msg: fmt.Sprintf("partition %d out of range", partition)}
		}
		if err := s.deferOpLocked(opPayload{Kind: opResize, Partition: partition, Delta: delta}); err != nil {
			return simulator.Cluster{}, err
		}
		return s.eng.Cluster(), nil
	}
	if err := s.eng.Resize(partition, delta); err != nil {
		return simulator.Cluster{}, &SubmitError{Code: 400, Msg: err.Error()}
	}
	return s.eng.Cluster(), nil
}

// NodeOpResult reports the effect of a node-lifecycle operator action.
type NodeOpResult struct {
	Partition int      `json:"partition"`
	Nodes     int      `json:"nodes"` // nodes actually transitioned
	DownNodes []int    `json:"down_nodes"`
	FreeNodes []int    `json:"free_nodes"`
	Evicted   []job.ID `json:"evicted,omitempty"`    // requeued for retry
	FailedOut []job.ID `json:"failed_out,omitempty"` // retry budget exhausted
}

// FailNodes is the operator API behind POST /v1/nodes/fail: n nodes of the
// partition crash now, evicting their jobs (youngest first) into the retry
// path. Scheduler state for failed-out jobs is cleared on the next cycle.
func (s *Service) FailNodes(partition, n int) (NodeOpResult, error) {
	if n <= 0 {
		return NodeOpResult{}, &SubmitError{Code: 400, Msg: "nodes must be positive"}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.notLeaderLocked(); err != nil {
		return NodeOpResult{}, err
	}
	if s.cfg.DetCycles {
		return s.deferNodeOpLocked(opPayload{Kind: opFail, Partition: partition, N: n})
	}
	failed, evicted, exhausted, err := s.eng.FailNodes(partition, n, s.vnowLocked())
	if err != nil {
		return NodeOpResult{}, &SubmitError{Code: 400, Msg: err.Error()}
	}
	s.counters.Evicted += int64(len(evicted) + len(exhausted))
	s.counters.FailedOut += int64(len(exhausted))
	s.removed = append(s.removed, exhausted...)
	s.cfg.Logf("operator: partition %d lost %d nodes (%d jobs requeued, %d failed out)",
		partition, failed, len(evicted), len(exhausted))
	return NodeOpResult{Partition: partition, Nodes: failed,
		DownNodes: s.eng.DownNodes(), FreeNodes: s.eng.FreeNodes(),
		Evicted: evicted, FailedOut: exhausted}, nil
}

// RecoverNodes is the operator API behind POST /v1/nodes/recover: up to n
// down (failed or drained) nodes of the partition return to service.
func (s *Service) RecoverNodes(partition, n int) (NodeOpResult, error) {
	if n <= 0 {
		return NodeOpResult{}, &SubmitError{Code: 400, Msg: "nodes must be positive"}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.notLeaderLocked(); err != nil {
		return NodeOpResult{}, err
	}
	if s.cfg.DetCycles {
		return s.deferNodeOpLocked(opPayload{Kind: opRecover, Partition: partition, N: n})
	}
	rec, err := s.eng.RecoverNodes(partition, n, s.vnowLocked())
	if err != nil {
		return NodeOpResult{}, &SubmitError{Code: 400, Msg: err.Error()}
	}
	s.cfg.Logf("operator: partition %d recovered %d nodes", partition, rec)
	return NodeOpResult{Partition: partition, Nodes: rec,
		DownNodes: s.eng.DownNodes(), FreeNodes: s.eng.FreeNodes()}, nil
}

// DrainNodes is the operator API behind POST /v1/nodes/drain: n free nodes
// of the partition leave service gracefully (no evictions; 409 when the
// partition lacks that many free nodes — retry after completions).
func (s *Service) DrainNodes(partition, n int) (NodeOpResult, error) {
	if n <= 0 {
		return NodeOpResult{}, &SubmitError{Code: 400, Msg: "nodes must be positive"}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.notLeaderLocked(); err != nil {
		return NodeOpResult{}, err
	}
	if s.cfg.DetCycles {
		return s.deferNodeOpLocked(opPayload{Kind: opDrain, Partition: partition, N: n})
	}
	if err := s.eng.DrainNodes(partition, n, s.vnowLocked()); err != nil {
		code := 400
		if partition >= 0 && partition < len(s.eng.Cluster().Partitions) {
			code = 409 // valid partition, not enough free nodes right now
		}
		return NodeOpResult{}, &SubmitError{Code: code, Msg: err.Error()}
	}
	s.cfg.Logf("operator: partition %d drained %d nodes", partition, n)
	return NodeOpResult{Partition: partition, Nodes: n,
		DownNodes: s.eng.DownNodes(), FreeNodes: s.eng.FreeNodes()}, nil
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
	Checkpoints     int64    `json:"checkpoints"`
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
	SchedCycles   int           `json:"sched_cycles"`
	SolverNodes   int           `json:"solver_nodes"`
	SolverLPIters int           `json:"solver_lp_iters"`
	Starts        int           `json:"starts"`
	Preemptions   int           `json:"preemptions"`
	MaxVars       int           `json:"max_vars"`
	MaxRows       int           `json:"max_rows"`
	MeanCycleMS   float64       `json:"mean_cycle_ms"`
	MaxSolve      time.Duration `json:"-"`

	// Incremental re-solve counters (DESIGN.md §12).
	PatchedCycles     int `json:"patched_cycles"`
	RebuildFallbacks  int `json:"rebuild_fallbacks"`
	RowsPatched       int `json:"rows_patched"`
	ColsPatched       int `json:"cols_patched"`
	WarmBasisReuses   int `json:"warm_basis_reuses"`
	IncumbentSeedHits int `json:"incumbent_seed_hits"`
	ReusedSolves      int `json:"reused_solves"`

	// Shards carries each scheduling domain's counters when the scheduler
	// is the cross-shard coordinator (DESIGN.md §13); the scalar scheduler
	// counters above then hold the combined view.
	Shards []ShardMetrics `json:"shards,omitempty"`
}

// ShardMetrics is one scheduling domain's solver counters.
type ShardMetrics struct {
	Cycles        int `json:"cycles"`
	SolverNodes   int `json:"solver_nodes"`
	SolverLPIters int `json:"solver_lp_iters"`
	Starts        int `json:"starts"`
	Preemptions   int `json:"preemptions"`
	MaxVars       int `json:"max_vars"`
	MaxRows       int `json:"max_rows"`
	PatchedCycles int `json:"patched_cycles"`
	ReusedSolves  int `json:"reused_solves"`
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
	m := Metrics{
		UptimeSeconds:   s.cfg.Clock.Since(s.epoch).Seconds(),
		VirtualNow:      s.vnowLocked(),
		TimeScale:       s.cfg.TimeScale,
		Cycles:          s.cycles,
		Counters:        s.counters,
		QueueLen:        len(s.queue),
		QueueCap:        s.cfg.QueueCap,
		Pending:         s.eng.PendingCount(),
		Running:         s.eng.RunningCount(),
		SkippedStarts:   s.eng.SkippedStarts(),
		Partitions:      append([]int(nil), s.eng.Cluster().Partitions...),
		FreeNodes:       s.eng.FreeNodes(),
		DownNodes:       s.eng.DownNodes(),
		Ready:           s.started && !s.draining && s.role == RoleLeader,
		Checkpoints:     s.ckpts,
		NodeDownSeconds: s.eng.NodeDownSeconds(s.vnowLocked()),
		SchedCycles:     cs.Cycles,
		SolverNodes:     cs.SolverNodes,
		SolverLPIters:   cs.SolverLPIters,
		Starts:          cs.Starts,
		Preemptions:     cs.Preemptions,
		MaxVars:         cs.MaxVars,
		MaxRows:         cs.MaxRows,
		MaxSolve:        cs.MaxSolveTime,

		PatchedCycles:     cs.PatchedCycles,
		RebuildFallbacks:  cs.RebuildFallbacks,
		RowsPatched:       cs.RowsPatched,
		ColsPatched:       cs.ColsPatched,
		WarmBasisReuses:   cs.WarmBasisReuses,
		IncumbentSeedHits: cs.IncumbentSeedHits,
		ReusedSolves:      cs.ReusedSolves,
	}
	for _, st := range shardStats {
		m.Shards = append(m.Shards, ShardMetrics{
			Cycles:        st.Cycles,
			SolverNodes:   st.SolverNodes,
			SolverLPIters: st.SolverLPIters,
			Starts:        st.Starts,
			Preemptions:   st.Preemptions,
			MaxVars:       st.MaxVars,
			MaxRows:       st.MaxRows,
			PatchedCycles: st.PatchedCycles,
			ReusedSolves:  st.ReusedSolves,
		})
	}
	if cs.Cycles > 0 {
		m.MeanCycleMS = float64(cs.CycleTime.Milliseconds()) / float64(cs.Cycles)
	}
	if s.cfg.Predictor != nil {
		m.PredictorGroups = s.cfg.Predictor.GroupCount()
		m.PredictorSHA = s.predictorSHALocked()
	}
	m.Role = string(s.role)
	m.ReplicaID = s.cfg.ReplicaID
	m.LeaderID = s.leaderID
	m.LeaderEpoch = s.leaderEpoch
	m.Control = s.ctl
	if s.log != nil {
		m.LogLen = s.log.Len()
		m.LogBase = s.log.Base()
		if h := s.log.Head(); len(h) >= 12 {
			m.LogHead = h[:12]
		}
		m.Quorum = s.cfg.Quorum
		m.ReplicatedSeq = s.minFollowerAckLocked()
	}
	for _, as := range s.agents {
		if as.dead {
			m.AgentsDead++
		} else {
			m.AgentsLive++
		}
	}
	m.OutcomeDigest = metrics.JobsDigest(s.eng.Outcomes())
	return m
}

// VirtualNow exposes the service's virtual clock (for clients mapping
// deadlines into service time).
func (s *Service) VirtualNow() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return 0
	}
	return s.vnowLocked()
}
