package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"threesigma/internal/core"
	"threesigma/internal/job"
	"threesigma/internal/replog"
	"threesigma/internal/service"
	"threesigma/internal/simulator"
	"threesigma/internal/trace"
)

// The serve workloads' fixed sizes. 64 nodes in 4 partitions is small on
// purpose: the MILP does little, so service, replog and agent do the work.
// One cycle is 10 virtual seconds at 60 virtual seconds per wall second, 167
// ms on the wall; 60 submits per wall second is one job per virtual second.
const (
	serveNodes     = 64
	serveParts     = 4
	serveCycle     = 10.0
	serveTimeScale = 60.0
	serveRate      = 60.0
	serveLease     = 500 * time.Millisecond
	serveDrain     = 8 * time.Second // longest wait for the last jobs to finish
	restarts       = 15              // cold starts over the stopped leader's log; restart_ms is the fastest
	replayBurst    = time.Second     // one of three bursts of replayed cycles (see replay)
	admitWindow    = 5 * time.Second // admit_p50_ms is the lowest median of any such stretch of the timed stream

	// stampAhead is how far in the virtual future a submit's submit_at stamp
	// lies when it is sent: 9 cycles, 1.5 s on the wall. An unstamped submit
	// that lands while the leader is solving is admitted one cycle earlier
	// by the followers (they apply the admit record before the cycle record
	// and do not know it arrived after that cycle's admission), the engines
	// part ways and every replica counts a divergence; seed 3 shows one in
	// 25 cycles. scripts/cluster_smoke.sh stamps its burst 120 s ahead for
	// the same reason. With the stamp, the cycle that admits a job depends
	// on the stamp alone unless a POST takes longer than 1.5 s.
	stampAhead = 9 * serveCycle
)

// serveSpec is one serve workload: how many replicas and agents stand behind
// the leader.
type serveSpec struct {
	replicas int
	agents   int
}

// stages are the lengths of a pass's fixed parts.
type stages struct {
	warmup   time.Duration // load before timing starts, until utilisation is flat
	closed   time.Duration // traced pass: back-to-back submits from nproc clients
	failover time.Duration // traced pass: open loop across a leader stop
}

var fullStages = stages{warmup: 3 * time.Second, closed: 3 * time.Second, failover: 4 * time.Second}

// tinyStages is the smoke test's: the failover stream must still outlast a
// lease and an election.
var tinyStages = stages{warmup: time.Second / 2, closed: time.Second / 2, failover: 2 * time.Second}

var serveSpecs = map[string]serveSpec{
	// Three replicas under a majority quorum with log compaction, four
	// agents owning one partition each: every submit waits for a follower's
	// fsync, every cycle makes four reconcile round trips.
	"serve-group": {replicas: 3, agents: 4},
	// One replica, its log, the in-process completion heap: the same service
	// code with no quorum round, no reconcile hop and no compaction.
	"serve-solo": {replicas: 1},
}

// serveShape sizes the job stream. One job a virtual second on 64 nodes is a
// lot: a job holds its nodes until the first cycle after it is due, so even a
// short one costs a whole 10 s cycle, and the generator's gangs (mean 5 wide)
// overload the cluster at any runtime — the plain 3sigma-loadgen settings
// leave 42 % of jobs abandoned. Gangs of at most 4, load 0.3 (runtimes about
// a cycle long), deadlines 4 to 10 runtimes and never less than 6 cycles
// after the submit (anything tighter is spent waiting for the next cycle)
// and runtimes capped at 2 virtual minutes make it a scheduling workload at
// about half utilisation that drains within seconds of the last submit.
func serveShape(stream time.Duration) shape {
	return shape{
		cluster:     simulator.NewCluster(serveNodes, serveParts),
		windowHours: stream.Seconds() * serveTimeScale / 3600,
		load:        0.3,
		jobsPerHour: serveRate / serveTimeScale * 3600,
		arrivalSCV:  1,
		slack:       []float64{4, 6, 8, 10},
		maxRuntime:  120,
		maxTasks:    4,
		minDeadline: 6 * serveCycle,
	}
}

// onTheWall is how long a span of virtual seconds lasts on the wall clock.
func onTheWall(virtual float64) time.Duration {
	return time.Duration(virtual / serveTimeScale * float64(time.Second))
}

// sample is one timed operation of the open loop, measured from the instant
// it was due, so a stall is charged to every request it delays.
type sample struct {
	due  time.Time
	late time.Duration // how far behind schedule the generator sent it
	lat  time.Duration
	ok   bool
	gap  bool
}

// openLoop submits jobs on their arrival schedule from one connection and
// reads the status of recently acknowledged jobs at the same rate from a
// second one, until the jobs run out. onSubmit, when not nil, is called after
// every submit with its index and its outcome.
func (g *group) openLoop(jobs []*job.Job, retry bool, onSubmit func(i int, s sample)) (submits, reads []sample) {
	t0, v0 := clk.Now(), g.lead().svc.VirtualNow()+stampAhead
	end := t0.Add(onTheWall(jobs[len(jobs)-1].Submit))
	var acked atomic.Int64 // jobs[:acked] are known to the leader
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := g.newClient()
		defer c.close()
		for i, j := range jobs {
			s := sample{due: t0.Add(onTheWall(j.Submit))}
			time.Sleep(s.due.Sub(clk.Now()))
			s.late = clk.Since(s.due)
			s.ok, s.gap = c.submit(j, v0+j.Submit, retry)
			s.lat = clk.Since(s.due)
			submits = append(submits, s)
			if s.ok {
				acked.Store(int64(i + 1))
			}
			if onSubmit != nil {
				onSubmit(i, s)
			}
		}
	}()
	go func() {
		defer wg.Done()
		c := g.newClient()
		defer c.close()
		for k := 0; ; k++ {
			s := sample{due: t0.Add(time.Duration(k) * time.Second / serveRate)}
			if s.due.After(end) {
				return
			}
			time.Sleep(s.due.Sub(clk.Now()))
			n := acked.Load()
			if n == 0 {
				continue
			}
			// One of the last second's jobs: queued, pending or running.
			id := jobs[n-1-int64(k)%min(n, int64(serveRate))].ID
			code, _ := c.do(http.MethodGet, "/v1/jobs/"+strconv.FormatInt(int64(id), 10), nil, int64(id))
			s.ok = code == http.StatusOK
			s.lat = clk.Since(s.due)
			reads = append(reads, s)
		}
	}()
	wg.Wait()
	return submits, reads
}

// servePass is one control plane's life: up, warm-up, timed stream, drain,
// checks, down, restarts.
type servePass struct {
	setup    time.Duration
	wall     time.Duration   // timed stream
	cpu      time.Duration   // process time over the timed stream
	submits  []sample        // timed stream only
	reads    []sample        // timed stream only
	cycles   []time.Duration // leader's Scheduler.Cycle calls during the timed stream
	m        service.Metrics // leader, after the drain
	stats    core.Stats      // leader's scheduler, after the drain
	applied  int64           // records followers applied
	statuses []service.JobStatus
	logBytes int64
	opens    []time.Duration
	replays  []time.Duration
	extra    map[string]float64 // traced stages
	spans    []span
}

// drain waits until every one of jobs is terminal on the leader. It asks for
// each job's status and not for Metrics: Metrics caches the predictor's hash
// and a completion does not invalidate it (only a train feed does), so a
// scrape before the last completion would leave a stale hash to be compared
// with the restarted service's.
func (g *group) drain(jobs []*job.Job, r *result) {
	leader := g.lead()
	open := append([]*job.Job(nil), jobs...)
	for deadline := clk.Now().Add(serveDrain); ; time.Sleep(50 * time.Millisecond) {
		live := open[:0]
		for _, j := range open {
			st, known := leader.svc.Status(j.ID)
			switch st.Phase {
			case service.PhaseCompleted, service.PhaseAbandoned, service.PhaseCancelled, service.PhaseFailed:
			default:
				if known {
					live = append(live, j)
				}
			}
		}
		if open = live; len(open) == 0 || clk.Now().After(deadline) {
			break
		}
	}
	r.check(len(open) == 0, "%d jobs still queued, pending or running %v after the last submit", len(open), serveDrain)
}

// converged holds the live replicas against each other: the same record at
// the highest sequence all have reached and no divergence seen, and — when
// the group is at rest, so that further cycles add records but change no
// outcome — the same outcome digest.
func (g *group) converged(atRest bool, r *result) {
	leader := g.lead()
	var same bool
	var detail string
	for deadline := clk.Now().Add(2 * time.Second); !same && clk.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		same, detail = true, ""
		var want string
		if atRest {
			want = leader.svc.Metrics().OutcomeDigest
		}
		common := leader.log.Len()
		for _, rep := range g.replicas {
			if !rep.stopped.Load() {
				common = min(common, rep.log.Len())
			}
		}
		at := leader.log.Since(common-1, 1)
		for _, rep := range g.replicas {
			if rep.stopped.Load() || rep == leader {
				continue
			}
			got := rep.log.Since(common-1, 1)
			if d := rep.svc.Metrics().OutcomeDigest; atRest && d != want {
				same, detail = false, fmt.Sprintf("replica %d outcome digest %.12s, leader %.12s", rep.id, d, want)
			} else if len(at) != 1 || len(got) != 1 || at[0].Hash != got[0].Hash {
				same, detail = false, fmt.Sprintf("replica %d and the leader hold different records at seq %d", rep.id, common)
			}
		}
	}
	r.check(same, "replicas did not converge: %s", detail)
	for _, rep := range g.replicas {
		if d := rep.svc.Metrics().Control.Diverged; d != 0 {
			r.check(false, "replica %d saw %d divergences", rep.id, d)
		}
	}
}

// runServePass runs stream through a fresh control plane in dir. stream[:warm]
// is the warm-up; extra feeds the traced pass's closed loop.
func runServePass(spec serveSpec, st stages, dir string, train []trace.Record, stream []*job.Job, warm int, extra []*job.Job, r *result, tr *tracer) (*servePass, error) {
	p := &servePass{extra: map[string]float64{}}
	t0 := clk.Now()
	g, err := startGroup(spec, dir, train, tr)
	if err != nil {
		return nil, err
	}
	defer g.stop()
	p.setup = clk.Since(t0)
	p.extra["predictor.train_ms"] = ms(g.fed)
	leader := g.lead()

	// One stream; timing starts once the last warm-up job is answered.
	var t1 time.Time
	var cpu0 time.Duration
	var cycles0 int
	submits, reads := g.openLoop(stream, false, func(i int, _ sample) {
		if i+1 == warm {
			_, cyc, _ := leader.probe.totals()
			t1, cpu0, cycles0 = clk.Now(), processCPU(), len(cyc)
		}
	})
	p.wall, p.cpu = clk.Since(t1), processCPU()-cpu0
	_, cyc, _ := leader.probe.totals()
	p.cycles = cyc[cycles0:]
	p.submits = submits[warm:]
	for _, s := range reads {
		if s.due.After(t1) {
			p.reads = append(p.reads, s)
		}
	}
	g.drain(stream, r)
	g.converged(true, r)

	// Every submit answered 202 with its record on a quorum, every
	// acknowledged job known to the leader, every read answered 200.
	p.m, p.stats = leader.svc.Metrics(), leader.probe.Stats()
	for i, j := range stream {
		st, known := leader.svc.Status(j.ID)
		r.attempted++
		if !submits[i].ok || submits[i].gap || !known {
			r.failed++
		}
		r.check(known || !submits[i].ok, "job %d was acknowledged but the leader does not know it", j.ID)
		p.statuses = append(p.statuses, st)
	}
	for _, s := range reads {
		r.attempted++
		if !s.ok {
			r.failed++
		}
	}
	r.check(p.m.Counters.Rejected == 0, "%d submits refused with 429: QueueCap is too small for the reference rate", p.m.Counters.Rejected)
	r.check(p.m.Control.ReplLagTimeouts == 0, "%d replication waits timed out", p.m.Control.ReplLagTimeouts)
	r.check(float64(p.m.Counters.Completed) >= 0.9*float64(len(stream)),
		"only %d of %d jobs completed: an abandonment storm, not a scheduling workload", p.m.Counters.Completed, len(stream))
	r.check(p.tickMissPct() < 2, "the leader missed %.1f %% of its cycle ticks: a backlog was growing", p.tickMissPct())
	for _, rep := range g.replicas {
		p.applied += rep.svc.Metrics().Control.RecordsApplied
	}

	// Traced stages the measured pass does not have. The closed loop leaves
	// far more work behind than the cluster will ever run, so nothing after
	// it waits for jobs to finish.
	if tr != nil {
		g.closedLoopStage(extra, st.closed, p)
		if spec.replicas > 1 {
			g.failoverStage(st.failover, p, r)
			g.converged(false, r)
			leader = g.lead()
		}
	}

	// Restart: a cold service over the stopped leader's log must come back
	// with the same outcomes and the same predictor.
	g.stop()
	final := leader.svc.Metrics()
	p.m.LogLen, p.m.LogBase = final.LogLen, final.LogBase
	if fi, err := os.Stat(leader.path); err == nil {
		p.logBytes = fi.Size()
	}
	for i := 0; i < restarts; i++ {
		runtime.GC() // every restart starts from the same heap
		cold, opened, replayed, err := newReplica(leader.id, leader.path, g.peers, g.clients, nil)
		if err != nil {
			return nil, fmt.Errorf("restart from %s: %w", leader.path, err)
		}
		m := cold.svc.Metrics()
		r.check(m.OutcomeDigest == final.OutcomeDigest, "restart %d: outcome digest %.12s, the stopped leader had %.12s", i, m.OutcomeDigest, final.OutcomeDigest)
		// The traced stages complete jobs after settle has made the leader
		// cache its predictor hash, so only the measured pass can compare it.
		r.check(tr != nil || m.PredictorSHA == final.PredictorSHA, "restart %d: predictor %.12s, the stopped leader had %.12s", i, m.PredictorSHA, final.PredictorSHA)
		if err := cold.log.Close(); err != nil {
			return nil, err
		}
		p.opens, p.replays = append(p.opens, opened), append(p.replays, replayed)
	}
	if tr != nil {
		if err := replogProbes(dir, p); err != nil {
			return nil, err
		}
		p.spans = tr.finish()
	}
	return p, nil
}

// restart is the fastest of the cold starts over the stopped leader's log —
// replog.Open plus service.New, the same replay each time, so what varies is
// what the machine added (see fastestEach).
func (p *servePass) restart() time.Duration {
	best := p.opens[0] + p.replays[0]
	for i := range p.opens {
		best = min(best, p.opens[i]+p.replays[i])
	}
	return best
}

// tickMissPct is the share of the wall-clock cycle ticks of the timed stream
// on which the leader ran no cycle.
func (p *servePass) tickMissPct() float64 {
	due := p.wall.Seconds() * serveTimeScale / serveCycle
	return max(0, 100*(1-float64(len(p.cycles))/due))
}

// closedLoopStage submits back to back from nproc clients for a fixed time:
// what the service sustains when callers wait for their reply. It goes round
// jobs as often as it needs to, under fresh ids.
func (g *group) closedLoopStage(jobs []*job.Job, length time.Duration, p *servePass) {
	var next, done atomic.Int64
	var wg sync.WaitGroup
	t0 := clk.Now()
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := g.newClient()
			defer c.close()
			for clk.Since(t0) < length {
				i := int(next.Add(1)) - 1
				j := *jobs[i%len(jobs)]
				j.ID = 1<<20 + job.ID(i)
				if ok, _ := c.submit(&j, g.lead().svc.VirtualNow()+stampAhead, false); ok {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	p.extra["service.closed_loop_rps"] = float64(done.Load()) / clk.Since(t0).Seconds()
}

// failoverStage stops the leader under a continuing open loop and times the
// gap from the stop to the first submit the next leader accepts.
func (g *group) failoverStage(length time.Duration, p *servePass, r *result) {
	jobs, _ := newPool(serveShape(length)).draw(populationSeed)
	for _, j := range jobs {
		j.ID += 1 << 30 // clear of every id the stream used
	}
	old := g.lead()
	var stopped time.Time
	var gap time.Duration
	var wg sync.WaitGroup
	submits, _ := g.openLoop(jobs, true, func(i int, s sample) {
		switch {
		case i == len(jobs)/4:
			stopped = clk.Now()
			wg.Add(1)
			go func() { defer wg.Done(); g.stopReplica(old) }()
		case !stopped.IsZero() && gap == 0 && s.ok:
			gap = clk.Since(stopped)
		}
	})
	wg.Wait()
	p.extra["service.failover_ms"] = ms(gap)
	lost := 0
	for _, s := range submits {
		if !s.ok {
			lost++
		}
	}
	r.check(lost == 0, "%d submits were never accepted across the failover", lost)
	r.check(g.awaitLeader(5*time.Second) == nil, "no leader after the failover")
}

// replogProbes times the log alone on a scratch file next to the replicas'
// logs: single appends (each one an fsync), a bare write+fsync for scale,
// and a compaction.
func replogProbes(dir string, p *servePass) error {
	path := filepath.Join(dir, "probe.log")
	l, err := replog.Open(path)
	if err != nil {
		return err
	}
	payload := map[string]any{"job": requestBody(&job.Job{ID: 1, Name: "probe", User: "bench", Tasks: 4, Runtime: 10}, 0)}
	var appends []time.Duration
	for i := 0; i < 200; i++ {
		t0 := clk.Now()
		if _, err := l.Append(1, replog.TypeAdmit, int64(i), payload); err != nil {
			return err
		}
		appends = append(appends, clk.Since(t0))
	}
	snap, err := l.Append(1, replog.TypeSnapshot, 200, map[string]any{"state": bytes.Repeat([]byte("x"), 32<<10)})
	if err != nil {
		return err
	}
	t0 := clk.Now()
	if err := l.Compact(snap.Seq); err != nil {
		return err
	}
	p.extra["replog.compact_ms"] = ms(clk.Since(t0))
	if err := l.Close(); err != nil {
		return err
	}
	p.extra["replog.append_p50_us"] = us(durQuantile(appends, 0.5))
	p.extra["replog.append_p99_us"] = us(durQuantile(appends, 0.99))

	f, err := os.Create(filepath.Join(dir, "probe.raw"))
	if err != nil {
		return err
	}
	var syncs []time.Duration
	for i := 0; i < 50; i++ {
		t0 := clk.Now()
		if _, err := f.Write(make([]byte, 512)); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, clk.Since(t0))
	}
	p.extra["replog.fsync_probe_us"] = us(durQuantile(syncs, 0.5))
	return f.Close()
}

// quietestMedian cuts the timed submits into stretches of admitWindow by the
// time they were due and returns the lowest of the stretches' medians. The
// machine's slow spells (a neighbour emptying the shared cache, a burst on the
// shared disk) last from seconds to a minute or two and only ever add time; a
// median over the whole stream moves with however much of it a spell covered,
// the quietest stretch's does not unless the spell covered all of it.
func quietestMedian(ss []sample) time.Duration {
	var best time.Duration
	for lo, hi := 0, 0; lo < len(ss); lo = hi {
		for hi < len(ss) && ss[hi].due.Sub(ss[lo].due) < admitWindow {
			hi++
		}
		if lo > 0 && ss[hi-1].due.Sub(ss[lo].due) < admitWindow/2 {
			break // the stream's last, short stretch
		}
		if m := durQuantile(lats(ss[lo:hi]), 0.5); lo == 0 || m < best {
			best = m
		}
	}
	return best
}

func lats(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}

// endToEnd reads the pass's user-visible numbers.
func (p *servePass) endToEnd(jobs []*job.Job) map[string]float64 {
	var slo, met int
	var good float64
	for i, st := range p.statuses {
		j := jobs[i]
		if j.HasDeadline() {
			slo++
		}
		if st.Phase != service.PhaseCompleted {
			continue
		}
		// The service stamped its own submit time; the deadline moves with it.
		onTime := !j.HasDeadline() || st.CompletionTime <= st.SubmitTime+(j.Deadline-j.Submit)
		if onTime {
			good += j.Work() / 3600
			if j.HasDeadline() {
				met++
			}
		}
	}
	return map[string]float64{
		"cycles_per_s":   float64(len(p.cycles)) / p.wall.Seconds(),
		"admit_p50_ms":   ms(quietestMedian(p.submits)),
		"restart_ms":     ms(p.restart()),
		"slo_attain_pct": pct(float64(met), float64(slo)),
		"goodput_mh":     good,
	}
}

// replay fills in cycle_p50_ms and cycle_p99_ms for a serve workload by
// simulating the timed stream on the service's cluster with the service's
// scheduler settings, as a sim workload would: repeated, fastest observation
// of each cycle kept. The live leader's cycles are timed too
// (core.cycle_busy_ms, service.cycle_sched_ms in the traced pass), but they
// are 0.2 ms events in a process busy answering HTTP on both cores, and their
// median moves by a quarter from run to run; the stream's scheduling cost
// does not. The repetitions come in bursts at points of the run where no
// control plane is up, half a minute apart, so that a slow spell of the
// machine covers some of them and not all.
type replay struct {
	spec   simSpec
	stream []*job.Job
	train  []trace.Record
	cycles [][]time.Duration
}

func newReplay(stream []*job.Job, train []trace.Record) *replay {
	return &replay{stream: stream, train: train, spec: simSpec{
		shape: shape{cluster: simulator.NewCluster(serveNodes, serveParts)},
		core:  core.Config{CycleInterval: serveCycle, SolverBudget: solverBudget},
		drain: stampAhead,
	}}
}

// burst repeats the simulation for length, at least reps times.
func (rp *replay) burst(reps int, length time.Duration) error {
	for n, start := 0, clk.Now(); n < reps || clk.Since(start) < length; n++ {
		runtime.GC() // every repetition starts from the same heap
		pass, err := rp.spec.simulate(rp.stream, rp.train, false, nil)
		if err != nil {
			return err
		}
		rp.cycles = append(rp.cycles, pass.res.CycleLatencies)
	}
	return nil
}

func (rp *replay) report(r *result) {
	fastest := fastestEach(rp.cycles)
	r.e2e["cycle_p50_ms"] = ms(durQuantile(fastest, 0.50))
	// 60 to 190 cycles a repetition: the 90th percentile stands in for the 99th.
	r.e2e["cycle_p99_ms"] = ms(durQuantile(fastest, 0.90))
}

// perLayer reads the traced pass's layer numbers.
func (p *servePass) perLayer(spec serveSpec) map[string]float64 {
	by := sumSpans(p.spans)
	est, obs := get(by, "predictor.estimate"), get(by, "predictor.observe")
	sub, cyc := get(by, "core.submit"), get(by, "core.cycle")
	post, read := get(by, "service.POST /v1/jobs"), get(by, "service.GET /v1/jobs/{id}")
	push := get(by, "service.POST /v1/replog/append")
	rtt, rec := get(by, "agent.rtt"), get(by, "agent.POST /v1/reconcile")
	var late, delays []time.Duration
	for _, s := range p.submits {
		late = append(late, s.late)
	}
	for _, st := range p.statuses {
		if st.FirstStart > 0 {
			delays = append(delays, onTheWall(st.FirstStart-st.SubmitTime))
		}
	}
	var gaps int
	for _, s := range p.submits {
		if s.gap {
			gaps++
		}
	}
	m, st := p.m, p.stats
	out := map[string]float64{
		"predictor.estimate_calls":   float64(est.calls),
		"predictor.estimate_busy_ms": ms(est.busy),
		"predictor.estimate_p99_us":  us(durQuantile(est.durations, 0.99)),
		"predictor.observe_busy_ms":  ms(obs.busy),

		// In deterministic-cycle mode the scheduler's own timers read the
		// cycle-indexed clock and report zero, so a cycle is not split into
		// solve and the rest from outside; milp.* timings stay 0 here.
		"core.cycle_calls":         float64(cyc.calls),
		"core.cycle_busy_ms":       ms(cyc.busy),
		"core.self_ms":             ms(cyc.self),
		"core.submit_busy_ms":      ms(sub.self),
		"core.memo_hit_pct":        100 * st.CacheHitRate(),
		"core.quiet_pct":           pct(float64(st.PatchedCycles+st.RebuildFallbacks), float64(st.Cycles)),
		"core.patched_cycles":      float64(st.PatchedCycles),
		"core.rebuild_fallbacks":   float64(st.RebuildFallbacks),
		"core.reused_solves":       float64(st.ReusedSolves),
		"core.max_vars":            float64(st.MaxVars),
		"core.max_rows":            float64(st.MaxRows),
		"core.starts":              float64(st.Starts),
		"core.preemptions":         float64(st.Preemptions),
		"milp.bb_nodes":            float64(st.SolverNodes),
		"milp.lp_iters":            float64(st.SolverLPIters),
		"milp.spec_lps":            float64(st.SpecLPs),
		"milp.spec_used_pct":       pct(float64(st.SpecUsed), float64(st.SpecLPs)),
		"milp.warm_basis_reuses":   float64(st.WarmBasisReuses),
		"milp.incumbent_seed_hits": float64(st.IncumbentSeedHits),

		"service.submit_busy_ms":     ms(post.busy),
		"service.admit_p95_ms":       ms(durQuantile(lats(p.submits), 0.95)),
		"service.admit_p99_ms":       ms(durQuantile(lats(p.submits), 0.99)),
		"service.admit_max_ms":       ms(durQuantile(lats(p.submits), 1)),
		"service.status_busy_ms":     ms(read.busy),
		"service.status_p50_ms":      ms(durQuantile(lats(p.reads), 0.50)),
		"service.status_p95_ms":      ms(durQuantile(lats(p.reads), 0.95)),
		"service.start_delay_p50_ms": ms(durQuantile(delays, 0.5)),
		"service.cycle_sched_ms":     ms(sumDur(p.cycles)),
		"service.cycles":             float64(len(p.cycles)),
		"service.tick_miss_pct":      p.tickMissPct(),
		"service.rejected_429":       float64(m.Counters.Rejected),
		"service.repl_gap":           float64(gaps),
		"service.repl_lag_timeouts":  float64(m.Control.ReplLagTimeouts),
		"service.snapshots":          float64(m.Control.Snapshots),
		"service.compactions":        float64(m.Control.Compactions),
		"service.replay_ms":          ms(durQuantile(p.replays, 0.5)),

		"replog.records":          float64(m.LogLen),
		"replog.bytes":            float64(p.logBytes),
		"replog.bytes_per_record": float64(p.logBytes) / float64(max(1, m.LogLen-m.LogBase)),
		"replog.open_ms":          ms(durQuantile(p.opens, 0.5)),

		"loadgen.late_p99_ms": ms(durQuantile(late, 0.99)),
		"proc.cpu_s":          p.cpu.Seconds(),
	}
	if spec.replicas > 1 {
		out["service.follower_append_calls"] = float64(push.calls)
		out["service.follower_append_busy_ms"] = ms(push.busy)
		out["service.records_per_push"] = float64(p.applied) / float64(max(1, push.calls))
	}
	if spec.agents > 0 {
		out["agent.reconcile_calls"] = float64(rtt.calls)
		out["agent.reconcile_rtt_p50_ms"] = ms(durQuantile(rtt.durations, 0.50))
		out["agent.reconcile_rtt_p99_ms"] = ms(durQuantile(rtt.durations, 0.99))
		out["agent.reconcile_busy_ms"] = ms(rec.busy)
		out["agent.directives_sent"] = float64(m.Control.DirectivesSent)
		out["agent.events_applied"] = float64(m.Control.EventsApplied)
		out["agent.reissued"] = float64(m.Control.Reissued)
		out["agent.start_delay_p50_ms"] = out["service.start_delay_p50_ms"]
	}
	for k, v := range p.extra {
		out[k] = v
	}
	return out
}

// runServe is one benchmark run of a serve workload.
func runServe(name string, o options) (*result, error) {
	spec := serveSpecs[name]
	st, timed := fullStages, time.Duration(o.seconds)*time.Second
	if o.tiny {
		st = tinyStages
	}
	warmup := st.warmup
	r := newResult()
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(o.outDir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	// The warm-up is drawn from the seed, so every run starts timing from a
	// different cluster and predictor state; the timed stream is the fixed
	// list (see populationSeed) — what a cycle costs depends on which jobs are
	// pending together, and seed-drawn streams move the cycle metrics by a
	// quarter. The closed loop's jobs are drawn from the seed too.
	var stream, extra []*job.Job
	var train []trace.Record
	var warm int
	generate := func() time.Duration {
		t0 := clk.Now()
		stream, _ = newPool(serveShape(warmup)).draw(o.seed)
		warm = len(stream)
		var fixed []*job.Job
		fixed, train = newPool(serveShape(timed)).draw(populationSeed)
		for _, j := range fixed {
			j.ID += job.ID(warm)
			j.Submit += warmup.Seconds() * serveTimeScale
			j.Deadline += warmup.Seconds() * serveTimeScale
		}
		stream = append(stream, fixed...)
		if o.trace {
			extra, _ = newPool(serveShape(timed)).draw(o.seed + 1)
		}
		return clk.Since(t0)
	}

	generated := generate()

	// Before any listener is up: the process is as quiet as a sim workload's.
	rp := newReplay(stream[warm:], train)
	if err := rp.burst(o.minReps, replayBurst); err != nil {
		return nil, err
	}

	// Set-up, several times over: the jobs again, then a control plane brought
	// up cold, elected and fed its history; these are torn down unused, the
	// measured pass's own set-up is the last sample.
	setups := []float64{}
	for start := clk.Now(); !o.enoughSetups(len(setups)+1, clk.Since(start)); {
		t0 := clk.Now()
		generate()
		dir := filepath.Join(base, fmt.Sprintf("setup%d", len(setups)))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		g, err := startGroup(spec, dir, train, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, clk.Since(t0).Seconds())
		g.stop()
	}
	if err := rp.burst(o.minReps, replayBurst); err != nil {
		return nil, err
	}

	pass := func(sub string, tr *tracer) (*servePass, error) {
		dir := filepath.Join(base, sub)
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		return runServePass(spec, st, dir, train, stream, warm, extra, r, tr)
	}
	measured, err := pass("measured", nil)
	if err != nil {
		return nil, err
	}
	if err := rp.burst(o.minReps, replayBurst); err != nil {
		return nil, err
	}
	rp.report(r)
	for name, v := range measured.endToEnd(stream) {
		r.e2e[name] = v
	}
	r.e2e["setup_s"] = median(append(setups, (generated + measured.setup).Seconds()))
	r.note("%d submits and %d status reads timed over %.1f s after %.1f s of warm-up; %d leader cycles; %d of %d jobs completed",
		len(measured.submits), len(measured.reads), measured.wall.Seconds(), warmup.Seconds(), len(measured.cycles),
		measured.m.Counters.Completed, len(measured.statuses))

	if o.trace {
		tr := newTracer()
		traced, err := pass("traced", tr)
		if err != nil {
			return nil, err
		}
		r.layer = traced.perLayer(spec)
		r.layer["workload.generate_ms"] = ms(generated)
		// Both passes are paced by the clock, so the cost of tracing shows
		// in processor time, not in wall time.
		r.layer["proc.trace_overhead_pct"] = 100 * (traced.cpu.Seconds()/measured.cpu.Seconds() - 1)
		r.spans = traced.spans
	}
	return r, nil
}

func init() {
	for name := range serveSpecs {
		name := name
		workloads[name] = func(o options) (*result, error) { return runServe(name, o) }
	}
}
