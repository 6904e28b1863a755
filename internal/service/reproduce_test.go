package service

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"threesigma/internal/core"
	"threesigma/internal/experiments"
	"threesigma/internal/faults"
	"threesigma/internal/job"
	"threesigma/internal/predictor"
	"threesigma/internal/simulator"
	"threesigma/internal/workload"
)

// streamLine is one entry of a decision stream: the time of the cycle that
// made it and its rendering, floats as exact bits.
type streamLine struct {
	at float64
	s  string
}

// recSched records every decision of a scheduler that saw work — a cycle
// over an idle cluster is one the simulator skips — and every call the
// cycle transition makes on it. It forwards JobRemoved.
type recSched struct {
	inner      simulator.Scheduler
	out, calls []streamLine
	now        float64 // of the last cycle that saw work
}

func (r *recSched) JobSubmitted(j *job.Job, now float64) {
	r.calls = append(r.calls, streamLine{r.now, fmt.Sprintf("submitted %d at %v", j.ID, now)})
	r.inner.JobSubmitted(j, now)
}

func (r *recSched) JobCompleted(j *job.Job, base, now float64) {
	r.calls = append(r.calls, streamLine{r.now, fmt.Sprintf("completed %d at %v (base %v)", j.ID, now, base)})
	r.inner.JobCompleted(j, base, now)
}

func (r *recSched) JobRemoved(id job.ID) {
	r.calls = append(r.calls, streamLine{r.now, fmt.Sprintf("removed %d", id)})
	if rm, ok := r.inner.(interface{ JobRemoved(job.ID) }); ok {
		rm.JobRemoved(id)
	}
}

func (r *recSched) Cycle(st *simulator.State) simulator.Decision {
	dec := r.inner.Cycle(st)
	if len(st.Pending)+len(st.Running) == 0 {
		return dec
	}
	r.now = st.Now
	for _, id := range dec.Preempt {
		r.out = append(r.out, streamLine{st.Now, fmt.Sprintf("preempt job %d", id)})
	}
	for _, a := range dec.Start {
		r.out = append(r.out, streamLine{st.Now, fmt.Sprintf("start job %d on %v", a.Job, a.Alloc)})
	}
	return dec
}

// decisionLine renders a core decision with its planned start and E[U] as
// exact bits: DecisionEvent.String rounds them to two decimals.
func decisionLine(e core.DecisionEvent) streamLine {
	hex := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	return streamLine{e.Time, fmt.Sprintf("%v planned=%s pref=%t E[U]=%s (%s)",
		e.Kind, hex(e.PlannedStart), e.OnPreferred, hex(e.Utility), e)}
}

// decisionDiff reports where two decision streams part: the first differing
// entry's index and cycle time and both sides with three entries of context
// either way. It returns "" when the streams are equal.
func decisionDiff(what string, sim, svc []streamLine) string {
	i := 0
	for i < len(sim) && i < len(svc) && sim[i] == svc[i] {
		i++
	}
	if i == len(sim) && i == len(svc) {
		return ""
	}
	at := 0.0
	if i < len(sim) {
		at = sim[i].at
	} else {
		at = svc[i].at
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: the streams part at entry %d (cycle t=%g; %d entries simulated, %d served)\n",
		what, i, at, len(sim), len(svc))
	for _, side := range []struct {
		name string
		l    []streamLine
	}{{"simulator", sim}, {"service", svc}} {
		fmt.Fprintf(&b, "  %s:\n", side.name)
		for k := max(0, i-3); k < min(len(side.l), i+4); k++ {
			mark := "  "
			if k == i {
				mark = "> "
			}
			fmt.Fprintf(&b, "  %s%d t=%g %s\n", mark, k, side.l[k].at, side.l[k].s)
		}
	}
	return b.String()
}

// fateAt is what a job's outcome says by the last cycle at end: what the
// simulator's drain past it (completions, crashes and faults with no cycle
// after them) cannot have changed. Evictions count only for a job done by
// then; Failed is compared separately.
func fateAt(o *simulator.Outcome, end float64) string {
	s := fmt.Sprintf("started=%t first=%v preempts=%d wasted=%v", o.Started, o.FirstStart, o.Preemptions, o.WastedWork)
	if o.Completed && o.CompletionTime < end {
		s += fmt.Sprintf(" done=%v runtime=%v pref=%t evictions=%d lost=%v",
			o.CompletionTime, o.ActualRuntime, o.OnPreferred, o.Evictions, o.LostToFailures)
	}
	return s
}

// reproRun is one side of a comparison: its scheduler's decisions and the
// transition's calls on it, the core decision stream and the outcomes.
type reproRun struct {
	decisions, calls, core []streamLine
	outcomes               []*simulator.Outcome
}

// newReproSched builds the system over p, recording its core decisions.
func newReproSched(t *testing.T, sys experiments.System, p *predictor.Predictor, run *reproRun) *recSched {
	t.Helper()
	cfg := core.Config{CycleInterval: 10, OnDecision: func(e core.DecisionEvent) { run.core = append(run.core, decisionLine(e)) }}
	sched, err := experiments.NewScheduler(sys, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &recSched{inner: sched}
}

// simulate runs the workload through simulator.New, the way every figure
// does.
func simulate(t *testing.T, sys experiments.System, w *workload.Workload, fc *faults.Config, seed int64) (*reproRun, float64) {
	t.Helper()
	run := &reproRun{}
	rec := newReproSched(t, sys, experiments.Pretrain(predictor.New(predictor.Config{}), w), run)
	sim, err := simulator.New(rec, w.Jobs, simulator.Options{Cluster: w.Cluster, CycleInterval: 10, DrainWindow: 2400, Seed: seed, Faults: fc})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	run.decisions, run.calls, run.outcomes = rec.out, rec.calls, res.Outcomes
	return run, res.EndTime
}

// serve runs the workload through a peerless Service with no log and its
// in-process agent: the history fed through TrainBatch, every job submitted
// with its own stamp, one runCycle per cycle up to end.
func serve(t *testing.T, sys experiments.System, w *workload.Workload, fc *faults.Config, end float64) *reproRun {
	t.Helper()
	run := &reproRun{}
	p := predictor.New(predictor.Config{})
	rec := newReproSched(t, sys, p, run)
	cfg := Config{Cluster: w.Cluster, Scheduler: rec, Predictor: p, CycleInterval: 10, QueueCap: len(w.Jobs) + 1}
	if fc != nil {
		f := *fc
		f.Horizon = end // the simulator's schedule spans its run
		cfg.Faults = &f
	}
	svc := mustService(t, cfg)
	svc.mu.Lock()
	svc.takeoverLocked(0)
	svc.mu.Unlock()
	train := make([]TrainRecord, len(w.Train))
	for i, r := range w.Train {
		train[i] = TrainRecord{Job: r.Job(), Runtime: r.Runtime}
	}
	if _, _, err := svc.TrainBatch(train); err != nil {
		t.Fatal(err)
	}
	for _, j := range w.Jobs {
		if _, err := svc.Submit(j); err != nil {
			t.Fatalf("submit job %d: %v", j.ID, err)
		}
	}
	for k := 1; float64(k)*10 <= end; k++ {
		svc.runCycle()
	}
	run.decisions, run.calls, run.outcomes = rec.out, rec.calls, svc.st.eng.Outcomes()
	return run
}

// TestServiceReproducesSimulator holds the deployed system to the paper's
// simulator: one workload through simulator.New and through a Service's
// cycles makes the same decisions, cycle by cycle, with the core decision
// streams equal to the bit, and leaves every job the same fate by the last
// cycle. Both run the same cycle transition (DESIGN.md §7), so a difference
// is an input one of them feeds it differently.
func TestServiceReproducesSimulator(t *testing.T) {
	type arm struct {
		nodes, parts int
		hours        float64
		seed         int64
		sys          experiments.System
		faults       string
	}
	var arms []arm
	for _, f := range []string{"", "light"} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, sys := range []experiments.System{experiments.Sys3Sigma, experiments.SysPointRealEst, experiments.SysPrio} {
				arms = append(arms, arm{64, 4, 0.25, seed, sys, f})
			}
		}
	}
	if !testing.Short() {
		for _, sys := range []experiments.System{experiments.Sys3Sigma, experiments.SysPointRealEst} {
			arms = append(arms, arm{256, 8, 2, 1, sys, ""}, arm{256, 8, 2, 4, sys, ""}, arm{256, 8, 2, 1, sys, "light"})
		}
	}
	for _, a := range arms {
		name := fmt.Sprintf("%dx%d/%gh/seed%d/%s", a.nodes, a.parts, a.hours, a.seed, a.sys)
		if a.faults != "" {
			name += "/faults-" + a.faults
		}
		t.Run(name, func(t *testing.T) {
			gen := func() *workload.Workload {
				return workload.Generate(workload.Config{Cluster: simulator.NewCluster(a.nodes, a.parts),
					DurationHours: a.hours, Load: 1.4, Seed: a.seed})
			}
			var fc *faults.Config
			if a.faults != "" {
				f, err := faults.ParseSpec(a.faults)
				if err != nil {
					t.Fatal(err)
				}
				f.Seed = a.seed
				fc = &f
			}
			// Each side gets its own copy of the jobs.
			sim, end := simulate(t, a.sys, gen(), fc, a.seed)
			svc := serve(t, a.sys, gen(), fc, end)
			if d := decisionDiff("decisions", sim.decisions, svc.decisions); d != "" {
				t.Error(d)
			}
			if d := decisionDiff("core decision events", sim.core, svc.core); d != "" {
				t.Error(d)
			}
			// The simulator's drain past its horizon makes more calls.
			if d := decisionDiff("transition calls", sim.calls[:min(len(sim.calls), len(svc.calls))], svc.calls); d != "" {
				t.Error(d)
			}
			if len(sim.outcomes) != len(svc.outcomes) {
				t.Fatalf("%d jobs simulated, %d served", len(sim.outcomes), len(svc.outcomes))
			}
			last := float64(int(end/10)) * 10
			t.Logf("%d jobs, %d decisions, %d core decision events, to t=%g", len(sim.outcomes), len(sim.decisions), len(sim.core), last)
			for i, so := range sim.outcomes {
				vo := svc.outcomes[i]
				if sf, vf := fateAt(so, last), fateAt(vo, last); so.Job.ID != vo.Job.ID || sf != vf {
					t.Fatalf("job %d by t=%g:\n  simulator: %s\n  service:   %s", so.Job.ID, last, sf, vf)
				}
				if vo.Failed && (!so.Failed || so.Evictions != vo.Evictions) {
					t.Fatalf("job %d failed out after %d evictions served; simulated: failed=%t after %d",
						vo.Job.ID, vo.Evictions, so.Failed, so.Evictions)
				}
			}
		})
	}
}

// TestDecisionDiffNamesFirstMismatch: the gate's failure points at a place
// — the first differing entry, its cycle, and both sides around it.
func TestDecisionDiffNamesFirstMismatch(t *testing.T) {
	var a, b []streamLine
	for i := 0; i < 10; i++ {
		l := streamLine{float64(10 * (i / 2)), fmt.Sprintf("start job %d", i)}
		a, b = append(a, l), append(b, l)
	}
	if d := decisionDiff("x", a, b); d != "" {
		t.Fatalf("equal streams reported: %s", d)
	}
	b[6].s = "start job 99"
	d := decisionDiff("x", a, b)
	for _, want := range []string{"entry 6 (cycle t=30;", "> 6 t=30 start job 6", "> 6 t=30 start job 99", "  3 t=10 start job 3", "  9 t=40 start job 9"} {
		if !strings.Contains(d, want) {
			t.Errorf("report misses %q:\n%s", want, d)
		}
	}
	if strings.Contains(d, " 2 t=10") {
		t.Errorf("report shows more than three entries before the mismatch:\n%s", d)
	}
	if d := decisionDiff("x", a, a[:8]); !strings.Contains(d, "entry 8 (cycle t=40; 10 entries simulated, 8 served)") {
		t.Errorf("a stream cut short is not named at its end:\n%s", d)
	}
}

// callRec records the scheduler calls of a cycle window, in order.
type callRec struct {
	fifoSched
	calls []string
}

func (c *callRec) JobSubmitted(j *job.Job, now float64) {
	c.calls = append(c.calls, fmt.Sprintf("submitted %d at %g", j.ID, now))
}
func (c *callRec) JobCompleted(j *job.Job, _, now float64) {
	c.calls = append(c.calls, fmt.Sprintf("completed %d at %g", j.ID, now))
}
func (c *callRec) JobRemoved(id job.ID) { c.calls = append(c.calls, fmt.Sprintf("removed %d", id)) }

// TestCycleTopAppliesTheSimulatorsOrder: a cycle window whose events tie —
// arrivals at t=10 and at the cycle's own time, two completions and a crash
// that exhausts its job's retries at t=10, reported out of launch order — is
// applied by cycleTop in the order the simulator's transition applies it.
func TestCycleTopAppliesTheSimulatorsOrder(t *testing.T) {
	cluster := simulator.Cluster{Partitions: []int{4, 4}}
	mk := func(id job.ID, submit float64, tasks int) *job.Job {
		return &job.Job{ID: id, Submit: submit, Runtime: 10, Tasks: tasks, NonPrefFactor: 1}
	}
	// Jobs 1-3 run from t=0 (runs 2-4); job 3 was evicted once already.
	running := func(eng *simulator.Engine) {
		eng.SetRetryBudget(1)
		for _, j := range []*job.Job{mk(1, 0, 2), mk(2, 0, 2), mk(3, 0, 2)} {
			if err := eng.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		eng.Start(simulator.StartAction{Job: 3, Alloc: simulator.Alloc{2, 0}}, 0)
		eng.FailNodes(0, 4, 0)
		eng.RecoverNodes(0, 4, 0)
		for _, a := range []simulator.StartAction{{Job: 1, Alloc: simulator.Alloc{2, 0}}, {Job: 2, Alloc: simulator.Alloc{0, 2}}, {Job: 3, Alloc: simulator.Alloc{2, 0}}} {
			if _, ok := eng.Start(a, 0); !ok {
				t.Fatalf("start %v refused", a)
			}
		}
	}
	arrivals := []*job.Job{mk(4, 10, 1), mk(5, 20, 1)}
	ends := func() []simulator.RunEnd {
		return []simulator.RunEnd{{ID: 3, RunID: 4, At: 10, Crash: true}, {ID: 2, RunID: 3, At: 10}, {ID: 1, RunID: 2, At: 10}}
	}

	sim := &callRec{}
	eng := simulator.NewEngine(cluster)
	running(eng)
	tr := simulator.Transition{Sched: sim}
	tr.Apply(eng, arrivals, nil, ends())

	svc := &callRec{}
	st := newState(env{sched: svc}, cluster)
	running(st.eng)
	for i := len(arrivals) - 1; i >= 0; i-- { // admission orders the queue
		st.Queue = append(st.Queue, queuedJob{Job: arrivals[i]})
		st.queued[arrivals[i].ID] = arrivals[i]
	}
	st.cycleTop(&cyclePayload{Now: 20, Comps: ends()})

	if !slices.Equal(svc.calls, sim.calls) || len(sim.calls) != 5 {
		t.Fatalf("cycleTop called %q, the simulator's transition %q", svc.calls, sim.calls)
	}
	if c := st.Counters; c.Completed != 2 || c.Evicted != 1 || c.FailedOut != 1 || len(st.Removed) != 0 {
		t.Fatalf("counters %+v, %d removals pending; want 2 completed, 1 evicted and failed out, none pending", c, len(st.Removed))
	}
}

// stateRec records what each cycle that saw work was handed.
type stateRec struct {
	fifoSched
	seen []streamLine
}

func (r *stateRec) Cycle(st *simulator.State) simulator.Decision {
	if len(st.Pending)+len(st.Running) > 0 {
		var pending, running []job.ID
		for _, j := range st.Pending {
			pending = append(pending, j.ID)
		}
		for _, rj := range st.Running {
			running = append(running, rj.Job.ID)
		}
		r.seen = append(r.seen, streamLine{st.Now, fmt.Sprintf("pending %v running %v free %v", pending, running, st.Free)})
	}
	return r.fifoSched.Cycle(st)
}

// TestCycleBoundaryIsTheSimulators: the service draws a cycle window where
// the simulator does — an arrival stamped at the cycle's own time is in it,
// a run that ends at exactly that time is not (its agent's report waits for
// the next cycle) — so job 1, due at t=20, still holds its node in the
// cycle at t=20 on both, and job 2 starts at t=30 on both.
func TestCycleBoundaryIsTheSimulators(t *testing.T) {
	cluster := simulator.NewCluster(2, 1)
	jobs := func() []*job.Job {
		return []*job.Job{
			{ID: 1, Submit: 10, Runtime: 10, Tasks: 1, NonPrefFactor: 1},
			{ID: 2, Submit: 20, Runtime: 15, Tasks: 2, NonPrefFactor: 1},
			{ID: 3, Submit: 25, Runtime: 5, Tasks: 1, NonPrefFactor: 1},
		}
	}
	sim := &stateRec{}
	s, err := simulator.New(sim, jobs(), simulator.Options{Cluster: cluster, CycleInterval: 10, DrainWindow: 30})
	if err != nil {
		t.Fatal(err)
	}
	end := s.Run().EndTime

	svc := &stateRec{}
	v := mustService(t, Config{Cluster: cluster, Scheduler: svc, CycleInterval: 10})
	v.mu.Lock()
	v.takeoverLocked(0)
	v.mu.Unlock()
	for _, j := range jobs() {
		if _, err := v.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; float64(k)*10 <= end; k++ {
		v.runCycle()
	}
	if d := decisionDiff("cycle states", sim.seen, svc.seen); d != "" {
		t.Fatal(d)
	}
	if want := (streamLine{20, "pending [2] running [1] free [1]"}); len(sim.seen) < 2 || sim.seen[1] != want {
		t.Fatalf("cycles saw %v; want the second to be %v", sim.seen, want)
	}
}
