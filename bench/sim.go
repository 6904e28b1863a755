package main

import (
	"runtime"
	"time"

	"threesigma/internal/baselines"
	"threesigma/internal/core"
	"threesigma/internal/job"
	"threesigma/internal/metrics"
	"threesigma/internal/predictor"
	"threesigma/internal/shard"
	"threesigma/internal/simulator"
	"threesigma/internal/trace"
)

// solverBudget is generous on purpose: SolverMaxNodes, not the wall clock,
// ends every solve, so a wall-clock run and a virtual-time run of the same
// jobs take the same decisions and their outcome digests can be compared.
const solverBudget = 2 * time.Second

// simSpec is one simulator workload.
type simSpec struct {
	shape  shape
	core   core.Config
	drain  float64 // simulated seconds after the last arrival
	shards int     // > 1: the shard coordinator drives that many domains
}

var simSpecs = map[string]simSpec{
	// The paper's E2E experiment (§5): Google environment, 256 nodes in 8
	// partitions, load 1.4, 5 s cycles, monolithic 3σSched. The window is
	// the 2 h of the paper's RC256 runs, not the 5 h of its simulations, so
	// that a run holds several repetitions.
	"sim-e2e": {
		shape: shape{cluster: simulator.NewCluster(256, 8), windowHours: 2, load: 1.4},
		core:  core.Config{CycleInterval: 5, SolverBudget: solverBudget},
		drain: 2400,
	},
	// experiments.SteadyScale() with a longer window: Poisson arrivals at
	// 80 jobs/h against 720 cycles/h, a 60 s solve quantum, a standing queue.
	"sim-steady": {
		shape: shape{cluster: simulator.NewCluster(192, 12), windowHours: 2, load: 1.5, jobsPerHour: 80, arrivalSCV: 1},
		core: core.Config{CycleInterval: 5, Slots: 6, SlotDur: 300, MaxPending: 48,
			SolverBudget: solverBudget, SolverMaxNodes: 24, SolveQuantum: 60},
		drain: 2400,
	},
	// experiments.ScalabilityScale() with a longer window: 2560 nodes in 64
	// partitions, 8 domains, a domain-partitioned workload at 3600 jobs/h.
	"sim-scale": {
		shape: shape{cluster: simulator.NewCluster(2560, 64), windowHours: 0.5, load: 1.6, jobsPerHour: 3600, arrivalSCV: 1, domains: 8},
		core: core.Config{CycleInterval: 10, Slots: 6, SlotDur: 300, MaxPending: 256,
			SolverBudget: solverBudget, SolverMaxNodes: 24},
		drain:  1200,
		shards: 8,
	},
}

// simPass is one simulation from construction to result.
type simPass struct {
	jobs    int
	wall    time.Duration // Sim.Run alone
	build   time.Duration // predictor training + scheduler + simulator.New
	train   time.Duration
	res     *simulator.Result
	report  metrics.Report
	digest  string
	stats   core.Stats
	coord   shard.CoordinatorStats
	shards  []core.Stats
	inSched time.Duration
	alloc   uint64
	gcPause time.Duration
	spans   []span
}

// threeSigma builds the 3Sigma system of Table 1 around est, which is the
// predictor's estimator or a probe around it.
func threeSigma(pred *predictor.Predictor, cfg core.Config, wrap func(core.Estimator) core.Estimator) *core.Scheduler {
	cfg.Policy = baselines.ThreeSigma(pred, cfg).Config().Policy
	var est core.Estimator = core.PredictorEstimator{P: pred}
	if wrap != nil {
		est = wrap(est)
	}
	return core.New(est, cfg)
}

func trainedPredictor(train []trace.Record) *predictor.Predictor {
	pred := predictor.New(predictor.Config{})
	for _, r := range train {
		pred.Observe(r.Job(), r.Runtime)
	}
	return pred
}

// simRig is one constructed simulation, ready to run.
type simRig struct {
	spec  simSpec
	pass  *simPass
	sim   *simulator.Sim
	probe *schedProbe
	coord *shard.Coordinator
}

// build trains a predictor and constructs scheduler and simulator around
// jobs. virtual puts the scheduler on the simulation's clock (the reference
// the wall-clock digests are checked against); tr, when not nil, records
// spans.
func (sp simSpec) build(jobs []*job.Job, train []trace.Record, virtual bool, tr *tracer) (*simRig, error) {
	rig := &simRig{spec: sp, pass: &simPass{jobs: len(jobs)}, probe: &schedProbe{tr: tr}}
	t0 := clk.Now()
	pred := trainedPredictor(train)
	rig.pass.train = clk.Since(t0)

	var wrap func(core.Estimator) core.Estimator
	if tr != nil {
		wrap = func(e core.Estimator) core.Estimator { return estProbe{inner: e, tr: tr, parent: &rig.probe.cur} }
	}
	cs := threeSigma(pred, sp.core, wrap)
	rig.probe.inner = cs
	if sp.shards > 1 {
		var err error
		if rig.coord, err = shard.NewCoordinator(cs, sp.shape.cluster, sp.shards); err != nil {
			return nil, err
		}
		rig.probe.inner = rig.coord
	}
	var err error
	rig.sim, err = simulator.New(rig.probe, jobs, simulator.Options{
		Cluster:       sp.shape.cluster,
		CycleInterval: sp.core.CycleInterval,
		DrainWindow:   sp.drain,
		VirtualTime:   virtual,
	})
	rig.pass.build = clk.Since(t0)
	return rig, err
}

// run simulates the rig's jobs to the horizon.
func (rig *simRig) run() *simPass {
	pass := rig.pass
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := clk.Now()
	pass.res = rig.sim.Run()
	pass.wall = clk.Since(t0)
	runtime.ReadMemStats(&m1)
	pass.alloc = m1.TotalAlloc - m0.TotalAlloc
	pass.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	_, _, pass.inSched = rig.probe.totals()
	pass.report = metrics.FromResult("3Sigma", pass.res, rig.spec.shape.cluster)
	pass.digest = metrics.OutcomeDigest(pass.res)
	pass.stats = rig.probe.Stats()
	if rig.coord != nil {
		pass.coord = rig.coord.CoordStats()
		pass.shards = rig.coord.ShardStats()
	}
	if tr := rig.probe.tr; tr != nil {
		pass.spans = tr.finish()
	}
	return pass
}

// simulate builds and runs in one step.
func (sp simSpec) simulate(jobs []*job.Job, train []trace.Record, virtual bool, tr *tracer) (*simPass, error) {
	rig, err := sp.build(jobs, train, virtual, tr)
	if err != nil {
		return nil, err
	}
	return rig.run(), nil
}

// coldStarts collects what a simulation pays before its first cycle, sampled
// all through a run: the cold construction over the history (restart_ms) and
// the job list admitted back to back into the new scheduler (admit_p50_ms).
// Admissions timed inside a simulation are 5 µs calls between solves that
// have emptied the caches; their median followed the neighbours' use of the
// shared cache and moved by 16 to 27 % between runs of the same code.
type coldStarts struct {
	builds []time.Duration
	admits [][]time.Duration
}

// admit submits jobs to a rig that has not run and files each call's time.
func (c *coldStarts) admit(rig *simRig, jobs []*job.Job) {
	for _, j := range jobs {
		rig.probe.JobSubmitted(j, j.Submit)
	}
	submit, _, _ := rig.probe.totals()
	c.builds, c.admits = append(c.builds, rig.pass.build), append(c.admits, submit)
}

// throughputBlocks is how many stretches a repetition is cut into for
// cycles_per_s: 70 ms each, long enough to hold several of the collector's
// cycles (whose cost belongs in a throughput), short enough that a slow spell
// covering part of every repetition leaves each stretch a quiet observation.
const throughputBlocks = 16

// blockSums adds ds up in n stretches of equal length (the last takes the
// remainder).
func blockSums(ds []time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	size := max(1, len(ds)/n)
	for k, d := range ds {
		out[min(k/size, n-1)] += d
	}
	return out
}

// simEndToEnd reads the user-visible numbers off the repetitions of one job
// list and the cold starts taken between them. Every repetition is the same
// computation, so each part of it is taken at its fastest observation (see
// fastestEach): latencies are percentiles over the fastest run of each cycle
// and each admission; throughput is the cycle count over the fastest run of
// each sixteenth of the cycles, added up, plus the least time any repetition
// spent outside its cycles. Outcomes are read from any repetition (they are
// checked to be identical).
func simEndToEnd(reps []*simPass, cold *coldStarts) map[string]float64 {
	var cycles, blocks [][]time.Duration
	between := reps[0].wall
	for _, p := range reps {
		cycles = append(cycles, p.res.CycleLatencies)
		blocks = append(blocks, blockSums(p.res.CycleLatencies, throughputBlocks))
		between = min(between, p.wall-sumDur(p.res.CycleLatencies))
	}
	fastest, first := fastestEach(cycles), reps[0]
	return map[string]float64{
		"cycles_per_s":   float64(first.res.Cycles) / (sumDur(fastestEach(blocks)) + between).Seconds(),
		"cycle_p50_ms":   ms(durQuantile(fastest, 0.50)),
		"cycle_p99_ms":   ms(durQuantile(fastest, 0.99)),
		"admit_p50_ms":   ms(durQuantile(fastestEach(cold.admits), 0.50)),
		"restart_ms":     ms(durQuantile(cold.builds, 0)),
		"slo_attain_pct": 100 - first.report.SLOMissRate,
		"goodput_mh":     first.report.TotalGoodput,
	}
}

// pinned are the counters that must repeat exactly when the same jobs are
// simulated again, whatever the clock.
func (p *simPass) pinned() [4]int {
	return [4]int{p.stats.SolverLPIters, p.stats.SolverNodes, p.stats.PatchedCycles, p.res.Cycles}
}

// perLayer reads one traced repetition's layer numbers.
func (p *simPass) perLayer() map[string]float64 {
	by := sumSpans(p.spans)
	est, obs := get(by, "predictor.estimate"), get(by, "predictor.observe")
	sub, cyc, done := get(by, "core.submit"), get(by, "core.cycle"), get(by, "core.complete")
	st := p.stats
	solve := st.SolveTime
	m := map[string]float64{
		"predictor.train_ms":         ms(p.train),
		"predictor.estimate_calls":   float64(est.calls),
		"predictor.estimate_busy_ms": ms(est.busy),
		"predictor.estimate_p99_us":  us(durQuantile(est.durations, 0.99)),
		"predictor.observe_busy_ms":  ms(obs.busy),

		"core.cycle_calls":       float64(st.Cycles),
		"core.cycle_busy_ms":     ms(cyc.busy),
		"core.self_ms":           ms(cyc.self),
		"core.submit_busy_ms":    ms(sub.self),
		"core.memo_hit_pct":      100 * st.CacheHitRate(),
		"core.quiet_pct":         pct(float64(st.PatchedCycles+st.RebuildFallbacks), float64(st.Cycles)),
		"core.patched_cycles":    float64(st.PatchedCycles),
		"core.rebuild_fallbacks": float64(st.RebuildFallbacks),
		"core.reused_solves":     float64(st.ReusedSolves),
		"core.max_vars":          float64(st.MaxVars),
		"core.max_rows":          float64(st.MaxRows),
		"core.starts":            float64(st.Starts),
		"core.preemptions":       float64(st.Preemptions),

		"milp.solve_busy_ms":       ms(solve),
		"milp.solve_p99_ms":        ms(durQuantile(p.res.SolverLatency, 0.99)),
		"milp.bb_nodes":            float64(st.SolverNodes),
		"milp.lp_iters":            float64(st.SolverLPIters),
		"milp.spec_lps":            float64(st.SpecLPs),
		"milp.spec_used_pct":       pct(float64(st.SpecUsed), float64(st.SpecLPs)),
		"milp.warm_basis_reuses":   float64(st.WarmBasisReuses),
		"milp.incumbent_seed_hits": float64(st.IncumbentSeedHits),

		"simulator.run_wall_ms":        ms(p.wall),
		"simulator.self_ms":            ms(p.wall - p.inSched),
		"simulator.cycles":             float64(p.res.Cycles),
		"simulator.skipped_starts":     float64(p.res.SkippedStarts),
		"simulator.alloc_kb_per_cycle": float64(p.alloc) / 1024 / float64(p.res.Cycles),
		"simulator.gc_pause_ms":        ms(p.gcPause),
	}
	// What the layers measured themselves — the scheduler's own cycle timer,
	// the probes' spans for everything around it — against the run's wall.
	accounted := sumDur(p.res.CycleLatencies) + sub.busy + done.busy + (p.wall - p.inSched)
	if len(p.shards) > 0 {
		// Domains cycle concurrently: their summed time is processor time,
		// the coordinator's is wall time, and the ratio is the speed-up.
		var domain, domainSolve time.Duration
		var domainCycles int
		for _, sh := range p.shards {
			domain += sh.CycleTime
			domainSolve += sh.SolveTime
			domainCycles += sh.Cycles
		}
		m["core.quiet_pct"] = pct(float64(st.PatchedCycles+st.RebuildFallbacks), float64(domainCycles))
		m["core.self_ms"] = ms(domain - domainSolve)
		m["shard.cycle_busy_ms"] = ms(st.CycleTime)
		m["shard.sum_domain_ms"] = ms(domain)
		m["shard.speedup"] = float64(domain) / float64(st.CycleTime)
		m["shard.rebalanced"] = float64(p.coord.Rebalanced)
		m["shard.stolen"] = float64(p.coord.Stolen)
		m["shard.span_starts"] = float64(p.coord.SpanStarts)
		m["shard.span_abandons"] = float64(p.coord.SpanAbandons)
	}
	m["simulator.accounted_pct"] = pct(float64(accounted), float64(p.wall))
	return m
}

// runSim is one benchmark run of a simulator workload.
func runSim(name string, o options) (*result, error) {
	sp := simSpecs[name]
	if o.tiny {
		sp.shape.windowHours /= 8
	}
	r := newResult()

	// Set-up — build the population, draw both job lists, train a predictor,
	// construct scheduler and simulator — a few times now and once before
	// every timed repetition, so that setup_s is a median over the whole run
	// and a slow spell of the machine has to cover half of it to move it. Each
	// rig built this way then takes the cold-start samples.
	var fixed, fresh []*job.Job
	var fixedHist, freshHist []trace.Record
	var setups []float64
	var cold coldStarts
	var generate time.Duration
	setUp := func() error {
		runtime.GC() // every set-up starts from the same heap
		t0 := clk.Now()
		p := newPool(sp.shape)
		fixed, fixedHist = p.draw(populationSeed)
		fresh, freshHist = p.draw(o.seed)
		generate = clk.Since(t0)
		rig, err := sp.build(fixed, fixedHist, false, nil)
		if err != nil {
			return err
		}
		setups = append(setups, clk.Since(t0).Seconds())
		cold.admit(rig, fixed)
		return nil
	}
	for len(setups) < o.setups {
		if err := setUp(); err != nil {
			return nil, err
		}
	}

	// Correctness on jobs made from the seed: a wall-clock run and a
	// virtual-time run must end in the same outcome digest and the same
	// solver counters, and every job must have an outcome. The wall-clock
	// run doubles as warm-up for the timed repetitions.
	wall, err := sp.simulate(fresh, freshHist, false, nil)
	if err != nil {
		return nil, err
	}
	virt, err := sp.simulate(fresh, freshHist, true, nil)
	if err != nil {
		return nil, err
	}
	r.countJobs(wall)
	r.countJobs(virt)
	r.check(wall.digest == virt.digest, "seed %d: wall-clock digest %.12s != virtual-time digest %.12s", o.seed, wall.digest, virt.digest)
	r.check(wall.pinned() == virt.pinned(), "seed %d: counters %v (wall) != %v (virtual)", o.seed, wall.pinned(), virt.pinned())

	// Timed repetitions of the fixed job list (see populationSeed), until
	// the run's seconds are used; a traced run splits them between a
	// measured half and a traced half.
	budget := time.Duration(o.seconds) * time.Second
	if o.trace {
		budget /= 2
	}
	repeat := func(traced bool) ([]*simPass, error) {
		var passes []*simPass
		for start := clk.Now(); len(passes) < o.minReps || clk.Since(start) < budget; {
			var tr *tracer
			if traced {
				tr = newTracer()
			} else if err := setUp(); err != nil {
				return nil, err
			}
			runtime.GC() // every repetition starts from the same heap
			pass, err := sp.simulate(fixed, fixedHist, false, tr)
			if err != nil {
				return nil, err
			}
			r.countJobs(pass)
			if len(passes) > 0 {
				first := passes[0]
				r.check(pass.digest == first.digest, "repetition %d: digest %.12s != %.12s", len(passes), pass.digest, first.digest)
				r.check(pass.pinned() == first.pinned(), "repetition %d: counters %v != %v", len(passes), pass.pinned(), first.pinned())
			}
			passes = append(passes, pass)
		}
		return passes, nil
	}
	measured, err := repeat(false)
	if err != nil {
		return nil, err
	}
	var walls []float64
	for _, pass := range measured {
		walls = append(walls, pass.wall.Seconds())
	}
	r.e2e = simEndToEnd(measured, &cold)
	r.e2e["setup_s"] = median(setups)
	r.note("%d jobs per repetition, %d repetitions of %.2f s, %d cycles each", len(fixed), len(measured), median(walls), measured[0].res.Cycles)

	if o.trace {
		cpu0 := processCPU()
		traced, err := repeat(true)
		if err != nil {
			return nil, err
		}
		cpu := processCPU() - cpu0
		var layers []map[string]float64
		var twalls []float64
		for _, pass := range traced {
			r.check(pass.digest == measured[0].digest, "traced digest %.12s != measured digest %.12s", pass.digest, measured[0].digest)
			layers = append(layers, pass.perLayer())
			twalls = append(twalls, pass.wall.Seconds())
		}
		r.layer = medianOf(layers)
		r.layer["workload.generate_ms"] = ms(generate)
		r.layer["proc.cpu_s"] = cpu.Seconds() / float64(len(traced))
		r.layer["proc.trace_overhead_pct"] = 100 * (median(twalls)/median(walls) - 1)
		r.spans = traced[len(traced)-1].spans
	}
	return r, nil
}

func (r *result) countJobs(p *simPass) {
	r.attempted += p.jobs
	if missing := p.jobs - len(p.res.Outcomes); missing > 0 {
		r.failed += missing
		r.check(false, "%d of %d jobs have no outcome", missing, p.jobs)
	}
}

func init() {
	for name := range simSpecs {
		name := name
		workloads[name] = func(o options) (*result, error) { return runSim(name, o) }
	}
}
