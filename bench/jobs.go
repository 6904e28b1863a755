package main

import (
	"threesigma/internal/job"
	"threesigma/internal/simulator"
	"threesigma/internal/stats"
	"threesigma/internal/trace"
	"threesigma/internal/workload"
)

// populationSeed fixes the application population (the "trace") every run
// draws its jobs from. workload.Generate derives the applications — their
// mean runtimes, gang widths and popularity — from the same seed as the
// jobs, and two populations differ by 50 % in mean cycle latency and by a
// factor of two in SLO misses at the same offered load. A benchmark whose
// numbers move that much with the seed cannot bound a regression, so the
// population is part of the benchmark's definition (as the Google trace is
// part of the paper's). A draw with this seed is the fixed job list the timed
// passes run; a draw with --seed decides which jobs are taken from the same
// population, when they arrive and how much slack their deadlines get, and
// feeds the correctness pass and the warm-up (README.md, "What the seed
// decides").
const populationSeed = 20180423

// poolFactor is how many windows' worth of jobs the pool holds, so that a
// seed's draw without replacement is a small part of it.
const poolFactor = 6

// shape is what a workload asks of the generator.
type shape struct {
	cluster     simulator.Cluster
	windowHours float64   // submission window of one draw
	load        float64   // offered machine-hours per capacity
	jobsPerHour float64   // > 0 pins the arrival rate and scales runtimes to load
	arrivalSCV  float64   // 0 keeps the generator's default (4); 1 is Poisson
	domains     int       // > 0: SLO jobs prefer exactly one partition domain
	slack       []float64 // deadline slack menu; nil keeps the paper's {0.2, 0.4, 0.6, 0.8}
	maxRuntime  float64   // > 0 caps runtimes, so that a stream drains soon after its last job
	maxTasks    int       // > 0 caps gang widths
	minDeadline float64   // > 0: no deadline falls sooner than this after the submit
}

// pool is the fixed population of one workload shape: pre-training history
// plus candidate jobs by class, in generation order.
type pool struct {
	shape shape
	train []trace.Record // load-driven shapes: the generator's own history
	hist  []*job.Job     // fixed-rate shapes: jobs set aside to become history
	slo   []*job.Job
	be    []*job.Job
}

func newPool(sh shape) *pool {
	w := workload.Generate(workload.Config{
		Cluster:       sh.cluster,
		DurationHours: sh.windowHours * poolFactor,
		Load:          sh.load,
		JobsPerHour:   sh.jobsPerHour,
		ArrivalSCV:    sh.arrivalSCV,
		Domains:       sh.domains,
		Seed:          populationSeed,
	})
	p := &pool{shape: sh, train: w.Train}
	jobs := w.Jobs
	if sh.jobsPerHour > 0 {
		// A fixed-rate generator scales its jobs' runtimes to the load target
		// but not its history, so a predictor trained on that history is off
		// by the scale factor — by two orders of magnitude on the serve
		// shape, where it abandons every deadline job on arrival as
		// hopeless. History is therefore cut from the same cloth as the
		// jobs: half the population (at most the generator's 2560 records),
		// scaled with each draw.
		n := min(len(jobs)/2, 2560)
		p.train, p.hist, jobs = nil, jobs[:n], jobs[n:]
	}
	for _, j := range jobs {
		if j.Class == job.SLO {
			p.slo = append(p.slo, j)
		} else {
			p.be = append(p.be, j)
		}
	}
	return p
}

// draw returns one window of jobs made from seed alone, and the history to
// pre-train on: a sample of the pool without replacement that meets the
// shape's offered load, arrival times from the shape's arrival process
// normalised to the window (as workload.Generate does), and fresh deadline
// slack. Jobs are copies with IDs 1..n in arrival order; the pool is never
// written.
func (p *pool) draw(seed int64) ([]*job.Job, []trace.Record) {
	sh := p.shape
	rng := stats.NewRand(seed)
	window := sh.windowHours * 3600
	capacity := float64(sh.cluster.TotalNodes()) * window

	train := p.train
	var picked []*job.Job
	take := func(from []*job.Job, n int, work float64) {
		var got float64
		for _, i := range rng.Perm(len(from)) {
			if (n > 0 && len(picked) >= n) || (n == 0 && got >= work) {
				break
			}
			c := *from[i]
			picked = append(picked, &c)
			got += c.Work()
		}
	}
	if sh.jobsPerHour > 0 {
		// Fixed-rate shapes: rate × window jobs from both classes together,
		// runtimes then scaled so the draw offers exactly the target load.
		all := append(append([]*job.Job(nil), p.slo...), p.be...)
		take(all, int(sh.jobsPerHour*sh.windowHours), 0)
		var work float64
		for _, j := range picked {
			sh.clamp(j, 1)
			work += j.Work()
		}
		f := sh.load * capacity / work
		for _, j := range picked {
			sh.clamp(j, f)
		}
		for i, h := range p.hist {
			c := *h
			sh.clamp(&c, f)
			train = append(train, trace.Record{ID: job.ID(-1 - i), User: c.User, Name: c.Name,
				Tasks: c.Tasks, Priority: c.Priority, Submit: float64(i - len(p.hist)), Runtime: c.Runtime})
		}
	} else {
		// Load-driven shapes: half the offered work from each class.
		take(p.slo, 0, sh.load*capacity/2)
		slo := picked
		picked = nil
		take(p.be, 0, sh.load*capacity/2)
		// Interleave the classes: arrival order below follows slice order.
		both := append(slo, picked...)
		picked = make([]*job.Job, len(both))
		for i, k := range rng.Perm(len(both)) {
			picked[k] = both[i]
		}
	}

	scv := sh.arrivalSCV
	if scv <= 0 {
		scv = 4
	}
	h2 := stats.NewHyperExp2(window/float64(len(picked)), scv)
	times := make([]float64, len(picked))
	t := 0.0
	for i := range times {
		t += h2.Draw(rng)
		times[i] = t
	}
	slack := sh.slack
	if len(slack) == 0 {
		slack = []float64{0.2, 0.4, 0.6, 0.8}
	}
	for i, j := range picked {
		j.ID = job.ID(i + 1)
		j.Submit = times[i] * window / t
		if j.Class == job.SLO {
			j.Deadline = j.Submit + max(sh.minDeadline, j.Runtime*(1+slack[rng.Intn(len(slack))]))
		}
	}
	return picked, train
}

// clamp applies the shape's caps to one job after scaling its runtime by f.
func (sh shape) clamp(j *job.Job, f float64) {
	j.Runtime *= f
	if sh.maxRuntime > 0 && j.Runtime > sh.maxRuntime {
		j.Runtime = sh.maxRuntime
	}
	if sh.maxTasks > 0 && j.Tasks > sh.maxTasks {
		j.Tasks = sh.maxTasks
	}
}
