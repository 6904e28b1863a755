package workload

import (
	"fmt"
	"math"
	"sort"

	"threesigma/internal/job"
	"threesigma/internal/simulator"
	"threesigma/internal/stats"
	"threesigma/internal/trace"
)

// Config parameterizes workload generation. Zero values select the paper's
// defaults (§5).
type Config struct {
	Env *Env // default Google()

	Cluster simulator.Cluster // default 256 nodes / 8 partitions

	DurationHours float64 // submission window (default 5h; RC256 E2E used 2h)
	Load          float64 // offered load: machine-hours per capacity (default 1.4)
	SLOLoadShare  float64 // fraction of offered load from SLO jobs (default 0.5)

	// SlackChoices is the deadline-slack menu; each SLO job draws one
	// uniformly. Default {0.2, 0.4, 0.6, 0.8}.
	SlackChoices []float64

	ArrivalSCV float64 // squared CoV of inter-arrival times (default 4)

	// NonPrefFactor is an SLO job's slowdown off its preferred partitions
	// (default 1.5).
	NonPrefFactor float64

	// PretrainPerApp forces exactly n history samples per app (the Fig. 11
	// SAMPLE-n workloads). 0 generates pretrainPerApp× the app count, drawn
	// by app popularity.
	PretrainPerApp int

	// JobsPerHour, when > 0, fixes the arrival rate and scales runtimes to
	// meet Load instead (the Fig. 12 SCALABILITY-n workloads).
	JobsPerHour float64

	// Domains, when > 0, splits the partition list into that many contiguous
	// scheduling domains (the same split as simulator.PartitionDomains) and
	// gives every SLO job exactly one whole domain as its preferred set,
	// with all gangs capped to fit the smallest domain. Such
	// equivalence-partitioned workloads are what the sharded-coordinator
	// digest gates run on (DESIGN.md §13). 0 keeps the §5 random-subset
	// preference model — and the exact RNG draw sequence of earlier builds.
	Domains int

	Seed int64
}

func (c *Config) fill() {
	if c.Env == nil {
		c.Env = Google()
	}
	if len(c.Cluster.Partitions) == 0 {
		c.Cluster = simulator.NewCluster(256, 8)
	}
	if c.DurationHours <= 0 {
		c.DurationHours = 5
	}
	if c.Load <= 0 {
		c.Load = 1.4
	}
	if c.SLOLoadShare <= 0 || c.SLOLoadShare > 1 {
		c.SLOLoadShare = 0.5
	}
	if len(c.SlackChoices) == 0 {
		c.SlackChoices = slackChoices
	}
	if c.ArrivalSCV <= 0 {
		c.ArrivalSCV = 4
	}
	if c.NonPrefFactor < 1 {
		c.NonPrefFactor = nonPrefFactor
	}
}

// The §5 workload constants that no experiment varies: the deadline-slack
// menu an SLO job draws from, the fraction of partitions it prefers, and
// its slowdown elsewhere (the defaults of Config's SlackChoices and
// NonPrefFactor, and fixed for trace replays). Generated workloads carry
// pretrainPerApp history jobs per app unless PretrainPerApp says otherwise.
var slackChoices = []float64{0.2, 0.4, 0.6, 0.8}

const (
	preferredFraction = 0.75
	nonPrefFactor     = 1.5
	pretrainPerApp    = 8
)

// Workload is a generated experiment input.
type Workload struct {
	Name string
	// Train carries pre-training history (record + runtime) fed to the
	// predictor before the experiment starts (§5 "Estimates").
	Train []trace.Record
	// Jobs are the experiment's submissions, sorted by Submit.
	Jobs    []*job.Job
	Cluster simulator.Cluster
	// OfferedLoad is the realized machine-hours / capacity ratio.
	OfferedLoad float64
}

// Generate builds a workload per the configuration.
func Generate(cfg Config) *Workload {
	cfg.fill()
	rng := stats.NewRand(cfg.Seed)
	apps := buildApps(cfg.Env, rng)
	var popTotal float64
	for _, a := range apps {
		popTotal += a.popularity
	}
	nodes := cfg.Cluster.TotalNodes()
	duration := cfg.DurationHours * 3600
	capacity := float64(nodes) * duration // machine-seconds

	w := &Workload{
		Name:    fmt.Sprintf("%s-E2E", cfg.Env.Name),
		Cluster: cfg.Cluster,
	}

	// Pre-training history.
	var id int64
	if cfg.PretrainPerApp > 0 {
		for _, a := range apps {
			for i := 0; i < cfg.PretrainPerApp; i++ {
				id++
				w.Train = append(w.Train, trace.Record{
					ID: job.ID(id), User: a.user, Name: a.name,
					Tasks: sampleTasks(a, nodes, rng), Priority: a.priority,
					Submit:  -float64(cfg.PretrainPerApp - i),
					Runtime: sampleRuntime(a, rng),
				})
			}
		}
	} else {
		n := pretrainPerApp * len(apps)
		for i := 0; i < n; i++ {
			a := pickApp(apps, popTotal, rng)
			id++
			w.Train = append(w.Train, trace.Record{
				ID: job.ID(id), User: a.user, Name: a.name,
				Tasks: sampleTasks(a, nodes, rng), Priority: a.priority,
				Submit:  -float64(n - i),
				Runtime: sampleRuntime(a, rng),
			})
		}
	}

	// Experiment jobs: draw until each class of offered work (SLO, BE)
	// reaches its target, assigning each draw to the class furthest below
	// target (keeps the 50/50 mix of §5 while hitting the load exactly).
	sloTarget := cfg.Load * cfg.SLOLoadShare * capacity
	beTarget := cfg.Load * (1 - cfg.SLOLoadShare) * capacity
	// The paper filters jobs larger than its 256-node cluster, where even
	// the biggest class gangs (<=128 tasks) occupy at most half the
	// machines. Cap sampled gangs at half the cluster so reduced-scale
	// clusters keep the same relative job-size regime instead of admitting
	// whole-cluster gangs that nothing can pack around.
	maxGang := nodes / 2
	if maxGang < 1 {
		maxGang = 1
	}
	var sloWork, beWork float64
	var jobs []*job.Job
	nParts := len(cfg.Cluster.Partitions)
	prefCount := int(math.Round(preferredFraction * float64(nParts)))
	if prefCount < 1 {
		prefCount = 1
	}
	if prefCount > nParts {
		prefCount = nParts
	}
	var doms []simulator.Domain
	if cfg.Domains > 0 {
		doms = simulator.PartitionDomains(nParts, cfg.Domains)
		minDom := nodes
		for _, d := range doms {
			dn := 0
			for p := d.Lo; p < d.Hi; p++ {
				dn += cfg.Cluster.Partitions[p]
			}
			if dn < minDom {
				minDom = dn
			}
		}
		if minDom < maxGang {
			maxGang = minDom
		}
	}
	maxJobs := 2000000
	fixedCount := 0
	if cfg.JobsPerHour > 0 {
		// Fixed-rate mode: generate exactly rate×duration jobs and scale
		// runtimes to the load target afterwards.
		fixedCount = int(cfg.JobsPerHour * cfg.DurationHours)
		maxJobs = fixedCount
	}
	for (sloWork < sloTarget || beWork < beTarget || len(jobs) < fixedCount) && len(jobs) < maxJobs {
		a := pickApp(apps, popTotal, rng)
		rt := sampleRuntime(a, rng)
		k := sampleTasks(a, maxGang, rng)
		work := rt * float64(k)
		id++
		j := &job.Job{
			ID: job.ID(id), User: a.user, Name: a.name,
			Tasks: k, Priority: a.priority, Runtime: rt,
		}
		needSLO := sloTarget - sloWork
		needBE := beTarget - beWork
		if needSLO >= needBE {
			j.Class = job.SLO
			sloWork += work
			j.NonPrefFactor = cfg.NonPrefFactor
			if len(doms) > 0 {
				// Domain-partitioned mode: prefer one whole domain.
				d := doms[rng.Intn(len(doms))]
				pref := make([]int, 0, d.Hi-d.Lo)
				for p := d.Lo; p < d.Hi; p++ {
					pref = append(pref, p)
				}
				if len(pref) < nParts {
					j.Preferred = pref
				}
			} else {
				// Preferred resources: a random subset of partitions.
				perm := rng.Perm(nParts)
				pref := append([]int(nil), perm[:prefCount]...)
				sort.Ints(pref)
				if prefCount < nParts {
					j.Preferred = pref
				}
			}
		} else {
			j.Class = job.BestEffort
			beWork += work
			j.NonPrefFactor = 1
		}
		jobs = append(jobs, j)
	}
	if cfg.JobsPerHour > 0 && len(jobs) > 0 {
		// Fixed-rate mode (SCALABILITY-n): scale runtimes so realized
		// offered work matches the load target.
		factor := (sloTarget + beTarget) / (sloWork + beWork)
		for _, j := range jobs {
			j.Runtime *= factor
		}
		sloWork *= factor
		beWork *= factor
	}

	// Arrival times: hyper-exponential with c_a² = ArrivalSCV, normalized
	// to exactly span the submission window.
	n := len(jobs)
	if n > 0 {
		h2 := stats.NewHyperExp2(duration/float64(n), cfg.ArrivalSCV)
		t := 0.0
		times := make([]float64, n)
		for i := range times {
			t += h2.Draw(rng)
			times[i] = t
		}
		scale := duration / t
		for i, j := range jobs {
			j.Submit = times[i] * scale
		}
	}

	// Deadlines need Submit, so they are assigned last.
	for _, j := range jobs {
		if j.Class != job.SLO {
			continue
		}
		slack := cfg.SlackChoices[rng.Intn(len(cfg.SlackChoices))]
		j.Deadline = j.Submit + j.Runtime*(1+slack)
	}
	w.Jobs = jobs
	w.OfferedLoad = (sloWork + beWork) / capacity
	return w
}

// Records converts the experiment jobs to trace records (for the Fig. 2
// analyses over the same generative models).
func (w *Workload) Records() []trace.Record {
	out := make([]trace.Record, 0, len(w.Jobs))
	for _, j := range w.Jobs {
		out = append(out, trace.Record{
			ID: j.ID, User: j.User, Name: j.Name, Tasks: j.Tasks,
			Priority: j.Priority, Submit: j.Submit, Runtime: j.Runtime,
		})
	}
	return out
}

// GenerateTrace produces n completed-job records from an environment model
// (no deadlines or placement attributes), for the Fig. 2 trace analyses.
func GenerateTrace(env *Env, n int, seed int64) []trace.Record {
	rng := stats.NewRand(seed)
	apps := buildApps(env, rng)
	var popTotal float64
	for _, a := range apps {
		popTotal += a.popularity
	}
	recs := make([]trace.Record, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		a := pickApp(apps, popTotal, rng)
		t += stats.Exponential(rng, 30)
		recs = append(recs, trace.Record{
			ID: job.ID(i + 1), User: a.user, Name: a.name,
			Tasks: sampleTasks(a, 1<<20, rng), Priority: a.priority,
			Submit: t, Runtime: sampleRuntime(a, rng),
		})
	}
	return recs
}
