// Package baselines provides the comparison schedulers of Table 1 and the
// Fig. 8 ablations as ready-made configurations:
//
//   - ThreeSigma: 3σSched + 3σPredict distributions + adaptive OE handling.
//   - PointPerfEst: 3σSched + oracle point estimates (hypothetical).
//   - PointRealEst: 3σSched + 3σPredict point estimates, no OE handling —
//     the state of the art in point-estimate schedulers (TetriSched/Morpheus
//     class, "enhanced with under-estimate handling and preemption").
//   - NoDist / NoOE / NoAdapt: single-feature ablations of 3Sigma.
//   - Prio: a runtime-unaware strict-priority scheduler (Borg-like).
//
// All MILP-based systems share internal/core; only the estimator and policy
// toggles differ, exactly as in the paper's experimental setup.
package baselines

import (
	"sort"

	"threesigma/internal/core"
	"threesigma/internal/job"
	"threesigma/internal/predictor"
	"threesigma/internal/simulator"
)

// ThreeSigmaPolicy is the full 3Sigma feature set: distribution scheduling
// with adaptive over-estimate handling, under-estimate handling and
// preemption (Table 1, row 1).
func ThreeSigmaPolicy() core.Policy {
	return core.Policy{
		Name:            "3Sigma",
		UseDistribution: true,
		Overestimate:    core.OEAdaptive,
		Underestimate:   true,
		Preemption:      true,
	}
}

// ThreeSigma returns the full 3Sigma system: ThreeSigmaPolicy over
// 3σPredict's distributions.
func ThreeSigma(p *predictor.Predictor, cfg core.Config) *core.Scheduler {
	cfg.Policy = ThreeSigmaPolicy()
	return core.New(core.PredictorEstimator{P: p}, cfg)
}

// PointPerfEst returns the hypothetical scheduler given perfect point
// runtime estimates (Table 1, row 2).
func PointPerfEst(cfg core.Config) *core.Scheduler {
	cfg.Policy = core.Policy{
		Name:            "PointPerfEst",
		UseDistribution: false,
		Overestimate:    core.OEOff,
		Underestimate:   true,
		Preemption:      true,
	}
	return core.New(core.PerfectEstimator{}, cfg)
}

// PointRealEst returns the state-of-the-art point-estimate scheduler using
// 3σPredict's best point estimates (Table 1, row 3).
func PointRealEst(p *predictor.Predictor, cfg core.Config) *core.Scheduler {
	cfg.Policy = core.Policy{
		Name:            "PointRealEst",
		UseDistribution: false,
		Overestimate:    core.OEOff,
		Underestimate:   true,
		Preemption:      true,
	}
	return core.New(core.PointPredictorEstimator{P: p}, cfg)
}

// NoDist is 3Sigma with point estimates instead of distributions but with
// over-estimate handling retained (Fig. 8's 3SigmaNoDist).
func NoDist(p *predictor.Predictor, cfg core.Config) *core.Scheduler {
	cfg.Policy = core.Policy{
		Name:            "3SigmaNoDist",
		UseDistribution: false,
		Overestimate:    core.OEAdaptive,
		Underestimate:   true,
		Preemption:      true,
	}
	return core.New(core.PointPredictorEstimator{P: p}, cfg)
}

// NoOE is 3Sigma with over-estimate handling disabled (Fig. 8's 3SigmaNoOE).
func NoOE(p *predictor.Predictor, cfg core.Config) *core.Scheduler {
	cfg.Policy = core.Policy{
		Name:            "3SigmaNoOE",
		UseDistribution: true,
		Overestimate:    core.OEOff,
		Underestimate:   true,
		Preemption:      true,
	}
	return core.New(core.PredictorEstimator{P: p}, cfg)
}

// NoAdapt is 3Sigma with over-estimate handling unconditionally enabled
// (Fig. 8's 3SigmaNoAdapt).
func NoAdapt(p *predictor.Predictor, cfg core.Config) *core.Scheduler {
	cfg.Policy = core.Policy{
		Name:            "3SigmaNoAdapt",
		UseDistribution: true,
		Overestimate:    core.OEAlways,
		Underestimate:   true,
		Preemption:      true,
	}
	return core.New(core.PredictorEstimator{P: p}, cfg)
}

// Prio is the runtime-unaware priority scheduler (Table 1, row 4): SLO jobs
// get strict priority over best-effort jobs, preempting them when needed,
// with no use of runtime information — representative of Borg-class
// production schedulers.
type Prio struct {
	starts      int
	preemptions int
}

// NewPrio returns a priority scheduler.
func NewPrio() *Prio { return &Prio{} }

// JobSubmitted implements simulator.Scheduler (Prio ignores estimates).
func (pr *Prio) JobSubmitted(*job.Job, float64) {}

// JobCompleted implements simulator.Scheduler.
func (pr *Prio) JobCompleted(*job.Job, float64, float64) {}

// Cycle implements simulator.Scheduler: earliest-deadline-first SLO jobs,
// then FIFO best-effort jobs; an SLO job that does not fit triggers
// preemption of the most recently started BE jobs (minimal lost work).
func (pr *Prio) Cycle(st *simulator.State) simulator.Decision {
	var dec simulator.Decision
	free := st.Free.Clone()

	// Preemptable BE jobs, most recent start first.
	preemptable := make([]*simulator.RunningJob, 0, len(st.Running))
	for _, r := range st.Running {
		if r.Job.Class == job.BestEffort {
			preemptable = append(preemptable, r)
		}
	}
	sort.Slice(preemptable, func(a, b int) bool { return preemptable[a].Start > preemptable[b].Start })
	preempted := map[job.ID]bool{}

	slo := make([]*job.Job, 0, len(st.Pending))
	be := make([]*job.Job, 0, len(st.Pending))
	for _, j := range st.Pending {
		if j.Class == job.SLO {
			slo = append(slo, j)
		} else {
			be = append(be, j)
		}
	}
	sort.SliceStable(slo, func(a, b int) bool { return slo[a].Deadline < slo[b].Deadline })
	sort.SliceStable(be, func(a, b int) bool { return be[a].Submit < be[b].Submit })

	totalFree := 0
	for _, f := range free {
		totalFree += f
	}
	for _, j := range slo {
		// Preempt BE jobs until this SLO job fits (Prio does this even
		// when deadline slack would have made waiting safe — it cannot
		// know, having no runtime information).
		for totalFree < j.Tasks && len(preemptable) > 0 {
			victim := preemptable[0]
			preemptable = preemptable[1:]
			if preempted[victim.Job.ID] {
				continue
			}
			preempted[victim.Job.ID] = true
			dec.Preempt = append(dec.Preempt, victim.Job.ID)
			pr.preemptions++
			for p, n := range victim.Alloc {
				free[p] += n
				totalFree += n
			}
		}
		alloc := greedyAlloc(j, free)
		if alloc == nil {
			continue
		}
		for p, n := range alloc {
			free[p] -= n
			totalFree -= n
		}
		dec.Start = append(dec.Start, simulator.StartAction{Job: j.ID, Alloc: alloc})
		pr.starts++
	}
	for _, j := range be {
		alloc := greedyAlloc(j, free)
		if alloc == nil {
			continue
		}
		for p, n := range alloc {
			free[p] -= n
			totalFree -= n
		}
		dec.Start = append(dec.Start, simulator.StartAction{Job: j.ID, Alloc: alloc})
		pr.starts++
	}
	return dec
}

// greedyAlloc fills the job's gang from preferred partitions first, then
// anywhere.
func greedyAlloc(j *job.Job, free simulator.Alloc) simulator.Alloc {
	alloc := make(simulator.Alloc, len(free))
	need := j.Tasks
	for pass := 0; pass < 2 && need > 0; pass++ {
		for p, f := range free {
			if need == 0 {
				break
			}
			if pass == 0 && !j.PrefersPartition(p) {
				continue
			}
			avail := f - alloc[p]
			if avail <= 0 {
				continue
			}
			take := avail
			if take > need {
				take = need
			}
			alloc[p] += take
			need -= take
		}
	}
	if need > 0 {
		return nil
	}
	return alloc
}
