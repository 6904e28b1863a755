package workload

import (
	"math"
	"sort"

	"threesigma/internal/job"
	"threesigma/internal/simulator"
	"threesigma/internal/stats"
	"threesigma/internal/trace"
)

// ReplayConfig controls converting a raw trace into an experiment workload,
// following the paper's recipe for the HEDGEFUND_E2E and MUSTANG_E2E
// workloads (§5): take a time segment of the trace, filter jobs larger than
// the cluster, assign SLO/BE classes, deadline slack and placement
// preferences, and pre-train on everything submitted before the segment.
type ReplayConfig struct {
	Name    string            // workload name (default "replay")
	Cluster simulator.Cluster // default 256 nodes / 8 partitions

	// SegmentStart/SegmentHours select the replayed window. Records before
	// SegmentStart become pre-training history; records after the window
	// are dropped. SegmentHours <= 0 replays everything after SegmentStart.
	SegmentStart float64
	SegmentHours float64

	Seed int64
}

// sloFraction of a replayed segment's jobs become SLO jobs, in submission
// order via deterministic striping; they draw their slack, preferred
// partitions and slowdown as generated workloads do.
const sloFraction = 0.5

func (c *ReplayConfig) fill() {
	if c.Name == "" {
		c.Name = "replay"
	}
	if len(c.Cluster.Partitions) == 0 {
		c.Cluster = simulator.NewCluster(256, 8)
	}
}

// FromTrace converts trace records into a Workload per the configuration.
// Records are processed in submission order; jobs requesting more nodes
// than the cluster are filtered out (as the paper filters jobs larger than
// 256 nodes).
func FromTrace(recs []trace.Record, cfg ReplayConfig) *Workload {
	cfg.fill()
	rng := stats.NewRand(cfg.Seed)
	ordered := append([]trace.Record(nil), recs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Submit < ordered[j].Submit })

	nodes := cfg.Cluster.TotalNodes()
	nParts := len(cfg.Cluster.Partitions)
	prefCount := int(math.Round(preferredFraction * float64(nParts)))
	if prefCount < 1 {
		prefCount = 1
	}
	segEnd := math.Inf(1)
	if cfg.SegmentHours > 0 {
		segEnd = cfg.SegmentStart + cfg.SegmentHours*3600
	}

	w := &Workload{Name: cfg.Name, Cluster: cfg.Cluster}
	// Deterministic SLO striping: every job whose position in the segment
	// falls below the running SLO quota becomes an SLO job.
	var seen, sloCount int
	var work float64
	for _, r := range ordered {
		if r.Runtime <= 0 || r.Tasks <= 0 || r.Tasks > nodes {
			continue
		}
		if r.Submit < cfg.SegmentStart {
			w.Train = append(w.Train, r)
			continue
		}
		if r.Submit >= segEnd {
			break
		}
		j := &job.Job{
			ID: r.ID, User: r.User, Name: r.Name,
			Tasks: r.Tasks, Priority: r.Priority,
			Submit:  r.Submit - cfg.SegmentStart,
			Runtime: r.Runtime,
		}
		seen++
		if float64(sloCount) < sloFraction*float64(seen) {
			sloCount++
			j.Class = job.SLO
			j.NonPrefFactor = nonPrefFactor
			slack := slackChoices[rng.Intn(len(slackChoices))]
			j.Deadline = j.Submit + j.Runtime*(1+slack)
			if prefCount < nParts {
				perm := rng.Perm(nParts)
				pref := append([]int(nil), perm[:prefCount]...)
				sort.Ints(pref)
				j.Preferred = pref
			}
		} else {
			j.Class = job.BestEffort
			j.NonPrefFactor = 1
		}
		work += j.Work()
		w.Jobs = append(w.Jobs, j)
	}
	if len(w.Jobs) > 0 {
		span := w.Jobs[len(w.Jobs)-1].Submit
		if span <= 0 {
			span = 1
		}
		w.OfferedLoad = work / (float64(nodes) * span)
	}
	return w
}
