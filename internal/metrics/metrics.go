// Package metrics computes the paper's success metrics (§5) from a
// simulation result: SLO miss rate (the primary objective), goodput in
// machine-hours split by job class, mean best-effort latency, effective
// load, and scheduler latency summaries (Fig. 12).
package metrics

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"threesigma/internal/job"
	"threesigma/internal/simulator"
)

// Report summarizes one simulation run.
type Report struct {
	System string

	SLOJobs     int
	BEJobs      int
	SLOMisses   int
	SLOMissRate float64 // percent

	// Goodput is completed useful work in machine-hours (work of jobs that
	// ran to completion; preempted-and-lost work is excluded).
	SLOGoodput   float64
	BEGoodput    float64
	TotalGoodput float64

	// MeanBELatency is the mean response time (completion − submission) of
	// completed best-effort jobs, in seconds.
	MeanBELatency float64
	// P99BELatency is the 99th-percentile BE response time, seconds.
	P99BELatency float64

	CompletedSLO int
	CompletedBE  int
	Preemptions  int
	WastedHours  float64 // machine-hours lost to preemption

	// EffectiveLoad is actually-allocated machine-time (useful + wasted)
	// over cluster capacity for the experiment span.
	EffectiveLoad float64

	// Scheduler latencies (wall clock).
	MeanCycleTime time.Duration
	MaxCycleTime  time.Duration
	MeanSolveTime time.Duration
	MaxSolveTime  time.Duration
	SkippedStarts int

	// Solver aggregates the MILP solver's work counters over the run
	// (zero for schedulers without a MILP, e.g. Prio).
	Solver SolverStats

	// ShardSolver carries the per-shard solver counters when the run used
	// sharded scheduling domains (DESIGN.md §13), indexed by shard; empty
	// for monolithic runs. Average ignores it (per-shard counters are not
	// meaningful to average across repeats with different shard activity).
	ShardSolver []SolverStats `json:"shard_solver,omitempty"`

	// Fault panel (all zero without fault injection): failure-induced
	// evictions are counted separately from scheduler preemptions, and
	// FailureLostHours separately from WastedHours, so availability
	// experiments can split goodput vs. work lost to the environment.
	Evictions        int     // node-loss evictions + job crashes
	RetriesExhausted int     // jobs that failed out after their retry budget
	NodeDownSeconds  float64 // cumulative node-seconds of down capacity
	FailureLostHours float64 // machine-hours destroyed by failures
}

// SolverStats carries the MILP solver's cumulative work counters: how much
// branch-and-bound and simplex effort the run spent and how well the model
// builder's cross-cycle memo performed. Filled by the experiment driver from
// the scheduler's stats.
type SolverStats struct {
	Nodes       int // branch-and-bound nodes explored
	LPIters     int // simplex pivots over all node relaxations
	CacheHits   int // builder memo lookups served from cache
	CacheMisses int // builder memo lookups computed fresh

	// How the solves ended (core.Stats): proved, stopped unproved by the
	// node budget or the deadline; and non-root nodes solved cold.
	Proved        int
	NodeCapped    int
	DeadlineStops int
	ColdFallbacks int

	// Incremental re-solve counters (DESIGN.md §12): how often the model
	// builder patched the previous cycle's MILP in place instead of
	// recompiling it, how much of the patched payload actually changed, and
	// how often the solver consumed cross-cycle warm inputs.
	PatchedCycles     int // cycles whose model was patched in place
	RebuildFallbacks  int // quiet cycles whose patch walk failed
	RowsPatched       int // patched rows whose coefficients or RHS changed
	ColsPatched       int // patched objective coefficients that changed
	WarmBasisReuses   int // root LPs restored from the previous optimal basis
	IncumbentSeedHits int // cycles whose warm-start seed became the first incumbent
	ReusedSolves      int // cycles answered with the previous solution (model bitwise-unchanged)
}

// CacheHitRate returns the fraction of builder memo lookups served from
// cache (0 when nothing was looked up).
func (s SolverStats) CacheHitRate() float64 {
	tot := s.CacheHits + s.CacheMisses
	if tot == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(tot)
}

// String renders the counters as one diagnostic line.
func (s SolverStats) String() string {
	return fmt.Sprintf("nodes=%d lp-iters=%d proved=%d capped=%d deadline=%d cold=%d cache-hit=%.1f%% patched=%d fallbacks=%d reused=%d warm-basis=%d seed-hits=%d",
		s.Nodes, s.LPIters, s.Proved, s.NodeCapped, s.DeadlineStops, s.ColdFallbacks, 100*s.CacheHitRate(),
		s.PatchedCycles, s.RebuildFallbacks, s.ReusedSolves, s.WarmBasisReuses, s.IncumbentSeedHits)
}

// FromResult computes the report for a run on the given cluster.
func FromResult(system string, res *simulator.Result, cluster simulator.Cluster) Report {
	r := Report{System: system}
	var beLat []float64
	var allocated float64
	for _, o := range res.Outcomes {
		switch o.Job.Class {
		case job.SLO:
			r.SLOJobs++
			if o.MissedDeadline() {
				r.SLOMisses++
			}
			if o.Completed {
				r.CompletedSLO++
				r.SLOGoodput += float64(o.Job.Tasks) * o.ActualRuntime / 3600
			}
		case job.BestEffort:
			r.BEJobs++
			if o.Completed {
				r.CompletedBE++
				r.BEGoodput += float64(o.Job.Tasks) * o.ActualRuntime / 3600
				beLat = append(beLat, o.CompletionTime-o.Job.Submit)
			}
		}
		r.Preemptions += o.Preemptions
		r.WastedHours += o.WastedWork / 3600
		r.Evictions += o.Evictions
		if o.Failed {
			r.RetriesExhausted++
		}
		r.FailureLostHours += o.LostToFailures / 3600
		if o.Completed {
			allocated += float64(o.Job.Tasks) * o.ActualRuntime
		}
		allocated += o.WastedWork + o.LostToFailures
	}
	r.NodeDownSeconds = res.NodeDownSeconds
	r.TotalGoodput = r.SLOGoodput + r.BEGoodput
	if r.SLOJobs > 0 {
		r.SLOMissRate = 100 * float64(r.SLOMisses) / float64(r.SLOJobs)
	}
	if len(beLat) > 0 {
		sort.Float64s(beLat)
		var sum float64
		for _, l := range beLat {
			sum += l
		}
		r.MeanBELatency = sum / float64(len(beLat))
		r.P99BELatency = beLat[int(0.99*float64(len(beLat)-1))]
	}
	if res.EndTime > 0 && cluster.TotalNodes() > 0 {
		r.EffectiveLoad = allocated / (float64(cluster.TotalNodes()) * res.EndTime)
	}
	r.MeanCycleTime, r.MaxCycleTime = durStats(res.CycleLatencies)
	r.MeanSolveTime, r.MaxSolveTime = durStats(res.SolverLatency)
	r.SkippedStarts = res.SkippedStarts
	return r
}

func durStats(ds []time.Duration) (mean, max time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
		if d > max {
			max = d
		}
	}
	return sum / time.Duration(len(ds)), max
}

// String renders the report as one table row.
func (r Report) String() string {
	return fmt.Sprintf("%-14s slo-miss=%5.1f%% goodput=%7.1f M-hr (slo %7.1f / be %7.1f) be-lat=%6.0fs preempt=%d",
		r.System, r.SLOMissRate, r.TotalGoodput, r.SLOGoodput, r.BEGoodput, r.MeanBELatency, r.Preemptions)
}

// Average returns the component-wise mean of the reports (used to average
// repeated experiment runs over different workload seeds). Count fields are
// rounded means; the System name is taken from the first report.
func Average(rs []Report) Report {
	if len(rs) == 0 {
		return Report{}
	}
	n := float64(len(rs))
	avg := Report{System: rs[0].System}
	for _, r := range rs {
		avg.SLOJobs += r.SLOJobs
		avg.BEJobs += r.BEJobs
		avg.SLOMisses += r.SLOMisses
		avg.SLOMissRate += r.SLOMissRate / n
		avg.SLOGoodput += r.SLOGoodput / n
		avg.BEGoodput += r.BEGoodput / n
		avg.TotalGoodput += r.TotalGoodput / n
		avg.MeanBELatency += r.MeanBELatency / n
		avg.P99BELatency += r.P99BELatency / n
		avg.CompletedSLO += r.CompletedSLO
		avg.CompletedBE += r.CompletedBE
		avg.Preemptions += r.Preemptions
		avg.WastedHours += r.WastedHours / n
		avg.EffectiveLoad += r.EffectiveLoad / n
		avg.MeanCycleTime += r.MeanCycleTime / time.Duration(len(rs))
		avg.MeanSolveTime += r.MeanSolveTime / time.Duration(len(rs))
		if r.MaxCycleTime > avg.MaxCycleTime {
			avg.MaxCycleTime = r.MaxCycleTime
		}
		if r.MaxSolveTime > avg.MaxSolveTime {
			avg.MaxSolveTime = r.MaxSolveTime
		}
		avg.SkippedStarts += r.SkippedStarts
		avg.Evictions += r.Evictions
		avg.RetriesExhausted += r.RetriesExhausted
		avg.NodeDownSeconds += r.NodeDownSeconds / n
		avg.FailureLostHours += r.FailureLostHours / n
		avg.Solver.Nodes += r.Solver.Nodes
		avg.Solver.LPIters += r.Solver.LPIters
		avg.Solver.Proved += r.Solver.Proved
		avg.Solver.NodeCapped += r.Solver.NodeCapped
		avg.Solver.DeadlineStops += r.Solver.DeadlineStops
		avg.Solver.ColdFallbacks += r.Solver.ColdFallbacks
		avg.Solver.CacheHits += r.Solver.CacheHits
		avg.Solver.CacheMisses += r.Solver.CacheMisses
		avg.Solver.PatchedCycles += r.Solver.PatchedCycles
		avg.Solver.RebuildFallbacks += r.Solver.RebuildFallbacks
		avg.Solver.RowsPatched += r.Solver.RowsPatched
		avg.Solver.ColsPatched += r.Solver.ColsPatched
		avg.Solver.WarmBasisReuses += r.Solver.WarmBasisReuses
		avg.Solver.IncumbentSeedHits += r.Solver.IncumbentSeedHits
		avg.Solver.ReusedSolves += r.Solver.ReusedSolves
	}
	avg.SLOJobs = int(math.Round(float64(avg.SLOJobs) / n))
	avg.BEJobs = int(math.Round(float64(avg.BEJobs) / n))
	avg.SLOMisses = int(math.Round(float64(avg.SLOMisses) / n))
	avg.CompletedSLO = int(math.Round(float64(avg.CompletedSLO) / n))
	avg.CompletedBE = int(math.Round(float64(avg.CompletedBE) / n))
	avg.Preemptions = int(math.Round(float64(avg.Preemptions) / n))
	avg.SkippedStarts = int(math.Round(float64(avg.SkippedStarts) / n))
	avg.Evictions = int(math.Round(float64(avg.Evictions) / n))
	avg.RetriesExhausted = int(math.Round(float64(avg.RetriesExhausted) / n))
	avg.Solver.Nodes = int(math.Round(float64(avg.Solver.Nodes) / n))
	avg.Solver.LPIters = int(math.Round(float64(avg.Solver.LPIters) / n))
	avg.Solver.Proved = int(math.Round(float64(avg.Solver.Proved) / n))
	avg.Solver.NodeCapped = int(math.Round(float64(avg.Solver.NodeCapped) / n))
	avg.Solver.DeadlineStops = int(math.Round(float64(avg.Solver.DeadlineStops) / n))
	avg.Solver.ColdFallbacks = int(math.Round(float64(avg.Solver.ColdFallbacks) / n))
	avg.Solver.CacheHits = int(math.Round(float64(avg.Solver.CacheHits) / n))
	avg.Solver.CacheMisses = int(math.Round(float64(avg.Solver.CacheMisses) / n))
	avg.Solver.PatchedCycles = int(math.Round(float64(avg.Solver.PatchedCycles) / n))
	avg.Solver.RebuildFallbacks = int(math.Round(float64(avg.Solver.RebuildFallbacks) / n))
	avg.Solver.RowsPatched = int(math.Round(float64(avg.Solver.RowsPatched) / n))
	avg.Solver.ColsPatched = int(math.Round(float64(avg.Solver.ColsPatched) / n))
	avg.Solver.WarmBasisReuses = int(math.Round(float64(avg.Solver.WarmBasisReuses) / n))
	avg.Solver.IncumbentSeedHits = int(math.Round(float64(avg.Solver.IncumbentSeedHits) / n))
	avg.Solver.ReusedSolves = int(math.Round(float64(avg.Solver.ReusedSolves) / n))
	return avg
}

// FaultPanel renders the availability metrics as one line: failure-induced
// evictions, retry-budget fail-outs, down capacity, and goodput vs. work
// lost to the environment.
func (r Report) FaultPanel() string {
	return fmt.Sprintf("%-14s evictions=%d retries-exhausted=%d node-down=%.0f node-hr lost=%.1f M-hr goodput=%.1f M-hr",
		r.System, r.Evictions, r.RetriesExhausted, r.NodeDownSeconds/3600, r.FailureLostHours, r.TotalGoodput)
}

// OutcomeDigest hashes a run's observable outcome — every job's fate plus
// end-of-run fault accounting — into a hex string. Two runs with identical
// scheduling behavior produce identical digests regardless of wall-clock
// noise (latencies are deliberately excluded), which is what the CI
// determinism gate compares across invocations.
func OutcomeDigest(res *simulator.Result) string {
	h := sha256.New()
	f := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	b := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	for _, o := range res.Outcomes {
		fmt.Fprintf(h, "%d|%s%s%s%s|%s|%s|%s|%s|%d|%s|%d|%s\n",
			o.Job.ID, b(o.Started), b(o.Completed), b(o.Cancelled), b(o.Failed),
			f(o.FirstStart), f(o.CompletionTime), f(o.ActualRuntime),
			b(o.OnPreferred), o.Preemptions, f(o.WastedWork),
			o.Evictions, f(o.LostToFailures))
	}
	fmt.Fprintf(h, "end=%s cycles=%d skipped=%d down=%s\n",
		f(res.EndTime), res.Cycles, res.SkippedStarts, f(res.NodeDownSeconds))
	return hex.EncodeToString(h.Sum(nil))
}

// JobsDigest hashes per-job fates alone, in OutcomeDigest's line format but
// without the run trailer. It is the digest the distributed control plane
// compares across deployment shapes (single process vs replicated vs
// agent-backed, with or without a mid-run failover): cycle counts and
// end-of-run bookkeeping depend on how long the daemons idled, while the
// jobs' fates must be bitwise-identical.
func JobsDigest(outs []*simulator.Outcome) string {
	h := sha256.New()
	f := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	b := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	for _, o := range outs {
		fmt.Fprintf(h, "%d|%s%s%s%s|%s|%s|%s|%s|%d|%s|%d|%s\n",
			o.Job.ID, b(o.Started), b(o.Completed), b(o.Cancelled), b(o.Failed),
			f(o.FirstStart), f(o.CompletionTime), f(o.ActualRuntime),
			b(o.OnPreferred), o.Preemptions, f(o.WastedWork),
			o.Evictions, f(o.LostToFailures))
	}
	fmt.Fprintf(h, "jobs=%d\n", len(outs))
	return hex.EncodeToString(h.Sum(nil))
}

// ShardOutcomeDigests hashes a run's outcome split across n digest shards:
// shardOf attributes every job to a shard in [0, n) (the coordinator's
// DigestShard — a pure function of the job, so attribution is identical on
// every run), and each shard's digest covers exactly its jobs' fate lines in
// the combined digest's format plus a per-shard trailer. The combined
// OutcomeDigest is unchanged by sharding; these compose with it so a
// cross-shard divergence can be localized to the domain that drifted.
func ShardOutcomeDigests(res *simulator.Result, n int, shardOf func(*job.Job) int) []string {
	hs := make([]hashState, n)
	f := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	b := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	for _, o := range res.Outcomes {
		sh := shardOf(o.Job)
		if sh < 0 || sh >= n {
			sh = 0
		}
		fmt.Fprintf(hs[sh].w(), "%d|%s%s%s%s|%s|%s|%s|%s|%d|%s|%d|%s\n",
			o.Job.ID, b(o.Started), b(o.Completed), b(o.Cancelled), b(o.Failed),
			f(o.FirstStart), f(o.CompletionTime), f(o.ActualRuntime),
			b(o.OnPreferred), o.Preemptions, f(o.WastedWork),
			o.Evictions, f(o.LostToFailures))
	}
	out := make([]string, n)
	for i := range hs {
		fmt.Fprintf(hs[i].w(), "shard=%d/%d end=%s\n", i, n, f(res.EndTime))
		out[i] = hex.EncodeToString(hs[i].w().Sum(nil))
	}
	return out
}

// hashState lazily allocates one sha256 state per digest shard.
type hashState struct{ h hash.Hash }

func (s *hashState) w() hash.Hash {
	if s.h == nil {
		s.h = sha256.New()
	}
	return s.h
}

// Table renders reports with a header, one row per system (the shape of the
// paper's bar-figure data).
func Table(rows []Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %10s %12s %12s %12s %10s\n",
		"system", "slo-miss%", "goodput", "slo-gp", "be-gp", "be-lat(s)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %10.2f %12.1f %12.1f %12.1f %10.0f\n",
			r.System, r.SLOMissRate, r.TotalGoodput, r.SLOGoodput, r.BEGoodput, r.MeanBELatency)
	}
	return sb.String()
}
