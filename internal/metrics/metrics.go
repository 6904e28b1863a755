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
	"io"
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

	// Solver carries the scheduler's counters over the run (zero for
	// schedulers without a MILP, e.g. Prio).
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

// SolverStats is 3σSched's set of summable counters, declared once: the
// scheduler accumulates them (core.Stats embeds the set), the shard
// coordinator and Average sum them, and /v1/metrics and -json serve them
// under their JSON tags. A new counter is one field here plus its increment.
type SolverStats struct {
	Predictions   int `json:"predictions"`    // 3σPredict estimates at submission
	Starts        int `json:"starts"`         // jobs started
	Preemptions   int `json:"preemptions"`    // running jobs preempted
	AllocFailures int `json:"alloc_failures"` // chosen slot-0 options whose discrete allocation failed
	Deferrals     int `json:"deferrals"`      // chosen options planned for a later slot

	SolverNodes   int `json:"solver_nodes"`    // branch-and-bound nodes explored
	SolverLPIters int `json:"solver_lp_iters"` // simplex iterations (pivots and bound flips) over all node relaxations
	SolverLPWork  int `json:"solver_lp_work"`  // stored tableau entries the LP kernels touched (milp.Solution.Work)
	// How each solve ended (a cycle answered with the previous solution
	// counts in none): proved — the search ran out of open nodes, Status
	// Optimal or Infeasible — or stopped unproved by the node budget.
	// ColdFallbacks counts the non-root nodes solved cold because their
	// parent's tableau could not be used, Cutoffs the children whose
	// re-solve stopped once their bound fell to the incumbent
	// (milp.Solution).
	SolverProved        int `json:"solver_proved"`
	SolverNodeCapped    int `json:"solver_node_capped"`
	SolverColdFallbacks int `json:"solver_cold_fallbacks"`
	SolverCutoffs       int `json:"solver_cutoffs"`

	// Model-builder memoization counters (cross-cycle expected-utility and
	// survival-term cache).
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`

	// Incremental re-solve counters (DESIGN.md §12): every cycle's MILP is
	// compared with the previous cycle's, and on a "quiet" cycle — one whose
	// snapshot shows the previous one's jobs and nodes — the verdict decides
	// what the solver may reuse. The names date from when a quiet cycle
	// patched the previous model; /v1/metrics and bench/ read them, so they
	// stay.
	PatchedCycles     int `json:"patched_cycles"`      // quiet cycles whose model kept the previous one's structure (keys, kinds, sparsity)
	RebuildFallbacks  int `json:"rebuild_fallbacks"`   // quiet cycles whose option structure drifted anyway (e.g. a slot-0 utility crossed the pruning threshold)
	RowsPatched       int `json:"rows_patched"`        // over PatchedCycles: rows whose coefficients or RHS differ from the previous cycle's
	ColsPatched       int `json:"cols_patched"`        // over PatchedCycles: objective coefficients that differ
	WarmBasisReuses   int `json:"warm_basis_reuses"`   // root LPs restored from the previous optimal basis
	IncumbentSeedHits int `json:"incumbent_seed_hits"` // cycles whose warm-start seed became the first incumbent
	ReusedSolves      int `json:"reused_solves"`       // cycles answered with the previous solution (model bitwise-unchanged)
}

// fields lists the set's counters; every aggregate walks it, so none can
// drop out of a sum.
func (s *SolverStats) fields() []*int {
	return []*int{
		&s.Predictions, &s.Starts, &s.Preemptions, &s.AllocFailures, &s.Deferrals,
		&s.SolverNodes, &s.SolverLPIters, &s.SolverLPWork, &s.SolverProved, &s.SolverNodeCapped, &s.SolverColdFallbacks, &s.SolverCutoffs,
		&s.CacheHits, &s.CacheMisses,
		&s.PatchedCycles, &s.RebuildFallbacks, &s.RowsPatched, &s.ColsPatched,
		&s.WarmBasisReuses, &s.IncumbentSeedHits, &s.ReusedSolves,
	}
}

// Add sums o's counters into s.
func (s *SolverStats) Add(o SolverStats) {
	of := o.fields()
	for i, p := range s.fields() {
		*p += *of[i]
	}
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

// String renders the solver counters as one diagnostic line.
func (s SolverStats) String() string {
	return fmt.Sprintf("nodes=%d lp-iters=%d work=%d proved=%d capped=%d cold=%d cache-hit=%.1f%% patched=%d fallbacks=%d reused=%d warm-basis=%d seed-hits=%d",
		s.SolverNodes, s.SolverLPIters, s.SolverLPWork, s.SolverProved, s.SolverNodeCapped, s.SolverColdFallbacks, 100*s.CacheHitRate(),
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
		avg.Solver.Add(r.Solver)
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
	for _, c := range avg.Solver.fields() {
		*c = int(math.Round(float64(*c) / n))
	}
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
	for _, o := range res.Outcomes {
		writeFate(h, o)
	}
	fmt.Fprintf(h, "end=%s cycles=%d skipped=%d down=%s\n",
		hexf(res.EndTime), res.Cycles, res.SkippedStarts, hexf(res.NodeDownSeconds))
	return hex.EncodeToString(h.Sum(nil))
}

// writeFate writes one job's fate line, the unit every outcome digest
// hashes: the digests are compared across deployments and shard counts, so
// they share this one format.
func writeFate(w io.Writer, o *simulator.Outcome) {
	fmt.Fprintf(w, "%d|%s%s%s%s|%s|%s|%s|%s|%d|%s|%d|%s\n",
		o.Job.ID, bit(o.Started), bit(o.Completed), bit(o.Cancelled), bit(o.Failed),
		hexf(o.FirstStart), hexf(o.CompletionTime), hexf(o.ActualRuntime),
		bit(o.OnPreferred), o.Preemptions, hexf(o.WastedWork),
		o.Evictions, hexf(o.LostToFailures))
}

// hexf renders x exactly, as a hexadecimal float.
func hexf(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

func bit(v bool) string {
	if v {
		return "1"
	}
	return "0"
}

// JobsDigest hashes per-job fates alone, in OutcomeDigest's line format but
// without the run trailer. It is the digest the distributed control plane
// compares across deployment shapes (single process vs replicated vs
// agent-backed, with or without a mid-run failover): cycle counts and
// end-of-run bookkeeping depend on how long the daemons idled, while the
// jobs' fates must be bitwise-identical.
func JobsDigest(outs []*simulator.Outcome) string {
	h := sha256.New()
	for _, o := range outs {
		writeFate(h, o)
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
	for _, o := range res.Outcomes {
		sh := shardOf(o.Job)
		if sh < 0 || sh >= n {
			sh = 0
		}
		writeFate(hs[sh].w(), o)
	}
	out := make([]string, n)
	for i := range hs {
		fmt.Fprintf(hs[i].w(), "shard=%d/%d end=%s\n", i, n, hexf(res.EndTime))
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
