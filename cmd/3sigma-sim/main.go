// Command 3sigma-sim runs one scheduler on one generated workload and
// prints the §5 success metrics plus scheduler-side statistics.
//
// Usage:
//
//	3sigma-sim [-system 3Sigma] [-env google] [-nodes 256] [-hours 2]
//	           [-load 1.4] [-seed 1] [-rc] [-compare]
//
// -compare runs all four Table 1 systems on the identical workload.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"threesigma"
	"threesigma/internal/simulator"
	"threesigma/internal/trace"
	"threesigma/internal/workload"
)

// stopwatch times the elapsed display; the simulation runs on its own clock.
var stopwatch simulator.WallClock

func main() {
	system := flag.String("system", "3Sigma", "scheduler: 3Sigma, PointPerfEst, PointRealEst, Prio, 3SigmaNoDist, 3SigmaNoOE, 3SigmaNoAdapt")
	env := flag.String("env", "google", "workload environment: google, hedgefund, mustang")
	nodes := flag.Int("nodes", 256, "cluster size in nodes")
	parts := flag.Int("partitions", 8, "number of machine partitions")
	hours := flag.Float64("hours", 2, "submission window in hours")
	load := flag.Float64("load", 1.4, "offered load")
	seed := flag.Int64("seed", 1, "random seed")
	rc := flag.Bool("rc", false, "emulate the real cluster (jitter + placement delay)")
	compare := flag.Bool("compare", false, "run all four Table 1 systems")
	cycle := flag.Float64("cycle", 10, "scheduling cycle interval, seconds")
	traceFile := flag.String("trace", "", "replay a trace CSV (from 3sigma-tracegen) instead of generating a workload")
	verbose := flag.Bool("verbose", false, "print every scheduling decision (starts, deferrals, preemptions, abandonments)")
	segStart := flag.Float64("segment-start", 0, "trace replay: segment start time, seconds")
	faultSpec := flag.String("faults", "", "fault injection spec: preset (light, heavy) or k=v list, e.g. seed=7,mtbf=1800,mttr=300,group=0.2:4,crash=0.05,straggler=0.1:2,retries=3")
	digest := flag.Bool("digest", false, "print the run's outcome digest (hash of job fates; stable across identical runs, used by the CI determinism gate) and a solver: line of its solver counters")
	shards := flag.Int("shards", 1, "number of scheduling domains; >1 runs per-shard MILP solves under the cross-shard coordinator (DESIGN.md §13)")
	domains := flag.Int("domains", 0, "generate a domain-partitioned workload: SLO jobs prefer exactly one of this many contiguous partition domains (0 = paper's random-subset preferences)")
	sloShare := flag.Float64("sloshare", 0, "fraction of offered load from SLO jobs (0 = default 0.5; 1 = all SLO)")
	nonPref := flag.Float64("nonpref", 0, "runtime slowdown factor outside a job's preferred partitions (0 = default 1.5)")
	flag.Parse()

	var faultCfg *threesigma.FaultConfig
	if *faultSpec != "" {
		fc, err := threesigma.ParseFaultSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if fc.Seed == 0 {
			fc.Seed = *seed
		}
		faultCfg = &fc
	}

	var w *threesigma.Workload
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		recs, err := trace.ReadCSV(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w = threesigma.WorkloadFromTrace(recs, threesigma.ReplayConfig{
			Name:         *traceFile,
			Cluster:      threesigma.NewCluster(*nodes, *parts),
			SegmentStart: *segStart,
			SegmentHours: *hours,
			Seed:         *seed,
		})
	} else {
		e, err := workload.EnvByName(*env)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		w = threesigma.GenerateWorkload(threesigma.WorkloadConfig{
			Env:           e,
			Cluster:       threesigma.NewCluster(*nodes, *parts),
			DurationHours: *hours,
			Load:          *load,
			SLOLoadShare:  *sloShare,
			NonPrefFactor: *nonPref,
			Domains:       *domains,
			Seed:          *seed,
		})
	}
	fmt.Printf("workload %s: %d jobs (offered load %.2f) on %d nodes / %d partitions\n\n",
		w.Name, len(w.Jobs), w.OfferedLoad, *nodes, *parts)

	systems := []threesigma.System{threesigma.System(*system)}
	if *compare {
		systems = []threesigma.System{
			threesigma.SystemThreeSigma, threesigma.SystemPointPerfEst,
			threesigma.SystemPointRealEst, threesigma.SystemPrio,
		}
	}
	var rows []threesigma.Report
	for _, sys := range systems {
		t0 := stopwatch.Now()
		simCfg := threesigma.SimConfig{Seed: *seed, RealCluster: *rc, CycleInterval: *cycle, Faults: faultCfg, Shards: *shards}
		if *verbose {
			simCfg.Scheduler.OnDecision = func(e threesigma.DecisionEvent) { fmt.Println(e) }
		}
		res, err := threesigma.Simulate(sys, w, simCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rows = append(rows, res.Report)
		if faultCfg != nil {
			fmt.Println(res.Report.FaultPanel())
		}
		if *digest {
			fmt.Printf("outcome digest: %s %s\n", sys, res.Digest)
			for i, d := range res.ShardDigests {
				fmt.Printf("shard digest: %s %d/%d %s\n", sys, i, len(res.ShardDigests), d)
			}
			st := res.Stats
			fmt.Printf("solver: %s nodes=%d lp-iters=%d proved=%d capped=%d cold=%d\n", sys,
				st.SolverNodes, st.SolverLPIters, st.SolverProved, st.SolverNodeCapped, st.SolverColdFallbacks)
		}
		if res.Stats.Cycles > 0 {
			fmt.Printf("%-14s %4d cycles, mean cycle %v, max solve %v, model <=%d vars / %d rows (%s)\n",
				sys, res.Stats.Cycles,
				(res.Stats.CycleTime / time.Duration(res.Stats.Cycles)).Round(time.Microsecond),
				res.Stats.MaxSolveTime.Round(time.Microsecond),
				res.Stats.MaxVars, res.Stats.MaxRows, stopwatch.Since(t0).Round(time.Millisecond))
		} else {
			fmt.Printf("%-14s greedy scheduler (%s)\n", sys, stopwatch.Since(t0).Round(time.Millisecond))
		}
	}
	fmt.Println()
	fmt.Print(threesigma.FormatReports(rows))
}
