// Command 3sigma-bench regenerates the paper's tables and figures at a
// chosen scale and prints the same rows/series the paper reports.
//
// Usage:
//
//	3sigma-bench [-scale small|medium|full] [-seed N] [-fig 1|2|6|7|8|9|10|11|12] [-table 2] [-all] [-json]
//
// Without -fig/-table/-all it prints the available experiments. The full
// scale matches the paper (SC256, 5-hour workloads) and takes tens of
// minutes; medium is the EXPERIMENTS.md default. With -json each experiment
// is emitted as one JSON object (name, elapsed, structured rows — including
// the MILP solver's work counters for the end-to-end figures) instead of the
// formatted tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"threesigma/internal/experiments"
	"threesigma/internal/faults"
)

func main() {
	scale := flag.String("scale", "medium", "experiment scale: small, medium or full")
	seed := flag.Int64("seed", 1, "base random seed")
	fig := flag.Int("fig", 0, "figure number to regenerate (1,2,6,7,8,9,10,11,12)")
	table := flag.Int("table", 0, "table number to regenerate (2)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	ablations := flag.Bool("ablations", false, "also run the repository's design-choice ablations")
	jsonOut := flag.Bool("json", false, "emit one JSON object per experiment instead of formatted tables")
	fig12Hours := flag.Float64("fig12-hours", 0.2, "measurement window for the Fig 12 scalability run")
	faultSpec := flag.String("faults", "", "run the availability scenario (SLO attainment vs node MTBF sweep) with this fault spec: preset (light, heavy) or k=v list; mtbf is overridden per sweep point")
	steady := flag.Bool("steady", false, "run the steady-state incremental-solve scenario (two arms: incremental, rebuild-cold)")
	scalability := flag.Bool("scalability", false, "run the sharded-domain scalability scenario (two arms: monolithic, sharded-N)")
	shards := flag.Int("shards", 0, "override the scheduling-domain count (0 = the scale's default; applies to every experiment and the -scalability scenario)")
	flag.Parse()

	var sc experiments.Scale
	switch *scale {
	case "small":
		sc = experiments.Small()
	case "medium":
		sc = experiments.Medium()
	case "full":
		sc = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	if *shards > 0 {
		sc.Shards = *shards
	}

	if !*all && *fig == 0 && *table == 0 && *faultSpec == "" && !*steady && !*scalability {
		fmt.Println("3sigma-bench: regenerate the paper's evaluation")
		fmt.Println("  -fig 1    SLO miss comparison (E2E, simulated cluster)")
		fmt.Println("  -fig 2    trace analyses (runtime CDFs, CoV spectra, estimate errors)")
		fmt.Println("  -fig 6    end-to-end comparison (emulated real cluster)")
		fmt.Println("  -table 2  real-vs-sim deltas")
		fmt.Println("  -fig 7    three workload environments")
		fmt.Println("  -fig 8    attribution of benefit vs deadline slack")
		fmt.Println("  -fig 9    synthetic distribution perturbation")
		fmt.Println("  -fig 10   load sensitivity")
		fmt.Println("  -fig 11   sample-size sensitivity")
		fmt.Println("  -fig 12   scalability (12,583 nodes)")
		fmt.Println("  -all      everything above")
		fmt.Println("  -faults SPEC  availability scenario: SLO attainment vs node MTBF sweep")
		fmt.Println("  -steady   steady-state incremental-solve scenario (DESIGN.md §12)")
		fmt.Println("  -scalability  sharded scheduling-domain scenario (DESIGN.md §13)")
		fmt.Println("  -json     machine-readable output (incl. solver counters)")
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	want := func(n int) bool { return *all || *fig == n }
	// run executes one experiment; f returns the structured rows (for -json)
	// and the formatted table (for the default text output).
	run := func(name string, f func() (interface{}, string, error)) {
		//lint:allow wallclock benchmark harness measures real experiment duration by design
		t0 := time.Now()
		data, out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		//lint:allow wallclock benchmark harness measures real experiment duration by design
		elapsed := time.Since(t0).Round(time.Millisecond)
		if *jsonOut {
			if err := enc.Encode(struct {
				Name    string      `json:"name"`
				Scale   string      `json:"scale"`
				Seed    int64       `json:"seed"`
				Elapsed string      `json:"elapsed"`
				Data    interface{} `json:"data"`
			}{name, sc.Name, *seed, elapsed.String(), data}); err != nil {
				fmt.Fprintf(os.Stderr, "%s: encode: %v\n", name, err)
				os.Exit(1)
			}
			return
		}
		fmt.Printf("== %s (scale=%s seed=%d, %s) ==\n%s\n", name, sc.Name, *seed, elapsed, out)
	}

	if want(1) {
		run("Fig 1", func() (interface{}, string, error) {
			rows, err := experiments.EndToEnd(sc, *seed, false)
			return rows, experiments.FormatEndToEnd("Fig 1: SLO miss, E2E on SC", rows), err
		})
	}
	if want(2) {
		run("Fig 2", func() (interface{}, string, error) {
			rows := experiments.Fig2(sc, *seed)
			return rows, experiments.FormatFig2(rows), nil
		})
	}
	if want(6) {
		run("Fig 6", func() (interface{}, string, error) {
			rows, err := experiments.EndToEnd(sc, *seed, true)
			return rows, experiments.FormatEndToEnd("Fig 6: E2E on RC (emulated)", rows), err
		})
	}
	if *all || *table == 2 {
		run("Table 2", func() (interface{}, string, error) {
			rows, err := experiments.Table2(sc, *seed)
			return rows, experiments.FormatTable2(rows), err
		})
	}
	if want(7) {
		run("Fig 7", func() (interface{}, string, error) {
			cells, err := experiments.Fig7(sc, *seed)
			return cells, experiments.FormatFig7(cells), err
		})
	}
	if want(8) {
		run("Fig 8", func() (interface{}, string, error) {
			pts, err := experiments.Fig8(sc, *seed, nil)
			return pts, experiments.FormatFig8(pts), err
		})
	}
	if want(9) {
		run("Fig 9", func() (interface{}, string, error) {
			pts, err := experiments.Fig9(sc, *seed, nil, nil)
			return pts, experiments.FormatFig9(pts), err
		})
	}
	if want(10) {
		run("Fig 10", func() (interface{}, string, error) {
			pts, err := experiments.Fig10(sc, *seed, nil)
			return pts, experiments.FormatFig10(pts), err
		})
	}
	if want(11) {
		run("Fig 11", func() (interface{}, string, error) {
			pts, err := experiments.Fig11(sc, *seed, nil)
			return pts, experiments.FormatFig11(pts), err
		})
	}
	if want(12) {
		run("Fig 12", func() (interface{}, string, error) {
			pts, err := experiments.Fig12(*seed, nil, *fig12Hours)
			return pts, experiments.FormatFig12(pts), err
		})
	}
	if *faultSpec != "" {
		base, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if base.Seed == 0 {
			base.Seed = *seed
		}
		run("Availability", func() (interface{}, string, error) {
			pts, err := experiments.Availability(sc, *seed, base, nil)
			return pts, experiments.FormatAvailability(pts), err
		})
	}
	if *steady {
		run("Steady", func() (interface{}, string, error) {
			arms, err := experiments.Steady(experiments.SteadyScale(), *seed)
			return arms, experiments.FormatSteady(arms), err
		})
	}
	if *scalability {
		run("Scalability", func() (interface{}, string, error) {
			ssc := experiments.ScalabilityScale()
			if *shards > 0 {
				ssc.Shards = *shards
			}
			arms, err := experiments.Scalability(ssc, *seed)
			return arms, experiments.FormatScalability(arms), err
		})
	}
	if *ablations {
		run("Ablation: plan-ahead", func() (interface{}, string, error) {
			pts, err := experiments.AblationPlanAhead(sc, *seed, nil)
			return pts, experiments.FormatAblation("Ablation: plan-ahead slots", pts), err
		})
		run("Ablation: warm start", func() (interface{}, string, error) {
			pts, err := experiments.AblationWarmStart(sc, *seed)
			return pts, experiments.FormatAblation("Ablation: MILP warm start", pts), err
		})
		run("Ablation: share formulation", func() (interface{}, string, error) {
			small := experiments.Small()
			small.Repeats = 2
			pts, err := experiments.AblationExactShares(small, *seed)
			return pts, experiments.FormatAblation("Ablation: MILP share formulation (small scale)", pts), err
		})
	}
}
