// Command 3sigma-traceanalyze runs the §2.1 / Fig. 2 analyses over a trace:
// the job runtime CDF, the coefficient-of-variation spectra of job subsets
// grouped by user id and by resources requested, and the estimate-error
// histogram of the JVuPredict-style predictor replayed over the trace.
//
// The trace comes from a CSV file (-in, as written by 3sigma-tracegen) or
// is generated in-process from an environment model (-env).
package main

import (
	"flag"
	"fmt"
	"os"

	"threesigma/internal/experiments"
	"threesigma/internal/predictor"
	"threesigma/internal/trace"
	"threesigma/internal/workload"
)

func main() {
	in := flag.String("in", "", "trace CSV file (from 3sigma-tracegen); empty generates from -env")
	env := flag.String("env", "google", "environment model when generating")
	n := flag.Int("n", 10000, "jobs to generate when -in is empty")
	seed := flag.Int64("seed", 1, "random seed when generating")
	flag.Parse()

	var recs []trace.Record
	var err error
	if *in != "" {
		f, ferr := os.Open(*in)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		recs, err = trace.ReadCSV(f)
		f.Close()
	} else {
		var e *workload.Env
		e, err = workload.EnvByName(*env)
		if err == nil {
			recs = workload.GenerateTrace(e, *n, *seed)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("trace: %d jobs\n\n", len(recs))

	fmt.Println("Fig 2a: runtime CDF (log-spaced)")
	for _, xy := range trace.RuntimeCDF(recs, 16) {
		fmt.Printf("  rt<=%10.1fs: %5.1f%%\n", xy.X, xy.Y*100)
	}

	covU := trace.CoVByGroup(recs, trace.ByUser, 2)
	covR := trace.CoVByGroup(recs, trace.ByResources, 2)
	fmt.Printf("\nFig 2b: CoV by user id: %d groups, %4.0f%% with CoV > 1\n",
		len(covU), trace.FractionAbove(covU, 1)*100)
	fmt.Printf("Fig 2c: CoV by resources requested: %d groups, %4.0f%% with CoV > 1\n",
		len(covR), trace.FractionAbove(covR, 1)*100)

	h := trace.EstimateErrors(recs, experiments.PredictorAdapter{P: predictor.New(predictor.Config{})})
	fmt.Printf("\nFig 2d: estimate errors over %d scored jobs\n", h.N)
	fmt.Printf("  within 2x of actual: %5.1f%%   off by >=2x: %5.1f%%   mean |err|: %5.1f%%\n",
		h.WithinFactor2*100, h.MisestimatedByFactor2()*100, h.MeanAbsPct)
	for i, b := range h.Buckets {
		fmt.Printf("  %-12s %6.2f%%\n", trace.BucketLabel(i), b*100)
	}
	fmt.Printf("  %-12s %6.2f%%\n", ">95 (tail)", h.Tail*100)
}
