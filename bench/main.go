// Command bench is the repository's one benchmark: it drives the system in
// this process through five workloads, prints every end-to-end metric by name
// with its unit, checks that the outputs are correct, and — with -trace 1 —
// runs each workload once more with tracing on, prints the per-layer metrics
// and writes the spans to bench/out/trace-<workload>.json. README.md says why
// each workload and metric was chosen; BENCHMARK.json at the repository root
// is the contract the numbers are compared under.
//
//	go run ./bench                                   all workloads, tables
//	go run ./bench -workload sim-e2e -seed 7 -seconds 30 -trace 0
//	go run ./bench -workload serve-group -runs 10    spread over ten seeds
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. A failed check exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options is what one run of one workload is given.
type options struct {
	seed    int64
	seconds int  // length of the measured pass
	trace   bool // also run traced and report per-layer metrics
	outDir  string

	setups  int  // cold set-ups timed for setup_s before anything else runs (serve: at least, see enoughSetups)
	minReps int  // repetitions a sim workload runs at least
	tiny    bool // the smoke test's scale: an eighth of every window
}

// result is what one run of one workload yields.
type result struct {
	attempted int
	failed    int
	problems  []string           // failed correctness checks
	notes     []string           // sizes worth printing next to the numbers
	e2e       map[string]float64 // measured pass
	layer     map[string]float64 // traced pass
	spans     []span
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// enoughSetups decides whether a serve workload times another cold set-up: at
// least o.setups of them, then more while they are cheap — a 30 ms set-up
// (serve-solo) varies by a third from one to the next, and its median needs
// dozens of samples where a 700 ms election-bound one (serve-group) gets by on
// five. A sim workload spreads its set-ups over the run instead (runSim).
func (o options) enoughSetups(n int, spent time.Duration) bool {
	return n >= o.setups && (n >= 8*o.setups || spent > time.Duration(o.setups)*120*time.Millisecond)
}

// workloads maps a name to its runner; sim.go and serve.go register theirs.
var workloads = map[string]func(options) (*result, error){}

var workloadOrder = []string{"sim-e2e", "sim-steady", "sim-scale", "serve-group", "serve-solo"}

// measurement is the contract's output shape for one metric.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// reportOf keeps the metrics the mode calls for: every end-to-end metric of
// an untraced run, every per-layer metric of a traced one.
func reportOf(r *result, trace bool) report {
	rep := report{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]measurement{}}
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layer
	}
	for _, m := range defs {
		rep.Metrics[m.name] = measurement{Value: vals[m.name], Unit: m.unit}
	}
	return rep
}

func printTable(w io.Writer, title string, defs []metric, vals map[string]float64) {
	fmt.Fprintf(w, "%s\n", title)
	for _, m := range defs {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
}

// runOne runs a workload once and prints its tables.
func runOne(w io.Writer, name string, o options) (*result, error) {
	run, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadOrder)
	}
	r, err := run(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.layer["proc.fail_pct"] = pct(float64(r.failed), float64(r.attempted))
	r.layer["proc.peak_rss_mb"] = peakRSSMiB()
	fmt.Fprintf(w, "== %s  seed %d  %d s  (%d operations, %d failed)\n", name, o.seed, o.seconds, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	printTable(w, "end to end:", endToEnd, r.e2e)
	if o.trace {
		printTable(w, "per layer (traced pass):", perLayer, r.layer)
		if err := writeTrace(o.outDir, name, o.seed, r.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "  %d spans -> %s\n", len(r.spans), filepath.Join(o.outDir, "trace-"+name+".json"))
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	return r, nil
}

// spread prints, per end-to-end metric, the median of the runs' values and
// the distance between their quartiles as a share of it — the number the
// bounds in BENCHMARK.json are sized against.
func spread(w io.Writer, name string, runs []*result) {
	fmt.Fprintf(w, "== %s  spread over %d runs (interquartile range / median)\n", name, len(runs))
	for _, m := range endToEnd {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r.e2e[m.name]
		}
		sort.Float64s(xs)
		q := func(p float64) float64 { // statistics.quantiles(n=4), exclusive
			h := p*float64(len(xs)+1) - 1
			if h < 0 {
				h = 0
			}
			if h > float64(len(xs)-1) {
				h = float64(len(xs) - 1)
			}
			lo := int(h)
			if lo+1 >= len(xs) {
				return xs[lo]
			}
			return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
		}
		fmt.Fprintf(w, "  %-16s median %12.4f %-14s spread %5.1f %%\n", m.name, q(0.5), m.unit, pct(q(0.75)-q(0.25), q(0.5)))
	}
}

// outDirDefault puts run files next to the harness whether the command was
// started from the repository root (go run ./bench) or from bench/ itself.
func outDirDefault() string {
	if _, err := os.Stat(filepath.Join("bench", "main.go")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all five in turn)")
	seed := flag.Int64("seed", 1, "seed the run's inputs are made from")
	seconds := flag.Int("seconds", 30, "length of the measured pass")
	trace := flag.Int("trace", 0, "1: also run traced, print per-layer metrics, write the trace file")
	runs := flag.Int("runs", 1, "repeat with seeds seed..seed+runs-1 and print the spread per metric")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *runs < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-runs n]")
		os.Exit(2)
	}
	names := workloadOrder
	if *name != "" {
		names = []string{*name}
	}
	var last report
	all := map[string]report{}
	ok := true
	for _, n := range names {
		var results []*result
		for i := 0; i < *runs; i++ {
			o := options{seed: *seed + int64(i), seconds: *seconds, trace: *trace == 1,
				outDir: outDirDefault(), setups: 5, minReps: 3}
			r, err := runOne(os.Stdout, n, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			results = append(results, r)
			last = reportOf(r, o.trace)
			ok = ok && last.Correct
		}
		if *runs > 1 {
			spread(os.Stdout, n, results)
		}
		all[n] = last
	}
	var line []byte
	if len(names) == 1 {
		line, _ = json.Marshal(last)
	} else {
		line, _ = json.Marshal(map[string]any{"correct": ok, "workloads": all})
	}
	fmt.Printf("%s\n", line)
	if !ok {
		os.Exit(1)
	}
}
