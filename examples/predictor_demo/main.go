// Predictor demo: train 3σPredict on a synthetic cluster trace and inspect
// what it learns — the winning expert per job, point estimates, and full
// runtime distributions (quantiles), plus the aggregate estimate-error
// profile of §2.1 / Fig. 2d.
//
//	go run ./examples/predictor_demo
package main

import (
	"fmt"

	"threesigma"
	"threesigma/internal/workload"
)

func main() {
	// Generate history from the HedgeFund environment model (the paper's
	// hardest-to-predict workload) and train the predictor on it.
	env := workload.HedgeFund()
	recs := workload.GenerateTrace(env, 8000, 7)
	p := threesigma.NewPredictor()

	// Replay the trace: estimate before observing, scoring accuracy online.
	within2, scored := 0, 0
	for _, r := range recs {
		j := r.Job()
		if e := p.Estimate(j); !e.Novel {
			scored++
			if e.Point <= 2*r.Runtime && e.Point >= r.Runtime/2 {
				within2++
			}
		}
		p.Observe(j, r.Runtime)
	}
	fmt.Printf("trained on %d jobs from the %s model\n", len(recs), env.Name)
	fmt.Printf("online accuracy: %.1f%% of %d estimates within 2x of the actual runtime\n\n",
		100*float64(within2)/float64(scored), scored)

	// Ask for distributions for a few recurring jobs.
	fmt.Println("per-job estimates (distribution quantiles in seconds):")
	seen := map[string]bool{}
	shown := 0
	for _, r := range recs {
		if shown >= 5 || seen[r.Name] {
			continue
		}
		seen[r.Name] = true
		shown++
		e := p.Estimate(r.Job())
		d := e.Dist
		fmt.Printf("  %-18s expert=%-22s n=%4d  point=%7.0f  p10=%7.0f p50=%7.0f p90=%7.0f max=%8.0f\n",
			r.Name, e.Expert, e.Samples, e.Point,
			d.Quantile(0.1), d.Quantile(0.5), d.Quantile(0.9), d.Max())
	}

	// A brand-new (user, program) pair has no specific history; the
	// catch-all "all" feature still offers the cluster-wide distribution,
	// so the predictor degrades gracefully instead of guessing blindly.
	novel := &threesigma.Job{User: "nobody", Name: "never-seen", Tasks: 3}
	e := p.Estimate(novel)
	fmt.Printf("\nunseen job: served by the catch-all expert %q (novel=%v)\n", e.Expert, e.Novel)

	// The same distribution drives 3σSched's decisions: probability of
	// finishing within a deadline window.
	if shown > 0 {
		for _, r := range recs[:200] {
			e := p.Estimate(r.Job())
			if e.Novel {
				continue
			}
			window := e.Point * 1.5
			fmt.Printf("\nexample scheduling query for %s:\n", r.Name)
			fmt.Printf("  P(runtime <= %.0fs) = %.2f   (Eq. 1 feeds on exactly this CDF)\n",
				window, e.Dist.CDF(window))
			break
		}
	}
}
