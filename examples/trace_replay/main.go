// Trace replay: the paper's §5 recipe for the HedgeFund and Mustang
// experiments — take a raw trace, pre-train 3σPredict on everything before
// a chosen segment, replay the segment as a live workload, and persist the
// predictor's learned history (the "runtime history database") for the
// next run.
//
//	go run ./examples/trace_replay
package main

import (
	"bytes"
	"fmt"
	"log"

	"threesigma"
	"threesigma/internal/workload"
)

func main() {
	// Stand-in for a real trace: 4,000 jobs from the Mustang-like model
	// (use cmd/3sigma-tracegen to materialize one as CSV).
	recs := workload.GenerateTrace(workload.Mustang(), 4000, 11)
	span := recs[len(recs)-1].Submit

	// Replay the last quarter of the trace; the first three quarters
	// become predictor history.
	w := threesigma.WorkloadFromTrace(recs, threesigma.ReplayConfig{
		Name:         "mustang-segment",
		Cluster:      threesigma.NewCluster(1024, 8),
		SegmentStart: span * 0.75,
		Seed:         11,
	})
	fmt.Printf("replaying %d jobs (offered load %.1f) after pre-training on %d history records\n",
		len(w.Jobs), w.OfferedLoad, len(w.Train))

	res, err := threesigma.Simulate(threesigma.SystemThreeSigma, w, threesigma.SimConfig{
		Seed: 11, CycleInterval: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Report)

	// Persist the predictor's history database and restore it elsewhere.
	p := threesigma.NewPredictor()
	p.Train(w)
	for _, o := range res.Outcomes {
		if o.Completed {
			p.Observe(o.Job, o.Job.Runtime)
		}
	}
	var db bytes.Buffer
	if err := p.Save(&db); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved history database: %d bytes for %d jobs of history\n", db.Len(), len(w.Train)+len(w.Jobs))

	restored := threesigma.NewPredictor()
	if err := restored.Load(&db); err != nil {
		log.Fatal(err)
	}
	e := restored.Estimate(w.Jobs[0])
	fmt.Printf("restored predictor estimates job %d at %.0fs (expert %s, %d samples)\n",
		w.Jobs[0].ID, e.Point, e.Expert, e.Samples)
}
