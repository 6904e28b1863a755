// Deadline mix: the paper's §2.3 / Fig. 5 worked example, run through the
// real scheduler. Two jobs arrive at a one-node cluster: an SLO job with a
// 15-minute deadline and a latency-sensitive best-effort job. Both have a
// mean runtime of 5 minutes — but the *distribution* decides the right
// order:
//
//   - Scenario 1: runtimes ~ U(0,10) min. Running BE first risks a 12.5%
//     deadline miss, so 3σSched runs the SLO job first.
//   - Scenario 2: runtimes ~ U(2.5,7.5) min. Even worst-case (7.5+7.5 = 15)
//     meets the deadline, so 3σSched runs the BE job first to cut its
//     latency.
//
// A point-estimate scheduler sees "5 minutes" in both scenarios and cannot
// tell them apart.
//
//	go run ./examples/deadline_mix
package main

import (
	"fmt"
	"log"

	"threesigma"
)

func run(name string, lo, hi float64) {
	est := threesigma.EstimatorFunc(func(*threesigma.Job) threesigma.Distribution {
		return threesigma.UniformDist(lo, hi)
	}, nil)
	cfg := threesigma.SchedulerConfig{
		Policy:        threesigma.DefaultPolicy(),
		Slots:         8,
		SlotDur:       150, // 2.5-minute slots, as in Fig. 5
		CycleInterval: 10,
	}
	sched := threesigma.NewCustomScheduler(est, cfg)

	slo := &threesigma.Job{
		ID: 1, Name: "slo", Class: threesigma.SLO,
		Submit: 0, Deadline: 900, Tasks: 1, Runtime: 300,
	}
	be := &threesigma.Job{
		ID: 2, Name: "be", Class: threesigma.BestEffort,
		Submit: 0, Tasks: 1, Runtime: 300,
	}
	res, err := threesigma.SimulateScheduler(sched, []*threesigma.Job{slo, be},
		threesigma.NewCluster(1, 1), threesigma.SimConfig{CycleInterval: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (runtimes ~ U(%.1f,%.1f) min):\n", name, lo/60, hi/60)
	for _, o := range res.Outcomes {
		status := "met deadline"
		if o.Job.Class == threesigma.BestEffort {
			status = fmt.Sprintf("latency %.1f min", (o.CompletionTime-o.Job.Submit)/60)
		} else if o.MissedDeadline() {
			status = "MISSED deadline"
		}
		fmt.Printf("  %-4s started at %5.1f min, finished at %5.1f min  (%s)\n",
			o.Job.Name, o.FirstStart/60, o.CompletionTime/60, status)
	}
	fmt.Println()
}

func main() {
	fmt.Println("3Sigma §2.3 worked example: one node, SLO (15 min deadline) + BE job.")
	fmt.Println()
	run("Scenario 1: wide distribution → SLO job must go first", 0, 600)
	run("Scenario 2: narrow distribution → BE job can safely go first", 150, 450)
}
