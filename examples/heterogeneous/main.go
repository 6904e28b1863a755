// Heterogeneous resources: 3σSched decides between starting a job now on
// non-preferred machines (1.5× slower) and deferring it until its preferred
// machines free up — the space-time trade-off of §4.3.1.
//
// The cluster has two machine types (partitions). An SLO job prefers
// partition 0, which is busy for the first 5 minutes; running anywhere else
// would take 1.5× longer. With a tight deadline the only winning plan is to
// wait for the preferred nodes, and the plan-ahead MILP finds it.
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"

	"threesigma"
)

func main() {
	cfg := threesigma.SchedulerConfig{
		Policy:        threesigma.DefaultPolicy(),
		Slots:         8,
		SlotDur:       150,
		CycleInterval: 10,
	}
	cfg.Policy.Preemption = false // force the deferral decision
	sched := threesigma.NewCustomScheduler(threesigma.PerfectEstimator(), cfg)

	jobs := []*threesigma.Job{
		// Two best-effort hogs pin both partitions at t=0: partition 0
		// frees at 300 s, partition 1 at 600 s.
		{ID: 1, Name: "hog-a", Class: threesigma.BestEffort, Submit: 0, Tasks: 2,
			Runtime: 300, Preferred: []int{0}, NonPrefFactor: 1},
		{ID: 2, Name: "hog-b", Class: threesigma.BestEffort, Submit: 0, Tasks: 2,
			Runtime: 600, Preferred: []int{1}, NonPrefFactor: 1},
		// The SLO job prefers partition 0 and needs 440 s there (660 s
		// anywhere else). Deadline 770 s: only "wait for partition 0 at
		// t=300, run 440 s, finish at 740 s" meets it.
		{ID: 3, Name: "analytics", Class: threesigma.SLO, Submit: 10, Deadline: 770,
			Tasks: 2, Runtime: 440, Preferred: []int{0}, NonPrefFactor: 1.5},
	}
	res, err := threesigma.SimulateScheduler(sched, jobs,
		threesigma.NewCluster(4, 2), threesigma.SimConfig{CycleInterval: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("two machine types; the SLO job runs 1.5x slower off its preferred type")
	fmt.Println()
	for _, o := range res.Outcomes {
		place := "non-preferred"
		if o.OnPreferred {
			place = "preferred"
		}
		verdict := ""
		if o.Job.Class == threesigma.SLO {
			if o.MissedDeadline() {
				verdict = "  -> MISSED deadline"
			} else {
				verdict = fmt.Sprintf("  -> met deadline %.0fs with %.0fs to spare",
					o.Job.Deadline, o.Job.Deadline-o.CompletionTime)
			}
		}
		fmt.Printf("%-10s start=%4.0fs finish=%4.0fs on %s nodes%s\n",
			o.Job.Name, o.FirstStart, o.CompletionTime, place, verdict)
	}
	fmt.Println()
	fmt.Println("the scheduler deferred the SLO job ~300s rather than starting it")
	fmt.Println("immediately on slower machines — the deferral the paper's Fig. 5 plans.")
}
