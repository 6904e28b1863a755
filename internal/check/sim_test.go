package check_test

import (
	"testing"

	"threesigma"
)

// TestSimulateWithChecks runs an end-to-end simulation — including the
// fault injector, which is what historically produced negative relaxed
// capacities — with the scheduler's runtime invariant assertions armed
// (core.Config.Checks). Any violated invariant (negative capacity-row
// coefficient, incoherent memo page, non-conserving allocation) panics and
// fails the test. This is the integration face of the correctness suite:
// the unit verifiers prove the parts, this proves the assembled pipeline
// under failure pressure.
func TestSimulateWithChecks(t *testing.T) {
	faults, err := threesigma.ParseFaultSpec("light")
	if err != nil {
		t.Fatalf("parse fault spec: %v", err)
	}
	for _, tc := range []struct {
		name   string
		faults *threesigma.FaultConfig
		sched  threesigma.SchedulerConfig
	}{
		{name: "fault-free"},
		{name: "faults-light", faults: &faults},
		{name: "faults-light-exactshares", faults: &faults,
			sched: threesigma.SchedulerConfig{ExactShares: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := threesigma.GenerateWorkload(threesigma.WorkloadConfig{
				Cluster:       threesigma.NewCluster(48, 4),
				DurationHours: 0.05,
				Load:          1.2,
				Seed:          5,
			})
			cfg := threesigma.SimConfig{
				Seed:      5,
				Faults:    tc.faults,
				Scheduler: tc.sched,
			}
			cfg.Scheduler.Checks = true
			res, err := threesigma.Simulate(threesigma.SystemThreeSigma, w, cfg)
			if err != nil {
				t.Fatalf("simulate: %v", err)
			}
			if res.Stats.Cycles == 0 {
				t.Fatal("simulation ran no scheduling cycles")
			}
		})
	}
}
