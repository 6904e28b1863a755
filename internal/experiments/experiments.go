// Package experiments wires workloads, schedulers, the simulator and the
// metric collectors into one driver per table/figure of the paper's
// evaluation (§5–§6). Each driver returns structured results plus a
// formatted table whose rows match what the paper reports; cmd/3sigma-bench
// calls them at different scales. Every simulation, the threesigma facade's
// included, is assembled by the one run path in run.go.
package experiments

import (
	"runtime"
	"sync"

	"threesigma/internal/core"
	"threesigma/internal/simulator"
	"threesigma/internal/workload"
)

// CoreSystems is the four-way comparison of Figs. 1, 6, 7, 10, 11.
func CoreSystems() []System {
	return []System{Sys3Sigma, SysPointPerfEst, SysPointRealEst, SysPrio}
}

// AblationSystems is the six-way comparison of Fig. 8.
func AblationSystems() []System {
	return []System{SysPointRealEst, SysNoDist, SysNoOE, SysNoAdapt, Sys3Sigma, SysPointPerfEst}
}

// Scale sizes an experiment so the same drivers serve quick benches and
// full paper-scale runs.
type Scale struct {
	Name          string
	Nodes         int
	Partitions    int
	DurationHours float64
	CycleInterval float64
	Slots         int
	SlotDur       float64
	MaxPending    int
	DrainWindow   float64
	// SolveQuantum quantizes the scheduler's model-evaluation clock
	// (core.Config.SolveQuantum); 0 leaves quantization off. Only the
	// steady-state scenario sets it.
	SolveQuantum float64
	// Shards is every run's SimConfig.Shards (3sigma-bench -shards sets
	// it): > 1 runs the 3σSched systems on that many scheduling domains
	// (DESIGN.md §13), 0 or 1 on the bare monolithic scheduler. The
	// scalability scenario runs both, as Shards 1 and Shards N of one call.
	Shards    int
	TraceJobs int // records per environment for the Fig. 2 analyses
	// Repeats averages every experiment point over this many workload
	// seeds (default 1). The figure drivers report the averages.
	Repeats int
}

// repeats returns the effective repeat count.
func (s Scale) repeats() int {
	if s.Repeats <= 0 {
		return 1
	}
	return s.Repeats
}

// Small is the CI scale: seconds per run.
func Small() Scale {
	return Scale{
		Name: "small", Nodes: 64, Partitions: 8, DurationHours: 0.5,
		CycleInterval: 10, Slots: 5, SlotDur: 240, MaxPending: 24,
		DrainWindow: 1200, TraceJobs: 4000,
	}
}

// Medium is the bench scale used for EXPERIMENTS.md: tens of seconds per run.
func Medium() Scale {
	return Scale{
		Name: "medium", Nodes: 128, Partitions: 8, DurationHours: 2,
		CycleInterval: 5, Slots: 6, SlotDur: 300, MaxPending: 32,
		DrainWindow: 1800, TraceJobs: 10000, Repeats: 3,
	}
}

// Full is the paper scale (SC256, 5-hour workloads).
func Full() Scale {
	return Scale{
		Name: "full", Nodes: 256, Partitions: 8, DurationHours: 5,
		CycleInterval: 5, Slots: 6, SlotDur: 300, MaxPending: 48,
		DrainWindow: 2400, TraceJobs: 20000, Repeats: 3,
	}
}

// Cluster returns the scale's cluster.
func (s Scale) Cluster() simulator.Cluster { return simulator.NewCluster(s.Nodes, s.Partitions) }

// config is the run configuration of this scale (experiments override
// fields for their variants).
func (s Scale) config(seed int64) SimConfig {
	return SimConfig{
		CycleInterval: s.CycleInterval,
		DrainWindow:   s.DrainWindow,
		Scheduler: core.Config{
			Slots:          s.Slots,
			SlotDur:        s.SlotDur,
			CycleInterval:  s.CycleInterval,
			MaxPending:     s.MaxPending,
			SolverMaxNodes: 24,
			SolveQuantum:   s.SolveQuantum,
		},
		Shards: s.Shards,
		Seed:   seed,
	}
}

// WorkloadConfig returns the §5 default workload configuration at this
// scale (callers override fields for the sweep variants).
func (s Scale) WorkloadConfig(seed int64) workload.Config {
	return workload.Config{
		Cluster:       s.Cluster(),
		DurationHours: s.DurationHours,
		Seed:          seed,
	}
}

// parallelEach runs fn(i) for i in [0,n) across min(n, NumCPU) workers.
// Experiment sweep points are independent simulations, so this cuts the
// wall-clock of the full figure suite by close to the core count.
func parallelEach(n int, fn func(i int) error) error {
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := make(chan int)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr
}
