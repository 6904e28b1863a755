package core

import (
	"testing"

	"threesigma/internal/job"
	"threesigma/internal/simulator"
)

// benchShape is a cluster state whose model has the largest scheduling shape
// the bench workloads reach, 85 variables × 108 rows, on sim-e2e's cluster
// (256 nodes, 8 partitions × 6 slots = 48 capacity rows): 12 running
// best-effort jobs (a preemption indicator and its bound each), 2 deadline
// jobs with preferred partitions (two spaces × six slots of options) and 46
// immediate-start best-effort jobs, three of them with a preferred partition
// (two spaces) — MaxPending's 48 jobs in all.
type benchShape struct {
	cluster simulator.Cluster
	pending []*job.Job
	running []*simulator.RunningJob
	nextID  job.ID
}

func newBenchShape() *benchShape {
	sh := &benchShape{cluster: simulator.NewCluster(256, 8), nextID: 1}
	for i := 0; i < 12; i++ {
		alloc := make(simulator.Alloc, 8)
		alloc[i%8], alloc[(i+1)%8] = 8, 8
		sh.running = append(sh.running, &simulator.RunningJob{
			Job:   &job.Job{ID: sh.nextID, Class: job.BestEffort, Submit: 0, Tasks: 16, Runtime: 3000},
			Start: 0, Alloc: alloc, OnPreferred: true,
		})
		sh.nextID++
	}
	for i := 0; i < 2; i++ {
		sh.pending = append(sh.pending, sh.deadlineJob(i))
	}
	for i := 0; i < 46; i++ {
		j := &job.Job{ID: sh.nextID, Class: job.BestEffort, Submit: float64(i), Tasks: 1 + i%3, Runtime: 600}
		if i < 3 {
			j.Preferred, j.NonPrefFactor = []int{i}, 1.5
		}
		sh.pending = append(sh.pending, j)
		sh.nextID++
	}
	return sh
}

func (sh *benchShape) deadlineJob(i int) *job.Job {
	j := &job.Job{ID: sh.nextID, Class: job.SLO, Submit: 0, Deadline: 1e9 + float64(sh.nextID), Tasks: 10,
		Runtime: 500, Preferred: []int{i % 8, (i + 3) % 8}, NonPrefFactor: 1.5}
	sh.nextID++
	return j
}

func (sh *benchShape) state(now float64) *simulator.State {
	return stateWith(sh.cluster, sh.pending, sh.running, now)
}

// benchEstimator's support outlasts any -benchtime at 5 s a cycle, so the
// running jobs never exhaust their distributions and the deadline jobs are
// never abandoned: iteration N does the work iteration 1 does.
func benchEstimator() Estimator { return uniformEstimator(200, 1e7) }

func benchConfig() Config {
	return Config{
		Policy:        Policy{Name: "3sigma", UseDistribution: true, Overestimate: OEAdaptive, Underestimate: true, Preemption: true},
		Slots:         6,
		SlotDur:       300,
		CycleInterval: 5,
	}
}

// BenchmarkBuildModel is buildModel alone — option generation, the Eq. 1/2
// terms, the model written in place and compared with the previous cycle's —
// on the 85 × 108 shape: a quiet cycle (only the clock moved) and an arrival
// cycle (a deadline job left, another arrived). `make bench` runs it beside
// the solver's BenchmarkNodeLP.
func BenchmarkBuildModel(b *testing.B) {
	b.Run("quiet", func(b *testing.B) {
		sh := newBenchShape()
		s := New(benchEstimator(), benchConfig())
		bl := s.buildModel(sh.state(0))
		if v, r := bl.model.NumVars(), bl.model.NumRows(); v != 85 || r != 108 {
			b.Fatalf("model is %d × %d, want 85 × 108", v, r)
		}
		st := sh.state(5)
		s.buildModel(st)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Now = float64(10 + 5*i)
			if bl := s.buildModel(st); !bl.quiet {
				b.Fatal("cycle not quiet")
			}
		}
	})
	b.Run("arrival", func(b *testing.B) {
		sh := newBenchShape()
		s := New(benchEstimator(), benchConfig())
		st := sh.state(0) // st.Pending is sh.pending: the loop edits it in place
		s.buildModel(st)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// One deadline job leaves, a new one takes its place.
			k := i % 2
			s.JobRemoved(sh.pending[k].ID)
			sh.pending[k] = sh.deadlineJob(k)
			s.JobSubmitted(sh.pending[k], st.Now)
			st.Now = float64(5 + 5*i)
			if bl := s.buildModel(st); bl.quiet {
				b.Fatal("arrival cycle reads quiet")
			}
		}
	})
}
