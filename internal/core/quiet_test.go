package core

import (
	"testing"

	"threesigma/internal/job"
	"threesigma/internal/simulator"
)

// TestQuietFollowsTheSnapshot: whether a cycle is quiet is a function of the
// snapshot the scheduler is handed, compared with the last one it built from
// — not of which slices carry it, and not of anything the snapshot does not
// show. Every single visible change makes a cycle non-quiet, and the cycle
// after it, showing the changed state again, is quiet.
func TestQuietFollowsTheSnapshot(t *testing.T) {
	cases := []struct {
		name  string
		edit  func(st *simulator.State)
		quiet bool
	}{
		{"identical content in fresh slices", func(*simulator.State) {}, true},
		{"pending order", func(st *simulator.State) { st.Pending[0], st.Pending[1] = st.Pending[1], st.Pending[0] }, false},
		{"pending member", func(st *simulator.State) { st.Pending = st.Pending[:1] }, false},
		{"running start", func(st *simulator.State) { st.Running[0].Start = 1 }, false},
		{"running alloc", func(st *simulator.State) { st.Running[0].Alloc = simulator.Alloc{2, 0} }, false},
		{"running on preferred", func(st *simulator.State) { st.Running[0].OnPreferred = true }, false},
		{"free", func(st *simulator.State) { st.Free[0]-- }, false},
		{"partitions", func(st *simulator.State) { st.Cluster = simulator.Cluster{Partitions: []int{3, 4}} }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(uniformEstimator(300, 2000), testConfig())
			// The first build installs each job's distribution, which
			// dirties the second cycle; the third is the first quiet one.
			for _, now := range []float64{0, 10} {
				s.buildModel(incScenario(now))
			}
			if b := s.buildModel(incScenario(20)); !b.quiet {
				t.Fatal("steady state is not quiet")
			}
			st := incScenario(30) // every slice and job freshly allocated
			c.edit(st)
			if b := s.buildModel(st); b.quiet != c.quiet {
				t.Fatalf("quiet = %v, want %v", b.quiet, c.quiet)
			}
			st = incScenario(40)
			c.edit(st)
			if b := s.buildModel(st); !b.quiet {
				t.Fatal("the cycle after the change, showing the same state, is not quiet")
			}
		})
	}

	t.Run("after ImportState", func(t *testing.T) {
		s := New(uniformEstimator(300, 2000), testConfig())
		for _, now := range []float64{0, 10, 20} {
			s.buildModel(incScenario(now))
		}
		exp, err := s.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ImportState(exp); err != nil {
			t.Fatal(err)
		}
		if b := s.buildModel(incScenario(30)); b.quiet {
			t.Fatal("the first cycle after ImportState is quiet")
		}
	})
}

// TestNetZeroNodeEventIsQuiet: a node that fails and recovers between two
// cycles moves the engine's mutation counter but nothing the scheduler sees,
// so the cycle is quiet, and with the model bitwise unchanged (one solve
// quantum) it is answered with the previous solution.
func TestNetZeroNodeEventIsQuiet(t *testing.T) {
	cfg := testConfig()
	cfg.SolveQuantum = 60
	s := New(uniformEstimator(300, 2000), cfg)
	e := simulator.NewEngine(simulator.NewCluster(8, 2))
	for _, j := range incScenario(0).Pending {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
		s.JobSubmitted(j, 0)
	}
	be := &job.Job{ID: 3, Class: job.BestEffort, Submit: 0, Tasks: 2, Runtime: 900}
	if err := e.Submit(be); err != nil {
		t.Fatal(err)
	}
	s.JobSubmitted(be, 0)
	if _, ok := e.Start(simulator.StartAction{Job: be.ID, Alloc: simulator.Alloc{1, 1}}, 0); !ok {
		t.Fatal("start refused")
	}
	// The cycles' decisions are not applied: the engine shows the same jobs.
	for _, now := range []float64{1, 2, 3} {
		s.Cycle(e.Snapshot(now))
	}
	if !s.bld.unchanged {
		t.Fatal("steady state within one solve quantum is not an unchanged model")
	}
	reused, epoch := s.Stats().ReusedSolves, e.Epoch()
	if _, _, _, err := e.FailNodes(0, 1, 3.5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RecoverNodes(0, 1, 3.5); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() == epoch {
		t.Fatal("the node events left the engine's mutation counter where it was")
	}
	s.Cycle(e.Snapshot(4))
	if !s.bld.quiet {
		t.Fatal("a net-zero node event made the cycle non-quiet")
	}
	if got := s.Stats().ReusedSolves; got != reused+1 {
		t.Errorf("ReusedSolves %d -> %d, want the unchanged model's solution reused", reused, got)
	}
}
