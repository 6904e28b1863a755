package simulator

import (
	"testing"

	"threesigma/internal/job"
)

func TestPartitionDomains(t *testing.T) {
	cases := []struct {
		nParts, n int
		want      []Domain
	}{
		{8, 4, []Domain{{0, 2}, {2, 4}, {4, 6}, {6, 8}}},
		{8, 3, []Domain{{0, 3}, {3, 6}, {6, 8}}}, // remainder to the first domains
		{4, 1, []Domain{{0, 4}}},
		{4, 4, []Domain{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{4, 9, []Domain{{0, 1}, {1, 2}, {2, 3}, {3, 4}}}, // clamped to nParts
		{4, 0, []Domain{{0, 4}}},                         // clamped to 1
	}
	for _, c := range cases {
		got := PartitionDomains(c.nParts, c.n)
		if len(got) != len(c.want) {
			t.Errorf("PartitionDomains(%d,%d) = %v, want %v", c.nParts, c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("PartitionDomains(%d,%d)[%d] = %v, want %v", c.nParts, c.n, i, got[i], c.want[i])
			}
		}
	}
	// Domains must tile the partition range exactly.
	for _, n := range []int{1, 2, 3, 5, 7, 12} {
		doms := PartitionDomains(12, n)
		lo := 0
		for _, d := range doms {
			if d.Lo != lo || d.Hi <= d.Lo {
				t.Fatalf("PartitionDomains(12,%d): bad tiling %v", n, doms)
			}
			lo = d.Hi
		}
		if lo != 12 {
			t.Fatalf("PartitionDomains(12,%d): covers [0,%d), want [0,12)", n, lo)
		}
	}
}

// domState builds a minimal sub-snapshot for epoch tests.
func domState(free Alloc, pending []*job.Job, running []*RunningJob) *State {
	return &State{
		Free:    free.Clone(),
		Cluster: Cluster{Partitions: []int{8, 8}},
		Pending: pending,
		Running: running,
	}
}

func TestDomainEpochs(t *testing.T) {
	de := NewDomainEpochs(2)
	j1 := &job.Job{ID: 1, Tasks: 2}
	j2 := &job.Job{ID: 2, Tasks: 2}

	st := domState(Alloc{8, 8}, []*job.Job{j1}, nil)
	de.Observe(0, st)
	first := st.Epoch
	if first == 0 {
		t.Fatal("first observation should assign a nonzero epoch")
	}
	if st.Delta.Submitted != 1 {
		t.Errorf("first observation Delta.Submitted = %d, want 1", st.Delta.Submitted)
	}

	// Identical snapshot: epoch must hold (this is what keeps a quiet
	// domain's incremental-solve eligibility alive).
	st = domState(Alloc{8, 8}, []*job.Job{j1}, nil)
	de.Observe(0, st)
	if st.Epoch != first {
		t.Errorf("identical snapshot advanced epoch %d -> %d", first, st.Epoch)
	}
	if st.Delta != (Delta{}) {
		t.Errorf("identical snapshot reported nonzero delta %+v", st.Delta)
	}

	// New pending job: epoch advances, submit counted.
	st = domState(Alloc{8, 8}, []*job.Job{j1, j2}, nil)
	de.Observe(0, st)
	second := st.Epoch
	if second == first {
		t.Error("new pending job did not advance the epoch")
	}
	if st.Delta.Submitted != 1 {
		t.Errorf("Delta.Submitted = %d, want 1", st.Delta.Submitted)
	}

	// j1 starts: pending -> running, free shrinks.
	st = domState(Alloc{6, 8}, []*job.Job{j2},
		[]*RunningJob{{Job: j1, Start: 10, Alloc: Alloc{2, 0}}})
	de.Observe(0, st)
	third := st.Epoch
	if third == second {
		t.Error("start did not advance the epoch")
	}
	if st.Delta.Started != 1 {
		t.Errorf("Delta.Started = %d, want 1", st.Delta.Started)
	}

	// j1 completes: running empties, free returns.
	st = domState(Alloc{8, 8}, []*job.Job{j2}, nil)
	de.Observe(0, st)
	if st.Epoch == third {
		t.Error("completion did not advance the epoch")
	}
	if st.Delta.Completed != 1 {
		t.Errorf("Delta.Completed = %d, want 1", st.Delta.Completed)
	}

	// Domains are independent: domain 1 still starts at its first epoch.
	st = domState(Alloc{8, 8}, nil, nil)
	de.Observe(1, st)
	if st.Epoch != 1 {
		t.Errorf("domain 1 first epoch = %d, want 1", st.Epoch)
	}
}

func TestDomainEpochsNodeEvents(t *testing.T) {
	de := NewDomainEpochs(1)
	st := domState(Alloc{8, 8}, nil, nil)
	de.Observe(0, st)
	base := st.Epoch

	// A node failure shows up as shrunken free/partition vectors.
	st = domState(Alloc{7, 8}, nil, nil)
	st.Cluster = Cluster{Partitions: []int{7, 8}}
	de.Observe(0, st)
	if st.Epoch == base {
		t.Error("node event did not advance the epoch")
	}
	if st.Delta.NodeEvents == 0 {
		t.Error("node event not reflected in Delta.NodeEvents")
	}
}

// Observe allocates nothing once a domain's fingerprint storage has grown to
// its largest snapshot: not on a quiet cycle, and not on cycles whose jobs
// start, complete, arrive or move.
func TestDomainEpochsObserveAllocs(t *testing.T) {
	de := NewDomainEpochs(1)
	j1, j2, j3 := &job.Job{ID: 1, Tasks: 2}, &job.Job{ID: 2, Tasks: 2}, &job.Job{ID: 3, Tasks: 4}
	states := []*State{
		domState(Alloc{6, 8}, []*job.Job{j2, j3}, []*RunningJob{{Job: j1, Start: 10, Alloc: Alloc{2, 0}}}),
		domState(Alloc{6, 8}, []*job.Job{j2, j3}, []*RunningJob{{Job: j1, Start: 10, Alloc: Alloc{2, 0}}}), // quiet
		domState(Alloc{4, 6}, []*job.Job{j2}, []*RunningJob{
			{Job: j1, Start: 10, Alloc: Alloc{2, 0}},
			{Job: j3, Start: 20, Alloc: Alloc{2, 2}, OnPreferred: true},
		}),
		domState(Alloc{8, 8}, []*job.Job{j3, j1}, nil),
	}
	for _, st := range states { // grow the storage
		de.Observe(0, st)
	}
	k := 0
	if avg := testing.AllocsPerRun(200, func() {
		de.Observe(0, states[k%len(states)])
		k++
	}); avg != 0 {
		t.Errorf("Observe allocated %.2f times per call, want 0", avg)
	}
}
