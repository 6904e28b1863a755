package simulator

import (
	"bytes"
	"reflect"
	"testing"

	"threesigma/internal/job"
)

// richEngine is an engine whose outcomes between them set every field of
// Outcome and job.Job: a completed job that ran on its preferred partition
// after a preemption, a cancelled one, one failed out of its retry budget
// after two crashes, and one still pending.
func richEngine(t testing.TB) *Engine {
	t.Helper()
	e := NewEngine(Cluster{Partitions: []int{4, 4}})
	e.SetRetryBudget(1)
	for _, j := range []*job.Job{
		{ID: -3, Name: "etl", User: "alice", Priority: -2, Submit: 1.25, Deadline: 900.5, Tasks: 2, Runtime: 300,
			NonPrefFactor: 1.5, Preferred: []int{0}, Attrs: map[string]string{"user": "alice", "name": "etl", "tasks": "2"}},
		{ID: 4, Name: "train", User: "bob", Class: job.BestEffort, Priority: 7, Submit: 2, Tasks: 1, Runtime: 50,
			NonPrefFactor: 1, Attrs: map[string]string{"": "empty key"}},
		{ID: 9, Name: "etl", User: "carol", Submit: 3, Deadline: 1e9, Tasks: 3, Runtime: 20, NonPrefFactor: 2},
		{ID: 1 << 40, Name: "idle", User: "dave", Class: job.BestEffort, Submit: 4, Tasks: 1, Runtime: 1, NonPrefFactor: 1},
	} {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	mustStart := func(id job.ID, alloc Alloc, now float64) int64 {
		t.Helper()
		run, ok := e.Start(StartAction{Job: id, Alloc: alloc}, now)
		if !ok {
			t.Fatalf("job %d did not start", id)
		}
		return run.RunID
	}
	mustStart(-3, Alloc{2, 0}, 10)
	if !e.Preempt(-3, 40) {
		t.Fatal("job -3 was not preempted")
	}
	run := mustStart(-3, Alloc{2, 0}, 50)
	if _, _, ok := e.Complete(-3, run, 350); !ok {
		t.Fatal("job -3 did not complete")
	}
	mustStart(4, Alloc{0, 1}, 60)
	if _, ok := e.Cancel(4, 70); !ok {
		t.Fatal("job 4 was not cancelled")
	}
	for i, now := range []float64{80, 100} {
		run = mustStart(9, Alloc{3, 0}, now)
		if requeued, ok := e.CrashRun(9, run, now+15); !ok || requeued != (i == 0) {
			t.Fatalf("job 9's crash %d: requeued %v, ok %v", i+1, requeued, ok)
		}
	}
	return e
}

// TestOutcomeStreamRoundTrip: every outcome comes back from its stream
// equal in every field, and encodes to the same bytes again.
func TestOutcomeStreamRoundTrip(t *testing.T) {
	outs := richEngine(t).Outcomes()
	for _, typ := range []reflect.Type{reflect.TypeOf(Outcome{}), reflect.TypeOf(job.Job{})} {
		for i := 0; i < typ.NumField(); i++ {
			set := false
			for _, o := range outs {
				v := reflect.ValueOf(*o)
				if typ != v.Type() {
					v = reflect.ValueOf(*o.Job)
				}
				set = set || !v.Field(i).IsZero()
			}
			if !set {
				t.Fatalf("no outcome sets %s.%s", typ.Name(), typ.Field(i).Name)
			}
		}
	}
	stream := appendOutcomes(nil, outs)
	back, err := decodeOutcomes(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(outs) {
		t.Fatalf("%d outcomes back, %d encoded", len(back), len(outs))
	}
	for i := range outs {
		if !reflect.DeepEqual(back[i], outs[i]) {
			t.Errorf("outcome %d:\n got  %+v %+v\n want %+v %+v", i, back[i], back[i].Job, outs[i], outs[i].Job)
		}
	}
	// Floats are compared by value above; the bytes compare their bits.
	if again := appendOutcomes(nil, back); !bytes.Equal(again, stream) {
		t.Error("the decoded outcomes encode to different bytes")
	}
	for _, cut := range []int{0, 4, 5, len(stream) / 2, len(stream) - 1} {
		if outs, err := decodeOutcomes(stream[:cut]); err == nil || outs != nil {
			t.Errorf("a stream cut at %d of %d bytes decoded: %d outcomes, %v", cut, len(stream), len(outs), err)
		}
	}
}

// FuzzOutcomeStream decodes arbitrary bytes as an outcome stream: the
// decoder never panics, a stream that decodes encodes back to exactly its
// bytes, and one that fails yields no outcome.
func FuzzOutcomeStream(f *testing.F) {
	stream := appendOutcomes(nil, richEngine(f).Outcomes())
	f.Add(stream)
	f.Add(appendOutcomes(nil, nil))
	f.Add(stream[:len(stream)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		outs, err := decodeOutcomes(data)
		if err != nil {
			if outs != nil {
				t.Fatalf("a failed decode (%v) returned %d outcomes", err, len(outs))
			}
			return
		}
		if again := appendOutcomes(nil, outs); !bytes.Equal(again, data) {
			t.Fatalf("decoded %d outcomes from %d bytes; they encode to %d other bytes", len(outs), len(data), len(again))
		}
	})
}
