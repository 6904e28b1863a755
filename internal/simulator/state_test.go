package simulator

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"threesigma/internal/job"
)

// TestEngineStateRoundTrips: an engine's exported state, encoded, decoded
// and restored, exports as the same bytes — with every EngineState field
// set, so none is dropped or renamed on the way.
func TestEngineStateRoundTrips(t *testing.T) {
	e := NewEngine(Cluster{Partitions: []int{4, 4}})
	e.SetRetryBudget(2)
	for _, j := range []*job.Job{
		{ID: 1, Tasks: 2, Runtime: 400, Deadline: 4000, NonPrefFactor: 1.5, Preferred: []int{0}},
		{ID: 2, Class: 1, Submit: 5, Tasks: 3, Runtime: 900},
		{ID: 3, Class: 1, Submit: 6, Tasks: 1, Runtime: 100},
		{ID: 4, Submit: 7, Tasks: 1, Runtime: 50},
	} {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	e.Start(StartAction{Job: 2, Alloc: Alloc{1, 2}}, 10)
	run, ok := e.Start(StartAction{Job: 3, Alloc: Alloc{0, 1}}, 10)
	if !ok {
		t.Fatal("job 3 did not start")
	}
	if _, ok := e.Start(StartAction{Job: 4, Alloc: Alloc{9, 0}}, 10); ok {
		t.Fatal("a start over free capacity was taken")
	}
	if _, _, ok := e.Complete(3, run.RunID, 110); !ok {
		t.Fatal("job 3 did not complete")
	}
	for _, f := range []struct {
		part int
		now  float64
	}{{1, 120}, {0, 200}} {
		if _, _, _, err := e.FailNodes(f.part, 1, f.now); err != nil {
			t.Fatal(err)
		}
	}

	st := e.ExportState()
	v := reflect.ValueOf(*st)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("the exported state leaves %s unset", v.Type().Field(i).Name)
		}
	}
	enc, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	// The JSON form leaves the outcome stream out; it travels beside it.
	var back EngineState
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	back.Outcomes = st.Outcomes
	r, err := EngineFromState(&back)
	if err != nil {
		t.Fatal(err)
	}
	again := r.ExportState()
	out, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, enc) {
		t.Errorf("the restored engine exports differently:\n got  %s\n want %s", out, enc)
	}
	if !bytes.Equal(again.Outcomes, st.Outcomes) {
		t.Errorf("the restored engine exports %d outcome bytes, want %d", len(again.Outcomes), len(st.Outcomes))
	}
}
