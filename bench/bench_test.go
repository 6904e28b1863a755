package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"threesigma/internal/core"
	"threesigma/internal/job"
	"threesigma/internal/simulator"
)

// TestSmoke runs every workload at a tiny scale, measured and traced, so
// that `go test ./...` keeps the harness compiling and its checks honest:
// no correctness check may fail (which includes, on the sim workloads, the
// traced pass ending in the measured pass's outcome digest), every metric
// the harness promises is reported, and the trace file is written.
func TestSmoke(t *testing.T) {
	layers := map[string]map[string]float64{}
	for _, name := range workloadOrder {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && strings.HasPrefix(name, "serve-") {
				t.Skip("serve workloads bring up listeners and wait for an election")
			}
			o := options{seed: 1, seconds: 1, trace: true, outDir: t.TempDir(), setups: 1, minReps: 1, tiny: true}
			r, err := runOne(io.Discard, name, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range r.problems {
				t.Errorf("check failed: %s", p)
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%d operations attempted, %d failed", r.attempted, r.failed)
			}
			for _, m := range endToEnd {
				if v, ok := r.e2e[m.name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive value", m.name, v)
				}
			}
			known := map[string]bool{}
			for _, m := range perLayer {
				known[m.name] = true
			}
			for name := range r.layer {
				if !known[name] {
					t.Errorf("per-layer metric %s is reported but not declared in metrics.go", name)
				}
			}
			layers[name] = r.layer
			if len(r.spans) == 0 {
				t.Error("the traced pass recorded no spans")
			}
			if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+name+".json")); err != nil {
				t.Error(err)
			}
		})
	}

	// What each workload was chosen to show, on counters that repeat exactly.
	for name, l := range layers {
		sim := strings.HasPrefix(name, "sim-")
		if (l["shard.cycle_busy_ms"] > 0) != (name == "sim-scale") {
			t.Errorf("%s: shard.cycle_busy_ms = %v", name, l["shard.cycle_busy_ms"])
		}
		if (l["service.cycles"] > 0) == sim || (l["simulator.cycles"] > 0) != sim {
			t.Errorf("%s: %v service cycles, %v simulator cycles", name, l["service.cycles"], l["simulator.cycles"])
		}
		if (l["agent.reconcile_calls"] > 0) != (name == "serve-group") || (l["service.follower_append_calls"] > 0) != (name == "serve-group") {
			t.Errorf("%s: %v reconcile calls, %v follower appends", name, l["agent.reconcile_calls"], l["service.follower_append_calls"])
		}
	}
}

// fullSched implements every optional interface the simulator and the
// service look for on a scheduler, and counts the calls.
type fullSched struct{ calls map[string]int }

func (f *fullSched) JobSubmitted(*job.Job, float64)          { f.calls["JobSubmitted"]++ }
func (f *fullSched) JobCompleted(*job.Job, float64, float64) { f.calls["JobCompleted"]++ }
func (f *fullSched) JobRemoved(job.ID)                       { f.calls["JobRemoved"]++ }
func (f *fullSched) SetClock(simulator.Clock)                { f.calls["SetClock"]++ }
func (f *fullSched) ImportState(*core.SchedState) error      { f.calls["ImportState"]++; return nil }
func (f *fullSched) Cycle(*simulator.State) simulator.Decision {
	f.calls["Cycle"]++
	return simulator.Decision{}
}
func (f *fullSched) Stats() core.Stats {
	f.calls["Stats"]++
	return core.Stats{Cycles: 7}
}
func (f *fullSched) ShardStats() []core.Stats {
	f.calls["ShardStats"]++
	return make([]core.Stats, 2)
}
func (f *fullSched) ExportState() (*core.SchedState, error) {
	f.calls["ExportState"]++
	return &core.SchedState{}, nil
}

// bareSched implements simulator.Scheduler and nothing else.
type bareSched struct{}

func (bareSched) JobSubmitted(*job.Job, float64)            {}
func (bareSched) JobCompleted(*job.Job, float64, float64)   {}
func (bareSched) Cycle(*simulator.State) simulator.Decision { return simulator.Decision{} }

// TestProbeForwardsOptionalInterfaces: a probe that swallowed one of these
// would let compaction be refused, cancelled jobs leak, or solver budgets
// read the wall clock, with no error anywhere.
func TestProbeForwardsOptionalInterfaces(t *testing.T) {
	inner := &fullSched{calls: map[string]int{}}
	p := &schedProbe{inner: inner, tr: newTracer()}
	j := &job.Job{ID: 1}
	p.JobSubmitted(j, 0)
	p.Cycle(&simulator.State{})
	p.JobCompleted(j, 1, 1)
	p.JobRemoved(1)
	p.SetClock(simulator.NewVirtualClock())
	if p.Stats().Cycles != 7 || len(p.ShardStats()) != 2 {
		t.Error("Stats or ShardStats did not come from the wrapped scheduler")
	}
	if st, err := p.ExportState(); err != nil || st == nil {
		t.Errorf("ExportState: %v", err)
	}
	if err := p.ImportState(&core.SchedState{}); err != nil {
		t.Errorf("ImportState: %v", err)
	}
	for _, m := range []string{"JobSubmitted", "Cycle", "JobCompleted", "JobRemoved", "SetClock", "Stats", "ShardStats", "ExportState", "ImportState"} {
		if inner.calls[m] != 1 {
			t.Errorf("%s reached the wrapped scheduler %d times, want 1", m, inner.calls[m])
		}
	}
	if spans := p.tr.finish(); len(spans) != 3 {
		t.Errorf("%d spans for three scheduler calls", len(spans))
	}

	// Around a scheduler without them the optional methods are harmless, and
	// state export says why it cannot.
	q := &schedProbe{inner: bareSched{}}
	q.JobRemoved(1)
	q.SetClock(simulator.NewVirtualClock())
	if q.Stats() != (core.Stats{}) || q.ShardStats() != nil {
		t.Error("a bare scheduler has no stats to report")
	}
	if _, err := q.ExportState(); err == nil {
		t.Error("ExportState around a scheduler without state must fail")
	}
}

// TestSelfTime: a span's self time is its length minus the union of its
// children, which may overlap.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int64) int64 { return ms * 1e6 }
	tr.spans = []span{
		{ID: 1, Name: "parent", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "b", Start: at(30), End: at(60)}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: at(80), End: at(90)},
	}
	spans := tr.finish()
	if got := spans[0].Self; got != at(40) { // 100 - [10,60] - [80,90]
		t.Errorf("parent self time %d ns, want %d", got, at(40))
	}
	if spans[1].Self != at(30) {
		t.Errorf("leaf self time %d ns, want its length", spans[1].Self)
	}
}

// TestDrawIsSeeded: the same seed gives the same jobs, another seed gives
// others, and neither touches the pool.
func TestDrawIsSeeded(t *testing.T) {
	for name, sp := range simSpecs {
		sh := sp.shape
		sh.windowHours /= 8
		p := newPool(sh)
		a, _ := p.draw(7)
		b, _ := p.draw(7)
		c, _ := p.draw(8)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: draws of %d and %d jobs from one seed", name, len(a), len(b))
		}
		same := len(a) == len(c)
		for i := range a {
			if a[i].Name != b[i].Name || a[i].Submit != b[i].Submit || a[i].Deadline != b[i].Deadline || a[i].Runtime != b[i].Runtime {
				t.Fatalf("%s: job %d differs between two draws of one seed", name, i)
			}
			if same && (a[i].Name != c[i].Name || a[i].Submit != c[i].Submit) {
				same = false
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 drew the same jobs", name)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps the contract file and the harness in
// step: workloads the harness has (the file lists the three the driver gates
// on, see README.md), same metric names, same units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var c struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, the contract asks for two at least", len(c.Workloads))
	}
	for _, w := range c.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists workload %q, which the harness does not have", w.Name)
		}
	}
	same := func(kind string, file []entry, harness []metric) {
		if len(file) != len(harness) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(file), len(harness))
		}
		for i, m := range harness {
			if i < len(file) && (file[i].Name != m.name || file[i].Unit != m.unit) {
				t.Errorf("%s metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the harness", kind, i, file[i].Name, file[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
}
