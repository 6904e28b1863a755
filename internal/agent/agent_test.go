package agent

import (
	"net/http/httptest"
	"testing"

	"threesigma/internal/job"
)

func start(j job.ID, run int64, due float64) StartDirective {
	return StartDirective{Job: j, RunID: run, Alloc: []int{2, 0}, Due: due}
}

func newTestAgent() *Agent {
	return New("a0", map[int]int{0: 8, 1: 8})
}

// round runs one Reconcile and unpacks its report.
func round(a *Agent, epoch uint64, now float64, ack uint64, evicts []EvictDirective, starts []StartDirective) ([]Event, []TaskState, error) {
	resp, err := a.Reconcile(ReconcileRequest{Epoch: epoch, Now: now, Ack: ack, Evicts: evicts, Starts: starts})
	if err != nil {
		return nil, nil, err
	}
	return resp.Events, resp.Running, nil
}

func TestLifecycleCompleteAtDue(t *testing.T) {
	a := newTestAgent()
	evs, running, err := round(a, 1, 10, 0, nil, []StartDirective{start(5, 1, 42.5), start(3, 2, 20)})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 || len(running) != 2 {
		t.Fatalf("after start: %d events, %d running", len(evs), len(running))
	}
	if running[0].Job != 3 || running[1].Job != 5 {
		t.Fatalf("running report not sorted by job: %+v", running)
	}

	// Advance past one due time: exactly one completion, at its due time
	// (not the observed now).
	evs, running, err = round(a, 1, 30, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Job != 3 || evs[0].Kind != EventCompleted || evs[0].At != 20 {
		t.Fatalf("events after advance: %+v", evs)
	}
	if len(running) != 1 || running[0].Job != 5 {
		t.Fatalf("running after advance: %+v", running)
	}

	// Unacked events are re-reported; acked ones are dropped.
	evs, _, _ = round(a, 1, 31, 0, nil, nil)
	if len(evs) != 1 {
		t.Fatalf("unacked event not re-reported: %+v", evs)
	}
	evs, _, _ = round(a, 1, 32, evs[0].Seq, nil, nil)
	if len(evs) != 0 {
		t.Fatalf("acked event still reported: %+v", evs)
	}
}

func TestCrashBeatsCompletion(t *testing.T) {
	a := newTestAgent()
	d := start(7, 1, 100)
	d.CrashAt = 40
	round(a, 1, 0, 0, nil, []StartDirective{d})
	evs, running, err := round(a, 1, 500, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != EventCrashed || evs[0].At != 40 {
		t.Fatalf("crash events: %+v", evs)
	}
	if len(running) != 0 {
		t.Fatalf("crashed task still running: %+v", running)
	}
}

func TestStartIdempotencyAndReplaySuppression(t *testing.T) {
	a := newTestAgent()
	round(a, 1, 0, 0, nil, []StartDirective{start(5, 1, 50)})
	// Re-issuing the live attempt is a no-op.
	_, running, _ := round(a, 1, 1, 0, nil, []StartDirective{start(5, 1, 50)})
	if len(running) != 1 {
		t.Fatalf("duplicate start changed state: %+v", running)
	}
	if st := a.Status(); st.Counters.Started != 1 {
		t.Fatalf("started counter = %d after duplicate, want 1", st.Counters.Started)
	}

	// The attempt completes but the event stays unacked; a failed-over
	// scheduler replaying the start must not re-run it.
	evs, _, _ := round(a, 1, 60, 0, nil, nil)
	if len(evs) != 1 {
		t.Fatal("no completion event")
	}
	evs, running, _ = round(a, 2, 61, 0, nil, []StartDirective{start(5, 1, 50)})
	if len(running) != 0 {
		t.Fatalf("replayed completed attempt restarted: %+v", running)
	}
	if len(evs) != 1 {
		t.Fatalf("completion event lost across replay: %+v", evs)
	}

	// A genuinely new attempt (higher run ID) does run.
	_, running, _ = round(a, 2, 62, evs[0].Seq, nil, []StartDirective{start(5, 2, 90)})
	if len(running) != 1 || running[0].RunID != 2 {
		t.Fatalf("new attempt refused: %+v", running)
	}
}

func TestEpochFencing(t *testing.T) {
	a := newTestAgent()
	if _, _, err := round(a, 3, 0, 0, nil, []StartDirective{start(1, 1, 10)}); err != nil {
		t.Fatal(err)
	}
	// A deposed leader (lower epoch) bounces.
	_, _, err := round(a, 2, 5, 0, nil, []StartDirective{start(2, 2, 10)})
	if _, ok := err.(*ErrStaleEpoch); !ok {
		t.Fatalf("stale epoch accepted: err=%v", err)
	}
	if st := a.Status(); st.Counters.Stale != 1 || st.Running != 1 {
		t.Fatalf("fenced directive mutated state: %+v", st)
	}
	// The new leader (higher epoch) proceeds and advances the fence.
	if _, _, err := round(a, 4, 5, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if a.Status().Epoch != 4 {
		t.Fatalf("epoch fence = %d, want 4", a.Status().Epoch)
	}
}

func TestEvictAndReset(t *testing.T) {
	a := newTestAgent()
	round(a, 1, 0, 0, nil, []StartDirective{start(1, 1, 100), start(2, 2, 100)})
	// Stale evict (wrong run ID) is ignored; matching evict drops the task.
	_, running, _ := round(a, 1, 1, 0, []EvictDirective{{Job: 1, RunID: 9}, {Job: 2, RunID: 2}}, nil)
	if len(running) != 1 || running[0].Job != 1 {
		t.Fatalf("evict applied wrong task: %+v", running)
	}
	if _, err := a.Reconcile(ReconcileRequest{Epoch: 2, Reset: true}); err != nil {
		t.Fatal(err)
	}
	if st := a.Status(); st.Running != 0 || st.Unacked != 0 {
		t.Fatalf("reset left state: %+v", st)
	}
}

func TestTimeNeverMovesBackwards(t *testing.T) {
	a := newTestAgent()
	round(a, 1, 0, 0, nil, []StartDirective{start(1, 1, 50)})
	round(a, 1, 100, 0, nil, nil) // completes at 50
	// A new leader resuming at an older logical time must not resurrect time.
	evs, _, err := round(a, 2, 60, 0, nil, []StartDirective{start(2, 2, 80)})
	if err != nil {
		t.Fatal(err)
	}
	// Task 2 is due at 80 > 60, but the agent's clock high-water is 100, so
	// it fires immediately at its due time.
	found := false
	for _, ev := range evs {
		if ev.Job == 2 && ev.At != 80 {
			t.Fatalf("event time %v, want due time 80", ev.At)
		}
		if ev.Job == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("high-water clock did not fire the due task")
	}
}

func TestStartValidation(t *testing.T) {
	a := newTestAgent()
	bad := StartDirective{Job: 1, RunID: 1, Alloc: []int{0, 0, 4}, Due: 10}
	if _, _, err := round(a, 1, 0, 0, nil, []StartDirective{bad}); err == nil {
		t.Fatal("start on unowned partition accepted")
	}
	empty := StartDirective{Job: 2, RunID: 2, Alloc: []int{0, 0}, Due: 10}
	if _, _, err := round(a, 1, 0, 0, nil, []StartDirective{empty}); err == nil {
		t.Fatal("empty allocation accepted")
	}
}

// TestZeroNodePartitionIsOwned: ownership is a partition's presence in the
// map, not its node count. A partition provisioned with no nodes yet — the
// fourth of simulator.NewCluster(3, 4) — takes the start that a resize makes
// possible; an agent that read 0 nodes as "not owned" failed every such round.
func TestZeroNodePartitionIsOwned(t *testing.T) {
	a := New("a0", map[int]int{0: 0})
	_, running, err := round(a, 1, 0, 0, nil, []StartDirective{{Job: 1, RunID: 1, Alloc: []int{2}, Due: 10}})
	if err != nil || len(running) != 1 {
		t.Fatalf("start on an owned zero-node partition: running %+v, err %v", running, err)
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	a := newTestAgent()
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	c := &Client{Addr: srv.URL, Partitions: []int{0, 1}}

	resp, err := c.Reconcile(ReconcileRequest{
		Epoch: 1, Now: 0,
		Starts: []StartDirective{start(9, 1, 25)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Running) != 1 || resp.Running[0].Job != 9 {
		t.Fatalf("round 1: %+v", resp)
	}
	resp, err = c.Reconcile(ReconcileRequest{Epoch: 1, Now: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Events) != 1 || resp.Events[0].At != 25 {
		t.Fatalf("round 2: %+v", resp)
	}
	// Fencing surfaces as ErrStaleEpoch through the client — with the
	// agent's fencing epoch populated, so the deposed leader can step down
	// to it rather than shrugging off a zero-valued fence.
	c2 := &Client{Addr: srv.URL}
	c2.Reconcile(ReconcileRequest{Epoch: 5, Now: 31})
	if _, err := c.Reconcile(ReconcileRequest{Epoch: 1, Now: 32}); err == nil {
		t.Fatal("stale epoch not surfaced over HTTP")
	} else if se, ok := err.(*ErrStaleEpoch); !ok {
		t.Fatalf("stale epoch error type: %v", err)
	} else if se.Got != 1 || se.Seen != 5 {
		t.Fatalf("fence detail lost over HTTP: got=%d seen=%d, want 1/5", se.Got, se.Seen)
	}
}

func TestParseSpec(t *testing.T) {
	cs, err := ParseSpec("http://a:1=0:1,http://b:2=2")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || len(cs[0].Partitions) != 2 || cs[1].Partitions[0] != 2 {
		t.Fatalf("parsed: %+v", cs)
	}
	for _, bad := range []string{"nope", "http://a=0,http://b=0", "http://a=", "http://a=x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
	if cs, err := ParseSpec(" "); err != nil || cs != nil {
		t.Fatalf("blank spec: %v %v", cs, err)
	}
}
