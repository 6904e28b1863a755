package service

// Concurrency and lifecycle correctness tests for the daemon wrapped around
// the real 3σSched core (the other service tests mostly use fifoSched).
// Run under -race (scripts/ci.sh does) these prove the scheduler-stats
// locking: /v1/metrics reads core.Scheduler.Stats() live while the
// scheduling loop is mid-cycle.

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"threesigma/internal/core"
)

func coreSched(checks bool) *core.Scheduler {
	return core.New(core.PerfectEstimator{}, core.Config{
		Policy: core.Policy{
			Name:            "3sigma",
			UseDistribution: true,
			Overestimate:    core.OEAdaptive,
			Underestimate:   true,
			Preemption:      true,
		},
		Slots:         4,
		SlotDur:       5,
		CycleInterval: 1,
		SolverBudget:  50 * time.Millisecond,
		Checks:        checks,
	})
}

// TestMetricsHammerDuringCycles floods /v1/metrics from several goroutines
// while the loop schedules real work through the MILP core. Any torn read
// of the scheduler's counters is a -race failure; any stale-copy regression
// shows up as SchedCycles stuck at zero.
func TestMetricsHammerDuringCycles(t *testing.T) {
	sched := coreSched(true)
	cfg := fastConfig(sched)
	svc := mustService(t, cfg)
	svc.Start()
	defer svc.Stop(5 * time.Second)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					var m Metrics
					if code := getJSON(t, ts, "/v1/metrics", &m); code != 200 {
						t.Errorf("/v1/metrics = %d", code)
						return
					}
				}
			}
		}()
	}

	for i := 1; i <= 8; i++ {
		resp, body := postJSON(t, ts, "/v1/jobs", jobRequest{
			ID: int64(i), Name: "hammer", User: "carol", Tasks: 2, Runtime: 3,
		})
		if resp.StatusCode != 202 {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
	}
	for i := 1; i <= 8; i++ {
		waitPhase(t, ts, i, PhaseCompleted)
	}
	close(done)
	wg.Wait()

	var m Metrics
	getJSON(t, ts, "/v1/metrics", &m)
	if m.SchedCycles == 0 {
		t.Error("SchedCycles = 0: metrics no longer reach the live scheduler stats")
	}
	if m.Proved+m.NodeCapped+m.DeadlineStops == 0 {
		t.Error("solver_proved + solver_node_capped + solver_deadline_stops = 0: the first cycle's solve went uncounted")
	}
	if m.Counters.Completed != 8 {
		t.Errorf("completed = %d, want 8", m.Counters.Completed)
	}
}

// TestAbandonedJobFullySwept wires the scheduler's abandon decisions into
// Service.Abandon (as cmd/3sigma-serverd does) and proves the whole
// lifecycle: the job surfaces as phase "abandoned", is counted, and — after
// the service confirms removal back to the scheduler — no per-job planning
// state survives, including the abandoned-ID marker.
func TestAbandonedJobFullySwept(t *testing.T) {
	var (
		mu  sync.Mutex
		svc *Service
	)
	schedCfg := core.Config{
		Policy:        core.Policy{Name: "3sigma", UseDistribution: true, Overestimate: core.OEAdaptive},
		Slots:         4,
		SlotDur:       5,
		CycleInterval: 1,
		SolverBudget:  50 * time.Millisecond,
		Checks:        true,
		OnDecision: func(e core.DecisionEvent) {
			if e.Kind != core.DecisionAbandon {
				return
			}
			mu.Lock()
			s := svc
			mu.Unlock()
			if s != nil {
				s.Abandon(e.Job)
			}
		},
	}
	sched := core.New(core.PerfectEstimator{}, schedCfg)
	cfg := fastConfig(sched)
	s := mustService(t, cfg)
	mu.Lock()
	svc = s
	mu.Unlock()
	s.Start()
	stopped := false
	defer func() {
		if !stopped {
			s.Stop(5 * time.Second)
		}
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Hog the cluster so the SLO job cannot start, with a deadline that
	// expires within the first virtual seconds: zero attainable utility.
	resp, body := postJSON(t, ts, "/v1/jobs", jobRequest{
		ID: 1, Name: "hog", User: "dave", Tasks: 16, Runtime: 120,
	})
	if resp.StatusCode != 202 {
		t.Fatalf("submit hog: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts, "/v1/jobs", jobRequest{
		ID: 2, Name: "late", User: "dave", Class: "SLO", Tasks: 4, Runtime: 30,
		DeadlineIn: 0.5,
	})
	if resp.StatusCode != 202 {
		t.Fatalf("submit late: %d %s", resp.StatusCode, body)
	}

	st := waitPhase(t, ts, 2, PhaseAbandoned)
	if st.Phase != PhaseAbandoned {
		t.Fatalf("phase = %q", st.Phase)
	}
	var m Metrics
	getJSON(t, ts, "/v1/metrics", &m)
	if m.Counters.Abandoned != 1 {
		t.Errorf("abandoned counter = %d, want 1", m.Counters.Abandoned)
	}
	if code := getJSON(t, ts, fmt.Sprintf("/v1/jobs/%d", 2), &st); code != 200 || st.Phase != PhaseAbandoned {
		t.Errorf("abandoned phase not terminal: code %d, phase %q", code, st.Phase)
	}

	// Stop flushes a final cycle, which drains the removal queue and calls
	// JobRemoved; only then is it safe to inspect the scheduler's maps.
	if err := s.Stop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	stopped = true
	sizes := core.DebugStateSizes(sched)
	for _, key := range []string{"dists", "distVer", "ue", "planned", "abandoned", "memo"} {
		if n := sizes[key]; n != 0 {
			// Job 1 may still legitimately be running/pending at stop time.
			if key != "abandoned" && n <= 1 {
				continue
			}
			t.Errorf("map %s holds %d entries after abandon+removal, want 0", key, n)
		}
	}
}

// TestPredictorSHATracksCompletions pins the metrics hash to the live
// predictor: a completion feeds its runtime to 3σPredict through the
// scheduler, so a scrape after it must not serve the hash cached by the
// scrape before it (the benchmark's restart check compares exactly these).
func TestPredictorSHATracksCompletions(t *testing.T) {
	cfg := sigmaConfig()
	svc := mustService(t, cfg)
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	before := svc.Metrics().PredictorSHA
	if before == "" {
		t.Fatal("no predictor SHA before any job")
	}
	resp, body := postJSON(t, ts, "/v1/jobs", jobRequest{
		ID: 1, Name: "train", User: "alice", Tasks: 2, Runtime: 2, SubmitAt: 0.5,
	})
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	waitPhase(t, ts, 1, PhaseCompleted)
	svc.BeginDrain()
	if err := svc.Stop(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	after := svc.Metrics().PredictorSHA
	if after == before {
		t.Fatalf("predictor SHA %q unchanged by a completion", after)
	}
	if live := predictorSHA(cfg.Predictor); after != live {
		t.Fatalf("scraped predictor SHA %q, live predictor hashes to %q", after, live)
	}
}
