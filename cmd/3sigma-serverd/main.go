// Command 3sigma-serverd is the online 3σSched daemon: it serves the
// internal/service JSON API over HTTP and runs deterministic scheduling
// cycles — cycle k at logical time k·cycle, paced every cycle/timescale wall
// seconds, each solve bounded by the node cap, never by wall time.
//
// Usage:
//
//	3sigma-serverd [-addr :8334] [-nodes 64] [-partitions 4]
//	               [-cycle 10] [-timescale 1] [-queue-cap 256]
//	               [-replog path] [-compact-every 0]
//	               [-replica 0] [-peers 0=url,1=url,...]
//	               [-agents url=p0:p1,...] [-lease 2s] [-dead-rounds 3]
//
// SIGTERM or SIGINT drains the daemon: in-flight HTTP requests and the
// current scheduling cycle finish, and the process exits 0. Cancels, trains
// and node operations take effect at the next cycle boundary.
//
// The distributed control plane (DESIGN.md §14): -replog appends every
// replay-relevant input and cycle decision to a hash-chained log, the one
// thing a restart reads: restarted with the same -replog, the daemon resumes
// warm and bit-identical — outcomes, scheduler and predictor as they were
// stopped (-compact-every bounds the replay to the suffix behind the newest
// snapshot); -replica/-peers forms a replica group with lease-based leader
// election and synchronous input replication (kill -9 the leader and a warm
// standby takes over within a lease); -agents runs the tasks on remote
// node-group agent daemons (cmd/3sigma-agentd) instead of the one agent the
// daemon runs in its own process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"threesigma/internal/agent"
	"threesigma/internal/baselines"
	"threesigma/internal/core"
	"threesigma/internal/faults"
	"threesigma/internal/predictor"
	"threesigma/internal/replog"
	"threesigma/internal/service"
	"threesigma/internal/shard"
	"threesigma/internal/simulator"
)

// parsePeers parses "0=http://h0:8334,1=http://h1:8334" into a replica map.
func parsePeers(spec string) (map[int]string, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	peers := make(map[int]string)
	for _, part := range strings.Split(spec, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", part)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return nil, fmt.Errorf("bad -peers replica id %q: %v", id, err)
		}
		if _, dup := peers[n]; dup {
			return nil, fmt.Errorf("duplicate -peers replica id %d", n)
		}
		peers[n] = strings.TrimSuffix(url, "/")
	}
	return peers, nil
}

func main() {
	addr := flag.String("addr", ":8334", "HTTP listen address")
	nodes := flag.Int("nodes", 64, "cluster size in nodes")
	parts := flag.Int("partitions", 4, "number of machine partitions")
	cycle := flag.Float64("cycle", 10, "scheduling cycle interval, virtual seconds")
	timescale := flag.Float64("timescale", 1, "virtual seconds per wall second (replay speed)")
	queueCap := flag.Int("queue-cap", 256, "admission queue bound (429 beyond it)")
	verbose := flag.Bool("verbose", false, "log every scheduling decision (starts, deferrals, preemptions, abandonments)")
	chaos := flag.String("chaos", "", "chaos injection spec: preset (light, heavy) or k=v list, e.g. seed=7,mtbf=1800,mttr=300,crash=0.05 (virtual-time schedule; see internal/faults)")
	drainGrace := flag.Duration("drain-grace", time.Second, "time between withdrawing readiness (/readyz 503) and closing the listener on SIGTERM")
	shards := flag.Int("shards", 1, "number of scheduling domains; >1 runs per-shard MILP solves under the cross-shard coordinator (DESIGN.md §13)")
	replogPath := flag.String("replog", "", "decision log path; replayed on restart for a warm bit-identical resume")
	replica := flag.Int("replica", 0, "this replica's ID within -peers")
	peersSpec := flag.String("peers", "", "replica group spec id=url,... (e.g. 0=http://h0:8334,1=http://h1:8334); empty: single replica")
	agentsSpec := flag.String("agents", "", "agent spec url=p0:p1,... running the tasks on 3sigma-agentd daemons; empty: one in-process agent owning every partition")
	lease := flag.Duration("lease", 2*time.Second, "leader lease interval (failover detection bound)")
	deadRounds := flag.Int("dead-rounds", 3, "consecutive failed reconcile rounds before an agent's partitions are failed")
	quorum := flag.Int("quorum", 0, "replica logs (leader included) a record needs before it acks as replicated; 0 = majority of -peers")
	compactEvery := flag.Int64("compact-every", 0, "append a full-state snapshot record and truncate the log below it every N cycles; 0 = never (requires -replog, single-domain 3sigma scheduler)")
	flag.Parse()

	logger := log.New(os.Stderr, "3sigma-serverd: ", log.LstdFlags)

	p := predictor.New(predictor.Config{})
	// The scheduler's abandonment decisions (zero attainable utility,
	// §4.2) are surfaced as a terminal job phase; svc is assigned below,
	// before the first cycle can fire.
	var svc *service.Service
	var err error
	sched := baselines.ThreeSigma(p, core.Config{
		CycleInterval: *cycle,
		OnDecision: func(e core.DecisionEvent) {
			if *verbose {
				logger.Print(e)
			}
			if e.Kind == core.DecisionAbandon && svc != nil {
				if !*verbose {
					logger.Printf("abandoning job %d (zero attainable utility)", e.Job)
				}
				svc.Abandon(e.Job)
			}
		},
	})
	var faultCfg *faults.Config
	if *chaos != "" {
		fc, err := faults.ParseSpec(*chaos)
		if err != nil {
			logger.Fatal(err)
		}
		faultCfg = &fc
	}
	cluster := simulator.NewCluster(*nodes, *parts)
	var schedImpl simulator.Scheduler = sched
	if *shards > 1 {
		coord, err := shard.NewCoordinator(sched, cluster, *shards)
		if err != nil {
			logger.Fatal(err)
		}
		schedImpl = coord
	}
	var dlog *replog.Log
	if *replogPath != "" {
		dlog, err = replog.Open(*replogPath)
		if err != nil {
			logger.Fatal(err)
		}
		defer dlog.Close()
	}
	peers, err := parsePeers(*peersSpec)
	if err != nil {
		logger.Fatal(err)
	}
	var agents []*agent.Client
	if *agentsSpec != "" {
		agents, err = agent.ParseSpec(*agentsSpec)
		if err != nil {
			logger.Fatal(err)
		}
	}
	svc, err = service.New(service.Config{
		Cluster:           cluster,
		Scheduler:         schedImpl,
		Predictor:         p,
		CycleInterval:     *cycle,
		TimeScale:         *timescale,
		QueueCap:          *queueCap,
		Logf:              logger.Printf,
		Faults:            faultCfg,
		Log:               dlog,
		ReplicaID:         *replica,
		Peers:             peers,
		LeaseInterval:     *lease,
		SubmitSyncTimeout: 2 * *lease,
		Quorum:            *quorum,
		CompactEvery:      *compactEvery,
		Agents:            agents,
		AgentDeadRounds:   *deadRounds,
	})
	if err != nil {
		logger.Fatal(err)
	}

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (%d nodes / %d partitions, cycle %gs, timescale %gx)",
			*addr, *nodes, *parts, *cycle, *timescale)
		errCh <- srv.ListenAndServe()
	}()
	svc.Start()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Printf("received %v, draining", sig)
		// Withdraw readiness first (/readyz flips to 503, /healthz stays
		// 200) and give load balancers drainGrace to stop routing before
		// the listener closes.
		svc.BeginDrain()
		time.Sleep(*drainGrace)
	case err := <-errCh:
		logger.Printf("http server: %v", err)
		svc.Stop(30 * time.Second)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := svc.Stop(30 * time.Second); err != nil {
		logger.Fatal(err)
	}
	m := svc.Metrics()
	fmt.Fprintf(os.Stderr, "3sigma-serverd: done: %d accepted, %d completed, %d cancelled, %d cycles\n",
		m.Counters.Accepted, m.Counters.Completed, m.Counters.Cancelled, m.Cycles)
	if errors.Is(<-errCh, http.ErrServerClosed) {
		os.Exit(0)
	}
}
