// Command 3sigma-agentd is the node-side daemon of the distributed control
// plane (DESIGN.md §14): it owns task lifecycle — start, evict, complete,
// crash — for the cluster partitions assigned to it and reports actual
// state to the scheduling leader through the epoch-fenced /v1/reconcile
// API. The agent is clockless: tasks run against the leader's logical clock,
// so a job completes at the same virtual time whether the agent is this
// daemon or the one a solo 3sigma-serverd runs in its own process.
//
// Usage:
//
//	3sigma-agentd -addr :8401 -own "0=16,1=16" [-id agent-a]
//
// -own maps global partition indices to this agent's provisioned node
// counts (0 owns a partition that has no nodes yet). SIGTERM/SIGINT shuts
// the agent down; its tasks die with it — that is the point: kill an
// agentd and the leader's reconciler detects the dead node group, evicts
// its work through the engine's failure path, and reschedules survivors
// elsewhere.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"threesigma/internal/agent"
)

func main() {
	addr := flag.String("addr", ":8401", "HTTP listen address")
	own := flag.String("own", "", `owned partitions as "p=nodes,p=nodes" (e.g. "0=16,1=16")`)
	id := flag.String("id", "", "agent identifier (default: the listen address)")
	flag.Parse()

	logger := log.New(os.Stderr, "3sigma-agentd: ", log.LstdFlags)
	owned, err := parseOwn(*own)
	if err != nil {
		logger.Fatal(err)
	}
	if len(owned) == 0 {
		logger.Fatal("no partitions owned: pass -own \"p=nodes,...\"")
	}
	if *id == "" {
		*id = *addr
	}
	a := agent.New(*id, owned)

	srv := &http.Server{Addr: *addr, Handler: a.Handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("agent %s listening on %s, owning %d partitions", *id, *addr, len(owned))
		errCh <- srv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Printf("received %v, shutting down", sig)
	case err := <-errCh:
		logger.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	st := a.Status()
	fmt.Fprintf(os.Stderr, "3sigma-agentd: done: %d started, %d completed, %d crashed, %d evicted\n",
		st.Counters.Started, st.Counters.Completed, st.Counters.Crashed, st.Counters.Evicted)
}

// parseOwn parses "0=16,1=16" into partition -> node count.
func parseOwn(s string) (map[int]int, error) {
	out := map[int]int{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, ent := range strings.Split(s, ",") {
		var p, n int
		if _, err := fmt.Sscanf(strings.TrimSpace(ent), "%d=%d", &p, &n); err != nil || p < 0 || n < 0 {
			return nil, fmt.Errorf("bad -own entry %q (want partition=nodes)", ent)
		}
		if _, dup := out[p]; dup {
			return nil, fmt.Errorf("partition %d listed twice in -own", p)
		}
		out[p] = n
	}
	return out, nil
}
