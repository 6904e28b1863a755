package service

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// The election tests run at a 10 s lease, against which every bound below
// is short: a replica that waits out a lease it need not shows up as a
// timeout, not as a slow pass.
const longLease = 10 * time.Second

func withLongLease(i int, cfg *Config) { cfg.LeaseInterval = longLease }

// awaitLeader waits up to d for exactly one replica of live to lead and the
// others of live to follow it, and returns the leader.
func (g *testGroup) awaitLeader(t *testing.T, d time.Duration, live ...int) int {
	t.Helper()
	lead := -1
	waitUntil(t, d, "one leader, followed by the rest", func() bool {
		lead = -1
		for _, i := range live {
			if g.svcs[i].IsLeader() {
				lead = i
			}
		}
		if lead < 0 {
			return false
		}
		for _, i := range live {
			if role, _, lid := g.svcs[i].Role(); i != lead && (role != RoleFollower || lid != lead) {
				return false
			}
		}
		return true
	})
	return lead
}

// down stops replica i the way its process would end on SIGTERM: Stop,
// then its listener goes away and its log is closed.
func (g *testGroup) down(t *testing.T, i int) {
	t.Helper()
	if err := g.svcs[i].Stop(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	g.late[i].set(nil)
	if err := g.logs[i].Close(); err != nil {
		t.Fatal(err)
	}
}

// startAll starts replicas and stops them again when the test ends.
func (g *testGroup) startAll(t *testing.T, replicas ...int) {
	t.Helper()
	for _, i := range replicas {
		svc := g.svcs[i]
		svc.Start()
		t.Cleanup(func() { svc.Stop(5 * time.Second) })
	}
	t.Cleanup(g.stopLeaderFirst)
}

// TestColdGroupElectsInOnePoll: nobody holds a lease in a group that has
// just started, every replica can see that, and the first poll elects.
func TestColdGroupElectsInOnePoll(t *testing.T) {
	g := newTestGroup(t, 3, withLongLease)
	start := time.Now()
	g.startAll(t, 0, 1, 2)
	if lead := g.awaitLeader(t, time.Second, 0, 1, 2); lead != 0 {
		t.Fatalf("replica %d leads a cold group, want 0 (equal logs, lowest ID)", lead)
	}
	t.Logf("elected %v after Start", time.Since(start))
}

// TestUnreachablePeerKeepsTheLease: a peer that does not answer might be a
// leader this replica cannot reach, so nobody may stand until the lease has
// run out — even with a quorum in sight.
func TestUnreachablePeerKeepsTheLease(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + ln.Addr().String()
	ln.Close()
	g := newTestGroup(t, 2, func(i int, cfg *Config) {
		withLongLease(i, cfg)
		cfg.Peers = map[int]string{0: cfg.Peers[0], 1: cfg.Peers[1], 2: closed}
	})
	g.startAll(t, 0, 1)
	// The poll at Start and the one a quarter lease later.
	time.Sleep(longLease/4 + 500*time.Millisecond)
	for i, svc := range g.svcs {
		if m := svc.Metrics(); m.Role != string(RoleFollower) || m.Control.Elections != 0 {
			t.Errorf("replica %d is %s after %d elections with a peer unreachable and its lease live",
				i, m.Role, m.Control.Elections)
		}
	}
}

// TestRestartedReplicaFollowsLiveLeader: a replica that comes back into a
// group with a leader finds that leader in its first poll and never stands.
func TestRestartedReplicaFollowsLiveLeader(t *testing.T) {
	g := newTestGroup(t, 3, withLongLease)
	g.startAll(t, 0, 1, 2)
	g.awaitLeader(t, time.Second, 0, 1, 2)
	g.submitStream(t, 1, 5, 10*time.Millisecond)
	_, epoch, _ := g.svcs[0].Role()

	g.down(t, 2)
	g.build(t, 2, withLongLease)
	g.startAll(t, 2)
	g.awaitLeader(t, time.Second, 0, 1, 2)
	waitUntil(t, 5*time.Second, "the restarted replica to catch up", func() bool {
		want := g.logs[0].Len()
		return g.logs[2].Len() >= want
	})
	if _, e, _ := g.svcs[0].Role(); e != epoch {
		t.Errorf("the leader's epoch moved from %d to %d", epoch, e)
	}
	if m := g.svcs[2].Metrics(); m.Control.Elections != 0 || m.Control.Diverged != 0 {
		t.Errorf("restarted replica: %d elections, %d divergences", m.Control.Elections, m.Control.Diverged)
	}
}

// TestWholeGroupRestartElectsLongestLog: a group whose replicas all went
// down, at different log lengths, comes back and elects the longest log in
// its first poll — here replica 1's, which replica 0 would lose to on
// length and win on ID.
func TestWholeGroupRestartElectsLongestLog(t *testing.T) {
	g := newTestGroup(t, 3, withLongLease)
	g.startAll(t, 0, 1, 2)
	g.awaitLeader(t, time.Second, 0, 1, 2)
	g.submitStream(t, 1, 3, 10*time.Millisecond)

	// The leader hands off to replica 1; then replica 2 goes, and replica 1
	// cycles on alone before it goes too.
	g.down(t, 0)
	if lead := g.awaitLeader(t, time.Second, 1, 2); lead != 1 {
		t.Fatalf("replica %d took over from a stopped leader, want 1 (equal logs, lower ID)", lead)
	}
	g.down(t, 2)
	at := g.logs[1].Len()
	waitUntil(t, 5*time.Second, "the lone leader to cycle on", func() bool { return g.logs[1].Len() > at+5 })
	g.down(t, 1)
	lens := []uint64{g.logs[0].Len(), g.logs[1].Len(), g.logs[2].Len()}
	if lens[1] <= lens[0] || lens[1] <= lens[2] {
		t.Fatalf("log lengths %v: replica 1's should be the longest", lens)
	}

	for i := range g.svcs {
		g.build(t, i, withLongLease)
	}
	g.startAll(t, 0, 1, 2)
	if lead := g.awaitLeader(t, time.Second, 0, 1, 2); lead != 1 {
		t.Fatalf("replica %d leads after a whole-group restart at log lengths %v, want 1", lead, lens)
	}
	waitUntil(t, 5*time.Second, "the group to catch up", func() bool {
		return g.logs[0].Len() >= lens[1] && g.logs[2].Len() >= lens[1]
	})
	for i, svc := range g.svcs {
		if d := svc.Metrics().Control.Diverged; d != 0 {
			t.Errorf("replica %d flagged %d divergences", i, d)
		}
	}
}

// TestStoppedLeaderRejoinsItsSuccessor is the regression for a graceful
// stop that forked the log: the stopped leader appended its final cycle
// after its senders had exited, its successor wrote a different record at
// the same sequence, and when the old leader came back it diverged and
// never caught up (about one stop in two). Now the final cycle is handed
// off with the term, so the old leader's log is a prefix of its
// successor's, and the successor takes over at once instead of a lease
// later.
func TestStoppedLeaderRejoinsItsSuccessor(t *testing.T) {
	for rep := 0; rep < 5; rep++ {
		t.Run(fmt.Sprint(rep), func(t *testing.T) {
			g := newTestGroup(t, 3, withLongLease)
			g.startAll(t, 0, 1, 2)
			g.awaitLeader(t, time.Second, 0, 1, 2)
			g.submitStream(t, 1, 4, 10*time.Millisecond)

			stopped := time.Now()
			g.down(t, 0)
			next := g.awaitLeader(t, 5*time.Second, 1, 2)
			if el := time.Since(stopped); el > time.Second {
				t.Errorf("replica %d took over %v after the leader's Stop began; the lease is %v", next, el, longLease)
			}
			last := g.logs[0].Len()
			mine := g.logs[0].Since(last-1, 1)

			g.build(t, 0, withLongLease)
			g.startAll(t, 0)
			waitUntil(t, 5*time.Second, "the old leader to reach its successor's log", func() bool {
				want := g.logs[next].Len()
				return g.logs[0].Len() >= want
			})
			theirs := g.logs[next].Since(last-1, 1)
			if len(mine) != 1 || len(theirs) != 1 || mine[0].Hash != theirs[0].Hash {
				t.Fatalf("the stopped leader's last record (seq %d) is not its successor's", last)
			}
			if d := g.svcs[0].Metrics().Control.Diverged; d != 0 {
				t.Fatalf("the rejoined leader flagged %d divergences", d)
			}
		})
	}
}
