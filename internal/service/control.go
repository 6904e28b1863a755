// Leader election and log replication (DESIGN.md §14).
//
// Election is lease-based and deterministic: every replica polls its peers'
// control status at lease/4, all peers at once, the first time as it starts.
// A follower takes over iff it can see a quorum, is the best candidate within
// it — most caught-up log first, lowest replica ID on ties — and no leader
// can still hold a lease: either it has heard from none for a full lease, or
// every peer answered the poll and none reports itself leader. Takeover
// bumps the epoch past every epoch the replica has seen and appends a
// TypeElect record, so agents and followers fence out the deposed leader.
// A leader that is stopped hands off (handOff): its tail reaches every
// follower it can, and its last push tells them not to wait out its lease.
//
// Replication is push-based: the leader runs one sender goroutine per peer,
// streaming log records in batches over POST /v1/replog/append. A push body
// is a small binary header followed by the records in the frames the
// decision log stores them in: a record has one serialized form, on disk
// and on the wire. Senders are
// woken by notifyFollowers after every append and heartbeat at lease/2 so a
// quiet leader still refreshes its lease. A follower acks its log length,
// and the ack wakes whoever waits on it — a submit blocked in
// waitReplicated, a compaction held back for this follower; gaps rewind the
// sender, and a push from a stale epoch is rejected with the current one so
// a deposed leader standing in a network partition learns its fate from the
// first peer it reaches.
package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"threesigma/internal/binenc"
	"threesigma/internal/replog"
)

// followerConn is the leader's replication state for one peer. The sender
// goroutine owns the send cursor; acked/lastOK are shared with
// waitReplicated and Metrics under fmu.
type followerConn struct {
	id    int
	addr  string
	httpc *http.Client
	// notify wakes the sender after an append (capacity 1: a wake-up is
	// level-triggered, coalescing bursts).
	notify chan struct{}
	// resign is closed by handOff, in the hold of mu that ends the term: the
	// sender makes its last push, carrying Resign, and exits, closing done.
	resign chan struct{}
	done   chan struct{}

	fmu    sync.Mutex
	acked  uint64    // guarded by fmu; highest seq the peer confirmed
	lastOK time.Time // guarded by fmu; Clock time of the last successful push
}

func newFollowerConn(id int, addr string, timeout time.Duration) *followerConn {
	return &followerConn{
		id:     id,
		addr:   addr,
		httpc:  &http.Client{Timeout: timeout},
		notify: make(chan struct{}, 1),
		resign: make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// progress returns the highest seq the peer confirmed and the instant its
// liveness lease runs out: a follower that has not acked anything for a full
// lease is presumed down (a peer never heard from expired long ago).
func (fc *followerConn) progress(lease time.Duration) (acked uint64, expires time.Time) {
	fc.fmu.Lock()
	defer fc.fmu.Unlock()
	return fc.acked, fc.lastOK.Add(lease)
}

const (
	// maxReplBody bounds the push body a follower reads. One record — a
	// snapshot among them — is at most replog.MaxRecordBytes and a sender
	// cuts its batches to that many payload bytes, so twice the record bound
	// leaves room for the push header and the frames' own headers (about 100
	// bytes a record), and nothing honest is ever refused.
	maxReplBody = 2 * replog.MaxRecordBytes
	// pushBudget and pushRecords cap one push: payload bytes (cutBatch) and
	// records.
	pushBudget  = replog.MaxRecordBytes
	pushRecords = 256
)

// notifyFollowers wakes every sender goroutine (non-blocking; senders
// coalesce). Must be called without s.mu held — it takes the lock to
// snapshot the follower list; callers already inside the lock use
// notifyFollowersLocked.
func (s *Service) notifyFollowers() {
	s.mu.Lock()
	conns := s.followers
	s.mu.Unlock()
	for _, fc := range conns {
		select {
		case fc.notify <- struct{}{}:
		default:
		}
	}
}

// notifyFollowersLocked is notifyFollowers for callers holding s.mu. The
// sends are select-with-default so nothing blocks under the lock.
func (s *Service) notifyFollowersLocked() {
	for _, fc := range s.followers {
		select {
		case fc.notify <- struct{}{}:
		default:
		}
	}
}

// wakeWaitersLocked releases every goroutine blocked in waitReplicated to
// look again. Closing a channel never blocks, so this is safe under s.mu.
func (s *Service) wakeWaitersLocked() {
	close(s.ackWake)
	s.ackWake = make(chan struct{})
}

// waitReplicated blocks until the record at seq is quorum-durable — fsync'd
// on at least Config.Quorum replica logs, the leader's own included — the
// replica is deposed or stopped, or SubmitSyncTimeout elapses (counted in
// ControlCounters.ReplLagTimeouts). It reports whether quorum was reached:
// false means the record survives only a minority of the group and is lost
// if that minority dies before another replica catches up. Called without
// s.mu. Liveness is a lease: a follower that has not acked anything for a
// full LeaseInterval is presumed down; once every follower still short of
// seq is presumed down the wait resolves immediately instead of burning the
// timeout — a dead minority must not add latency to every submit.
//
// The wait is driven by events, not by polling: a sender's ack, a step-down,
// a takeover and Stop all fire wakeWaitersLocked, and the only things time
// alone can change — the deadline passing, a lagging follower's lease running
// out — are covered by one timer armed for the earlier of the two.
func (s *Service) waitReplicated(seq uint64) bool {
	need := s.cfg.Quorum
	deadline := s.cfg.Clock.Now().Add(s.cfg.SubmitSyncTimeout)
	for {
		s.mu.Lock()
		leading := s.role == RoleLeader && !s.stopped
		conns := s.followers
		// Taken before the acks are read: an ack that lands after this
		// point closes this very channel.
		wake := s.ackWake
		s.mu.Unlock()
		if !leading {
			// Deposed mid-wait: the record's fate belongs to the new term.
			return false
		}
		count := 1 // the leader's own fsync'd log
		waitable := false
		now := s.cfg.Clock.Now()
		next := deadline
		for _, fc := range conns {
			acked, expires := fc.progress(s.cfg.LeaseInterval)
			if acked >= seq {
				count++
				continue
			}
			if !now.After(expires) {
				waitable = true
				if expires.Before(next) {
					next = expires
				}
			}
		}
		if count >= need {
			return true
		}
		if !waitable {
			// Every follower that could still push the count to quorum is
			// lease-lapsed: waiting cannot help. Not a timeout — a report.
			return false
		}
		if now.After(deadline) {
			s.mu.Lock()
			s.ctl.ReplLagTimeouts++
			s.mu.Unlock()
			return false
		}
		// The floor keeps a pinned test clock, on which next never arrives,
		// from turning the wait into a spin.
		timer := time.NewTimer(max(next.Sub(now), time.Millisecond))
		select {
		case <-wake:
		case <-timer.C:
		}
		timer.Stop()
	}
}

// minFollowerAckLocked is the lowest seq any follower has confirmed (0 with
// no followers or before the first ack) — the leader's replication horizon.
func (s *Service) minFollowerAckLocked() uint64 {
	var min uint64
	for i, fc := range s.followers {
		fc.fmu.Lock()
		a := fc.acked
		fc.fmu.Unlock()
		if i == 0 || a < min {
			min = a
		}
	}
	return min
}

// takeoverLocked assumes leadership: the new epoch exceeds every epoch this
// replica has seen (its own, its log's, and maxSeen from peer polls), and a
// TypeElect record pins the transition into the chain. Callers hold s.mu.
func (s *Service) takeoverLocked(maxSeen uint64) {
	s.leaderEpoch = max(s.leaderEpoch, s.log.LastEpoch(), maxSeen) + 1
	s.leaderID = s.cfg.ReplicaID
	s.role = RoleLeader
	s.ctl.Elections++
	s.wakeWaitersLocked() // a waiter left over from an earlier term counts against the new senders
	if _, err := s.log.Append(s.leaderEpoch, replog.TypeElect, s.st.Cycles,
		&electPayload{Replica: s.cfg.ReplicaID, Cycle: s.st.Cycles}); err != nil {
		s.cfg.Logf("append elect record: %v", err)
	}
	s.startSendersLocked()
	// Announce the term: the followers learn their leader from its first
	// push, at once, not from whichever comes first of their next status
	// poll, the next cycle record and the first heartbeat.
	s.notifyFollowersLocked()
	s.cfg.Logf("replica %d leading at epoch %d (cycle %d, log seq %d)",
		s.cfg.ReplicaID, s.leaderEpoch, s.st.Cycles, s.log.Len())
}

// startSendersLocked spawns one replication sender per peer. A fresh conn
// set is built per takeover; senders from a previous term notice the role
// change (or the stop channel) and exit.
func (s *Service) startSendersLocked() {
	s.followers = nil
	for id, addr := range s.cfg.Peers {
		if id == s.cfg.ReplicaID {
			continue
		}
		fc := newFollowerConn(id, addr, s.cfg.LeaseInterval)
		// Seed the liveness lease optimistically: a fresh conn has pushed
		// nothing yet, and a zero lastOK would let waitReplicated write the
		// peer off before its first ack could land. A genuinely dead peer
		// costs one LeaseInterval of waiting before the lease lapses.
		fc.lastOK = s.cfg.Clock.Now() //lint:allow guardedfield fresh conn: no other goroutine sees it until the append below publishes it
		s.followers = append(s.followers, fc)
		go s.runSender(fc, s.leaderEpoch)
	}
}

// replAppendReq is a push (POST /v1/replog/append). Its body is binary: a
// version byte (pushVersion), From as a zig-zag varint, Epoch as a uvarint,
// Resign as one byte (0 or 1), and then Records in the log's own frames
// (replog.AppendFrames). The answer is a JSON replAppendResp.
type replAppendReq struct {
	From    int
	Epoch   uint64
	Records []replog.Record
	// Resign marks a stopped leader's last push, sent only to a follower
	// that acked its whole log: the term is over, and its lease with it.
	Resign bool
}

const pushVersion = 1

// errJSONPush reports a push in the retired encoding: a JSON body, which an
// older build sends.
var errJSONPush = errors.New("JSON push body, sent by an older build; this build replicates binary frames only")

// encode renders the push body.
func (q *replAppendReq) encode() ([]byte, error) {
	buf := binary.AppendVarint([]byte{pushVersion}, int64(q.From))
	buf = binary.AppendUvarint(buf, q.Epoch)
	resign := byte(0)
	if q.Resign {
		resign = 1
	}
	return replog.AppendFrames(append(buf, resign), q.Records)
}

// decodePush reads a push body as encode writes it, and nothing else: a
// body that decodes re-encodes to the same bytes. The records' Data alias
// body, and their hashes are checked where they are appended.
func decodePush(body []byte) (replAppendReq, error) {
	if len(body) > 0 && body[0] == '{' {
		return replAppendReq{}, errJSONPush
	}
	r := binenc.NewReader(body)
	version, from, epoch, resign := r.Byte(), r.SignedInt(), r.Uvarint(), r.Byte()
	switch {
	case version != pushVersion:
		return replAppendReq{}, fmt.Errorf("push version %d (this build speaks %d)", version, pushVersion)
	case r.Err() != nil:
		return replAppendReq{}, fmt.Errorf("push header: %w", r.Err())
	case resign > 1:
		return replAppendReq{}, fmt.Errorf("push resign byte %d", resign)
	}
	recs, err := replog.ParseFrames(r.Bytes(r.Len()))
	return replAppendReq{From: from, Epoch: epoch, Records: recs, Resign: resign == 1}, err
}

type replAppendResp struct {
	Acked uint64 `json:"acked"`
	// Want is set on a gap rejection: the seq the follower needs next.
	Want uint64 `json:"want,omitempty"`
	// Epoch is set on a conflict rejection: the epoch the follower serves.
	Epoch uint64 `json:"epoch,omitempty"`
	// Busy is set when the follower is mid-transition and wants a retry.
	Busy bool `json:"busy,omitempty"`
	// Leader is set on a conflict rejection when the rejecting replica is
	// itself leading at Epoch — the equal-epoch dueling-leader signal.
	Leader bool `json:"leader,omitempty"`
}

// runSender streams the log to one follower for the duration of a term.
// Pushes are batched (pushRecords records, pushBudget payload bytes), woken
// by notifyFollowers, and padded with empty heartbeats at lease/2 so the
// lease survives quiet stretches. A follower that answers Busy — a deposed
// leader mid-cycle — is asked again on a doubling back-off of 1 ms to
// lease/8, not left to the heartbeat. The sender outlives Stop: a stopped
// leader's final cycle is pushed by it, and its term ends with the resign
// push (handOff).
//
// The send cursor starts at 0, so the first push of a term over a compacted
// log carries nothing (Since has no records below the base): a probe, which
// the follower answers with its log length. Once an answer in this term puts
// the follower's log at or below the base, the records it needs next exist
// only inside the snapshot the log begins with, and the sender pushes from
// the base: the snapshot, then the suffix. An in-sync follower is never sent
// the snapshot.
func (s *Service) runSender(fc *followerConn, epoch uint64) {
	defer close(fc.done)
	hb := time.NewTicker(s.cfg.LeaseInterval / 2)
	defer hb.Stop()
	retry := time.NewTimer(time.Hour) // armed by a Busy answer only; stopped again at the first wake-up
	defer retry.Stop()
	var backoff time.Duration // the last wait for a Busy follower; 0 after any other answer
	var sent uint64
	for {
		select {
		case <-s.loopDone:
			return
		case <-fc.notify:
			if sent == s.log.Len() {
				continue // woken for records the last push already carried
			}
		case <-fc.resign:
		case <-hb.C:
		case <-retry.C:
		}
		s.mu.Lock()
		stale := s.role != RoleLeader || s.leaderEpoch != epoch
		s.mu.Unlock()
		if stale {
			select {
			case <-fc.resign:
				// Only a follower holding the whole log may skip the lease:
				// one that does not would stand without records a quorum
				// may hold.
				if acked, _ := fc.progress(s.cfg.LeaseInterval); acked >= s.log.Len() {
					s.pushBatch(fc, epoch, nil, true)
				}
			default:
			}
			return
		}
		busy := false
		for {
			from := sent
			batch := cutBatch(s.log.Since(sent, pushRecords))
			resp, code, err := s.pushBatch(fc, epoch, batch, false)
			if err != nil {
				break // peer unreachable or non-protocol reply; heartbeat retries
			}
			switch {
			case resp.Epoch > epoch:
				// The follower serves a newer term: this leadership is over.
				s.deposeIfStale(resp.Epoch, -1)
				return
			case resp.Busy:
				busy = true
			case resp.Leader && resp.Epoch == epoch:
				// Equal-epoch dueling leaders: the lower replica ID keeps the
				// term (see electionTick). If the peer outranks us, this
				// leadership is over; otherwise the peer steps down on its
				// own tick — back off to the heartbeat until it has.
				if fc.id < s.cfg.ReplicaID {
					s.stepDown(epoch, fc.id)
					return
				}
			case resp.Want > 0:
				// Rewind and retry immediately — from the base if the
				// follower's log ends at or below it.
				if sent = max(resp.Want-1, s.log.Base()); sent != from {
					continue
				}
			case code != http.StatusOK:
				// A conflict without a usable cursor (e.g. the follower
				// flagged divergence): not an ack — leave the send cursor and
				// lastOK alone so the peer counts as lagging, and retry on
				// the heartbeat.
			default:
				sent = max(resp.Acked, s.log.Base())
				fc.fmu.Lock()
				advanced := resp.Acked > fc.acked
				if advanced {
					fc.acked = resp.Acked
				}
				fc.lastOK = s.cfg.Clock.Now()
				fc.fmu.Unlock()
				if advanced {
					s.mu.Lock()
					s.wakeWaitersLocked()
					s.wakeCompactorLocked()
					s.mu.Unlock()
				}
				// The batch landed whole and the log has grown past it, or
				// the follower is to be pushed from the base: push on. (A
				// peer that acks short of what it was sent is not pushed at
				// in a loop; the next wake-up tries again.)
				if n := len(batch); n > 0 && sent >= batch[n-1].Seq && sent < s.log.Len() ||
					sent > resp.Acked && sent != from {
					continue
				}
			}
			break
		}
		if !retry.Stop() {
			select {
			case <-retry.C:
			default:
			}
		}
		if busy {
			backoff = min(max(2*backoff, time.Millisecond), s.cfg.LeaseInterval/8)
			retry.Reset(backoff)
		} else {
			backoff = 0
		}
	}
}

// cutBatch cuts a push to the leading records whose payloads fit pushBudget
// — always at least one — so that its body stays under the maxReplBody the
// receiving handler reads, however many snapshots the follower is behind.
func cutBatch(batch []replog.Record) []replog.Record {
	size := 0
	for i := range batch {
		if size += len(batch[i].Data); size > pushBudget && i > 0 {
			return batch[:i]
		}
	}
	return batch
}

// pushBatch posts one append and decodes the protocol statuses (200 OK,
// 409 Conflict, 503 Busy) into a replAppendResp. Anything else — a 500
// errResponse, a proxy error page — is a transport-grade error: its body
// must not be mistaken for an all-zero ack that would rewind the send
// cursor and refresh the peer's liveness lease.
func (s *Service) pushBatch(fc *followerConn, epoch uint64, batch []replog.Record, resign bool) (*replAppendResp, int, error) {
	req := replAppendReq{From: s.cfg.ReplicaID, Epoch: epoch, Records: batch, Resign: resign}
	body, err := req.encode()
	if err != nil {
		return nil, 0, err
	}
	httpResp, err := fc.httpc.Post(fc.addr+"/v1/replog/append", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer httpResp.Body.Close()
	switch httpResp.StatusCode {
	case http.StatusOK, http.StatusConflict, http.StatusServiceUnavailable:
		var resp replAppendResp
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			return nil, httpResp.StatusCode, err
		}
		return &resp, httpResp.StatusCode, nil
	default:
		raw, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		return nil, httpResp.StatusCode, fmt.Errorf("replog push: %d %s",
			httpResp.StatusCode, bytes.TrimSpace(raw))
	}
}

// deposeIfStale steps down if epoch beats ours. from is the replica that
// proved the newer term (-1 unknown).
func (s *Service) deposeIfStale(epoch uint64, from int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deposeIfStaleLocked(epoch, from)
}

func (s *Service) deposeIfStaleLocked(epoch uint64, from int) {
	if epoch <= s.leaderEpoch {
		return
	}
	s.stepDownLocked(epoch, from)
}

// stepDown is stepDownLocked without s.mu held.
func (s *Service) stepDown(epoch uint64, from int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stepDownLocked(epoch, from)
}

// stepDownLocked unconditionally abdicates to follower. Unlike
// deposeIfStaleLocked it does not require a strictly newer epoch: it is the
// landing point for fences that prove this leadership must end even when
// the observed epoch does not exceed ours — an agent 409 (the agent's epoch
// is strictly above the directive's even if the body carried no detail) and
// the equal-epoch leader tie-break. epoch is the highest epoch the caller
// has proof of (0 when unknown); the local epoch never regresses. from is
// the replica that proved it (-1 unknown).
func (s *Service) stepDownLocked(epoch uint64, from int) {
	if s.role == RoleLeader {
		s.cfg.Logf("replica %d deposed at epoch %d: saw epoch %d from %d",
			s.cfg.ReplicaID, s.leaderEpoch, epoch, from)
	}
	s.role = RoleFollower
	if epoch > s.leaderEpoch {
		s.leaderEpoch = epoch
	}
	if from >= 0 {
		s.leaderID = from
	}
	s.lastLeader = s.cfg.Clock.Now()
	s.followers = nil // senders notice the role change and exit
	s.wakeWaitersLocked()
	s.wakeCompactorLocked() // no followers left to hold a pending compaction back
}

// ctlStatus is the GET /v1/control/status wire type, the election's
// peer-visibility primitive.
type ctlStatus struct {
	Replica int    `json:"replica"`
	Role    string `json:"role"`
	Epoch   uint64 `json:"epoch"`
	Seq     uint64 `json:"seq"`
	Cycle   int64  `json:"cycle"`
	Head    string `json:"head,omitempty"`
}

// electionLoop is every replica's failure detector: poll peers as it starts
// and at lease/4 after that — or at once when the leader resigns — refresh
// the leader lease when one is visible, and stand for election when no
// leader can hold a lease any more and this replica is the best candidate it
// can see.
func (s *Service) electionLoop() {
	defer close(s.electDone)
	httpc := &http.Client{Timeout: s.cfg.LeaseInterval / 4}
	ticker := time.NewTicker(s.cfg.LeaseInterval / 4)
	defer ticker.Stop()
	for {
		s.electionTick(httpc)
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		case <-s.electWake:
		}
	}
}

// wakeElectionLocked runs an election tick now instead of at the next
// lease/4 (non-blocking: the channel holds one level-triggered wake-up).
func (s *Service) wakeElectionLocked() {
	select {
	case s.electWake <- struct{}{}:
	default:
	}
}

// pollPeers asks every peer for its control status, all at once, so a tick
// costs one round trip however many peers time out. The answers come back
// in replica ID order, whatever order they arrived in; a peer that did not
// answer 200 with a status is absent.
func (s *Service) pollPeers(httpc *http.Client) []peerView {
	var ids []int
	for id := range s.cfg.Peers {
		if id != s.cfg.ReplicaID {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	got := make([]*ctlStatus, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := httpc.Get(s.cfg.Peers[id] + "/v1/control/status")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var st ctlStatus
			if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&st) == nil {
				got[i] = &st
			}
		}()
	}
	wg.Wait()
	var views []peerView
	for i, st := range got {
		if st != nil {
			views = append(views, peerView{id: ids[i], st: *st})
		}
	}
	return views
}

type peerView struct {
	id int
	st ctlStatus
}

func (s *Service) electionTick(httpc *http.Client) {
	polled := s.cfg.Clock.Now()
	views := s.pollPeers(httpc) // network: off the lock

	s.mu.Lock()
	defer s.mu.Unlock()
	// The leader this poll shows: the newest term, and within one term the
	// lower replica ID (the duel rule below).
	var maxEpoch uint64
	var lead *peerView
	for i, v := range views {
		maxEpoch = max(maxEpoch, v.st.Epoch)
		if v.st.Role == string(RoleLeader) &&
			(lead == nil || v.st.Epoch > lead.st.Epoch || (v.st.Epoch == lead.st.Epoch && v.id < lead.id)) {
			lead = &views[i]
		}
	}
	if v := lead; v != nil && v.st.Epoch >= s.leaderEpoch {
		if s.role == RoleLeader && s.cycleRec == nil &&
			(v.st.Epoch > s.leaderEpoch ||
				(v.st.Epoch == s.leaderEpoch && v.id < s.cfg.ReplicaID)) {
			// A newer term always wins. At an equal epoch (two followers
			// took over at E+1 across a symmetric partition) neither side
			// ever mints a greater epoch, so the election rule's ID order
			// breaks the tie: the lower replica ID keeps the term and the
			// higher one steps down — deterministic, both sides agree.
			s.stepDownLocked(v.st.Epoch, v.id)
		}
		if s.role == RoleFollower {
			s.lastLeader = s.cfg.Clock.Now()
			s.leaderID = v.id
			if v.st.Epoch > s.leaderEpoch {
				s.leaderEpoch = v.st.Epoch
			}
		}
	}
	if s.role != RoleFollower || s.stopped {
		return
	}
	// Wait out the lease only while some leader could still hold one. When
	// every peer answered and none leads, none does: a live leader answers
	// as one. That is a cold start, a whole-group restart, a leader that
	// stepped down or resigned. A peer that did not answer may be a leader
	// this replica cannot reach, and a push that landed while the poll was
	// out comes from a leader the answers predate: then the lease runs out
	// first.
	noLeader := len(views) == len(s.cfg.Peers)-1 && lead == nil && s.lastLeader.Before(polled)
	if !noLeader && s.cfg.Clock.Now().Sub(s.lastLeader) <= s.cfg.LeaseInterval {
		return
	}
	// Stand only from inside a visible quorum. Any two quorums intersect,
	// so a candidate that can see Quorum replicas (itself included) is
	// guaranteed to see at least one log holding every quorum-acknowledged
	// record — and the longest-log rule below then keeps it from winning
	// with less. A minority partition fails this check and can never
	// elect, so it can never ack new writes either.
	if 1+len(views) < s.cfg.Quorum {
		return
	}
	// Stand iff no visible peer is a better candidate — longer log wins
	// (it holds acknowledged inputs this replica may lack), lowest replica
	// ID breaks ties. Deterministic: every live replica ranks the same set
	// the same way.
	mySeq := s.log.Len()
	for _, v := range views {
		if v.st.Seq > mySeq || (v.st.Seq == mySeq && v.id < s.cfg.ReplicaID) {
			return
		}
	}
	s.takeoverLocked(maxEpoch)
}

// handOff ends a stopped leader's term so that a successor can take over at
// once and continue its log, not fork it. It runs on the loop goroutine
// after the final cycle: the tail, that cycle included, is flushed to every
// follower whose lease is live, waiting on their acks for at most lease/4;
// then, in one hold of mu, the replica stops leading and tells each sender
// to make its last push carry Resign to a follower that acked the whole
// log. A follower the flush did not reach learns nothing and sees a crash.
// Senders get another lease/4 to deliver before Stop goes on.
func (s *Service) handOff() {
	s.mu.Lock()
	conns, end := s.followers, s.log.Len()
	leading := s.role == RoleLeader && len(s.cfg.Peers) > 0
	s.mu.Unlock()
	if !leading {
		return
	}
	// The final cycle has woken the senders already; wait for the acks.
	bound := time.NewTimer(s.cfg.LeaseInterval / 4)
	defer bound.Stop()
	for flushed := false; !flushed; {
		s.mu.Lock()
		wake := s.ackWake // taken before the acks are read, as in waitReplicated
		s.mu.Unlock()
		flushed = true
		now := s.cfg.Clock.Now()
		for _, fc := range conns {
			if acked, expires := fc.progress(s.cfg.LeaseInterval); acked < end && !now.After(expires) {
				flushed = false
			}
		}
		if !flushed {
			select {
			case <-wake:
			case <-bound.C:
				flushed = true // what is still short sees a crash
			}
		}
	}
	s.mu.Lock()
	if s.role != RoleLeader {
		s.mu.Unlock()
		return // deposed meanwhile: the new term has its own senders
	}
	s.role = RoleFollower
	s.leaderID = -1
	s.followers = nil
	s.wakeWaitersLocked()
	for _, fc := range conns {
		close(fc.resign)
	}
	epoch := s.leaderEpoch
	s.mu.Unlock()
	s.cfg.Logf("replica %d resigned at epoch %d (log seq %d)", s.cfg.ReplicaID, epoch, end)
	last := time.NewTimer(s.cfg.LeaseInterval / 4)
	defer last.Stop()
	for _, fc := range conns {
		select {
		case <-fc.done:
		case <-last.C:
			return
		}
	}
}

// handleControlStatus serves GET /v1/control/status.
// A stopped replica answers 503: it will not stand, its lease is over or
// being handed off, and its log is no candidate's.
func (s *Service) handleControlStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		writeErr(w, &SubmitError{Code: 503, Msg: "replica is stopping"})
		return
	}
	st := ctlStatus{
		Replica: s.cfg.ReplicaID,
		Role:    string(s.role),
		Epoch:   s.leaderEpoch,
		Seq:     s.log.Len(),
		Cycle:   s.st.Cycles,
		Head:    s.log.Head().String(),
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleReplogAppend serves POST /v1/replog/append: the leader's push
// channel, and a replica's only way to catch up. Records already in the log
// are acknowledged idempotently after a hash check; new records append (gaps
// rewind the sender) and apply to the in-memory replica, and a snapshot
// record that lands past the local log's next seq is installed in its place.
// An append from a stale epoch returns 409 with the current one; one from a
// newer epoch deposes a stale leader on the spot, unless it leads no group.
func (s *Service) handleReplogAppend(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxReplBody))
	var req replAppendReq
	if err == nil {
		req, err = decodePush(body)
	}
	if err != nil {
		writeErr(w, &SubmitError{Code: 400, Msg: "bad push: " + err.Error()})
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Epoch < s.leaderEpoch {
		writeJSON(w, http.StatusConflict, replAppendResp{Epoch: s.leaderEpoch})
		return
	}
	if s.role == RoleLeader {
		if s.cycleRec != nil {
			// Mid-cycle: state is between the top and the decision apply;
			// adopting a new leader's records now would double-apply the
			// cycle top. The sender retries after the cycle lands.
			writeJSON(w, http.StatusServiceUnavailable, replAppendResp{Busy: true})
			return
		}
		if len(s.cfg.Peers) > 0 { // without peers, no election would make it lead again
			s.deposeIfStaleLocked(req.Epoch, req.From)
			if s.role == RoleLeader && req.Epoch == s.leaderEpoch && req.From < s.cfg.ReplicaID {
				// Equal-epoch dueling leaders: the lower replica ID keeps the
				// term (see electionTick); accept its push as our new leader.
				s.stepDownLocked(req.Epoch, req.From)
			}
		}
		if s.role == RoleLeader {
			writeJSON(w, http.StatusConflict, replAppendResp{Epoch: s.leaderEpoch, Leader: true})
			return
		}
	}
	s.lastLeader = s.cfg.Clock.Now()
	s.leaderID = req.From
	if req.Epoch > s.leaderEpoch {
		s.leaderEpoch = req.Epoch
	}
	// A redelivered prefix (sender rewind) is acknowledged idempotently
	// after a hash check; everything past the local chain appends and
	// fsyncs as one group commit, then applies to the in-memory replica.
	// Records at or below this replica's own compaction base are subsumed
	// by its snapshot — acknowledged without a hash to check against.
	skip := 0
	for _, rec := range req.Records {
		if rec.Seq > s.log.Len() {
			break
		}
		if rec.Seq <= s.log.Base() {
			skip++
			continue
		}
		if have, ok := s.log.HashAt(rec.Seq); !ok || have != rec.Hash {
			s.ctl.Diverged++
			s.cfg.Logf("DIVERGED: push seq %d conflicts with local record", rec.Seq)
			writeJSON(w, http.StatusConflict, replAppendResp{Epoch: s.leaderEpoch, Acked: s.log.Len()})
			return
		}
		skip++
	}
	fresh := req.Records[skip:]
	if len(fresh) > 0 && fresh[0].Type == replog.TypeSnapshot && fresh[0].Seq > s.log.Len()+1 {
		// The leader compacted past everything this replica holds and pushed
		// the snapshot its log begins with: install it — state and log, or
		// neither — and append the rest of the batch behind it.
		if err := s.installSnapshotLocked(fresh[0], true); err != nil {
			s.ctl.Diverged++
			s.cfg.Logf("DIVERGED: snapshot install: %v", err)
			writeJSON(w, http.StatusConflict, replAppendResp{Epoch: s.leaderEpoch, Acked: s.log.Len()})
			return
		}
		s.ctl.SnapshotInstalls++
		fresh = fresh[1:]
	}
	n, err := s.log.AppendRecords(fresh)
	s.ctl.RecordsApplied += int64(n)
	for _, rec := range fresh[:n] {
		if aerr := s.applyRecordLocked(rec); aerr != nil {
			// The record is durable but unapplicable — a divergence, not a
			// transport error. Flag it loudly; the ack still advances so the
			// leader does not loop on it.
			s.ctl.Diverged++
			s.cfg.Logf("DIVERGED: apply seq %d: %v", rec.Seq, aerr)
		}
	}
	if err != nil {
		if ge, ok := err.(*replog.GapError); ok {
			writeJSON(w, http.StatusConflict, replAppendResp{Want: ge.Want, Acked: s.log.Len()})
			return
		}
		writeErr(w, fmt.Errorf("append records: %w", err))
		return
	}
	if req.Resign {
		// The leader has stopped, and this replica holds its whole log: no
		// lease to wait out, and an election tick now.
		s.lastLeader = time.Time{}
		s.leaderID = -1
		s.wakeElectionLocked()
	}
	writeJSON(w, http.StatusOK, replAppendResp{Acked: s.log.Len()})
}

// handleReplogGet serves GET /v1/replog: chain position, plus records on
// request (?from=N&limit=M) for debugging. A snapshot record's data is its
// binary payload in base64.
func (s *Service) handleReplogGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := map[string]any{
		"len":        s.log.Len(),
		"head":       s.log.Head(),
		"last_epoch": s.log.LastEpoch(),
	}
	q := r.URL.Query()
	if q.Get("from") != "" || q.Get("limit") != "" {
		from := parseUint(q.Get("from"), 0)
		limit := int(parseUint(q.Get("limit"), 64))
		if limit <= 0 || limit > 1024 {
			limit = 64
		}
		recs := s.log.Since(from, limit)
		for i := range recs {
			if recs[i].Type == replog.TypeSnapshot {
				// A snapshot payload is binary: it reads as a JSON string of
				// its bytes in base64, every other payload as itself.
				recs[i].Data, _ = json.Marshal([]byte(recs[i].Data))
			}
		}
		out["records"] = recs
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func parseUint(s string, def uint64) uint64 {
	if s == "" {
		return def
	}
	var v uint64
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return def
	}
	return v
}
