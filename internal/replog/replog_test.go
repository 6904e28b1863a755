package replog

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustAppend(t *testing.T, l *Log, epoch uint64, typ string, cycle int64, data any) Record {
	t.Helper()
	rec, err := l.Append(epoch, typ, cycle, data)
	if err != nil {
		t.Fatalf("append %s: %v", typ, err)
	}
	return rec
}

func TestAppendChainsAndReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decision.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": 7})
	r2 := mustAppend(t, l, 1, TypeCycle, 1, map[string]int{"k": 1})
	r3 := mustAppend(t, l, 2, TypeElect, 1, map[string]int{"leader": 1})
	if r1.Prev != genesisHash {
		t.Fatalf("first record prev = %s, want genesis", r1.Prev)
	}
	if r2.Prev != r1.Hash || r3.Prev != r2.Hash {
		t.Fatal("records are not hash-chained")
	}
	if l.Len() != 3 || l.Head() != r3.Hash || l.LastEpoch() != 2 {
		t.Fatalf("log state: len=%d head=%.8s epoch=%d", l.Len(), l.Head(), l.LastEpoch())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the chain must verify and reload byte-identically.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := l2.Records()
	if len(recs) != 3 {
		t.Fatalf("reopened log has %d records, want 3", len(recs))
	}
	for i, want := range []Record{r1, r2, r3} {
		got := recs[i]
		if got.Seq != want.Seq || got.Hash != want.Hash || got.Type != want.Type ||
			got.Epoch != want.Epoch || string(got.Data) != string(want.Data) {
			t.Fatalf("record %d differs after reopen:\n got %+v\nwant %+v", i+1, got, want)
		}
	}
	// And appends keep extending the same chain.
	r4 := mustAppend(t, l2, 2, TypeCycle, 2, nil)
	if r4.Prev != r3.Hash || r4.Seq != 4 {
		t.Fatalf("post-reopen append broke the chain: %+v", r4)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decision.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": 1})
	r2 := mustAppend(t, l, 1, TypeCycle, 1, map[string]string{"pad": strings.Repeat("x", 200)})
	l.Close()

	// Simulate a crash mid-append: chop bytes off the tail.
	for _, chop := range []int64{1, 50, 150} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-chop); err != nil {
			t.Fatal(err)
		}
		lt, err := Open(path)
		if err != nil {
			t.Fatalf("open with %d-byte torn tail: %v", chop, err)
		}
		if lt.Len() != 1 {
			t.Fatalf("torn tail (chop %d): len=%d, want 1", chop, lt.Len())
		}
		// The truncated log must accept a fresh record at seq 2.
		nr := mustAppend(t, lt, 1, TypeCycle, 1, nil)
		if nr.Seq != 2 {
			t.Fatalf("append after truncation: seq=%d, want 2", nr.Seq)
		}
		lt.Close()
		// Restore the original bytes for the next chop size.
		rebuild(t, path, r2)
	}
}

// rebuild rewrites the two-record log for the next torn-tail iteration.
func rebuild(t *testing.T, path string, r2 Record) {
	t.Helper()
	os.Remove(path)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": 1})
	mustAppend(t, l, 1, TypeCycle, 1, map[string]string{"pad": strings.Repeat("x", 200)})
	if l.Head() != r2.Hash {
		t.Fatal("rebuild produced a different chain")
	}
	l.Close()
}

func TestCorruptBodyRejectedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decision.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": 1})
	mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": 2})
	l.Close()

	// Flip a payload byte inside the first record: the stored hash no
	// longer matches, which must surface as corruption, not a torn tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(raw), `"id":1`)
	if i < 0 {
		t.Fatal("payload not found")
	}
	raw[i+5] = '9'
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("corrupted record body opened without error")
	}
}

func TestAppendRecordReplication(t *testing.T) {
	leader, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	follower, err := Open(filepath.Join(t.TempDir(), "follower.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	r1 := mustAppend(t, leader, 1, TypeAdmit, 0, map[string]int{"id": 1})
	r2 := mustAppend(t, leader, 1, TypeCycle, 1, nil)
	r3 := mustAppend(t, leader, 1, TypeCycle, 2, nil)

	// Out-of-order replication reports a gap with the wanted seq.
	err = follower.AppendRecord(r2)
	ge, ok := err.(*GapError)
	if !ok || ge.Want != 1 {
		t.Fatalf("gap append: err=%v, want GapError{Want:1}", err)
	}
	for _, r := range []Record{r1, r2, r3} {
		if err := follower.AppendRecord(r); err != nil {
			t.Fatalf("replicate %d: %v", r.Seq, err)
		}
	}
	if follower.Head() != leader.Head() {
		t.Fatal("replicated chain diverged from leader")
	}

	// A tampered record is rejected.
	bad := r3
	bad.Seq = 4
	bad.Prev = r3.Hash
	bad.Cycle = 99 // hash no longer covers the body
	if err := follower.AppendRecord(bad); err == nil {
		t.Fatal("tampered record accepted")
	}

	// A deposed leader's epoch regression is rejected.
	mustAppend(t, leader, 3, TypeElect, 2, map[string]int{"leader": 2})
	if err := follower.AppendRecord(leader.Since(3, 1)[0]); err != nil {
		t.Fatal(err)
	}
	stale := Record{Seq: 5, Epoch: 2, Type: TypeCycle, Cycle: 3, Prev: follower.Head()}
	stale.Hash = bodyHash(stale.Prev, stale.Seq, stale.Epoch, stale.Type, stale.Cycle, stale.Data)
	if err := follower.AppendRecord(stale); err == nil {
		t.Fatal("epoch-regressed record accepted")
	}
}

func TestSince(t *testing.T) {
	l, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, TypeAdmit, 0, nil)
	mustAppend(t, l, 1, TypeTrain, 1, json.RawMessage(`{"runtime":1}`))
	mustAppend(t, l, 1, TypeCycle, 2, nil)

	if got := l.Since(1, 0); len(got) != 2 || got[0].Seq != 2 {
		t.Fatalf("Since(1) = %+v", got)
	}
	if got := l.Since(3, 0); got != nil {
		t.Fatalf("Since(at head) = %+v, want nil", got)
	}
	if got := l.Since(0, 2); len(got) != 2 {
		t.Fatalf("Since with limit returned %d records", len(got))
	}
}

// failingFile wraps the log's backing file and fails after writing a
// partial prefix of one batch, simulating a full disk or I/O error
// mid-group-commit.
type failingFile struct {
	logFile
	failWrites bool
	failSyncs  bool
	partial    int // bytes of each write that land before the error
}

func (f *failingFile) Write(p []byte) (int, error) {
	if !f.failWrites {
		return f.logFile.Write(p)
	}
	n := f.partial
	if n > len(p) {
		n = len(p)
	}
	if n > 0 {
		if _, err := f.logFile.Write(p[:n]); err != nil {
			return 0, err
		}
	}
	return n, errInjected
}

func (f *failingFile) Sync() error {
	if f.failSyncs {
		return errInjected
	}
	return f.logFile.Sync()
}

var errInjected = errors.New("injected I/O failure")

// TestPersistFailureRollsBack is the durability-divergence regression: a
// failed group commit must truncate the file back to the pre-batch offset.
// Before the fix the partial frame stayed on disk between two committed
// records, so the next successful append interleaved with the garbage and
// the file failed chain verification on reopen — the in-memory log and the
// disk log silently diverged until the restart that found out.
func TestPersistFailureRollsBack(t *testing.T) {
	for _, mode := range []string{"write", "sync"} {
		t.Run(mode, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "decision.log")
			l, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			r1 := mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": 1})

			l.mu.Lock()
			ff := &failingFile{logFile: l.f, partial: 20}
			if mode == "write" {
				ff.failWrites = true
			} else {
				ff.failSyncs = true
			}
			l.f = ff
			l.mu.Unlock()

			if _, err := l.Append(1, TypeCycle, 1, map[string]string{"pad": strings.Repeat("y", 100)}); err == nil {
				t.Fatal("append through a failing file reported success")
			}
			if l.Len() != 1 || l.Head() != r1.Hash {
				t.Fatalf("failed append mutated the chain: len=%d", l.Len())
			}

			// Heal the file and append again: the committed bytes must form
			// one clean chain with no garbage interleaved.
			l.mu.Lock()
			l.f = ff.logFile
			l.mu.Unlock()
			r2 := mustAppend(t, l, 1, TypeCycle, 1, map[string]int{"k": 1})
			if r2.Seq != 2 || r2.Prev != r1.Hash {
				t.Fatalf("post-heal append broke the chain: %+v", r2)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(path)
			if err != nil {
				t.Fatalf("reopen after rolled-back failure: %v", err)
			}
			defer l2.Close()
			if l2.Len() != 2 || l2.Head() != r2.Hash {
				t.Fatalf("reopened log lost the post-failure append: len=%d head=%.8s want len=2 head=%.8s",
					l2.Len(), l2.Head(), r2.Hash)
			}
		})
	}
}

// TestCompactRoundTrip covers the compaction format end to end: compact at
// a snapshot record, keep appending, reopen, and the dense-from-base chain
// must verify with Len/Base/Head preserved and the dropped prefix gone.
func TestCompactRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decision.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": 1})
	mustAppend(t, l, 1, TypeCycle, 1, nil)
	snap := mustAppend(t, l, 1, TypeSnapshot, 1, map[string]string{"state": "everything"})
	r4 := mustAppend(t, l, 1, TypeCycle, 2, nil)

	// Compacting at a non-snapshot record is refused.
	if err := l.Compact(r4.Seq); err == nil {
		t.Fatal("compacted at a cycle record")
	}
	if err := l.Compact(snap.Seq); err != nil {
		t.Fatal(err)
	}
	if l.Base() != snap.Seq-1 || l.Len() != 4 || l.Head() != r4.Hash {
		t.Fatalf("post-compact: base=%d len=%d, want base=%d len=4", l.Base(), l.Len(), snap.Seq-1)
	}
	// Compacting again at the same point is a no-op.
	if err := l.Compact(snap.Seq); err != nil {
		t.Fatal(err)
	}
	// The dropped prefix is unreadable; the retained suffix reads normally.
	if got := l.Since(0, 0); got != nil {
		t.Fatalf("Since(0) on compacted log = %+v, want nil", got)
	}
	if got := l.Since(snap.Seq-1, 0); len(got) != 2 || got[0].Seq != snap.Seq {
		t.Fatalf("Since(base) = %+v", got)
	}
	r5 := mustAppend(t, l, 1, TypeCycle, 3, nil)
	if r5.Seq != 5 || r5.Prev != r4.Hash {
		t.Fatalf("post-compact append: %+v", r5)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen compacted log: %v", err)
	}
	defer l2.Close()
	if l2.Base() != snap.Seq-1 || l2.Len() != 5 || l2.Head() != r5.Hash {
		t.Fatalf("reopened compacted log: base=%d len=%d head=%.8s, want %d/5/%.8s",
			l2.Base(), l2.Len(), l2.Head(), snap.Seq-1, r5.Hash)
	}
	got, ok := l2.LastSnapshot()
	if !ok || got.Seq != snap.Seq || got.Hash != snap.Hash {
		t.Fatalf("LastSnapshot after reopen = %+v ok=%v", got, ok)
	}
	// And the torn-tail discipline survives compaction: chop the tail and
	// the log reopens at the snapshot chain minus the torn record.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := Open(path)
	if err != nil {
		t.Fatalf("reopen compacted log with torn tail: %v", err)
	}
	defer l3.Close()
	if l3.Len() != 4 || l3.Base() != snap.Seq-1 {
		t.Fatalf("torn compacted log: len=%d base=%d, want 4/%d", l3.Len(), l3.Base(), snap.Seq-1)
	}
}

// TestCompactRunsBesideAppends: Compact writes the replacement file without
// the log's lock, so appends land in the old file meanwhile; they must all
// be in the new one when it is swapped in. Appenders and compactions run
// against each other (a large snapshot payload keeps the rewrite slow enough
// to overlap), then the file must reopen to exactly the chain the live log
// ended with.
func TestCompactRunsBesideAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decision.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const rounds, perRound = 4, 40
	state := map[string]string{"state": strings.Repeat("s", 1<<20)}
	for r := 0; r < rounds; r++ {
		snap := mustAppend(t, l, 1, TypeSnapshot, int64(r), state)
		done := make(chan error, 1)
		go func() {
			for i := 0; i < perRound; i++ {
				if _, err := l.Append(1, TypeAdmit, int64(r), map[string]int{"id": r*perRound + i}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		if err := l.Compact(snap.Seq); err != nil {
			t.Fatal(err)
		}
		if l.Base() != snap.Seq-1 {
			t.Fatalf("round %d: base %d after compacting to %d", r, l.Base(), snap.Seq)
		}
		if err := <-done; err != nil {
			t.Fatalf("append beside a compaction: %v", err)
		}
	}
	want, head, base := l.Len(), l.Head(), l.Base()
	if want != rounds*(perRound+1) {
		t.Fatalf("log length %d, want %d", want, rounds*(perRound+1))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.Len() != want || l2.Head() != head || l2.Base() != base {
		t.Fatalf("reopened log: len=%d base=%d head=%.8s, the live log ended at %d/%d/%.8s",
			l2.Len(), l2.Base(), l2.Head(), want, base, head)
	}
	if left, _ := filepath.Glob(path + ".compact*"); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestInstallSnapshot covers the far-behind-standby path: a log (empty or
// holding a stale prefix) resets to hold exactly the fetched snapshot and
// then accepts the leader's suffix records.
func TestInstallSnapshot(t *testing.T) {
	leader, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustAppend(t, leader, 1, TypeCycle, int64(i), nil)
	}
	snap := mustAppend(t, leader, 1, TypeSnapshot, 3, map[string]string{"state": "full"})
	after := mustAppend(t, leader, 1, TypeCycle, 4, nil)

	standby, err := Open(filepath.Join(t.TempDir(), "standby.log"))
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, standby, 1, TypeCycle, 0, nil) // stale prefix, overtaken long ago

	// A non-snapshot record and a tampered snapshot are refused.
	if err := standby.InstallSnapshot(after); err == nil {
		t.Fatal("installed a cycle record as a snapshot")
	}
	bad := snap
	bad.Cycle = 99
	if err := standby.InstallSnapshot(bad); err == nil {
		t.Fatal("installed a tampered snapshot")
	}

	if err := standby.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if standby.Len() != snap.Seq || standby.Base() != snap.Seq-1 || standby.Head() != snap.Hash {
		t.Fatalf("post-install: len=%d base=%d", standby.Len(), standby.Base())
	}
	// A re-install of the same (or an older) snapshot does not regress.
	if err := standby.InstallSnapshot(snap); err == nil {
		t.Fatal("re-installed a non-advancing snapshot")
	}
	if err := standby.AppendRecord(after); err != nil {
		t.Fatalf("suffix after install: %v", err)
	}
	if standby.Head() != leader.Head() {
		t.Fatal("installed chain diverged from leader")
	}
	standby.Close()
}

// TestSinceDeepCopies is the aliasing regression: records returned by
// Since/Records/LastSnapshot carry their own Data bytes. Before the fix the
// RawMessage aliased the log's live backing array, so a caller (the
// replication sender encoding on another goroutine) could observe payload
// bytes mutated underneath it.
func TestSinceDeepCopies(t *testing.T) {
	l, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": 7})
	mustAppend(t, l, 1, TypeSnapshot, 0, map[string]int{"s": 1})

	for _, tc := range []struct {
		name string
		recs []Record
	}{
		{"Since", l.Since(0, 0)},
		{"Records", l.Records()},
	} {
		name, recs := tc.name, tc.recs
		if len(recs) != 2 {
			t.Fatalf("%s returned %d records", name, len(recs))
		}
		orig := string(recs[0].Data)
		for i := range recs[0].Data {
			recs[0].Data[i] = 'x'
		}
		if got := string(l.Records()[0].Data); got != orig {
			t.Fatalf("mutating a %s result corrupted the log: %q", name, got)
		}
	}
	snap, ok := l.LastSnapshot()
	if !ok {
		t.Fatal("no snapshot")
	}
	orig := string(snap.Data)
	for i := range snap.Data {
		snap.Data[i] = 'x'
	}
	if again, _ := l.LastSnapshot(); string(again.Data) != orig {
		t.Fatalf("mutating a LastSnapshot result corrupted the log: %q", again.Data)
	}
}
