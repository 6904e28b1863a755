package replog

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func mustAppend(t testing.TB, l *Log, epoch uint64, typ string, cycle int64, data any) Record {
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
	if r1.Prev != (Hash{}) {
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

// TestCorruptBodyRejectedOnOpen: damage inside a record that other records
// follow is corruption, never a torn tail — Open fails and leaves the file
// byte for byte as it was, instead of truncating the records behind it. A
// log in the retired JSON framing, or behind a version 1 compaction header,
// is refused the same way, whatever follows it.
func TestCorruptBodyRejectedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decision.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for id := 1; id <= 3; id++ {
		recs = append(recs, mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": id}))
	}
	l.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := 4 + int(binary.BigEndian.Uint32(clean)) // the second record's offset
	hashAt := bytes.Index(clean, recs[0].Hash[:])
	if hashAt < 0 || hashAt+sha256.Size > first {
		t.Fatalf("the first frame does not hold its record's hash")
	}
	// The same records in the framing older builds wrote: length, JSON.
	var jsonFramed []byte
	for i := range recs {
		body, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		jsonFramed = binary.BigEndian.AppendUint32(jsonFramed, uint32(len(body)))
		jsonFramed = append(jsonFramed, body...)
	}
	oneJSON := jsonFramed[:4+binary.BigEndian.Uint32(jsonFramed)]
	// A compacted log, its header turned back to version 1.
	if l, err = Open(path); err != nil {
		t.Fatal(err)
	}
	snap := mustAppend(t, l, 1, TypeSnapshot, 1, map[string]string{"state": "everything"})
	if err := l.Compact(snap.Seq); err != nil {
		t.Fatal(err)
	}
	l.Close()
	compacted, err := os.ReadFile(path)
	if err != nil || !bytes.HasPrefix(compacted, headerMagic) {
		t.Fatalf("the compacted log has no header (%v)", err)
	}

	for _, c := range []struct {
		name   string
		damage func(raw []byte) []byte
	}{
		// The stored hash no longer matches.
		{"payload byte", func(raw []byte) []byte {
			raw[strings.Index(string(raw), `"id":1`)+5] = '9'
			return raw
		}},
		{"stored hash byte", func(raw []byte) []byte { raw[hashAt] ^= 1; return raw }},
		{"stored prev byte", func(raw []byte) []byte { raw[hashAt-1] ^= 1; return raw }},
		// The first record no longer parses.
		{"syntax-breaking flip", func(raw []byte) []byte { raw[4] = 'x'; return raw }}, // the frame version byte
		{"type length past the frame", func(raw []byte) []byte {
			raw[hashAt-sha256.Size-len(TypeAdmit)-1] = 0x7f
			return raw
		}},
		{"zero length", func(raw []byte) []byte { binary.BigEndian.PutUint32(raw, 0); return raw }},
		{"oversized length", func(raw []byte) []byte { binary.BigEndian.PutUint32(raw, MaxRecordBytes+1); return raw }},
		{"short length", func(raw []byte) []byte { binary.BigEndian.PutUint32(raw, uint32(first-5)); return raw }},
		// Retired encodings.
		{"JSON frames", func([]byte) []byte { return slices.Clone(jsonFramed) }},
		{"one JSON frame", func([]byte) []byte { return slices.Clone(oneJSON) }},
		{"compaction header version 1", func([]byte) []byte {
			raw := slices.Clone(compacted)
			raw[len(headerMagic)] = 1
			return raw
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			raw := c.damage(slices.Clone(clean))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if l, err := Open(path); err == nil {
				l.Close()
				t.Fatalf("opened without error: len=%d", l.Len())
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, raw) {
				t.Fatalf("the failed open changed the file: %d bytes, was %d (%v)", len(got), len(raw), err)
			}
		})
	}
}

// TestHashesHoldAcrossEncodings pins bodyHash on two chained records to
// the hex it gave when hashes were hex strings, and the JSON a record
// encodes to: a record's identity and its GET /v1/replog form do not depend
// on how the hash is held.
func TestHashesHoldAcrossEncodings(t *testing.T) {
	const (
		hex1 = "a3f410605a05ee0bd3bb739b0ede444dbfe77f9f694b8d2174ebee3b2bcde98e"
		hex2 = "cc4fd749e07d98e778b4e457ac5783684746239a3f4f75035bf0c67025c47c82"
	)
	h1 := bodyHash(Hash{}, 1, 1, TypeAdmit, 0, []byte(`{"job":{"ID":7}}`))
	h2 := bodyHash(h1, 2, 3, TypeCycle, -2, nil)
	if h1.String() != hex1 || h2.String() != hex2 {
		t.Fatalf("hashes moved: %s, %s", h1, h2)
	}
	raw, err := json.Marshal(Record{Seq: 2, Epoch: 3, Type: TypeCycle, Cycle: -2, Prev: h1, Hash: h2})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"seq":2,"epoch":3,"type":"cycle","cycle":-2,"prev":"` + hex1 + `","hash":"` + hex2 + `"}`; string(raw) != want {
		t.Fatalf("record JSON\n got  %s\n want %s", raw, want)
	}
}

// TestFramesRoundTrip: ParseFrames reads back exactly the records
// AppendFrames wrote, and those frames are the bytes the log file holds.
func TestFramesRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decision.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": 1})
	mustAppend(t, l, 1<<40, TypeCycle, -1<<33, nil)
	if _, err := l.AppendBatch(1<<40, TypeTrain, 3, [][]byte{[]byte(`[{"runtime":1}]`), nil}); err != nil {
		t.Fatal(err)
	}
	recs := l.Records()
	frames, err := AppendFrames(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, frames) {
		t.Fatalf("the log file is not its records' frames (%v)", err)
	}
	back, err := ParseFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, recs) {
		t.Fatalf("frames parse back as\n%+v\nwant\n%+v", back, recs)
	}
	for _, cut := range []int{1, 3, len(frames) - 1} {
		if _, err := ParseFrames(frames[:cut]); err == nil {
			t.Errorf("frames cut to %d bytes parsed", cut)
		}
	}
}

// TestFramingNeverEntersAHash: a log on disk and one in memory fed the same
// appends — plain and batched, replicated, empty and with payloads — have
// the same head, and the disk log re-opens to it: the frame is how a record
// is stored, never part of what it is.
func TestFramingNeverEntersAHash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decision.log")
	disk, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []*Log{disk, mem} {
		mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": 1})
		if _, err := l.AppendBatch(2, TypeTrain, -7, [][]byte{[]byte(`{"runtime":1.5}`), []byte("null")}); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, l, 1<<40, TypeCycle, 1<<33, map[string]string{"pad": strings.Repeat("x", 300)})
	}
	// A replicated record with no payload at all, chained on the same head.
	rec := Record{Seq: 5, Epoch: 1 << 40, Type: TypeElect, Cycle: 9, Prev: mem.Head()}
	rec.Hash = bodyHash(rec.Prev, rec.Seq, rec.Epoch, rec.Type, rec.Cycle, rec.Data)
	for _, l := range []*Log{disk, mem} {
		if err := l.AppendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if disk.Head() != mem.Head() || disk.Len() != mem.Len() {
		t.Fatalf("disk log at %d (%.8s), memory log at %d (%.8s)", disk.Len(), disk.Head(), mem.Len(), mem.Head())
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Head() != mem.Head() || again.Len() != mem.Len() {
		t.Fatalf("re-opened disk log at %d (%.8s), memory log at %d (%.8s)", again.Len(), again.Head(), mem.Len(), mem.Head())
	}
	if got, want := again.Records(), mem.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-opened records differ:\n got  %+v\n want %+v", got, want)
	}
}

// TestZeroFilledTailTruncatedOnOpen: a file system can extend a log with
// zeros it never wrote. Zeros after the last record, and a record whose body
// is cut short by them, are a torn tail: Open truncates them away.
func TestZeroFilledTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decision.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": 1})
	keep := l.Head()
	mustAppend(t, l, 1, TypeAdmit, 0, map[string]string{"pad": strings.Repeat("x", 100)})
	l.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second := 4 + int(binary.BigEndian.Uint32(clean))
	for _, c := range []struct {
		name string
		raw  []byte
		len  uint64
	}{
		{"zeros after the log", append(slices.Clone(clean), make([]byte, 300)...), 2},
		{"zeros over a body", append(slices.Clone(clean[:second+40]), make([]byte, len(clean)-second-40+300)...), 1},
	} {
		if err := os.WriteFile(path, c.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		lt, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if lt.Len() != c.len || (c.len == 1 && lt.Head() != keep) {
			t.Errorf("%s: len=%d, want %d", c.name, lt.Len(), c.len)
		}
		lt.Close()
		if fi, err := os.Stat(path); err != nil || fi.Size() >= int64(len(c.raw)) {
			t.Errorf("%s: the tail was not truncated", c.name)
		}
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
	if got := l2.Committed()[0]; got.Seq != snap.Seq || got.Hash != snap.Hash || got.Type != TypeSnapshot {
		t.Fatalf("reopened compacted log begins with %+v, want snapshot seq %d", got, snap.Seq)
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
// holding a stale prefix) resets to hold exactly the pushed snapshot and
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

// TestClosedFileLogRefusesWrites: once a file-backed log is closed, every
// write errors and leaves the log and its file as they were, instead of
// reporting success for a record no file holds.
func TestClosedFileLogRefusesWrites(t *testing.T) {
	donor, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	first := mustAppend(t, donor, 1, TypeAdmit, 0, map[string]int{"id": 1})
	anchor := mustAppend(t, donor, 1, TypeSnapshot, 0, map[string]string{"state": "early"})
	next := mustAppend(t, donor, 1, TypeCycle, 1, nil)
	snap := mustAppend(t, donor, 1, TypeSnapshot, 1, map[string]string{"state": "full"})

	path := filepath.Join(t.TempDir(), "closed.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendRecords([]Record{first, anchor}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		write func() error
	}{
		{"Append", func() error { _, err := l.Append(1, TypeCycle, 1, nil); return err }},
		{"AppendBatch", func() error {
			_, err := l.AppendBatch(1, TypeAdmit, 1, [][]byte{[]byte(`{"id":2}`)})
			return err
		}},
		{"AppendRecords", func() error { _, err := l.AppendRecords([]Record{next}); return err }},
		{"InstallSnapshot", func() error { return l.InstallSnapshot(snap) }},
		{"Compact", func() error { return l.Compact(anchor.Seq) }},
	} {
		name, write := tc.name, tc.write
		if err := write(); err == nil {
			t.Errorf("%s on a closed log reported success", name)
		}
		if l.Len() != 2 || l.Base() != 0 || l.Head() != anchor.Hash {
			t.Fatalf("after %s: len %d base %d head %.8s, want 2, 0 and %.8s", name, l.Len(), l.Base(), l.Head(), anchor.Hash)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, raw) {
			t.Fatalf("%s on a closed log changed its file", name)
		}
	}
	if left, _ := filepath.Glob(path + ".compact*"); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestForget: an in-memory log that forgets keeps its last record, and with
// it Len, Head, LastEpoch and the chain; reads below that record come back
// empty. A file-backed log refuses.
func TestForget(t *testing.T) {
	l, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": i})
	}
	last := mustAppend(t, l, 2, TypeCycle, 1, nil)
	for i := 0; i < 2; i++ { // the second call finds nothing to drop
		if err := l.Forget(); err != nil {
			t.Fatal(err)
		}
		if l.Len() != 5 || l.Head() != last.Hash || l.LastEpoch() != 2 {
			t.Fatalf("call %d: len %d head %.8s epoch %d, want 5 %.8s 2", i+1, l.Len(), l.Head(), l.LastEpoch(), last.Hash)
		}
		if recs := l.Records(); len(recs) != 1 || recs[0].Hash != last.Hash {
			t.Fatalf("call %d: holds %d records, want the last one only", i+1, len(recs))
		}
	}
	if recs := l.Since(2, 0); recs != nil {
		t.Fatalf("Since below the kept record returned %d records", len(recs))
	}
	if _, ok := l.HashAt(4); ok {
		t.Fatal("HashAt found a forgotten record")
	}
	if h, ok := l.HashAt(5); !ok || h != last.Hash {
		t.Fatal("HashAt lost the kept record")
	}
	if next := mustAppend(t, l, 2, TypeAdmit, 1, nil); next.Prev != last.Hash || next.Seq != 6 {
		t.Fatalf("append after Forget: seq %d prev %.8s, want 6 %.8s", next.Seq, next.Prev, last.Hash)
	}

	f, err := Open(filepath.Join(t.TempDir(), "kept.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mustAppend(t, f, 1, TypeAdmit, 0, nil)
	mustAppend(t, f, 1, TypeCycle, 1, nil)
	if err := f.Forget(); err == nil {
		t.Fatal("a file-backed log forgot its records")
	}
	if recs := f.Records(); len(recs) != 2 || f.Base() != 0 {
		t.Fatalf("a refused Forget left %d records at base %d, want 2 at 0", len(recs), f.Base())
	}
}

// TestSinceDeepCopies is the aliasing regression: records returned by
// Since/Records carry their own Data bytes. Before the fix the
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
}

// TestCommittedViewStaysPut: the uncopied view bootstrap replay reads holds
// the records it was taken with through later appends, a compaction and a
// snapshot install, on disk and in memory.
func TestCommittedViewStaysPut(t *testing.T) {
	for _, tc := range []struct{ name, path string }{
		{"disk", filepath.Join(t.TempDir(), "v.log")},
		{"memory", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := Open(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": 1})
			mustAppend(t, l, 1, TypeSnapshot, 0, map[string]int{"s": 1})
			mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": 2})
			view, want := l.Committed(), l.Records()
			for i := 3; i < 40; i++ {
				mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": i})
			}
			if err := l.Compact(2); err != nil {
				t.Fatal(err)
			}
			donor, err := Open("")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				mustAppend(t, donor, 1, TypeAdmit, 0, map[string]int{"id": -i})
			}
			snap := mustAppend(t, donor, 1, TypeSnapshot, 0, map[string]int{"s": 2})
			if err := l.InstallSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			mustAppend(t, l, 1, TypeAdmit, 0, map[string]int{"id": 99})
			if !reflect.DeepEqual(view, want) {
				t.Fatalf("the committed view moved:\n got  %+v\n want %+v", view, want)
			}
		})
	}
}

// FuzzReplogOpen writes arbitrary bytes as a log file and opens it: Open
// never panics; an Open that fails leaves the file's bytes as they were; a
// log that opens re-opens at the same Len, Base and Head; and one Append
// to it re-opens one record longer.
func FuzzReplogOpen(f *testing.F) {
	plain := filepath.Join(f.TempDir(), "plain.log")
	l, err := Open(plain)
	if err != nil {
		f.Fatal(err)
	}
	mustAppend(f, l, 1, TypeAdmit, 0, map[string]int{"id": 1})
	snap := mustAppend(f, l, 1, TypeSnapshot, 1, map[string]string{"state": "everything"})
	mustAppend(f, l, 1, TypeCycle, 1, nil)
	l.Close()
	raw, err := os.ReadFile(plain)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	if l, err = Open(plain); err != nil {
		f.Fatal(err)
	}
	if err := l.Compact(snap.Seq); err != nil {
		f.Fatal(err)
	}
	l.Close()
	compacted, err := os.ReadFile(plain)
	if err != nil || !bytes.HasPrefix(compacted, headerMagic) {
		f.Fatalf("the compacted log has no header (%v)", err)
	}
	f.Add(compacted)
	f.Add(compacted[:headerSize])
	f.Add(compacted[:headerSize-8])

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "decision.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, data) {
				t.Fatalf("a failed open (%v) changed the file: %d bytes, was %d", err, len(got), len(data))
			}
			return
		}
		n, base, head := l.Len(), l.Base(), l.Head()
		l.Close()
		reopen := func() *Log {
			t.Helper()
			l, err := Open(path)
			if err != nil {
				t.Fatalf("re-open: %v", err)
			}
			return l
		}
		l = reopen()
		if l.Len() != n || l.Base() != base || l.Head() != head {
			t.Fatalf("re-open: len %d base %d head %.8s, was %d %d %.8s", l.Len(), l.Base(), l.Head(), n, base, head)
		}
		if _, err := l.Append(l.LastEpoch(), TypeAdmit, 0, map[string]int{"id": 1}); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l = reopen()
		defer l.Close()
		if l.Len() != n+1 {
			t.Fatalf("after one append: len %d, want %d", l.Len(), n+1)
		}
	})
}
