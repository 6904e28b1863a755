// Package replog is the control plane's replicated decision log
// (DESIGN.md §14): an append-only sequence of hash-chained records holding
// every scheduler input that matters for deterministic replay — admissions,
// train feeds, operator node ops, cycle decisions with their agent state
// deltas, full-state snapshots, and leader elections.
//
// On disk a log is a stream of length-prefixed binary frames (4-byte
// big-endian length, then a fixed header and the record's payload bytes),
// each record carrying the sha256 of its predecessor plus its own sha256
// over (prev || body), so a record cannot be altered, dropped, or reordered
// without breaking every hash that follows. Appends are fsync'd before they
// are acknowledged; a torn tail left by a crash mid-write is detected and
// truncated on open. Records cross the network in the same frames
// (AppendFrames, ParseFrames), so a frame is a record's one serialized
// form; the hash covers the record's fields, not the frame.
//
// A log may be compacted: records at or below a full-state snapshot record
// are dropped and replaced by a fixed-size header persisting the base
// sequence number and the hash the first retained record chains from.
// Sequence numbers stay dense from the base — recs[i].Seq == Base()+i+1 —
// so replication cursors and gap detection are unchanged; readers that fall
// below the base must install the snapshot instead of streaming.
//
// The leader serverd owns the authoritative log; followers mirror it
// byte-for-byte (the chain makes divergence detectable at the first bad
// record) and apply records to their warm-standby state machines. A record
// is identified by Seq (dense, 1-based) and fenced by Epoch: followers
// reject appends whose epoch regresses below the highest they have seen,
// which is what makes a deposed leader's writes harmless.
package replog

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"threesigma/internal/binenc"
)

// Record types. The apply semantics live in internal/service; replog only
// cares that every record is attributable and chained.
const (
	// TypeAdmit carries one submitted job (an external input; replicated
	// synchronously before the submission is acknowledged to the client).
	TypeAdmit = "admit"
	// TypeTrain carries a batch of predictor history records fed through
	// /v1/train (external input): a JSON array, one record per feed unless
	// the feed outgrows MaxRecordBytes.
	TypeTrain = "train"
	// TypeCancel carries a job cancellation (external input).
	TypeCancel = "cancel"
	// TypeNodeOp carries an operator node-lifecycle action
	// (fail/recover/drain/resize; external input).
	TypeNodeOp = "nodeop"
	// TypeCycle carries one scheduling cycle: logical time, admitted job
	// IDs, applied completions/crashes (the agent state delta), chaos
	// events, decisions (preempts, starts with run IDs and due times), and
	// abandonments. Cycle records are derived state — a lost tail cycle is
	// recomputed identically by the next leader.
	TypeCycle = "cycle"
	// TypeSnapshot carries the full serialized service state (engine,
	// scheduler, predictor, admission queue, deferred inputs) at this point
	// in the log. Replay starts at the most recent snapshot instead of
	// genesis, and the log may be compacted up to it.
	TypeSnapshot = "snap"
	// TypeElect records a leader election: the winning replica and the
	// bumped epoch. Every record that follows carries the new epoch.
	TypeElect = "elect"
)

// Record is one entry of the decision log. It is stored and replicated as
// a frame (AppendFrames); its JSON form, hashes in hex, is for reading only
// (GET /v1/replog).
type Record struct {
	// Seq is the record's 1-based position; the log is dense (no gaps)
	// from the compaction base upward.
	Seq uint64 `json:"seq"`
	// Epoch is the leader epoch under which the record was written.
	Epoch uint64 `json:"epoch"`
	// Type is one of the Type* constants.
	Type string `json:"type"`
	// Cycle is the scheduling cycle the record belongs to (0 for inputs
	// logged between cycles; they apply at the next cycle boundary).
	Cycle int64 `json:"cycle,omitempty"`
	// Data is the type-specific payload.
	Data json.RawMessage `json:"data,omitempty"`
	// Prev is the hash of the previous record (the zero Hash for the first
	// record).
	Prev Hash `json:"prev"`
	// Hash is the sha256 over Prev and the record's own body; it seals the
	// chain up to and including this record.
	Hash Hash `json:"hash"`
}

// Hash is a record's sha256. The zero Hash anchors the chain: it is the
// first record's Prev. It prints, and encodes as JSON, in lowercase hex.
type Hash [sha256.Size]byte

func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// MarshalText encodes h as lowercase hex.
func (h Hash) MarshalText() ([]byte, error) { return hex.AppendEncode(nil, h[:]), nil }

// Compaction header layout: magic, one version byte, the 8-byte big-endian
// base sequence (records 1..base are compacted away), and the raw 32-byte
// hash of record base (the Prev the first retained record chains from).
// The magic reads as a ~860 MB length prefix — far beyond MaxRecordBytes —
// so it can never collide with an uncompacted log's first record. Version 1
// fronted JSON frames; this build writes and reads version 2 only.
var headerMagic = []byte("3SRL")

const (
	headerVersion = 2
	headerSize    = 4 + 1 + 8 + sha256.Size
)

// A frame is a 4-byte big-endian length and a body of that many bytes:
//
//	version byte 2
//	seq uvarint, epoch uvarint, cycle zig-zag varint
//	type (uvarint length, bytes)
//	prev, hash (the raw 32 bytes each)
//	data (the rest of the body)
//
// A JSON-framed record, which older builds wrote, opens with '{' where the
// version byte stands, and is refused by name.
const frameVersion = 2

// errJSONFrame reports a record in the retired encoding.
var errJSONFrame = errors.New("replog: JSON-framed record, written by an older build; this build reads binary frames only")

// bodyHash computes the record's chained hash from its identifying fields:
// the sha256 of prevhex|seq|epoch|type|cycle| and the payload. The hash
// covers this canonical field serialization, never an encoding of the
// record, so no framing can change a record's identity.
func bodyHash(prev Hash, seq, epoch uint64, typ string, cycle int64, data []byte) Hash {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|%s|%d|", prev, seq, epoch, typ, cycle)
	h.Write(data)
	return Hash(h.Sum(nil))
}

// Verify checks the record's hash against prev. It returns nil when the
// record extends the chain ending in prev.
func (r *Record) Verify(prev Hash) error {
	if r.Prev != prev {
		return fmt.Errorf("replog: record %d prev hash mismatch (chain has %.8s, record says %.8s)", r.Seq, prev, r.Prev)
	}
	if want := bodyHash(r.Prev, r.Seq, r.Epoch, r.Type, r.Cycle, r.Data); r.Hash != want {
		return fmt.Errorf("replog: record %d body hash mismatch", r.Seq)
	}
	return nil
}

// logFile is the backing-file surface the log uses; *os.File satisfies it.
// The seam exists so tests can inject write/fsync failures and exercise the
// persist rollback path.
type logFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// Log is a decision log, file-backed or in memory. Safe for concurrent use.
type Log struct {
	path string // backing file path ("" for an in-memory log)

	// cmu serializes Compact calls, which drop mu while they write the
	// replacement file. Taken before mu, never under it.
	cmu sync.Mutex

	mu   sync.Mutex
	f    logFile  // guarded by mu; nil for an in-memory log and after Close
	size int64    // guarded by mu; end offset of the last durable record
	base uint64   // guarded by mu; highest compacted-away sequence number
	recs []Record // guarded by mu; retained chain, recs[i].Seq == base+i+1
	head Hash     // guarded by mu; hash of the last record (zero when empty)
}

// Open opens (or creates) the log at path, verifying the existing chain.
// A torn final record — a crash mid-append — is truncated away; any other
// corruption is an error, and leaves the file as it was. An empty path
// opens an in-memory log: a follower's or a test's, or the one a service
// opens for itself when it is given none.
func Open(path string) (*Log, error) {
	l := &Log{path: path}
	if path == "" {
		return l, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	var good int64
	if err == nil {
		good, err = l.loadLocked(data) //lint:allow lockedcall fresh Log: no other goroutine can hold it yet
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop a torn tail so the next append extends a clean chain.
	if int64(len(data)) > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("replog: truncate torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	//lint:allow guardedfield Open owns the fresh Log exclusively until it returns
	l.f = f
	//lint:allow guardedfield Open owns the fresh Log exclusively until it returns
	l.size = good
	return l, nil
}

// loadLocked reads and verifies the records in data, a log file's bytes,
// returning the offset of the end of the last complete, chain-valid record.
// A frame that ends with the file (a short length prefix or body) is a torn
// tail. A zero length is one only when nothing but zero bytes follows it,
// and so is a frame that does not parse, is out of sequence or fails chain
// verification, when in addition its body ends in a zero byte — the zeros a
// file system may leave where a crash cut a write short (tornTail). Any
// other such frame, an oversized length and a JSON frame are corruption. A
// compacted log begins with a fixed-size header naming the base sequence
// and the hash the chain resumes from. The records' Data alias data.
func (l *Log) loadLocked(data []byte) (good int64, err error) {
	rest := data
	if bytes.HasPrefix(rest, headerMagic) {
		if len(rest) < headerSize {
			// Headers are only ever written via atomic rename; a short
			// one is corruption, not a torn tail.
			return 0, fmt.Errorf("replog: short compaction header (%d of %d bytes)", len(rest), headerSize)
		}
		if rest[4] != headerVersion {
			return 0, fmt.Errorf("replog: unsupported compaction header version %d (this build reads %d)", rest[4], headerVersion)
		}
		l.base = binary.BigEndian.Uint64(rest[5:13])
		l.head = Hash(rest[13:headerSize])
		rest = rest[headerSize:]
		good = headerSize
	}
	for len(rest) > 0 {
		body, next, err := splitFrame(rest)
		switch {
		case err == errShortFrame:
			return good, nil // torn length prefix or body
		case err == errZeroLength:
			return tornTail(next, good) // a zero-filled tail reads as zero lengths
		case err != nil:
			return 0, fmt.Errorf("%w (offset %d)", err, good)
		}
		rec, err := l.nextLocked(body)
		if err != nil {
			if body[len(body)-1] != 0 {
				return 0, err
			}
			if _, terr := tornTail(next, good); terr != nil {
				return 0, err
			}
			return good, nil
		}
		l.recs = append(l.recs, rec)
		l.head = rec.Hash
		good += int64(lenPrefix + len(body))
		rest = next
	}
	return good, nil
}

// nextLocked parses a frame body and checks that its record extends the
// chain loaded so far.
func (l *Log) nextLocked(body []byte) (Record, error) {
	rec, err := parseFrame(body)
	if err != nil {
		return rec, err
	}
	if want := l.base + uint64(len(l.recs)) + 1; rec.Seq != want {
		return rec, fmt.Errorf("replog: record %d out of sequence (want %d)", rec.Seq, want)
	}
	if err := rec.Verify(l.head); err != nil {
		return rec, err
	}
	if len(l.recs) > 0 && rec.Epoch < l.recs[len(l.recs)-1].Epoch {
		return rec, fmt.Errorf("replog: record %d epoch regressed (%d after %d)", rec.Seq, rec.Epoch, l.recs[len(l.recs)-1].Epoch)
	}
	return rec, nil
}

// lenPrefix is the size of a frame's big-endian length.
const lenPrefix = 4

// AppendFrames appends the frames of recs to buf — the bytes a log file
// holds for them, and what ParseFrames reads back — refusing any record
// the loader could not read.
func AppendFrames(buf []byte, recs []Record) ([]byte, error) {
	for i := range recs {
		rec, at := &recs[i], len(buf)
		buf = append(buf, 0, 0, 0, 0, frameVersion)
		buf = binary.AppendUvarint(buf, rec.Seq)
		buf = binary.AppendUvarint(buf, rec.Epoch)
		buf = binary.AppendVarint(buf, rec.Cycle)
		buf = binenc.AppendString(buf, rec.Type)
		buf = append(append(buf, rec.Prev[:]...), rec.Hash[:]...)
		buf = append(buf, rec.Data...)
		n := len(buf) - at - lenPrefix
		if n > MaxRecordBytes {
			return nil, fmt.Errorf("replog: record %d is %d bytes, beyond the %d-byte record bound", rec.Seq, n, MaxRecordBytes)
		}
		binary.BigEndian.PutUint32(buf[at:], uint32(n))
	}
	return buf, nil
}

// ParseFrames reads a run of frames as AppendFrames writes them: every byte
// of b must belong to a whole frame that parses. It does not check hashes;
// AppendRecords checks them against the chain the records extend. The
// records' Data alias b.
func ParseFrames(b []byte) ([]Record, error) {
	var recs []Record
	for len(b) > 0 {
		body, rest, err := splitFrame(b)
		if err != nil {
			return nil, err
		}
		rec, err := parseFrame(body)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		b = rest
	}
	return recs, nil
}

var (
	errShortFrame = errors.New("replog: frame cut short")
	errZeroLength = errors.New("replog: zero-length frame")
)

// splitFrame cuts the frame at the front of b into its body, capped at its
// end, and the bytes behind it. A length prefix or body that b ends inside
// is errShortFrame, and a zero length errZeroLength with the bytes behind
// the prefix; a length beyond MaxRecordBytes and a JSON frame are errors of
// their own. Open and ParseFrames split alike and differ only in what they
// forgive.
func splitFrame(b []byte) (body, rest []byte, err error) {
	if len(b) < lenPrefix {
		return nil, nil, errShortFrame
	}
	n := int64(binary.BigEndian.Uint32(b))
	switch {
	case n > MaxRecordBytes:
		return nil, nil, fmt.Errorf("replog: frame claims %d bytes, over MaxRecordBytes", n)
	case n == 0:
		return nil, b[lenPrefix:], errZeroLength
	case int64(len(b)-lenPrefix) < n:
		return nil, nil, errShortFrame
	}
	end := lenPrefix + int(n)
	if b[lenPrefix] == '{' {
		return nil, nil, errJSONFrame
	}
	return b[lenPrefix:end:end], b[end:], nil
}

// parseFrame reads a frame body. The record's Data aliases body.
func parseFrame(body []byte) (Record, error) {
	if body[0] != frameVersion {
		return Record{}, fmt.Errorf("replog: unsupported frame version %d", body[0])
	}
	r := binenc.NewReader(body[1:])
	rec := Record{Seq: r.Uvarint(), Epoch: r.Uvarint(), Cycle: r.Varint(), Type: string(r.Prefixed())}
	prev, hash := r.Bytes(sha256.Size), r.Bytes(sha256.Size)
	if r.Err() != nil {
		return Record{}, fmt.Errorf("replog: frame header: %w", r.Err())
	}
	rec.Prev, rec.Hash = Hash(prev), Hash(hash)
	if r.Len() > 0 {
		rec.Data = r.Bytes(r.Len())
	}
	return rec, nil
}

// tornTail judges an unreadable frame that begins at offset start, with rest
// the bytes behind it. A crash mid-append leaves a prefix of what was
// written, and a file system may extend a file with zeros it never wrote,
// so the frame is a torn tail — the log ends at start — only when nothing
// but zero bytes follows it. Anything else behind it is data no crash
// leaves after a torn frame: corruption, which Open reports instead of
// truncating the records that follow.
func tornTail(rest []byte, start int64) (int64, error) {
	if len(bytes.TrimLeft(rest, "\x00")) > 0 {
		return 0, fmt.Errorf("replog: unreadable record at offset %d is followed by data", start)
	}
	return start, nil
}

// MaxRecordBytes bounds one record; a length prefix beyond it is never
// taken as an allocation request, and appends refuse to persist a record
// the loader could not read back. Exported so that the replication
// endpoints can bound the bodies they read by the same number.
const MaxRecordBytes = 16 << 20

// errClosed refuses a write to a file-backed log after Close.
var errClosed = errors.New("replog: log is closed")

// Close closes the backing file; every later write to a file-backed log
// fails. An in-memory log has nothing to close.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Len returns the sequence number of the last record (0 when empty).
// Compacted records count: Len is the log's logical length, not the number
// of records held in memory.
func (l *Log) Len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + uint64(len(l.recs))
}

// Base returns the highest compacted-away sequence number (0 for an
// uncompacted log). Records with Seq <= Base are no longer readable; a
// replica whose cursor falls at or below the base must install the
// snapshot record at Base+1 instead of streaming.
func (l *Log) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Head returns the hash of the last record (the zero Hash when empty).
func (l *Log) Head() Hash {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// LastEpoch returns the epoch of the last record (0 when empty).
func (l *Log) LastEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) == 0 {
		return 0
	}
	return l.recs[len(l.recs)-1].Epoch
}

// Append JSON-encodes data as the payload of a new record, then chains,
// persists (write + fsync) and returns the record. The record is durable
// when Append returns.
func (l *Log) Append(epoch uint64, typ string, cycle int64, data any) (Record, error) {
	raw, err := json.Marshal(data)
	if err != nil {
		return Record{}, fmt.Errorf("replog: marshal %s payload: %w", typ, err)
	}
	recs, err := l.AppendBatch(epoch, typ, cycle, [][]byte{raw})
	if err != nil {
		return Record{}, err
	}
	return recs[0], nil
}

// AppendBatch chains and persists a run of same-type records, one per
// encoded payload, with a single write and fsync (group commit): a batch
// costs one disk flush instead of one per record. The records' Data are the
// payloads themselves, not copies. (A /v1/train history feed packs its thousands of
// observations into one record, and into a batch of several only when it
// outgrows MaxRecordBytes.) All records are durable when AppendBatch
// returns; a crash mid-write leaves a torn tail that Open truncates back to
// the last complete record.
func (l *Log) AppendBatch(epoch uint64, typ string, cycle int64, payloads [][]byte) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := make([]Record, 0, len(payloads))
	head := l.head
	seq := l.base + uint64(len(l.recs))
	for _, raw := range payloads {
		seq++
		rec := Record{Seq: seq, Epoch: epoch, Type: typ, Cycle: cycle, Data: raw, Prev: head}
		rec.Hash = bodyHash(rec.Prev, rec.Seq, rec.Epoch, rec.Type, rec.Cycle, rec.Data)
		head = rec.Hash
		recs = append(recs, rec)
	}
	if err := l.persistAllLocked(recs); err != nil {
		return nil, err
	}
	l.recs = append(l.recs, recs...)
	l.head = head
	return recs, nil
}

// AppendRecord verifies and persists a record replicated from a leader. It
// must be exactly the next sequence number and extend the local chain; an
// epoch below the last record's is rejected (fencing a deposed leader).
func (l *Log) AppendRecord(rec Record) error {
	_, err := l.AppendRecords([]Record{rec})
	return err
}

// AppendRecords verifies and persists consecutive records replicated from a
// leader with one group-commit fsync. Verification walks the batch in order
// against the local chain; the valid prefix is persisted and committed even
// when a later record fails, and the count of appended records is returned
// alongside the first error (a GapError when the batch does not start at
// the next sequence number).
func (l *Log) AppendRecords(recs []Record) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	head := l.head
	seq := l.base + uint64(len(l.recs))
	var lastEpoch uint64
	if len(l.recs) > 0 {
		lastEpoch = l.recs[len(l.recs)-1].Epoch
	}
	valid := 0
	var verr error
	for _, rec := range recs {
		if rec.Seq != seq+1 {
			verr = &GapError{Want: seq + 1, Got: rec.Seq}
			break
		}
		if err := rec.Verify(head); err != nil {
			verr = err
			break
		}
		if rec.Epoch < lastEpoch {
			verr = fmt.Errorf("replog: record %d epoch regressed (%d after %d)", rec.Seq, rec.Epoch, lastEpoch)
			break
		}
		seq++
		head = rec.Hash
		lastEpoch = rec.Epoch
		valid++
	}
	good := recs[:valid]
	if err := l.persistAllLocked(good); err != nil {
		return 0, err
	}
	l.recs = append(l.recs, good...)
	l.head = head
	return valid, verr
}

// GapError reports an out-of-sequence AppendRecord: the receiver is missing
// records and should catch up from Want.
type GapError struct{ Want, Got uint64 }

func (e *GapError) Error() string {
	return fmt.Sprintf("replog: out-of-sequence record %d (next is %d)", e.Got, e.Want)
}

// persistAllLocked frames and writes the records in one write syscall and
// flushes them with one fsync — the group commit underneath Append,
// AppendBatch, and AppendRecords. On a short write or fsync failure the
// file is truncated back to the pre-batch offset: without the rollback the
// stray bytes would sit between two committed records, and the next
// successful append would interleave with them — the file then fails chain
// verification on reopen instead of presenting a clean torn tail.
func (l *Log) persistAllLocked(recs []Record) error {
	if l.path != "" && l.f == nil {
		return errClosed
	}
	if len(recs) == 0 {
		return nil
	}
	buf, err := AppendFrames(nil, recs)
	if err != nil || l.path == "" {
		return err
	}
	first, last := recs[0].Seq, recs[len(recs)-1].Seq
	if _, err := l.f.Write(buf); err != nil {
		return errors.Join(fmt.Errorf("replog: append records %d..%d: %w", first, last, err), l.rollbackLocked())
	}
	//lint:allow lockedcall durability before ack: the record must be fsync'd inside the critical section, or an ack could precede persistence
	if err := l.f.Sync(); err != nil {
		return errors.Join(fmt.Errorf("replog: fsync records %d..%d: %w", first, last, err), l.rollbackLocked())
	}
	l.size += int64(len(buf))
	return nil
}

// rollbackLocked discards any bytes past the last committed record after a
// failed persist, restoring both the file length and the write offset.
func (l *Log) rollbackLocked() error {
	if err := l.f.Truncate(l.size); err != nil {
		return fmt.Errorf("replog: rollback truncate to %d: %w", l.size, err)
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		return fmt.Errorf("replog: rollback seek to %d: %w", l.size, err)
	}
	return nil
}

// copyRecords deep-copies records, including each Data payload. Callers of
// Since/Records hand records to replication senders and JSON encoders on
// other goroutines; sharing the RawMessage backing array with the live log
// would let one side observe the other's mutations. Committed records are
// never mutated by the log itself, so sharing Data read-only would be sound
// as long as every caller kept to it, and would save one copy of each pushed
// payload: 1.0 ms for a 1.67 MB serve-group snapshot, once per follower per
// compaction (two seconds apart on that workload). The copy stays, and with
// it a guarantee the type system cannot give a shared slice; a reader that
// needs only a hash takes it from HashAt, which copies nothing.
func copyRecords(src []Record) []Record {
	out := make([]Record, len(src))
	copy(out, src)
	for i := range out {
		if len(out[i].Data) > 0 {
			out[i].Data = append(json.RawMessage(nil), out[i].Data...)
		}
	}
	return out
}

// Since returns a deep copy of the records with Seq > after, capped at
// limit (0: no cap). This is the read replication pushes from. When after
// falls below the compaction base the missing records no longer exist and
// Since returns nil: the caller must compare its cursor against Base and
// read from the base instead, where the retained chain begins with its
// snapshot.
func (l *Log) Since(after uint64, limit int) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after < l.base || after >= l.base+uint64(len(l.recs)) {
		return nil
	}
	out := l.recs[after-l.base:]
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return copyRecords(out)
}

// HashAt returns the hash of the record at seq, and false when the log does
// not hold that record (compacted away, or not yet appended).
func (l *Log) HashAt(seq uint64) (Hash, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.base || seq > l.base+uint64(len(l.recs)) {
		return Hash{}, false
	}
	return l.recs[seq-l.base-1].Hash, true
}

// Records returns a deep copy of the retained chain (everything above the
// compaction base).
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return copyRecords(l.recs)
}

// Committed returns the retained chain itself, not a copy: the records and
// their Data are the log's own and must not be modified. The view stays
// what it was when taken — the log never writes into a committed record; it
// appends past the view's end, where the slice is capped, and a compaction
// or snapshot install replaces its slice whole. For a reader that reads and
// drops the records, as bootstrap replay does; Records is the copy to keep.
func (l *Log) Committed() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recs[:len(l.recs):len(l.recs)]
}

// Forget drops every record but the last from an in-memory log that nobody
// reads records from: no follower, no restart. Len, Head, LastEpoch and the
// chain hold, and reads below the kept record come back empty, as below a
// compaction base (though no snapshot stands there). A file-backed log,
// whose records a restart reads, refuses.
func (l *Log) Forget() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.path != "" {
		return fmt.Errorf("replog: forget on file-backed log %s", l.path)
	}
	if n := len(l.recs); n > 1 {
		l.base += uint64(n - 1)
		l.recs = []Record{l.recs[n-1]}
	}
	return nil
}

// Compact drops every record below keepSeq, which must name a TypeSnapshot
// record (the state the dropped prefix is subsumed by). The file is
// rewritten atomically — header plus retained records into a temp file,
// fsync, rename — so a crash mid-compaction leaves the old log intact.
// After Compact the log's base is keepSeq-1 and Len is unchanged.
//
// The rewrite of the retained records — a multi-megabyte snapshot among
// them — runs without mu: committed records are never mutated, so appends
// and reads proceed meanwhile, and only the records appended during the
// rewrite are added, and the files swapped, under the lock.
func (l *Log) Compact(keepSeq uint64) error {
	l.cmu.Lock()
	defer l.cmu.Unlock()

	l.mu.Lock()
	base, n, onDisk := l.base, len(l.recs), l.path != ""
	retained, err := l.retainedFromLocked(keepSeq)
	l.mu.Unlock()
	if err != nil || retained == nil {
		return err
	}

	var tmp *os.File
	var size int64
	if onDisk {
		if tmp, size, err = l.writeCompacted(keepSeq-1, retained[0].Prev, retained); err != nil {
			return err
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.base != base {
		discard(tmp)
		return nil // a snapshot install moved the log past keepSeq meanwhile
	}
	tail := l.recs[n:]
	if onDisk {
		if l.f == nil {
			discard(tmp)
			return fmt.Errorf("replog: log closed during compaction to %d", keepSeq)
		}
		buf, err := AppendFrames(nil, tail)
		if err == nil && len(buf) > 0 {
			if _, err = tmp.Write(buf); err == nil {
				err = tmp.Sync()
			}
		}
		if err == nil {
			err = l.swapInLocked(tmp, size+int64(len(buf)))
		}
		if err != nil {
			discard(tmp)
			return err
		}
	}
	l.base = keepSeq - 1
	l.recs = append(append([]Record(nil), retained...), tail...)
	return nil
}

// retainedFromLocked returns the records a compaction to keepSeq keeps — the
// snapshot record at keepSeq and everything after it, capped so that nothing
// can be appended through the slice — or nil when nothing below keepSeq is
// left to drop.
func (l *Log) retainedFromLocked(keepSeq uint64) ([]Record, error) {
	if keepSeq <= l.base+1 {
		return nil, nil
	}
	if end := l.base + uint64(len(l.recs)); keepSeq > end {
		return nil, fmt.Errorf("replog: compact to %d beyond log end %d", keepSeq, end)
	}
	retained := l.recs[keepSeq-1-l.base : len(l.recs) : len(l.recs)]
	if retained[0].Type != TypeSnapshot {
		return nil, fmt.Errorf("replog: compact anchor %d is %q, want %q", keepSeq, retained[0].Type, TypeSnapshot)
	}
	return retained, nil
}

// InstallSnapshot resets the log to hold exactly the given snapshot record,
// as pushed by a leader whose compaction base has moved past this replica's
// log. Everything the log held before is discarded; the chain
// resumes at the snapshot, whose body hash is verified before anything is
// written. Installation only ever moves the log forward.
func (l *Log) InstallSnapshot(rec Record) error {
	if rec.Type != TypeSnapshot {
		return fmt.Errorf("replog: install %q record, want %q", rec.Type, TypeSnapshot)
	}
	if rec.Seq == 0 {
		return fmt.Errorf("replog: install snapshot with zero sequence")
	}
	if want := bodyHash(rec.Prev, rec.Seq, rec.Epoch, rec.Type, rec.Cycle, rec.Data); rec.Hash != want {
		return fmt.Errorf("replog: snapshot record %d body hash mismatch", rec.Seq)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if end := l.base + uint64(len(l.recs)); rec.Seq <= end {
		return fmt.Errorf("replog: snapshot %d does not advance log of length %d", rec.Seq, end)
	}
	recs := []Record{rec}
	if l.path != "" {
		if l.f == nil {
			return errClosed
		}
		tmp, size, err := l.writeCompacted(rec.Seq-1, rec.Prev, recs)
		if err != nil {
			return err
		}
		if err := l.swapInLocked(tmp, size); err != nil {
			discard(tmp)
			return err
		}
	}
	l.base = rec.Seq - 1
	l.recs = recs
	l.head = rec.Hash
	return nil
}

// writeCompacted writes a compaction header (base, resume hash) followed by
// the given records to a fresh, fsync'd temp file next to the log, and
// returns it open at its end with its size. It touches no guarded state.
func (l *Log) writeCompacted(base uint64, prev Hash, recs []Record) (*os.File, int64, error) {
	hdr := append(slices.Clone(headerMagic), headerVersion)
	hdr = binary.BigEndian.AppendUint64(hdr, base)
	buf, err := AppendFrames(append(hdr, prev[:]...), recs)
	if err != nil {
		return nil, 0, err
	}
	tmp, err := os.CreateTemp(filepath.Dir(l.path), filepath.Base(l.path)+".compact*")
	if err != nil {
		return nil, 0, err
	}
	if _, err = tmp.Write(buf); err == nil {
		//lint:allow lockedcall a snapshot install rewrites the log under the lock on purpose (the replica serves nothing until it lands) and the file must be durable before the rename swaps it in; Compact calls this off every lock
		err = tmp.Sync()
	}
	if err != nil {
		discard(tmp)
		return nil, 0, err
	}
	return tmp, int64(len(buf)), nil
}

// swapInLocked renames the fully written tmp over the log's path and adopts
// its handle (positioned at size, its end) as the backing file.
func (l *Log) swapInLocked(tmp *os.File, size int64) error {
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		return err
	}
	l.f.Close()
	l.f = tmp
	l.size = size
	return nil
}

// discard closes and removes a temp file that will not be swapped in (nil:
// none was written).
func discard(tmp *os.File) {
	if tmp != nil {
		tmp.Close()
		os.Remove(tmp.Name())
	}
}
