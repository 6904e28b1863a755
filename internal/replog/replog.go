// Package replog is the control plane's replicated decision log
// (DESIGN.md §14): an append-only sequence of hash-chained records holding
// every scheduler input that matters for deterministic replay — admissions,
// train feeds, operator node ops, cycle decisions with their agent state
// deltas, full-state snapshots, and leader elections.
//
// On disk a log is a stream of length-prefixed JSON records (4-byte
// big-endian length, then the record's JSON bytes), each carrying the
// sha256 of its predecessor plus its own sha256 over (prev || body), so a
// record cannot be altered, dropped, or reordered without breaking every
// hash that follows. Appends are fsync'd before they are acknowledged; a
// torn tail left by a crash mid-write is detected and truncated on open.
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
	"bufio"
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
	"sync"
)

// Record types. The apply semantics live in internal/service; replog only
// cares that every record is attributable and chained.
const (
	// TypeAdmit carries one submitted job (an external input; replicated
	// synchronously before the submission is acknowledged to the client).
	TypeAdmit = "admit"
	// TypeTrain carries a batch of predictor history records fed through
	// /v1/train (external input).
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
	// TypeCheckpoint is legacy, skipped: logs written while the daemon also
	// kept predictor checkpoint files hold these records (the predictor's
	// sha256 at that point); nothing writes them now, and applying one
	// changes no state.
	TypeCheckpoint = "ckpt"
	// TypeSnapshot carries the full serialized service state (engine,
	// scheduler, predictor, admission queue, deferred inputs) at this point
	// in the log. Replay starts at the most recent snapshot instead of
	// genesis, and the log may be compacted up to it.
	TypeSnapshot = "snap"
	// TypeElect records a leader election: the winning replica and the
	// bumped epoch. Every record that follows carries the new epoch.
	TypeElect = "elect"
)

// Record is one entry of the decision log.
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
	// Prev is the hex sha256 of the previous record (genesisHash for the
	// first record).
	Prev string `json:"prev"`
	// Hash is the hex sha256 over Prev and the record's own body; it seals
	// the chain up to and including this record.
	Hash string `json:"hash"`
}

// genesisHash anchors the chain: the first record's Prev.
var genesisHash = hex.EncodeToString(make([]byte, sha256.Size))

// Compaction header layout: magic, one version byte, the 8-byte big-endian
// base sequence (records 1..base are compacted away), and the raw 32-byte
// hash of record base (the Prev the first retained record chains from).
// The magic reads as a ~860 MB length prefix — far beyond MaxRecordBytes —
// so it can never collide with a legacy headerless log's first record.
var headerMagic = []byte("3SRL")

const (
	headerVersion = 1
	headerSize    = 4 + 1 + 8 + sha256.Size
)

// bodyHash computes the record's chained hash from its identifying fields.
// The hash deliberately covers the canonical field serialization rather
// than the marshalled JSON bytes, so re-encoding a record (e.g. after a
// replication hop) cannot change its identity.
func bodyHash(prev string, seq, epoch uint64, typ string, cycle int64, data []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|%s|%d|", prev, seq, epoch, typ, cycle)
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// Verify checks the record's hash against prev. It returns nil when the
// record extends the chain ending in prev.
func (r *Record) Verify(prev string) error {
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

// Log is a file-backed decision log. Safe for concurrent use.
type Log struct {
	path string // backing file path ("" for an in-memory log)

	// cmu serializes Compact calls, which drop mu while they write the
	// replacement file. Taken before mu, never under it.
	cmu sync.Mutex

	mu   sync.Mutex
	f    logFile  // guarded by mu; nil for an in-memory log
	size int64    // guarded by mu; end offset of the last durable record
	base uint64   // guarded by mu; highest compacted-away sequence number
	recs []Record // guarded by mu; retained chain, recs[i].Seq == base+i+1
	head string   // guarded by mu; hash of the last record (genesisHash when empty)
}

// Open opens (or creates) the log at path, verifying the existing chain.
// A torn final record — a crash mid-append — is truncated away; any other
// corruption is an error. An empty path opens an in-memory log (tests,
// replica-less runs).
func Open(path string) (*Log, error) {
	l := &Log{path: path, head: genesisHash}
	if path == "" {
		return l, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	good, err := l.loadLocked(f) //lint:allow lockedcall fresh Log: no other goroutine can hold it yet
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop a torn tail so the next append extends a clean chain.
	if fi, serr := f.Stat(); serr == nil && fi.Size() > good {
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

// loadLocked reads and verifies records from f, returning the byte offset of the
// end of the last complete, chain-valid record. A partial trailing record
// (short length prefix, short body, or JSON cut mid-stream) is treated as a
// torn tail; a record that parses but fails chain verification is
// corruption and errors out. A compacted log begins with a fixed-size
// header naming the base sequence and the hash the chain resumes from.
func (l *Log) loadLocked(f *os.File) (good int64, err error) {
	rd := bufio.NewReader(f)
	if magic, perr := rd.Peek(len(headerMagic)); perr == nil && bytes.Equal(magic, headerMagic) {
		var hdr [headerSize]byte
		if _, err := io.ReadFull(rd, hdr[:]); err != nil {
			// Headers are only ever written via atomic rename; a short
			// one is corruption, not a torn tail.
			return 0, fmt.Errorf("replog: short compaction header: %w", err)
		}
		if hdr[4] != headerVersion {
			return 0, fmt.Errorf("replog: unsupported compaction header version %d", hdr[4])
		}
		l.base = binary.BigEndian.Uint64(hdr[5:13])
		l.head = hex.EncodeToString(hdr[13:headerSize])
		good = headerSize
	}
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(rd, lenBuf[:]); err != nil {
			return good, nil // clean EOF or torn length prefix
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > MaxRecordBytes {
			return good, nil // garbage length: treat as torn tail
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(rd, body); err != nil {
			return good, nil // torn body
		}
		var rec Record
		if err := json.Unmarshal(body, &rec); err != nil {
			return good, nil // torn/garbled JSON tail
		}
		if rec.Seq != l.base+uint64(len(l.recs))+1 {
			return 0, fmt.Errorf("replog: record %d out of sequence (want %d)", rec.Seq, l.base+uint64(len(l.recs))+1)
		}
		if err := rec.Verify(l.head); err != nil {
			return 0, err
		}
		if len(l.recs) > 0 && rec.Epoch < l.recs[len(l.recs)-1].Epoch {
			return 0, fmt.Errorf("replog: record %d epoch regressed (%d after %d)", rec.Seq, rec.Epoch, l.recs[len(l.recs)-1].Epoch)
		}
		l.recs = append(l.recs, rec)
		l.head = rec.Hash
		good += int64(4 + n)
	}
}

// MaxRecordBytes bounds one record; a length prefix beyond it is treated as
// a torn tail rather than an allocation request, and appends refuse to
// persist a record the loader could not read back. Exported so that the
// replication endpoints can bound the bodies they read by the same number.
const MaxRecordBytes = 16 << 20

// Close closes the backing file.
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

// Head returns the hash of the last record (the genesis hash when empty).
func (l *Log) Head() string {
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

// Append chains, persists (write + fsync), and returns a new record. The
// record is durable when Append returns.
func (l *Log) Append(epoch uint64, typ string, cycle int64, data any) (Record, error) {
	recs, err := l.AppendBatch(epoch, typ, cycle, []any{data})
	if err != nil {
		return Record{}, err
	}
	return recs[0], nil
}

// AppendBatch chains and persists a run of same-type records with a single
// write and fsync (group commit). A large batch — the /v1/train history
// feed appends thousands of records in one request — costs one disk flush
// instead of one per record, which is the difference between a sub-second
// and a multi-second append on fsync-bound storage. All records are durable
// when AppendBatch returns; a crash mid-write leaves a torn tail that Open
// truncates back to the last complete record.
func (l *Log) AppendBatch(epoch uint64, typ string, cycle int64, payloads []any) ([]Record, error) {
	raws := make([]json.RawMessage, len(payloads))
	for i, p := range payloads {
		raw, err := json.Marshal(p)
		if err != nil {
			return nil, fmt.Errorf("replog: marshal %s payload: %w", typ, err)
		}
		raws[i] = raw
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := make([]Record, 0, len(raws))
	head := l.head
	seq := l.base + uint64(len(l.recs))
	for _, raw := range raws {
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

// frameRecords serializes records into the on-disk framing (length prefix +
// JSON body), refusing any record the loader would treat as a torn tail.
func frameRecords(recs []Record) (*bytes.Buffer, error) {
	var buf bytes.Buffer
	for i := range recs {
		body, err := json.Marshal(&recs[i])
		if err != nil {
			return nil, err
		}
		if len(body) > MaxRecordBytes {
			return nil, fmt.Errorf("replog: record %d is %d bytes, beyond the %d-byte record bound", recs[i].Seq, len(body), MaxRecordBytes)
		}
		var lenBuf [4]byte
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(body)))
		buf.Write(lenBuf[:])
		buf.Write(body)
	}
	return &buf, nil
}

// persistAllLocked frames and writes the records in one write syscall and
// flushes them with one fsync — the group commit underneath Append,
// AppendBatch, and AppendRecords. On a short write or fsync failure the
// file is truncated back to the pre-batch offset: without the rollback the
// stray bytes would sit between two committed records, and the next
// successful append would interleave with them — the file then fails chain
// verification on reopen instead of presenting a clean torn tail.
func (l *Log) persistAllLocked(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	buf, err := frameRecords(recs)
	if err != nil {
		return err
	}
	if l.f == nil {
		return nil
	}
	first, last := recs[0].Seq, recs[len(recs)-1].Seq
	if _, err := l.f.Write(buf.Bytes()); err != nil {
		return errors.Join(fmt.Errorf("replog: append records %d..%d: %w", first, last, err), l.rollbackLocked())
	}
	//lint:allow lockedcall durability before ack: the record must be fsync'd inside the critical section, or an ack could precede persistence
	if err := l.f.Sync(); err != nil {
		return errors.Join(fmt.Errorf("replog: fsync records %d..%d: %w", first, last, err), l.rollbackLocked())
	}
	l.size += int64(buf.Len())
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
// as long as every caller kept to it — but what it would save is small: on a
// 1.67 MB serve-group snapshot the copy takes 1.0 ms, against 9.5 ms for the
// JSON encoding of the same record that the sender does next, once per
// follower per compaction (two seconds apart on that workload). The copy
// stays, and with it a guarantee the type system cannot give a shared slice.
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
// limit (0: no cap). This is the pull/catch-up read used by replication.
// When after falls below the compaction base the missing records no longer
// exist and Since returns nil: the caller must compare its cursor against
// Base and install the snapshot instead.
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

// Records returns a deep copy of the retained chain (everything above the
// compaction base).
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return copyRecords(l.recs)
}

// LastSnapshot returns the most recent TypeSnapshot record, or ok=false
// when the log holds none. It is the record served to far-behind replicas
// over GET /v1/replog/snapshot and the point bootstrap replay starts from.
func (l *Log) LastSnapshot() (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.recs) - 1; i >= 0; i-- {
		if l.recs[i].Type == TypeSnapshot {
			rec := l.recs[i]
			rec.Data = append(json.RawMessage(nil), rec.Data...)
			return rec, true
		}
	}
	return Record{}, false
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
	base, n, onDisk := l.base, len(l.recs), l.f != nil
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
		buf, err := frameRecords(tail)
		if err == nil && buf.Len() > 0 {
			if _, err = tmp.Write(buf.Bytes()); err == nil {
				err = tmp.Sync()
			}
		}
		if err == nil {
			err = l.swapInLocked(tmp, size+int64(buf.Len()))
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
// as fetched from a leader whose compaction base has moved past this
// replica's cursor. Everything the log held before is discarded; the chain
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
	if l.f != nil {
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
func (l *Log) writeCompacted(base uint64, prevHash string, recs []Record) (*os.File, int64, error) {
	prev, err := hex.DecodeString(prevHash)
	if err != nil || len(prev) != sha256.Size {
		return nil, 0, fmt.Errorf("replog: rewrite with malformed resume hash %.8s", prevHash)
	}
	var hdr [headerSize]byte
	copy(hdr[:4], headerMagic)
	hdr[4] = headerVersion
	binary.BigEndian.PutUint64(hdr[5:13], base)
	copy(hdr[13:headerSize], prev)
	buf, err := frameRecords(recs)
	if err != nil {
		return nil, 0, err
	}
	tmp, err := os.CreateTemp(filepath.Dir(l.path), filepath.Base(l.path)+".compact*")
	if err != nil {
		return nil, 0, err
	}
	if _, err = tmp.Write(hdr[:]); err == nil {
		_, err = tmp.Write(buf.Bytes())
	}
	if err == nil {
		//lint:allow lockedcall a snapshot install rewrites the log under the lock on purpose (the replica serves nothing until it lands) and the file must be durable before the rename swaps it in; Compact calls this off every lock
		err = tmp.Sync()
	}
	if err != nil {
		discard(tmp)
		return nil, 0, err
	}
	return tmp, int64(headerSize) + int64(buf.Len()), nil
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
