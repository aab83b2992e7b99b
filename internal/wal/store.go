package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sapla/internal/tsio"
)

// File naming. Segment K holds the records applied on top of snapshot K-1
// (snapshot 0 is the empty store); snapshot K holds the state after every
// record through segment K. Sequence numbers are zero-padded so
// lexicographic and numeric order agree.
const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

// Errors surfaced by the store.
var (
	// ErrCorruptWAL marks a bad frame before the final segment's tail:
	// fsync promised those bytes were durable, so losing them is real
	// corruption, not a torn tail.
	ErrCorruptWAL = errors.New("wal: corrupt log segment")
	// ErrStoreBroken is returned by every append after a write failure the
	// store could not roll back; reopening the store recovers.
	ErrStoreBroken = errors.New("wal: store broken by earlier write failure")
	// ErrStoreClosed is returned by operations on a closed store.
	ErrStoreClosed = errors.New("wal: store closed")
)

// Series is one live series in the recovered store.
type Series struct {
	ID     int64
	Values []float64
}

// appendIngestRecord appends sr's log record to dst and reports whether its
// values took the decimal form (op 4) rather than float64 bits (op 1). The
// decimal record is tried first: the encoder's exponent search is the test of
// whether the values have that form, and it gives up at the first value that
// has none, so a full-precision series pays for about one value's search.
func appendIngestRecord(dst []byte, sr Series) ([]byte, bool, error) {
	rec := tsio.WALRecord{Op: tsio.WALIngestDecimal, ID: sr.ID, Values: sr.Values}
	out, err := tsio.AppendWALRecord(dst, rec)
	if !errors.Is(err, tsio.ErrWALNotDecimal) {
		return out, err == nil, err
	}
	rec.Op = tsio.WALIngest
	out, err = tsio.AppendWALRecord(dst, rec)
	return out, false, err
}

// Options tunes a Store.
type Options struct {
	// SyncEvery is the group-commit batch: fsync after every n-th appended
	// record. 1 (the default) syncs every append, so an acknowledged write
	// is always durable; larger values trade the tail of acknowledged
	// writes on crash for fewer fsyncs under load.
	SyncEvery int
	// ObserveSync, when set, receives the duration of every WAL fsync (the
	// serving layer feeds its fsync-latency histogram with it).
	ObserveSync func(time.Duration)
}

// RecordForms counts the ingest records a Store has appended to its log by
// the form of their values.
type RecordForms struct {
	Decimal int64 // op 4: decimal mantissas under one exponent
	F64     int64 // op 1: float64 bits
}

// RecoveryInfo reports what Open found on disk.
type RecoveryInfo struct {
	SnapshotSeq    uint64 // snapshot the state was loaded from (0 = none)
	SnapshotSeries int    // series restored from the snapshot
	Segments       int    // log segments replayed
	Replayed       int    // log records applied on top of the snapshot
	TornBytes      int64  // bytes truncated from the final segment's tail
	MaxID          int64  // largest ID ever seen (snapshot or any ingest); -1 when none
}

// Store is the durable record of the series store: an append-only
// segmented WAL plus periodic snapshots. One Store owns one directory.
// Append/Sync/Rotate serialize on an internal mutex; WriteSnapshot runs its
// file writes outside that mutex so ingest only stalls for the rotation,
// not the snapshot fsync.
type Store struct {
	fsys FS
	opts Options

	mu       sync.Mutex
	seg      File // active segment (nil after Close)
	segSeq   uint64
	segSize  int64 // bytes successfully framed into the active segment
	unsynced int   // records appended since the last fsync
	snapSeq  uint64
	broken   error
	closed   bool

	// decimal and f64 count the ingest records appended by value form; they
	// are atomic so a metrics read does not wait behind an fsync.
	decimal, f64 atomic.Int64
}

// segFileName / snapFileName format sequence numbers into file names.
func segFileName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix)
}

func snapFileName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix)
}

// parseSeq extracts the sequence number from a file name with the given
// prefix and suffix, reporting whether the name matches.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// openRetries bounds how many times Open re-runs recovery after losing a
// race with a concurrent WriteSnapshot's garbage collection.
const openRetries = 5

// Open recovers the store from fsys and returns the live series (sorted by
// ID) along with what recovery did. The final segment's torn tail, if any,
// is truncated in place; a corrupt snapshot or a corrupt non-tail frame
// aborts with ErrCorruptSnapshot / ErrCorruptWAL. After a successful Open
// the store appends to the highest existing segment.
//
// A concurrent WriteSnapshot may garbage-collect a segment or snapshot
// between Open's directory listing and its read of that file. The vanished
// file is always superseded by a newer durable snapshot, so Open retries
// recovery from a fresh listing (a bounded number of times) instead of
// failing.
func Open(fsys FS, opts Options) (*Store, []Series, RecoveryInfo, error) {
	for attempt := 0; ; attempt++ {
		s, out, info, err := openOnce(fsys, opts)
		if err == nil || attempt == openRetries || !errors.Is(err, fs.ErrNotExist) {
			return s, out, info, err
		}
		// Lost the race with a snapshot GC: the listing named a file that a
		// newer snapshot has since superseded and removed. Re-list and
		// recover from the newer state.
	}
}

// openOnce runs one recovery pass over the current directory listing.
func openOnce(fsys FS, opts Options) (*Store, []Series, RecoveryInfo, error) {
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 1
	}
	info := RecoveryInfo{MaxID: -1}

	names, err := fsys.List()
	if err != nil {
		return nil, nil, info, fmt.Errorf("wal: list: %w", err)
	}
	var segSeqs, snapSeqs []uint64
	for _, name := range names {
		if seq, ok := parseSeq(name, segPrefix, segSuffix); ok {
			segSeqs = append(segSeqs, seq)
		}
		if seq, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			snapSeqs = append(snapSeqs, seq)
		}
	}
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] < snapSeqs[j] })

	// Load the newest snapshot, if any. A snapshot under its final name was
	// fsync'd before rename, so failing to parse it is fatal — silently
	// falling back to an older snapshot would resurrect deleted series and
	// drop ingested ones.
	state := make(map[int64]Series)
	if len(snapSeqs) > 0 {
		info.SnapshotSeq = snapSeqs[len(snapSeqs)-1]
		data, err := fsys.ReadFile(snapFileName(info.SnapshotSeq))
		if err != nil {
			return nil, nil, info, fmt.Errorf("wal: read snapshot %d: %w", info.SnapshotSeq, err)
		}
		series, err := decodeSnapshot(data)
		if err != nil {
			return nil, nil, info, fmt.Errorf("%w (%s)", err, snapFileName(info.SnapshotSeq))
		}
		info.SnapshotSeries = len(series)
		for _, s := range series {
			state[s.ID] = s
			if s.ID > info.MaxID {
				info.MaxID = s.ID
			}
		}
	}

	// Replay every segment newer than the snapshot, in order. Only the
	// final segment may have a torn tail; anything earlier was sealed with
	// an fsync before its successor was created.
	apply := func(rec tsio.WALRecord) {
		if rec.Op == tsio.WALDelete {
			delete(state, rec.ID)
			return
		}
		state[rec.ID] = Series{ID: rec.ID, Values: rec.Values}
		info.MaxID = max(info.MaxID, rec.ID)
	}
	var lastSeg uint64
	var lastValid, lastSize int64
	for i, seq := range segSeqs {
		if seq <= info.SnapshotSeq {
			continue // superseded by the snapshot; removed below
		}
		data, err := fsys.ReadFile(segFileName(seq))
		if err != nil {
			return nil, nil, info, fmt.Errorf("wal: read segment %d: %w", seq, err)
		}
		valid, records, err := replaySegment(data, apply)
		if err != nil {
			return nil, nil, info, fmt.Errorf("%w (%s)", err, segFileName(seq))
		}
		if valid != int64(len(data)) && i != len(segSeqs)-1 {
			return nil, nil, info, fmt.Errorf("%w: %s has %d bad bytes before a newer segment",
				ErrCorruptWAL, segFileName(seq), int64(len(data))-valid)
		}
		info.Segments++
		info.Replayed += records
		lastSeg, lastValid, lastSize = seq, valid, int64(len(data))
	}

	s := &Store{fsys: fsys, opts: opts, snapSeq: info.SnapshotSeq}
	if lastSeg == 0 {
		// Fresh directory (or everything folded into the snapshot): start
		// the segment after the snapshot.
		s.segSeq = info.SnapshotSeq + 1
		s.seg, err = fsys.Create(segFileName(s.segSeq))
		if err != nil {
			return nil, nil, info, fmt.Errorf("wal: create segment: %w", err)
		}
	} else {
		s.segSeq = lastSeg
		s.seg, err = fsys.Append(segFileName(lastSeg))
		if err != nil {
			return nil, nil, info, fmt.Errorf("wal: open segment: %w", err)
		}
		if lastValid != lastSize {
			info.TornBytes = lastSize - lastValid
			if err := s.seg.Truncate(lastValid); err != nil {
				return nil, nil, info, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
		s.segSize = lastValid
	}

	// Garbage left by a crash mid-snapshot or mid-GC: temp files, segments
	// folded into the snapshot, superseded snapshots.
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			_ = fsys.Remove(name) // best effort: a leftover temp file costs disk, not correctness
		}
	}
	removeSuperseded(fsys, names, info.SnapshotSeq)

	out := make([]Series, 0, len(state))
	for _, sr := range state {
		out = append(out, sr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return s, out, info, nil
}

// AppendIngest durably records "store values under id": it is
// AppendIngestBatch of one series.
func (s *Store) AppendIngest(id int64, values []float64) error {
	return s.AppendIngestBatch([]Series{{ID: id, Values: values}})
}

// AppendIngestBatch durably records one ingest per series in one write, each
// in appendIngestRecord's form. Every series is validated and framed before
// any byte is written, so a bad series rejects the whole batch instead of
// leaving a prefix in the log. The batch counts as len(series) records
// toward group commit and is fsync'd before returning whenever it completes a
// batch — with SyncEvery 1 that is one fsync for the whole call, the point of
// batching; only then may the caller acknowledge.
func (s *Store) AppendIngestBatch(series []Series) error {
	size := 0
	for _, sr := range series {
		if err := tsio.ValidateSeries(sr.Values); err != nil {
			return err
		}
		size += frameHeader + recordHeader + 1 + 4*len(sr.Values) // op 4's bytes: op 1's grow the buffer
	}
	frames := make([]byte, 0, size)
	var forms RecordForms
	for _, sr := range series {
		var at int
		var decimal bool
		var err error
		frames, at = beginFrame(frames)
		if frames, decimal, err = appendIngestRecord(frames, sr); err != nil {
			return err
		}
		endFrame(frames[at:])
		if decimal {
			forms.Decimal++
		} else {
			forms.F64++
		}
	}
	return s.write(frames, len(series), forms)
}

// AppendDelete durably records "remove id" for every id, in one write under
// the same group-commit rule as AppendIngestBatch.
func (s *Store) AppendDelete(ids ...int64) error {
	frames := make([]byte, 0, len(ids)*(frameHeader+recordHeader))
	for _, id := range ids {
		var at int
		frames, at = beginFrame(frames)
		frames, _ = tsio.AppendWALRecord(frames, tsio.WALRecord{Op: tsio.WALDelete, ID: id}) // a delete record always encodes
		endFrame(frames[at:])
	}
	return s.write(frames, len(ids), RecordForms{})
}

// write appends frames — records whole records, the ingests among them
// counted by form in forms — to the active segment in a single Write. A failed write may leave
// part of the frames behind, so it truncates the segment back to its last good
// offset; if even that fails the store is broken until reopened. A write that
// completes a group-commit batch is fsync'd before write returns.
func (s *Store) write(frames []byte, records int, forms RecordForms) error {
	if records == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	if _, err := s.seg.Write(frames); err != nil {
		if terr := s.seg.Truncate(s.segSize); terr != nil {
			s.broken = fmt.Errorf("%w: write: %v, truncate: %v", ErrStoreBroken, err, terr)
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	s.segSize += int64(len(frames))
	s.decimal.Add(forms.Decimal)
	s.f64.Add(forms.F64)
	s.unsynced += records
	if s.unsynced >= s.opts.SyncEvery {
		return s.syncLocked()
	}
	return nil
}

// Sync flushes every unsynced record to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	if s.unsynced == 0 {
		return nil
	}
	return s.syncLocked()
}

// syncLocked fsyncs the active segment. An fsync failure breaks the store:
// the kernel may have dropped the dirty pages, so pretending the records
// are durable would betray every acknowledgement after this point.
func (s *Store) syncLocked() error {
	start := time.Now()
	if err := s.seg.Sync(); err != nil {
		s.broken = fmt.Errorf("%w: fsync: %v", ErrStoreBroken, err)
		return fmt.Errorf("wal: fsync: %w", err)
	}
	if s.opts.ObserveSync != nil {
		s.opts.ObserveSync(time.Since(start))
	}
	s.unsynced = 0
	return nil
}

// usableLocked rejects operations on a closed or broken store.
func (s *Store) usableLocked() error {
	if s.closed {
		return ErrStoreClosed
	}
	if s.broken != nil {
		return s.broken
	}
	return nil
}

// Rotate seals the active segment (fsync + close) and starts its successor,
// returning the sealed segment's sequence number. The caller captures the
// store state atomically with the rotation (both under the serving layer's
// write lock): that state is exactly snapshot(sealed seq).
func (s *Store) Rotate() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return 0, err
	}
	if s.unsynced > 0 {
		if err := s.syncLocked(); err != nil {
			return 0, err
		}
	}
	if err := s.seg.Close(); err != nil {
		s.broken = fmt.Errorf("%w: close segment: %v", ErrStoreBroken, err)
		return 0, fmt.Errorf("wal: close segment: %w", err)
	}
	sealed := s.segSeq
	s.segSeq++
	seg, err := s.fsys.Create(segFileName(s.segSeq))
	if err != nil {
		s.broken = fmt.Errorf("%w: create segment: %v", ErrStoreBroken, err)
		return 0, fmt.Errorf("wal: create segment: %w", err)
	}
	s.seg = seg
	s.segSize = 0
	return sealed, nil
}

// WriteSnapshot durably installs series as snapshot seq (state after every
// record through segment seq, sorted by ID for deterministic bytes), then
// garbage-collects the segments and snapshots it supersedes. The heavy
// write runs outside the store mutex, concurrent appends to newer segments
// proceed untouched.
func (s *Store) WriteSnapshot(seq uint64, series []Series) error {
	data, err := encodeSnapshot(series)
	if err != nil {
		return err
	}
	if err := writeSnapshotFile(s.fsys, snapFileName(seq), data); err != nil {
		return err
	}

	s.mu.Lock()
	if seq > s.snapSeq {
		s.snapSeq = seq
	}
	s.mu.Unlock()

	// GC everything the snapshot supersedes. The snapshot itself is
	// durable; GC is advisory, and the next Open clears leftovers.
	if names, err := s.fsys.List(); err == nil {
		removeSuperseded(s.fsys, names, seq)
	}
	return nil
}

// removeSuperseded removes, of names, the segments folded into snapshot seq
// and the snapshots older than it. Best effort: a failed remove leaves
// garbage that the next Open clears.
func removeSuperseded(fsys FS, names []string, seq uint64) {
	for _, name := range names {
		if sseq, ok := parseSeq(name, segPrefix, segSuffix); ok && sseq <= seq {
			_ = fsys.Remove(name)
		}
		if sseq, ok := parseSeq(name, snapPrefix, snapSuffix); ok && sseq < seq {
			_ = fsys.Remove(name)
		}
	}
}

// SnapshotSeq returns the sequence of the newest durable snapshot.
func (s *Store) SnapshotSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapSeq
}

// RecordForms returns how many ingest records the store has appended since
// Open, by value form. Snapshots are not counted.
func (s *Store) RecordForms() RecordForms {
	return RecordForms{Decimal: s.decimal.Load(), F64: s.f64.Load()}
}

// Unsynced returns how many appended records await the next group commit.
func (s *Store) Unsynced() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unsynced
}

// Close flushes and closes the active segment. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.broken != nil {
		_ = s.seg.Close() // already broken; surface the original error path
		return nil
	}
	var firstErr error
	if s.unsynced > 0 {
		if err := s.seg.Sync(); err != nil {
			firstErr = fmt.Errorf("wal: final fsync: %w", err)
		}
	}
	if err := s.seg.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("wal: close: %w", err)
	}
	return firstErr
}
