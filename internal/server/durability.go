package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"sapla/internal/index"
	"sapla/internal/par"
	"sapla/internal/wal"
)

// openStores opens the durability layer (when configured), recovers the
// persisted per-shard state in parallel and batch-inserts it into one flat
// tier per shard, populating s.shards; without durability it sizes s.shards
// to Config.Shards with empty tiers. Called from New while the server is
// still single-goroutine, before any request can arrive.
func (s *Server) openStores() error {
	fsys := s.cfg.WALFS
	if fsys == nil && s.cfg.DataDir != "" {
		dfs, err := wal.NewDirFS(s.cfg.DataDir)
		if err != nil {
			return fmt.Errorf("server: open data dir: %w", err)
		}
		fsys = dfs
	}

	start := time.Now()
	recs := make([]wal.ShardRecovery, s.cfg.Shards) // without durability: empty, no store
	if fsys != nil {
		var err error
		recs, err = wal.OpenSharded(fsys, s.cfg.Shards, wal.Options{
			SyncEvery:   s.cfg.SyncEvery,
			ObserveSync: s.metrics.walSync.Observe,
		})
		if err != nil {
			return fmt.Errorf("server: recover: %w", err)
		}
	}

	// The manifest-pinned count wins over Config.Shards (see Config.Shards);
	// from here on len(s.shards) is the effective count everywhere.
	s.shards = make([]*shardState, len(recs))
	for i, r := range recs {
		s.shards[i] = &shardState{store: r.Store}
	}
	for _, sh := range s.shards {
		sh.flat = index.NewFlat()
	}
	if fsys == nil {
		return nil // purely in-memory
	}

	// Rebuild each shard's flat tier from its recovered series, shards in
	// parallel: the entries are the ones ingest builds, raw values only, and
	// the insert computes each row's chunk envelope. Nothing is reduced; a
	// log that carries a representation was refused on replay as
	// ErrCorruptWAL.
	errs := make([]error, len(recs))
	par.Do(context.Background(), len(recs), len(recs), func(i int) {
		entries := make([]*index.Entry, len(recs[i].Series))
		for j, sr := range recs[i].Series {
			entries[j] = &index.Entry{ID: int(sr.ID), Raw: sr.Values}
		}
		if err := s.shards[i].flat.InsertBatch(entries); err != nil {
			errs[i] = fmt.Errorf("server: rebuild shard %d: %w", i, err)
		}
	})
	for _, rerr := range errs {
		if rerr != nil {
			s.closeStores()
			return rerr
		}
	}

	// Aggregate what recovery did: counters sum across shards, the sequence
	// floor and MaxID take the maximum. Auto IDs resume past every ID any
	// shard has seen, and the series length is that of any recovered series.
	for _, r := range recs {
		s.nextID = max(s.nextID, int(r.Info.MaxID)+1)
		if len(r.Series) > 0 {
			s.n = len(r.Series[0].Values)
		}
		s.recovery.SnapshotSeries += r.Info.SnapshotSeries
		s.recovery.Segments += r.Info.Segments
		s.recovery.Replayed += r.Info.Replayed
		s.recovery.TornBytes += r.Info.TornBytes
		if r.Info.SnapshotSeq > s.recovery.SnapshotSeq {
			s.recovery.SnapshotSeq = r.Info.SnapshotSeq
		}
		if r.Info.MaxID > s.recovery.MaxID {
			s.recovery.MaxID = r.Info.MaxID
		}
	}
	s.recoveryDur = time.Since(start)
	return nil
}

// Recovery reports what startup replayed from disk, aggregated across
// shards. ok is false when the server runs without a durability layer.
func (s *Server) Recovery() (info wal.RecoveryInfo, dur time.Duration, ok bool) {
	return s.recovery, s.recoveryDur, s.durable()
}

// snapshotLoop periodically snapshots every shard's store so WAL replay
// stays bounded. It exits when snapStop closes (Shutdown).
func (s *Server) snapshotLoop(every time.Duration) {
	defer s.snapWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-t.C:
			if err := s.snapshotNow(); err != nil {
				s.metrics.snapshotErrors.Add(1)
			}
		}
	}
}

// snapshotNow captures and persists every shard's state, one shard at a
// time. Per shard, the state capture and the segment rotation happen
// atomically under the shard's mu — the sealed segment then holds exactly
// the records covered by the captured state — while the heavy snapshot
// write runs outside the lock, so that shard's writes stall only for the
// rotation fsync, never for the full state serialization; other shards'
// writes never stall at all. The first error aborts the sweep (remaining
// shards simply snapshot on the next tick).
func (s *Server) snapshotNow() error {
	if !s.durable() {
		return nil
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		series := make([]wal.Series, 0, sh.flat.Len())
		sh.flat.Each(func(e *index.Entry) {
			series = append(series, wal.Series{ID: int64(e.ID), Values: e.Raw})
		})
		sealed, err := sh.store.Rotate()
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		sort.Slice(series, func(a, b int) bool { return series[a].ID < series[b].ID })

		start := time.Now()
		if err := sh.store.WriteSnapshot(sealed, series); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		s.metrics.snapshots.Add(1)
		sh.snapshots.Add(1)
		s.metrics.snapshotTime.Observe(time.Since(start))
	}
	return nil
}

// handleReadyz is the readiness probe: 200 only when the server is past
// recovery and not draining. Liveness (/healthz) stays green in both of
// those states — the process is healthy, just not admitting work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.state.Load()
	code := http.StatusOK
	if st != stateReady {
		code = http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status":     stateName(st),
		"index_size": s.idx.Len(),
		"shards":     len(s.shards),
		"durable":    s.durable(),
	}
	if s.durable() {
		t := s.walTotals()
		body["wal_unsynced"] = t.unsynced
		body["snapshot_seq"] = t.snapSeq
	}
	writeJSON(w, code, body)
}

// walTotals is the WAL state of every shard together.
type walTotals struct {
	unsynced int             // records awaiting group commit
	snapSeq  uint64          // the newest snapshot of any shard
	forms    wal.RecordForms // ingest records appended, by form
}

// walTotals sums the shards' WAL state; the server must be durable.
func (s *Server) walTotals() walTotals {
	var t walTotals
	for _, sh := range s.shards {
		t.unsynced += sh.store.Unsynced()
		t.snapSeq = max(t.snapSeq, sh.store.SnapshotSeq())
		forms := sh.store.RecordForms()
		t.forms.Decimal += forms.Decimal
		t.forms.F64 += forms.F64
	}
	return t
}
