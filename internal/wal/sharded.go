package wal

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"strconv"
	"strings"

	"sapla/internal/par"
)

// Per-shard multiplexing: N independent WAL streams share one data
// directory. Shard 0 writes unprefixed names (wal-*, snap-*), so a
// single-shard directory is byte-compatible with the pre-sharding layout and
// old directories open as one shard; shard i >= 1 namespaces every file with
// an "sNNNN-" prefix. A prefixed name never parses as another shard's
// segment or snapshot (parseSeq requires the name to start with its
// prefix), so each stream's recovery, rotation and garbage collection see
// only their own files.
//
// The shard count is pinned by a manifest ("shards.meta") written before the
// first stream is created: records route to shards by a stable hash of the
// series ID, so reopening a directory under a different count would replay
// every record into the wrong stream — deletes would miss their ingests and
// deleted series would resurrect. The manifest therefore wins over whatever
// count the process asks for.

// manifestName is the shard-count manifest file, at the top of the shared
// data directory.
const manifestName = "shards.meta"

// manifestMagic heads the manifest (7 name bytes + format version). Each
// version marks record ops its predecessors cannot read: version 2 op 3 (an
// ingest with its representation), version 3 op 4 (an ingest whose values are
// in decimal form). An older binary refuses the manifest, and with it the
// directory: its replay takes any frame it cannot decode for a torn tail, so
// it would silently truncate a final segment at the first record it does not
// know. OpenSharded reads a version-1 or version-2 manifest and rewrites it
// as version 3. The store now writes ops 1, 2 and 4 only (op 4 without a
// representation), a subset of version 3's, so a version-3 reader of any age
// reads a directory this one writes.
const manifestMagic = "SAPLSHD3"

// olderManifestMagics are the versions OpenSharded upgrades.
var olderManifestMagics = []string{"SAPLSHD1", "SAPLSHD2"}

// maxShards bounds the manifest count: the namespace prefix is
// fixed-width four digits, and four-digit shard counts already exceed any
// sane single-directory deployment.
const maxShards = 1024

// ErrCorruptManifest marks an unparseable shard manifest. Like a corrupt
// snapshot it fails recovery loudly: guessing a shard count risks silently
// replaying records into the wrong streams.
var ErrCorruptManifest = errors.New("wal: corrupt shard manifest")

// shardNamespace returns shard i's file-name prefix ("" for shard 0).
func shardNamespace(shard int) string {
	if shard == 0 {
		return ""
	}
	return fmt.Sprintf("s%04d-", shard)
}

// NamespaceFS exposes the subset of an FS whose names carry a fixed prefix,
// as if it were a directory of its own: callers see stripped names, the
// underlying FS sees prefixed ones. It is how per-shard WAL streams share
// one directory without a shared mutex, shared segment sequence, or any
// coordination at all below the serving layer.
type NamespaceFS struct {
	inner  FS
	prefix string
}

// NewNamespaceFS wraps inner so every name gains prefix. An empty prefix
// returns inner itself — shard 0 pays no wrapper.
func NewNamespaceFS(inner FS, prefix string) FS {
	if prefix == "" {
		return inner
	}
	return &NamespaceFS{inner: inner, prefix: prefix}
}

// Create implements FS.
func (n *NamespaceFS) Create(name string) (File, error) {
	return n.inner.Create(n.prefix + name)
}

// Append implements FS.
func (n *NamespaceFS) Append(name string) (File, error) {
	return n.inner.Append(n.prefix + name)
}

// ReadFile implements FS.
func (n *NamespaceFS) ReadFile(name string) ([]byte, error) {
	return n.inner.ReadFile(n.prefix + name)
}

// Rename implements FS.
func (n *NamespaceFS) Rename(oldname, newname string) error {
	return n.inner.Rename(n.prefix+oldname, n.prefix+newname)
}

// Remove implements FS.
func (n *NamespaceFS) Remove(name string) error {
	return n.inner.Remove(n.prefix + name)
}

// List implements FS: only names under the prefix, stripped of it.
func (n *NamespaceFS) List() ([]string, error) {
	all, err := n.inner.List()
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(all))
	for _, name := range all {
		if strings.HasPrefix(name, n.prefix) {
			out = append(out, name[len(n.prefix):])
		}
	}
	return out, nil
}

// encodeManifest renders the manifest bytes for a shard count.
func encodeManifest(shards int) []byte {
	return []byte(fmt.Sprintf("%s count=%d\n", manifestMagic, shards))
}

// decodeManifest parses and validates manifest bytes; current is false for an
// older version's manifest.
func decodeManifest(data []byte) (shards int, current bool, err error) {
	s := strings.TrimSuffix(string(data), "\n")
	rest, current := strings.CutPrefix(s, manifestMagic+" count=")
	ok := current
	for _, magic := range olderManifestMagics {
		if !ok {
			rest, ok = strings.CutPrefix(s, magic+" count=")
		}
	}
	if !ok || strings.ContainsAny(rest, "\n") {
		return 0, false, fmt.Errorf("%w: %q", ErrCorruptManifest, s)
	}
	shards, err = strconv.Atoi(rest)
	if err != nil || shards < 1 || shards > maxShards {
		return 0, false, fmt.Errorf("%w: shard count %q", ErrCorruptManifest, rest)
	}
	return shards, current, nil
}

// readManifest loads the shard count; found is false when no manifest
// exists (a fresh or pre-sharding directory), current when it is version 3.
func readManifest(fsys FS) (shards int, found, current bool, err error) {
	data, err := fsys.ReadFile(manifestName)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false, false, nil
	}
	if err != nil {
		return 0, false, false, fmt.Errorf("wal: read shard manifest: %w", err)
	}
	shards, current, err = decodeManifest(data)
	if err != nil {
		return 0, false, false, err
	}
	return shards, true, current, nil
}

// writeManifest durably installs the shard count via temp + fsync + atomic
// rename, the same discipline as snapshots: after a crash the manifest
// either exists completely or not at all.
func writeManifest(fsys FS, shards int) error {
	if err := writeSnapshotFile(fsys, manifestName, encodeManifest(shards)); err != nil {
		return fmt.Errorf("wal: write shard manifest: %w", err)
	}
	return nil
}

// hasLegacyStream reports whether the directory holds unprefixed segment or
// snapshot files but no manifest — a directory written before sharding
// existed. Such a directory is exactly a one-shard layout.
func hasLegacyStream(fsys FS) (bool, error) {
	names, err := fsys.List()
	if err != nil {
		return false, fmt.Errorf("wal: list: %w", err)
	}
	for _, name := range names {
		if _, ok := parseSeq(name, segPrefix, segSuffix); ok {
			return true, nil
		}
		if _, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			return true, nil
		}
	}
	return false, nil
}

// ShardRecovery is one shard's share of OpenSharded's result.
type ShardRecovery struct {
	Store  *Store
	Series []Series
	Info   RecoveryInfo
}

// OpenSharded recovers N per-shard WAL streams multiplexed under one
// directory, replaying the shards independently and in parallel (each
// stream's segments are self-contained, so recovery time is bounded by the
// largest shard, not the sum). The effective shard count is resolved in
// this order:
//
//  1. an existing manifest pins the count — the requested count is ignored,
//     because records already routed under the persisted count;
//  2. a manifest-less directory with legacy unprefixed WAL files opens as
//     exactly one shard (the pre-sharding layout), and that count is pinned;
//  3. a fresh directory adopts the requested count and pins it before any
//     stream is created.
//
// An older manifest is rewritten as version 3 before any stream opens.
//
// The returned slice has one entry per effective shard. On any shard's
// failure every already-opened store is closed and the first error (by
// shard order) is returned.
func OpenSharded(fsys FS, shards int, opts Options) ([]ShardRecovery, error) {
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		return nil, fmt.Errorf("wal: shard count %d exceeds %d", shards, maxShards)
	}

	effective, found, current, err := readManifest(fsys)
	if err != nil {
		return nil, err
	}
	if !found {
		legacy, lerr := hasLegacyStream(fsys)
		if lerr != nil {
			return nil, lerr
		}
		effective = shards
		if legacy {
			effective = 1
		}
	}
	if !current {
		if werr := writeManifest(fsys, effective); werr != nil {
			return nil, werr
		}
	}

	recs := make([]ShardRecovery, effective)
	errs := make([]error, effective)
	par.Do(context.Background(), effective, effective, func(i int) {
		sfs := NewNamespaceFS(fsys, shardNamespace(i))
		st, series, info, oerr := Open(sfs, opts)
		if oerr != nil {
			errs[i] = fmt.Errorf("wal: shard %d: %w", i, oerr)
			return
		}
		recs[i] = ShardRecovery{Store: st, Series: series, Info: info}
	})
	for _, oerr := range errs {
		if oerr != nil {
			for _, r := range recs {
				if r.Store != nil {
					_ = r.Store.Close() //sapla:errok unwinding a failed multi-shard open; the first shard error is the one reported
				}
			}
			return nil, oerr
		}
	}
	return recs, nil
}
