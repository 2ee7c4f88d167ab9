package shard

import (
	"fmt"
	"path/filepath"

	"rlz/internal/archive"
)

func init() {
	archive.RegisterPathFormat(headerMagic, "sharded", Open)
}

// Reader serves a shard set through the archive.Reader interface: it is
// an archive.Set — the one segment router, which maps a global document
// id to its (shard, local id) over the manifest's cumulative offsets and
// delegates to that shard's own Reader — plus the manifest the set was
// opened from. Everything the router offers applies: zero-copy View on
// memory-mapped raw shards, GetBatch handing each shard its whole
// sub-batch (so a block shard decodes a shared block once), and FindAll
// / GetRange in the compressed domain on RLZ shards, by scan otherwise.
//
// Concurrency contract: identical to archive.Reader — a shared *Reader
// is safe for concurrent use by any number of goroutines without
// external locking, provided concurrent GetAppend calls pass distinct
// dst buffers. The routing state is immutable after Open, and every
// delegated call lands on a backend Reader that makes the same
// guarantee.
type Reader struct {
	*archive.Set
	m *Manifest
}

// Open opens the shard set described by the manifest at path. Every
// shard must be a single-file archive: shards are opened through
// archive.OpenFile (backend auto-detected, memory-mapped), which refuses
// multi-file magics — so a hostile manifest naming another manifest
// (or itself) as a shard fails cleanly instead of recursing. Each
// shard is cross-checked against the manifest: backend and per-shard
// document counts must match. archive.Open dispatches here
// automatically when it sees a manifest, so most callers never call
// this directly.
func Open(path string) (archive.Reader, error) {
	m, err := ReadManifest(path)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	rs := make([]archive.Reader, 0, len(m.Shards))
	fail := func(err error) (archive.Reader, error) {
		for _, sr := range rs {
			_ = sr.Close()
		}
		return nil, err
	}
	for i, s := range m.Shards {
		sr, err := archive.OpenFile(filepath.Join(dir, s.Path))
		if err != nil {
			return fail(fmt.Errorf("shard %d (%s): %w", i, s.Path, err))
		}
		rs = append(rs, sr)
		if st := sr.Stats(); st.Backend != m.Backend {
			return fail(fmt.Errorf("%w: shard %d (%s) is %s, manifest says %s",
				ErrCorruptManifest, i, s.Path, st.Backend, m.Backend))
		}
		if sr.NumDocs() != s.Docs {
			return fail(fmt.Errorf("%w: shard %d (%s) holds %d documents, manifest says %d",
				ErrCorruptManifest, i, s.Path, sr.NumDocs(), s.Docs))
		}
	}
	return &Reader{Set: archive.NewSet(m.Backend, rs, nil), m: m}, nil
}

// NumShards returns the shard count.
func (r *Reader) NumShards() int { return len(r.m.Shards) }

// Manifest returns a copy of the manifest the set was opened from.
func (r *Reader) Manifest() Manifest {
	return Manifest{Backend: r.m.Backend, Shards: append([]ShardInfo(nil), r.m.Shards...)}
}

// ShardStats reports every shard's own archive.Stats, in shard order —
// the per-shard breakdown rlzd's /stats endpoint serves.
func (r *Reader) ShardStats() []archive.Stats {
	out := make([]archive.Stats, r.NumShards())
	for i, sr := range r.Members() {
		out[i] = sr.Stats()
	}
	return out
}
