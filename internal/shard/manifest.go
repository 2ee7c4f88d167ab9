// Package shard is the bulk loader for a collection: it partitions a
// document source across N sealed segments built in parallel against one
// shared prepared dictionary and publishes them as one generation of an
// ordinary internal/collection directory (see Create). What it writes is
// a collection in every respect: it opens through archive.Open as a
// *collection.Collection, takes appends and deletes, and compacts against
// the dictionary the build used.
//
// Global document ids are segment order: shard 0's documents come first,
// then shard 1's, and so on. With contiguous-range routing that equals
// append order; with round-robin routing it is a deterministic
// permutation of it (document i of the input lands at shard i%N, local
// id i/N).
//
// The package also keeps the decode half of the format it wrote before
// shard sets were collections: a directory whose MANIFEST starts with
// the SHRD magic still opens, read-only, as an archive.Set over its
// member files (see UnmarshalManifest). Nothing writes that format any
// more.
package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rlz/internal/archive"
	"rlz/internal/coding"
)

const (
	version     = 1
	headerMagic = "SHRD"
	footerMagic = "SHRE"

	// maxShards bounds the manifest's declared shard count; it is far
	// above any sane deployment and exists only so a hostile manifest
	// cannot demand absurd allocations.
	maxShards = 1 << 20
)

// ErrCorruptManifest is returned when a legacy manifest fails structural
// checks, or disagrees with the member files it names.
var ErrCorruptManifest = errors.New("shard: corrupt manifest")

// ShardInfo describes one shard of a legacy set.
type ShardInfo struct {
	// Path locates the shard archive, relative to the manifest's
	// directory. Absolute paths and ".." elements are rejected so a
	// hostile manifest cannot reach outside its directory.
	Path string
	// Docs is the shard's document count.
	Docs int
}

// Manifest is a decoded legacy (SHRD, version 1) manifest: the backend
// that built every shard and, per shard, its path and document count.
// Global ids follow manifest order.
type Manifest struct {
	Backend archive.Backend
	Shards  []ShardInfo
}

// validate rejects structurally hostile manifests: shard paths that are
// empty, absolute, duplicated or escape the manifest directory, and
// negative counts.
func (m *Manifest) validate() error {
	if len(m.Shards) == 0 {
		return fmt.Errorf("%w: no shards", ErrCorruptManifest)
	}
	seen := make(map[string]int, len(m.Shards))
	for i, s := range m.Shards {
		if s.Path == "" || filepath.IsAbs(s.Path) {
			return fmt.Errorf("%w: shard %d path %q must be relative", ErrCorruptManifest, i, s.Path)
		}
		for _, el := range strings.Split(filepath.ToSlash(s.Path), "/") {
			if el == ".." {
				return fmt.Errorf("%w: shard %d path %q escapes the shard directory", ErrCorruptManifest, i, s.Path)
			}
		}
		// Duplicates would serve one shard's documents under two global-id
		// ranges; compare cleaned paths so "a" and "./a" collide too.
		clean := filepath.Clean(filepath.ToSlash(s.Path))
		if j, dup := seen[clean]; dup {
			return fmt.Errorf("%w: shards %d and %d both name %q", ErrCorruptManifest, j, i, s.Path)
		}
		seen[clean] = i
		if s.Docs < 0 {
			return fmt.Errorf("%w: shard %d has negative document count", ErrCorruptManifest, i)
		}
	}
	return nil
}

// UnmarshalManifest parses a legacy manifest: header magic and version,
// the backend name, the shard count, one (path, docs) pair per shard, and
// a trailing end magic so truncation is detectable. Every declared length
// is checked against the bytes actually remaining before any allocation,
// so hostile input cannot amplify memory.
func UnmarshalManifest(src []byte) (*Manifest, error) {
	if len(src) < len(headerMagic)+1 || string(src[:4]) != headerMagic {
		return nil, fmt.Errorf("%w: missing %q header", ErrCorruptManifest, headerMagic)
	}
	if src[4] != version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorruptManifest, src[4], version)
	}
	pos := len(headerMagic) + 1
	str := func(what string) (string, error) {
		n, k, err := coding.Uvarint64(src[pos:])
		if err != nil {
			return "", fmt.Errorf("%w: %s length: %v", ErrCorruptManifest, what, err)
		}
		pos += k
		if n > uint64(len(src)-pos) {
			return "", fmt.Errorf("%w: %s length %d exceeds %d remaining bytes", ErrCorruptManifest, what, n, len(src)-pos)
		}
		s := string(src[pos : pos+int(n)])
		pos += int(n)
		return s, nil
	}
	backend, err := str("backend")
	if err != nil {
		return nil, err
	}
	count, k, err := coding.Uvarint64(src[pos:])
	if err != nil {
		return nil, fmt.Errorf("%w: shard count: %v", ErrCorruptManifest, err)
	}
	pos += k
	// Each shard needs at least 2 bytes (empty path length + docs).
	if count > maxShards || count > uint64(len(src)-pos)/2 {
		return nil, fmt.Errorf("%w: implausible shard count %d for %d remaining bytes", ErrCorruptManifest, count, len(src)-pos)
	}
	m := &Manifest{Backend: archive.Backend(backend), Shards: make([]ShardInfo, 0, count)}
	for i := uint64(0); i < count; i++ {
		path, err := str(fmt.Sprintf("shard %d path", i))
		if err != nil {
			return nil, err
		}
		docs, k, err := coding.Uvarint64(src[pos:])
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d docs: %v", ErrCorruptManifest, i, err)
		}
		pos += k
		if docs > 1<<56 {
			return nil, fmt.Errorf("%w: shard %d docs %d overflows", ErrCorruptManifest, i, docs)
		}
		m.Shards = append(m.Shards, ShardInfo{Path: path, Docs: int(docs)})
	}
	if len(src)-pos < len(footerMagic) || string(src[pos:pos+len(footerMagic)]) != footerMagic {
		return nil, fmt.Errorf("%w: missing %q footer", ErrCorruptManifest, footerMagic)
	}
	// A manifest is a whole standalone file, so surplus bytes behind the
	// footer can only mean a botched write.
	if pos+len(footerMagic) != len(src) {
		return nil, fmt.Errorf("%w: %d trailing bytes after footer", ErrCorruptManifest, len(src)-pos-len(footerMagic))
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func init() {
	archive.RegisterPathFormat(headerMagic, "sharded", openLegacy)
}

// openLegacy opens the shard set a legacy manifest at path describes, as
// a read-only archive.Set. Every shard must be a single-file archive:
// shards are opened through archive.OpenFile (backend auto-detected,
// memory-mapped), which refuses multi-file magics — so a hostile manifest
// naming another manifest (or itself) as a shard fails cleanly instead of
// recursing. Each shard is cross-checked against the manifest: backend
// and per-shard document counts must match.
func openLegacy(path string) (archive.Reader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := UnmarshalManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
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
	return archive.NewSet(m.Backend, rs, nil), nil
}
