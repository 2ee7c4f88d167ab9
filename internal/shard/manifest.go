// Package shard partitions a document collection across N independently
// built, independently servable archive files — the repository's first
// step from one monolithic archive toward the multi-petabyte layouts the
// paper's web-scale pitch implies. A shard set is a directory holding a
// small manifest file plus N ordinary single-file archives of any
// registered backend; the manifest records the backend, the shard paths
// and each shard's document count, from which cumulative global-id
// offsets follow.
//
// Global document ids are manifest order: shard 0's documents come
// first, then shard 1's, and so on. With contiguous-range routing that
// equals append order; with round-robin routing it is a deterministic
// permutation of it (document i of the input lands at shard i%N, local
// id i/N). Reader routes a global id to (shard, local id) by binary
// search over the cumulative offsets.
//
// Shard sets open transparently through archive.Open — the package
// registers the manifest magic as a path format — so serve.Server,
// cmd/rlzd and the workload driver run over a shard set unchanged.
package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rlz/internal/archive"
	"rlz/internal/coding"
	"rlz/internal/faultfs"
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

// ErrCorruptManifest is returned when a manifest fails structural checks.
var ErrCorruptManifest = errors.New("shard: corrupt manifest")

// ManifestName is the manifest's file name inside a shard directory. It
// equals archive.DirManifest so archive.Open(dir) finds it.
const ManifestName = archive.DirManifest

// ShardInfo describes one shard of a set.
type ShardInfo struct {
	// Path locates the shard archive, relative to the manifest's
	// directory. Absolute paths and ".." elements are rejected so a
	// hostile manifest cannot reach outside its directory.
	Path string
	// Docs is the shard's document count.
	Docs int
}

// Manifest lists the shards of a set: the backend that built every
// shard and, per shard, its path and document count. Global ids follow
// manifest order; Starts derives the cumulative offsets.
type Manifest struct {
	Backend archive.Backend
	Shards  []ShardInfo
}

// NumDocs returns the total document count across all shards.
func (m *Manifest) NumDocs() int {
	total := 0
	for _, s := range m.Shards {
		total += s.Docs
	}
	return total
}

// Starts returns the cumulative global-id offsets: starts[i] is the
// global id of shard i's first document, and starts[len(Shards)] the
// total document count.
func (m *Manifest) Starts() []int {
	starts := make([]int, len(m.Shards)+1)
	for i, s := range m.Shards {
		starts[i+1] = starts[i] + s.Docs
	}
	return starts
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

// Marshal appends the serialized manifest to dst: header magic and
// version, the backend name, the shard count, one (path, docs) pair per
// shard, and a trailing end magic so truncation is detectable.
func (m *Manifest) Marshal(dst []byte) []byte {
	dst = append(dst, headerMagic...)
	dst = append(dst, version)
	dst = coding.PutUvarint64(dst, uint64(len(m.Backend)))
	dst = append(dst, m.Backend...)
	dst = coding.PutUvarint64(dst, uint64(len(m.Shards)))
	for _, s := range m.Shards {
		dst = coding.PutUvarint64(dst, uint64(len(s.Path)))
		dst = append(dst, s.Path...)
		dst = coding.PutUvarint64(dst, uint64(s.Docs))
	}
	return append(dst, footerMagic...)
}

// UnmarshalManifest parses a manifest serialized by Marshal. Every
// declared length is checked against the bytes actually remaining before
// any allocation, so hostile input cannot amplify memory.
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

// WriteManifest atomically publishes the manifest at path through the
// repository's one tmp+fsync+rename+dir-fsync protocol: a crash leaves
// the previous manifest (or none) or the new one, never a torn one.
func WriteManifest(path string, m *Manifest) error {
	if err := m.validate(); err != nil {
		return err
	}
	return faultfs.WriteFileAtomic(faultfs.OS, path, m.Marshal(nil))
}

// ReadManifest reads and validates a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := UnmarshalManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
