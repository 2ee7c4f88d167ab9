// Package collection turns the repository's static archives into a live,
// continuously growing document store: a *generational* archive set in
// one directory, described by a versioned manifest that is atomically
// swapped on every mutation of the set's structure.
//
// A collection directory holds:
//
//   - MANIFEST — the current generation manifest (this file's format),
//     written via tmp+rename so a crash leaves either the old or the new
//     generation, never a torn one.
//   - sealed segments — immutable single-file archives of any registered
//     backend (rlz, block, raw), each owning a contiguous global doc-id
//     range in manifest order.
//   - at most one open append segment — a rawstore archive still being
//     written (see openSegment), where newly appended documents land and
//     become readable immediately.
//   - dict-<id> — the dictionary generations the compactor factorizes
//     against, listed in the manifest (prepared once per process).
//
// Global document ids are append order and are stable for the lifetime
// of the collection: sealing and compaction reorganize bytes, never ids.
// Deletion is logical — a tombstone in the manifest — so deleted ids
// return not-found forever instead of being reassigned.
//
// Collections open transparently through archive.Open (the manifest
// magic is registered as a path format), so serve.Server, cmd/rlzd,
// rlz grep/verify/cat and the workload driver run over a live collection
// unchanged.
package collection

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"rlz/internal/archive"
	"rlz/internal/coding"
	"rlz/internal/faultfs"
)

const (
	// version is the manifest format Marshal writes and the only one
	// UnmarshalManifest accepts.
	version     = 2
	headerMagic = "LIVC"
	footerMagic = "LIVE"

	// maxSegments, maxTombstones and maxDicts bound a hostile manifest's
	// declared counts so it cannot demand absurd allocations; all are far
	// above any sane deployment.
	maxSegments   = 1 << 20
	maxTombstones = 1 << 28
	maxDicts      = 1 << 20
)

// ErrCorruptManifest is returned when a generation manifest fails
// structural checks.
var ErrCorruptManifest = errors.New("collection: corrupt manifest")

// ManifestName is the manifest's file name inside a collection
// directory. It equals archive.DirManifest so archive.Open(dir) finds it.
const ManifestName = archive.DirManifest

// Dict names one immutable dictionary generation: the id segments refer
// to it by and the file (relative to the collection directory) holding
// its text. Dictionary files are published atomically before any
// manifest references them, and removed by GC once no live segment
// names their id.
type Dict struct {
	ID   uint64
	Path string
}

// Segment describes one immutable segment of a generation: a sealed
// single-file archive and the document count it owns.
// Global ids follow manifest order, so segment i serves
// [starts[i], starts[i]+Docs).
type Segment struct {
	// Path locates the segment, relative to the collection directory.
	// Absolute paths and ".." elements are rejected so a hostile
	// manifest cannot reach outside its directory.
	Path string
	// Docs is the segment's document count (tombstoned ids included —
	// tombstones mask documents, they do not renumber them).
	Docs int
	// Dict is the id of the dictionary this segment was factorized
	// against, or 0 for segments that used none (raw segments). The id is
	// attribution only — RLZ archives
	// embed their dictionary bytes, so a segment decodes standalone —
	// but it is what lets GC retire dictionary files and the stats
	// surface report per-generation ratios.
	Dict uint64
	// Raw is the segment's uncompressed payload size in bytes (0 when
	// unknown). With the file size it yields the segment's compression
	// ratio.
	Raw int64
}

// Manifest is one generation of a collection: the ordered immutable
// segments, the name of the open append segment (if any), the tombstone
// set, and the counters that make the next mutation unambiguous.
type Manifest struct {
	// Generation increments on every published manifest; readers use it
	// for cache epochs and staleness checks.
	Generation uint64
	// NextSeq numbers the next segment file to be created, so a crashed
	// compaction's leftovers can never collide with a live segment.
	NextSeq uint64
	// OpenSeg is the file name of the active append segment — one
	// self-delimiting rawstore archive in progress — or "" when none is
	// open.
	OpenSeg string
	// Dicts lists the dictionary generations live segments may reference,
	// ids strictly ascending. The last entry is the current compaction
	// target; earlier ones are retained only while a segment still names
	// them.
	Dicts []Dict
	// Segments lists the sealed segments in global-id order.
	Segments []Segment
	// Tombstones lists deleted global ids, sorted ascending, unique.
	// Ids may fall in sealed segments or the open segment.
	Tombstones []int
}

// NumSealedDocs returns the total document count across sealed segments
// (the open segment's count lives in its own recovery log, not here).
func (m *Manifest) NumSealedDocs() int {
	total := 0
	for _, s := range m.Segments {
		total += s.Docs
	}
	return total
}

// validName rejects path components a manifest must not smuggle in:
// empty names, absolute paths and ".." traversal.
func validName(name string) error {
	if name == "" || filepath.IsAbs(name) {
		return fmt.Errorf("path %q must be relative and non-empty", name)
	}
	for _, el := range strings.Split(filepath.ToSlash(name), "/") {
		if el == ".." {
			return fmt.Errorf("path %q escapes the collection directory", name)
		}
	}
	return nil
}

// validate rejects structurally hostile manifests.
func (m *Manifest) validate() error {
	if m.Generation == 0 {
		return fmt.Errorf("%w: generation 0 (generations start at 1)", ErrCorruptManifest)
	}
	if m.OpenSeg != "" {
		if err := validName(m.OpenSeg); err != nil {
			return fmt.Errorf("%w: open segment %v", ErrCorruptManifest, err)
		}
		if strings.ContainsRune(filepath.ToSlash(m.OpenSeg), '/') {
			return fmt.Errorf("%w: open segment %q must be a plain file name", ErrCorruptManifest, m.OpenSeg)
		}
	}
	dictIDs := make(map[uint64]bool, len(m.Dicts))
	dictPaths := make(map[string]int, len(m.Dicts))
	prevID := uint64(0)
	for i, d := range m.Dicts {
		if d.ID <= prevID {
			return fmt.Errorf("%w: dictionary ids not strictly ascending at %d", ErrCorruptManifest, i)
		}
		prevID = d.ID
		if err := validName(d.Path); err != nil {
			return fmt.Errorf("%w: dictionary %d %v", ErrCorruptManifest, i, err)
		}
		clean := filepath.Clean(filepath.ToSlash(d.Path))
		if j, dup := dictPaths[clean]; dup {
			return fmt.Errorf("%w: dictionaries %d and %d both name %q", ErrCorruptManifest, j, i, d.Path)
		}
		dictPaths[clean] = i
		dictIDs[d.ID] = true
		if clean == m.OpenSeg {
			return fmt.Errorf("%w: dictionary %d names the open segment %q", ErrCorruptManifest, i, d.Path)
		}
	}
	seen := make(map[string]int, len(m.Segments))
	for i, s := range m.Segments {
		if err := validName(s.Path); err != nil {
			return fmt.Errorf("%w: segment %d %v", ErrCorruptManifest, i, err)
		}
		// Duplicates would serve one segment's documents under two
		// global-id ranges; compare cleaned paths so "a" and "./a"
		// collide too.
		clean := filepath.Clean(filepath.ToSlash(s.Path))
		if j, dup := seen[clean]; dup {
			return fmt.Errorf("%w: segments %d and %d both name %q", ErrCorruptManifest, j, i, s.Path)
		}
		seen[clean] = i
		if clean == m.OpenSeg {
			return fmt.Errorf("%w: segment %d names the open segment %q", ErrCorruptManifest, i, s.Path)
		}
		if s.Docs < 0 {
			return fmt.Errorf("%w: segment %d has negative document count", ErrCorruptManifest, i)
		}
		if _, dup := dictPaths[clean]; dup {
			return fmt.Errorf("%w: segment %d names dictionary file %q", ErrCorruptManifest, i, s.Path)
		}
		if s.Dict != 0 && !dictIDs[s.Dict] {
			return fmt.Errorf("%w: segment %d references unknown dictionary %d", ErrCorruptManifest, i, s.Dict)
		}
		if s.Raw < 0 {
			return fmt.Errorf("%w: segment %d has negative raw size", ErrCorruptManifest, i)
		}
	}
	prev := -1
	for i, t := range m.Tombstones {
		if t <= prev {
			return fmt.Errorf("%w: tombstones not strictly ascending at %d", ErrCorruptManifest, i)
		}
		prev = t
	}
	return nil
}

// Marshal appends the serialized manifest to dst: header magic and
// version, the counters, the open-segment name, the segment list, the
// delta-coded tombstone set, and a trailing end magic so truncation is
// detectable.
func (m *Manifest) Marshal(dst []byte) []byte {
	dst = append(dst, headerMagic...)
	dst = append(dst, version)
	dst = coding.PutUvarint64(dst, m.Generation)
	dst = coding.PutUvarint64(dst, m.NextSeq)
	dst = coding.PutUvarint64(dst, uint64(len(m.OpenSeg)))
	dst = append(dst, m.OpenSeg...)
	dst = coding.PutUvarint64(dst, uint64(len(m.Dicts)))
	for _, d := range m.Dicts {
		dst = coding.PutUvarint64(dst, d.ID)
		dst = coding.PutUvarint64(dst, uint64(len(d.Path)))
		dst = append(dst, d.Path...)
	}
	dst = coding.PutUvarint64(dst, uint64(len(m.Segments)))
	for _, s := range m.Segments {
		dst = coding.PutUvarint64(dst, uint64(len(s.Path)))
		dst = append(dst, s.Path...)
		dst = coding.PutUvarint64(dst, uint64(s.Docs))
		dst = coding.PutUvarint64(dst, s.Dict)
		dst = coding.PutUvarint64(dst, uint64(s.Raw))
	}
	dst = coding.PutUvarint64(dst, uint64(len(m.Tombstones)))
	prev := 0
	for i, t := range m.Tombstones {
		if i == 0 {
			dst = coding.PutUvarint64(dst, uint64(t))
		} else {
			dst = coding.PutUvarint64(dst, uint64(t-prev))
		}
		prev = t
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
	num := func(what string) (uint64, error) {
		n, k, err := coding.Uvarint64(src[pos:])
		if err != nil {
			return 0, fmt.Errorf("%w: %s: %v", ErrCorruptManifest, what, err)
		}
		pos += k
		return n, nil
	}
	str := func(what string) (string, error) {
		n, err := num(what + " length")
		if err != nil {
			return "", err
		}
		if n > uint64(len(src)-pos) {
			return "", fmt.Errorf("%w: %s length %d exceeds %d remaining bytes", ErrCorruptManifest, what, n, len(src)-pos)
		}
		s := string(src[pos : pos+int(n)])
		pos += int(n)
		return s, nil
	}

	m := &Manifest{}
	var err error
	if m.Generation, err = num("generation"); err != nil {
		return nil, err
	}
	if m.NextSeq, err = num("next sequence"); err != nil {
		return nil, err
	}
	if m.OpenSeg, err = str("open segment"); err != nil {
		return nil, err
	}
	dcount, err := num("dictionary count")
	if err != nil {
		return nil, err
	}
	// Each dictionary needs at least 2 bytes (id + empty path length).
	if dcount > maxDicts || dcount > uint64(len(src)-pos)/2 {
		return nil, fmt.Errorf("%w: implausible dictionary count %d for %d remaining bytes", ErrCorruptManifest, dcount, len(src)-pos)
	}
	m.Dicts = make([]Dict, 0, dcount)
	for i := uint64(0); i < dcount; i++ {
		id, err := num(fmt.Sprintf("dictionary %d id", i))
		if err != nil {
			return nil, err
		}
		path, err := str(fmt.Sprintf("dictionary %d path", i))
		if err != nil {
			return nil, err
		}
		m.Dicts = append(m.Dicts, Dict{ID: id, Path: path})
	}
	count, err := num("segment count")
	if err != nil {
		return nil, err
	}
	// Each segment needs at least 2 bytes (empty path length + docs).
	if count > maxSegments || count > uint64(len(src)-pos)/2 {
		return nil, fmt.Errorf("%w: implausible segment count %d for %d remaining bytes", ErrCorruptManifest, count, len(src)-pos)
	}
	m.Segments = make([]Segment, 0, count)
	for i := uint64(0); i < count; i++ {
		path, err := str(fmt.Sprintf("segment %d path", i))
		if err != nil {
			return nil, err
		}
		docs, err := num(fmt.Sprintf("segment %d docs", i))
		if err != nil {
			return nil, err
		}
		if docs > 1<<56 {
			return nil, fmt.Errorf("%w: segment %d docs %d overflows", ErrCorruptManifest, i, docs)
		}
		seg := Segment{Path: path, Docs: int(docs)}
		if seg.Dict, err = num(fmt.Sprintf("segment %d dictionary", i)); err != nil {
			return nil, err
		}
		raw, err := num(fmt.Sprintf("segment %d raw size", i))
		if err != nil {
			return nil, err
		}
		if raw > 1<<62 {
			return nil, fmt.Errorf("%w: segment %d raw size %d overflows", ErrCorruptManifest, i, raw)
		}
		seg.Raw = int64(raw)
		m.Segments = append(m.Segments, seg)
	}
	tombs, err := num("tombstone count")
	if err != nil {
		return nil, err
	}
	// Each tombstone delta needs at least 1 byte.
	if tombs > maxTombstones || tombs > uint64(len(src)-pos) {
		return nil, fmt.Errorf("%w: implausible tombstone count %d for %d remaining bytes", ErrCorruptManifest, tombs, len(src)-pos)
	}
	m.Tombstones = make([]int, 0, tombs)
	cum := uint64(0)
	for i := uint64(0); i < tombs; i++ {
		d, err := num(fmt.Sprintf("tombstone %d", i))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			cum = d
		} else {
			cum += d
		}
		if cum > 1<<56 {
			return nil, fmt.Errorf("%w: tombstone %d overflows", ErrCorruptManifest, i)
		}
		m.Tombstones = append(m.Tombstones, int(cum))
	}
	if len(src)-pos < len(footerMagic) || string(src[pos:pos+len(footerMagic)]) != footerMagic {
		return nil, fmt.Errorf("%w: missing %q footer", ErrCorruptManifest, footerMagic)
	}
	if pos+len(footerMagic) != len(src) {
		return nil, fmt.Errorf("%w: %d trailing bytes after footer", ErrCorruptManifest, len(src)-pos-len(footerMagic))
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteManifest atomically publishes m as dir's current generation
// through fs (faultfs.OS outside fault-injection tests): the bytes are
// written to a temporary file, fsynced, renamed over ManifestName, and
// the directory is fsynced. A crash at any point leaves either the
// previous manifest or the new one — the atomic-swap contract every
// mutation of a live collection relies on.
func WriteManifest(fs faultfs.FS, dir string, m *Manifest) error {
	if err := m.validate(); err != nil {
		return err
	}
	return faultfs.WriteFileAtomic(fs, filepath.Join(dir, ManifestName), m.Marshal(nil))
}

// ReadManifest reads and validates the manifest file at path.
func ReadManifest(path string) (*Manifest, error) {
	return readManifest(faultfs.OS, path)
}

func readManifest(fs faultfs.FS, path string) (*Manifest, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(string(data), shrdMagic) {
		return nil, shrdRefusal(path)
	}
	m, err := UnmarshalManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
