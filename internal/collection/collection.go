package collection

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rlz/internal/archive"
	"rlz/internal/docmap"
	"rlz/internal/faultfs"
	"rlz/internal/rlz"
)

func init() {
	archive.RegisterPathFormat(headerMagic, "live collection", func(path string) (archive.Reader, error) {
		return Open(filepath.Dir(path), Options{})
	})
	// Registered only to be refused: by path with the way out, by bytes
	// (archive.OpenBytes) with archive.ErrNeedsPath, never parsed.
	archive.RegisterPathFormat(shrdMagic, "SHRD shard set", func(path string) (archive.Reader, error) {
		return nil, shrdRefusal(path)
	})
}

// ErrRetiredFormat is wrapped by Open when the directory holds a file in
// a format no longer read: the write-ahead log an older release kept
// beside the open segment, or a SHRD shard manifest (what bulk builds
// wrote before they were collections). The error names the file and the
// way out; no file is touched.
var ErrRetiredFormat = errors.New("collection: format no longer read")

// legacyLogName and shrdMagic name the two retired formats' files.
const legacyLogName, shrdMagic = "WAL", "SHRD"

func shrdRefusal(path string) error {
	return fmt.Errorf("%w: %s is a SHRD shard manifest; no release converts it, so rebuild the directory from its source documents with 'rlz build -shards N'", ErrRetiredFormat, path)
}

// ErrDeleted is wrapped by reads of a tombstoned document (see
// archive.ErrDeleted: it wraps docmap.ErrNoSuchDoc).
var ErrDeleted = archive.ErrDeleted

// ErrCompacting is returned when a mutation that restructures the
// segment list (Compact, GC) is requested while a compaction is already
// running.
var ErrCompacting = fmt.Errorf("collection: compaction already in progress")

// ErrBackpressure is returned by Append when the write path's in-flight
// budget (bytes appended to the open segment and awaiting a flush, or
// the pending-compaction document backlog) is exhausted. The append did
// not happen; the caller should back off and retry. rlzd surfaces it as
// HTTP 429 + Retry-After.
var ErrBackpressure = errors.New("collection: backpressure: in-flight byte budget exhausted")

// Options configures an open Collection.
//
// Durability modes. In both, an append writes its frame to the open
// segment once; the open segment is the collection's log.
//
//   - default: group commit — an append is acknowledged once a flush of
//     the open segment that started after its write has returned; one
//     flush amortizes over every append in flight. An acknowledged
//     append survives any crash.
//   - Async: the same write, but the append does not wait: it is
//     acknowledged from memory and durable at the next seal, delete or
//     Close; a crash loses at most the unflushed tail (never a torn
//     document). Since nothing waits for a flush, an Async append counts
//     against no in-flight budget and leaves the file unfilled.
type Options struct {
	// Async acknowledges appends before they are durable.
	Async bool
	// FS routes the write path's filesystem operations; nil means the
	// real filesystem (faultfs.OS). Tests install faultfs.NewSim() to
	// inject failures.
	FS faultfs.FS
	// MaxWALPending bounds the bytes appended to the open segment but
	// not yet flushed; appends beyond it fail with ErrBackpressure (one
	// is always admitted when nothing is pending). Zero means 8 MiB.
	// Group-commit mode only.
	MaxWALPending int64
	// MaxPendingDocs bounds the pending-compaction backlog (open
	// segment plus raw sealed segments); appends beyond it fail with
	// ErrBackpressure until a compaction drains the backlog. Zero means
	// unlimited.
	MaxPendingDocs int
}

// member is one closable a view routes to — a sealed segment's reader
// or the open segment — counted by the views that reference it, so a
// superseded member closes as soon as the last view using it drains
// (not at Collection.Close): a long-running daemon compacting
// continuously neither leaks descriptors nor pins unlinked files' disk
// space.
type member struct {
	refcount
	r    archive.Reader
	path string // manifest name: Segment.Path, or OpenSeg for the open segment
}

// newMember wraps r holding one reference, the creator's: the creator
// hands the member to a view (newView takes the view's own reference)
// and then unrefs, so a member whose view never publishes closes when
// that view is dropped.
func newMember(r archive.Reader, path string) *member {
	m := &member{r: r, path: path}
	m.init(func() { _ = r.Close() })
	return m
}

// view is one immutable routing snapshot: the segment set (sealed
// segments in id order, then the open segment when there is one — its
// document count grows independently under its own lock) behind the
// tombstone mask. Reads pin the current view with a reference (two
// atomic ops), so a mutation can publish a fresh view and the replaced
// members close exactly when their last in-flight reader finishes.
type view struct {
	refcount // 1 for being installed plus 1 per in-flight read
	gen      uint64
	set      *archive.Set
	members  []*member    // lifetimes and manifest names, parallel to set's members
	open     *openSegment // the last member's reader, or nil when no segment is open
}

// newView routes over members (shared, never mutated afterwards) and
// takes one reference on each, released when the view drains. The caller
// holds the view's installed reference: publishLocked hands it to the
// collection, or drops it when the publish fails.
func newView(members []*member, tomb map[int]struct{}, open *openSegment) *view {
	readers := make([]archive.Reader, len(members))
	for i, m := range members {
		if !m.tryRef() {
			panic("collection: view built over a drained member")
		}
		readers[i] = m.r
	}
	v := &view{set: archive.NewSet(archive.Live, readers, tomb), members: members, open: open}
	v.init(func() {
		for _, m := range members {
			m.unref()
		}
	})
	return v
}

// sealed returns the members that are sealed segments: all but the open
// one.
func (v *view) sealed() []*member {
	if v.open != nil {
		return v.members[:len(v.members)-1]
	}
	return v.members
}

// sealedDocs returns the sealed-document count, i.e. the global id of
// the open segment's first document.
func (v *view) sealedDocs() int {
	if v.open != nil {
		return v.set.Start(len(v.members) - 1)
	}
	return v.set.NumDocs()
}

// Collection is a live generational document store implementing
// archive.Reader plus the write API (Append, Delete, Seal, Compact, GC).
//
// Concurrency contract: the read side (Get, GetAppend, Extent, NumDocs,
// Size, Stats, FindAll, GetRange) is safe for any number of concurrent
// goroutines with distinct dst buffers — identical to archive.Reader —
// and stays safe while writes run: reads route through an atomic view
// pointer and never take the write lock. Writes are serialized on an
// internal mutex; one process must own the directory (there is no
// cross-process locking).
//
// Superseded members (segment readers replaced by compaction, sealed
// open-segment handles) are refcounted by the views that reference them
// and close as soon as the last in-flight read on any such view drains
// — a continuously compacting daemon holds descriptors only for the
// current generation plus whatever reads are still in flight.
type Collection struct {
	dir  string
	opts Options
	fs   faultfs.FS

	mu         sync.Mutex // serializes all mutations and manifest publishes
	man        *Manifest  // current manifest (guarded by mu)
	compacting bool       // guarded by mu
	closed     bool       // guarded by mu

	view atomic.Pointer[view]

	// dictMu guards the prepared-dictionary cache and the usage
	// accumulator. Prepared dictionaries (suffix array + k-gram ladder) are
	// built once per generation per process and shared by all build
	// workers; entries are released when the generation retires
	// (releaseDicts), not at process exit.
	dictMu sync.Mutex
	dicts  map[uint64]*rlz.Dictionary
	// heat accumulates factor-reference usage of dictionary heatID across
	// compaction builds — the signal adaptive re-sampling evicts cold
	// regions by. In-memory only; a restart starts cold.
	heat   *rlz.RegionHeat
	heatID uint64
}

// Claim creates dir if needed and refuses one that already holds a
// manifest — the first step of everything that lays down a fresh
// collection (Init, a bulk build by internal/shard), so none of them can
// overwrite a live one.
func Claim(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return fmt.Errorf("collection: %s already holds a collection", dir)
	}
	return nil
}

// Init creates an empty collection at dir (creating the directory if
// needed). Fails if dir already holds a manifest.
func Init(dir string) error {
	if err := Claim(dir); err != nil {
		return err
	}
	return WriteManifest(faultfs.OS, dir, &Manifest{Generation: 1, NextSeq: 1})
}

// Open opens the collection at dir (or its manifest path), recovering
// the open append segment if the last process died mid-write. A
// directory that still holds an older release's write-ahead log is
// refused with ErrRetiredFormat before anything is touched. archive.Open
// dispatches here automatically when it sees a collection manifest, so
// read-only callers never call this directly.
func Open(dir string, opts Options) (*Collection, error) {
	if opts.FS == nil {
		opts.FS = faultfs.OS
	}
	if st, err := os.Stat(dir); err == nil && !st.IsDir() {
		dir = filepath.Dir(dir)
	}
	man, err := readManifest(opts.FS, filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	// The log's acknowledged records may be missing from the open
	// segment, and only a release that drains it can replay them.
	log := filepath.Join(dir, legacyLogName)
	if _, err := opts.FS.Stat(log); err == nil {
		return nil, fmt.Errorf("%w: %s is the write-ahead log of an older release; open the directory once with a release that drains it (commit 8f968e5 through c0a3233), then reopen", ErrRetiredFormat, log)
	}
	if opts.MaxWALPending <= 0 {
		opts.MaxWALPending = 8 << 20
	}
	c := &Collection{dir: dir, opts: opts, fs: opts.FS, man: man,
		dicts: make(map[uint64]*rlz.Dictionary)}
	// Every member is held by this function until the view has its own
	// references, so any failure below closes what was opened so far.
	var members []*member
	defer func() {
		for _, m := range members {
			m.unref()
		}
	}()
	for i, s := range man.Segments {
		sr, err := openSegmentFile(dir, s.Path)
		if err != nil {
			return nil, fmt.Errorf("collection: segment %d (%s): %w", i, s.Path, err)
		}
		members = append(members, newMember(sr, s.Path))
		if sr.NumDocs() != s.Docs {
			return nil, fmt.Errorf("%w: segment %d (%s) holds %d documents, manifest says %d",
				ErrCorruptManifest, i, s.Path, sr.NumDocs(), s.Docs)
		}
	}
	var open *openSegment
	if man.OpenSeg != "" {
		if open, err = recoverOpenSegment(c.fs, dir, man.OpenSeg); err != nil {
			return nil, err
		}
		members = append(members, newMember(open, man.OpenSeg))
	}
	// Clamp tombstones to the recovered document count: a tombstone can
	// be published durably for an append whose bytes were still in OS
	// buffers when the process died. Recovery truncates the lost tail,
	// so its ids WILL be re-allocated to new documents — a stale
	// tombstone would silently swallow them forever. Dropping it here
	// (and at the next publish, since the manifest is held pruned)
	// restores the id-stability contract for every id that survived.
	total := man.NumSealedDocs()
	if open != nil {
		total += open.NumDocs()
	}
	if n := len(man.Tombstones); n > 0 && man.Tombstones[n-1] >= total {
		man.Tombstones = man.Tombstones[:sort.SearchInts(man.Tombstones, total)]
		// Publish the pruned set now: appends do not rewrite the
		// manifest, so an in-memory-only clamp would resurrect the stale
		// tombstones (over freshly re-allocated ids) at the next crash.
		man.Generation++
		if err := WriteManifest(c.fs, dir, man); err != nil {
			return nil, err
		}
	}
	v := newView(members, tombSet(man.Tombstones), open)
	v.gen = man.Generation
	c.view.Store(v)
	return c, nil
}

// openSegmentFile opens one sealed segment: a single-file archive,
// memory-mapped. A manifest naming anything else (another manifest) is
// corrupt.
func openSegmentFile(dir, path string) (archive.Reader, error) {
	sr, err := archive.OpenFile(filepath.Join(dir, path))
	if errors.Is(err, archive.ErrNeedsPath) {
		return nil, fmt.Errorf("%w: %w", ErrCorruptManifest, err)
	}
	return sr, err
}

// tombSet builds the O(1) membership set from the manifest's sorted list.
func tombSet(ids []int) map[int]struct{} {
	m := make(map[int]struct{}, len(ids))
	for _, id := range ids {
		m[id] = struct{}{}
	}
	return m
}

// cloneManifest deep-copies the current manifest for mutation.
// Called with mu held.
func (c *Collection) cloneManifest() *Manifest {
	m := &Manifest{
		Generation: c.man.Generation,
		NextSeq:    c.man.NextSeq,
		OpenSeg:    c.man.OpenSeg,
		Dicts:      append([]Dict(nil), c.man.Dicts...),
		Segments:   append([]Segment(nil), c.man.Segments...),
		Tombstones: append([]int(nil), c.man.Tombstones...),
	}
	return m
}

// publishLocked atomically persists m as the next generation and
// installs v as the live view; the replaced view loses its installed
// reference and releases its members once its in-flight reads drain.
// When the publish fails v is dropped instead, closing any member only
// it referenced. Called with mu held.
func (c *Collection) publishLocked(m *Manifest, v *view) error {
	m.Generation = c.man.Generation + 1
	if err := WriteManifest(c.fs, c.dir, m); err != nil {
		v.unref()
		return err
	}
	c.man = m
	v.gen = m.Generation
	c.view.Swap(v).unref()
	return nil
}

// errClosed is what reads return once Close has drained the last view.
var errClosed = errors.New("collection: closed")

// acquireView pins the current view for one read, returning it with its
// release func: a view being drained cannot be resurrected, and a
// pointer move between load and ref retries on the fresh view. After
// Close the current view is drained for good and no other replaces it;
// reads then fail with errClosed before they touch a segment — a view
// handed out unpinned would race the unmapping of its files.
func (c *Collection) acquireView() (*view, func(), error) {
	for {
		v := c.view.Load()
		if v.tryRef() {
			if c.view.Load() == v {
				return v, v.unref, nil
			}
			v.unref()
			continue
		}
		if c.view.Load() == v {
			return nil, nil, errClosed
		}
	}
}

// Generation returns the current generation number.
func (c *Collection) Generation() uint64 { return c.view.Load().gen }

// Append stores one document at the tail of the collection, returning
// its stable global id. The document is readable immediately — before
// any seal or compaction — and durable per the collection's mode: by
// default before the call returns (a flush of the open segment, shared
// with every append in flight), with Async at the next seal, delete or
// Close. The first append after a seal (or on a fresh collection)
// creates a new open segment, which publishes a manifest so crash
// recovery knows where the write head is.
//
// ErrBackpressure (which the returned error wraps when the in-flight
// budget is exhausted) means the append did not happen — back off and
// retry.
func (c *Collection) Append(doc []byte) (int, error) {
	c.mu.Lock()
	id, open, end, err := c.appendLocked(doc)
	c.mu.Unlock()
	if err == nil && !c.opts.Async {
		err = open.wait(end)
	}
	if err != nil {
		return 0, err
	}
	return id, nil
}

// AppendBatch appends docs in order, returning the global ids of the
// appends that were durably acknowledged. All docs are written before
// the batch waits, once, for its last frame: a batch costs about one
// flush regardless of length.
// On error the returned prefix of ids is still valid and durable; the
// remaining docs were not appended (or, past a failed flush, not
// acknowledged).
func (c *Collection) AppendBatch(docs [][]byte) ([]int, error) {
	if len(docs) == 0 {
		return nil, nil
	}
	ids := make([]int, 0, len(docs))
	var open *openSegment
	var end int64
	c.mu.Lock()
	var appendErr error
	for _, doc := range docs {
		id, seg, e, err := c.appendLocked(doc)
		if err != nil {
			appendErr = err
			break
		}
		ids = append(ids, id)
		open, end = seg, e
	}
	c.mu.Unlock()
	if open != nil && !c.opts.Async {
		if err := open.wait(end); err != nil {
			// A failed flush acknowledges none of the batch, though an
			// earlier one may have made a prefix durable.
			return ids[:0], err
		}
	}
	return ids, appendErr
}

// appendLocked admits and stores one document, returning its global id,
// the open segment holding it and the end of its frame there: the
// append is durable once open.wait(end) returns nil. Called with mu
// held.
func (c *Collection) appendLocked(doc []byte) (id int, open *openSegment, end int64, err error) {
	if c.closed {
		return 0, nil, 0, fmt.Errorf("collection: append to closed collection")
	}
	if c.opts.MaxPendingDocs > 0 {
		if pending := c.pendingDocsLocked(); pending >= c.opts.MaxPendingDocs {
			return 0, nil, 0, fmt.Errorf("%w; %d documents await compaction", ErrBackpressure, pending)
		}
	}
	v := c.view.Load()
	if v.open == nil {
		m := c.cloneManifest()
		for {
			m.OpenSeg = segFileName(m.NextSeq)
			m.NextSeq++
			open, err = createOpenSegment(c.fs, c.dir, m.OpenSeg)
			if err == nil {
				break
			}
			// A file already holding this sequence number is an orphan
			// from a crashed compaction (its rename landed but the
			// publish that would have advanced NextSeq did not). The
			// manifest is the truth, so skip the number and leave the
			// orphan for gc rather than destroying evidence.
			if os.IsExist(err) {
				continue
			}
			return 0, nil, 0, err
		}
		om := newMember(open, m.OpenSeg)
		nv := newView(append(slices.Clip(v.members), om), v.set.Tombstones(), open)
		om.unref() // the view holds it now
		// A failed publish drops nv, which closes the handles but leaves
		// the files in place: an error after the rename (a failed
		// directory fsync) means the on-disk manifest may already name
		// them, and deleting them would break the old-or-new-generation
		// recovery contract. If the manifest never landed they are
		// unreferenced orphans for gc.
		if err := c.publishLocked(m, nv); err != nil {
			return 0, nil, 0, err
		}
		v = nv
	}
	budget := c.opts.MaxWALPending
	if c.opts.Async {
		budget = 0 // nothing waits: no flush to bound, none to fill ahead for
	}
	local, end, err := v.open.append(doc, budget)
	if err != nil {
		return 0, nil, 0, err
	}
	return v.sealedDocs() + local, v.open, end, nil
}

// pendingDocsLocked counts the compaction backlog: documents in raw
// members — uncompacted sealed segments and the open segment.
func (c *Collection) pendingDocsLocked() int {
	n := 0
	for _, m := range c.view.Load().members {
		if m.r.Stats().Backend == archive.Raw {
			n += m.r.NumDocs()
		}
	}
	return n
}

// Delete tombstones global id: it returns not-found from every read
// from now on, across seals, compactions and reopens. The id itself is
// never reused. Deleting an unknown or already deleted id is an error.
func (c *Collection) Delete(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("collection: delete on closed collection")
	}
	v := c.view.Load()
	if total := v.set.NumDocs(); id < 0 || id >= total {
		return fmt.Errorf("%w: id %d of %d", docmap.ErrNoSuchDoc, id, total)
	}
	if _, dead := v.set.Tombstones()[id]; dead {
		return fmt.Errorf("collection: document %d: %w", id, ErrDeleted)
	}
	// The tombstone is published durably (fsync'd manifest swap); if it
	// names an open-segment document whose bytes are still in OS
	// buffers, a crash could lose the document but keep its tombstone,
	// and recovery's clamp would then misjudge later ids. Make the open
	// segment at least as durable as the tombstone first.
	if v.open != nil && id >= v.sealedDocs() {
		if err := v.open.sync(); err != nil {
			return err
		}
	}
	m := c.cloneManifest()
	at := sort.SearchInts(m.Tombstones, id)
	m.Tombstones = slices.Insert(m.Tombstones, at, id)
	return c.publishLocked(m, newView(v.members, tombSet(m.Tombstones), v.open))
}

// Seal finalizes the open append segment into an immutable raw-archive
// segment (in place — no data movement) and publishes the generation
// that records it. A no-op when the open segment is empty or absent.
func (c *Collection) Seal() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("collection: seal on closed collection")
	}
	return c.sealLocked()
}

func (c *Collection) sealLocked() error {
	v := c.view.Load()
	if v.open == nil || v.open.NumDocs() == 0 {
		return nil
	}
	open := v.open
	docs := open.NumDocs()
	raw := open.w.DocBytes()
	if err := open.seal(); err != nil {
		return err
	}
	sr, err := openSegmentFile(c.dir, open.name)
	if err != nil {
		return fmt.Errorf("collection: reopening sealed segment %s: %w", open.name, err)
	}
	sm := newMember(sr, open.name)
	defer sm.unref() // the new view holds it from here on, or nothing does
	if sr.NumDocs() != docs {
		return fmt.Errorf("collection: sealed segment %s holds %d documents, expected %d", open.name, sr.NumDocs(), docs)
	}
	m := c.cloneManifest()
	m.Segments = append(m.Segments, Segment{Path: open.name, Docs: docs, Raw: raw})
	m.OpenSeg = ""
	// The new view reads the sealed bytes through sr; the open segment
	// drops out of it and closes its handles once older views drain.
	nv := newView(append(slices.Clip(v.sealed()), sm), v.set.Tombstones(), nil)
	return c.publishLocked(m, nv)
}

// The read side: pin the current view, delegate to its segment set (the
// router in archive.Set owns tombstones, routing, capability fallbacks
// and the open segment alike).

// GetAppend retrieves document id, appending its text to dst.
func (c *Collection) GetAppend(dst []byte, id int) ([]byte, error) {
	v, release, err := c.acquireView()
	if err != nil {
		return dst, err
	}
	defer release()
	return v.set.GetAppend(dst, id)
}

// Get retrieves document id.
func (c *Collection) Get(id int) ([]byte, error) {
	return c.GetAppend(nil, id)
}

// View serves document id zero-copy when its segment is memory-mapped,
// implementing archive.Viewer. fn runs under the view pin (and, for the
// open segment, under a mapping reference), so a concurrent compaction,
// seal or close cannot unmap the bytes mid-callback; they become invalid
// the moment fn returns. ok=false means this document has no zero-copy
// path (unmapped platform, compressed segment, beyond the open segment's
// mapped prefix) — fall back to GetAppend.
func (c *Collection) View(id int, fn func(doc []byte) error) (bool, error) {
	v, release, err := c.acquireView()
	if err != nil {
		return false, err
	}
	defer release()
	return v.set.View(id, fn)
}

// GetBatch retrieves every id, implementing archive.BatchReader: one
// sub-batch per segment, delegated to segments that batch natively (see
// archive.Set.GetBatch for the visit contract).
func (c *Collection) GetBatch(ids []int, workers int, visit func(i int, doc []byte, err error)) {
	v, release, err := c.acquireView()
	if err != nil {
		for i := range ids {
			visit(i, nil, err)
		}
		return
	}
	defer release()
	v.set.GetBatch(ids, workers, visit)
}

// Extent returns the extent a Get for id physically reads, within the
// owning segment's file (a collection has no single byte address space).
func (c *Collection) Extent(id int) (off, n int64, err error) {
	v, release, err := c.acquireView()
	if err != nil {
		return 0, 0, err
	}
	defer release()
	return v.set.Extent(id)
}

// FindAll collects occurrences of pattern across the whole live
// collection in global-id order, up to limit (0 = all), implementing
// archive.Searcher: every live document of every segment, the open one
// included, is decoded once and scanned. Tombstoned documents never
// match. Together with GetRange this makes rlz grep work over a
// collection unchanged.
func (c *Collection) FindAll(pattern []byte, limit int) ([]archive.Match, error) {
	v, release, err := c.acquireView()
	if err != nil {
		return nil, err
	}
	defer release()
	return v.set.FindAll(pattern, limit)
}

// GetRange retrieves bytes [from, to) of document id, without decoding
// the whole document where the owning segment supports it (RLZ).
func (c *Collection) GetRange(id, from, to int) ([]byte, error) {
	v, release, err := c.acquireView()
	if err != nil {
		return nil, err
	}
	defer release()
	return v.set.GetRange(id, from, to)
}

// NumDocs returns the total number of allocated document ids, tombstoned
// ids included (they are routable and return not-found — ids are never
// renumbered).
func (c *Collection) NumDocs() int { return c.view.Load().set.NumDocs() }

// Size returns the total on-disk payload size: sealed segment bytes
// plus the open segment's current extent.
func (c *Collection) Size() int64 {
	v, release, err := c.acquireView()
	if err != nil {
		return 0
	}
	defer release()
	return v.set.Size()
}

// Stats reports the collection's aggregate figures under the Live
// backend label (segments may mix backends; per-segment identity is in
// Info). One pinned view supplies every figure, so the snapshot cannot
// tear across a concurrent generation swap.
func (c *Collection) Stats() archive.Stats {
	v, release, err := c.acquireView()
	if err != nil {
		return archive.Stats{}
	}
	defer release()
	return v.set.Stats()
}

// SegmentInfo describes one segment for stats and tooling.
type SegmentInfo struct {
	Path    string          `json:"path"`
	Backend archive.Backend `json:"backend"`
	Codec   string          `json:"codec,omitempty"` // RLZ segments: the pair codec (ZV, PV, ...)
	Docs    int             `json:"num_docs"`
	Size    int64           `json:"size_bytes"`
}

// DictInfo describes one dictionary generation for stats and tooling.
type DictInfo struct {
	ID   uint64 `json:"id"`
	Path string `json:"path"`
	Size int64  `json:"size_bytes"`
	// Segments counts the live segments factorized against this
	// dictionary; Raw and Compressed sum their payloads, so
	// 100*Compressed/Raw is the generation's compression ratio in the
	// paper's percent-of-original terms (RatioPercent, 0 when unknown).
	Segments     int     `json:"segments"`
	Raw          int64   `json:"raw_bytes"`
	Compressed   int64   `json:"compressed_bytes"`
	RatioPercent float64 `json:"ratio_percent"`
	// UnusedPercent is the share of dictionary regions no factor has
	// referenced since this process started heating the dictionary, or -1
	// when no usage has been observed (not the compaction target, or no
	// compaction ran yet).
	UnusedPercent float64 `json:"unused_percent"`
}

// Info is a point-in-time snapshot of the collection's generational
// shape — what rlzd's /stats breakdown serves.
type Info struct {
	Generation uint64        `json:"generation"`
	Segments   []SegmentInfo `json:"segments"`
	Dicts      []DictInfo    `json:"dicts,omitempty"`
	OpenSeg    string        `json:"open_segment,omitempty"`
	OpenDocs   int           `json:"open_docs"`
	Tombstones int           `json:"tombstones"`
	NumDocs    int           `json:"num_docs"`
	// PendingDocs counts documents not yet in a compressed segment: the
	// open segment plus every raw sealed segment — what a compaction
	// would drain.
	PendingDocs int `json:"pending_docs"`
}

// Info snapshots the collection's generational shape. The write lock is
// held briefly so the manifest (dictionary attribution, raw sizes) and
// the view agree.
func (c *Collection) Info() Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.view.Load()
	info := Info{Generation: v.gen, Tombstones: len(v.set.Tombstones()), NumDocs: v.set.NumDocs()}
	perDict := make(map[uint64]*DictInfo, len(c.man.Dicts))
	for _, d := range c.man.Dicts {
		di := &DictInfo{ID: d.ID, Path: d.Path, UnusedPercent: -1}
		if st, err := c.fs.Stat(filepath.Join(c.dir, d.Path)); err == nil {
			di.Size = st.Size()
		}
		perDict[d.ID] = di
	}
	for i, seg := range v.sealed() {
		sr := seg.r
		st := sr.Stats()
		info.Segments = append(info.Segments, SegmentInfo{
			Path: seg.path, Backend: st.Backend, Codec: st.Codec, Docs: st.NumDocs, Size: sr.Size(),
		})
		if st.Backend == archive.Raw {
			info.PendingDocs += st.NumDocs
		}
		if i < len(c.man.Segments) {
			if s := c.man.Segments[i]; s.Dict != 0 {
				if di := perDict[s.Dict]; di != nil {
					di.Segments++
					di.Raw += s.Raw
					di.Compressed += sr.Size()
				}
			}
		}
	}
	c.dictMu.Lock()
	heat, heatID := c.heat, c.heatID
	c.dictMu.Unlock()
	for _, d := range c.man.Dicts {
		di := perDict[d.ID]
		if di.Raw > 0 {
			di.RatioPercent = 100 * float64(di.Compressed) / float64(di.Raw)
		}
		if heat != nil && heatID == d.ID && heat.Copies() > 0 {
			di.UnusedPercent = heat.UnusedPercent()
		}
		info.Dicts = append(info.Dicts, *di)
	}
	if v.open != nil {
		info.OpenSeg = v.open.name
		info.OpenDocs = v.open.NumDocs()
		info.PendingDocs += info.OpenDocs
	}
	return info
}

// GC removes files in the collection directory that no longer belong to
// the current generation: orphaned segment files from crashed
// compactions or seals, leftover .tmp files, and the length sidecars
// older releases kept beside an open segment. Returns the names removed.
// Refused while a compaction is running (its tmp files are not orphans
// yet).
func (c *Collection) GC() ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.compacting {
		return nil, ErrCompacting
	}
	keep := map[string]bool{ManifestName: true}
	for _, d := range c.man.Dicts {
		keep[filepath.ToSlash(filepath.Clean(d.Path))] = true
	}
	for _, s := range c.man.Segments {
		// Keep the whole first path element of a nested segment path.
		first := strings.SplitN(filepath.ToSlash(filepath.Clean(s.Path)), "/", 2)[0]
		keep[first] = true
	}
	if c.man.OpenSeg != "" {
		keep[c.man.OpenSeg] = true
	}
	entries, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, e := range entries {
		name := e.Name()
		if keep[name] {
			continue
		}
		// Only touch files this package created: segment files, dictionary
		// generations and temporaries. Anything else in the directory is
		// the user's business.
		if !strings.HasPrefix(name, "seg-") && !strings.HasPrefix(name, "dict-") &&
			!strings.HasSuffix(name, ".tmp") {
			continue
		}
		if err := c.fs.RemoveAll(filepath.Join(c.dir, name)); err != nil {
			return removed, err
		}
		removed = append(removed, name)
	}
	// Prepared in-memory state follows the file set: only live
	// generations stay cached.
	live := make(map[uint64]bool, len(c.man.Dicts))
	for _, d := range c.man.Dicts {
		live[d.ID] = true
	}
	c.releaseDicts(live)
	sort.Strings(removed)
	return removed, nil
}

// Close releases the collection's resources: the open segment's zero
// fill is cut and the segment flushed (in-flight Appends get their final
// acknowledgment, in Async mode too), so a closed collection's open
// segment is exactly as long as its frames; then the current view loses
// its installed reference and its segment readers and open-segment
// handles close as soon as in-flight reads drain (immediately, when none
// are in flight). A read that arrives after the drain fails with an
// error and touches no segment; Size and Stats, which return no error,
// report zeros.
func (c *Collection) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	v := c.view.Load()
	var err error
	if v.open != nil {
		err = v.open.trim()
	}
	v.unref()
	return err
}
