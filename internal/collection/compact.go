package collection

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rlz/internal/archive"
	"rlz/internal/faultfs"
	"rlz/internal/rlz"
)

// CompactOptions tunes the background compactor. The zero value selects
// the repository defaults: rlz.DefaultCodec (PV), a sampled dictionary
// of 1% of the compacted bytes, the fast factorization engine with its
// k-gram ladder on, GOMAXPROCS build workers.
type CompactOptions struct {
	// Codec is the RLZ pair codec for compacted segments.
	Codec rlz.PairCodec
	// Dict supplies the compaction dictionary directly; it becomes a new
	// dictionary generation unless it equals the current one. When empty,
	// the current generation is reused (or, on the first compaction, a
	// dictionary is sampled from the documents being compacted and
	// published as generation 1).
	Dict []byte
	// DictSize and SampleSize tune dictionary sampling (see
	// archive.SampleDict); ignored when a dictionary already exists.
	DictSize   int
	SampleSize int
	// Adapt lets this compaction learn: a candidate dictionary is built
	// by evicting the current one's cold regions (ranked by usage
	// observed in earlier compaction builds) and re-sampling the
	// replacement bytes from the documents being drained. The candidate
	// is adopted as a new generation only when a trial factorization
	// shows at least MinRatioGain encoded-byte saving; otherwise the
	// current dictionary is reused. The first compaction against a
	// dictionary has no usage data and always reuses.
	Adapt bool
	// EvictFraction is the fraction of dictionary regions an adaptive
	// re-sample evicts, coldest first (0 selects 0.25).
	EvictFraction float64
	// MinRatioGain is the relative encoded-byte saving a candidate must
	// show in the trial to be adopted (0 selects 0.02, i.e. 2% smaller;
	// negative adopts unconditionally).
	MinRatioGain float64
	// UpgradeStale additionally rewrites RLZ segments built against
	// non-current dictionary generations, so retired dictionaries drain
	// to zero references (and their files and prepared in-memory state
	// are released). Without it, compaction only drains raw segments and
	// old generations stay readable against their recorded dictionaries
	// indefinitely. Staleness is judged against the newest generation as
	// the compaction starts: when the same pass adopts a new dictionary,
	// segments built against the previously-current one become stale and
	// drain on the next UpgradeStale pass, not this one.
	UpgradeStale bool
	// Workers bounds build concurrency; 0 means GOMAXPROCS.
	Workers int
}

func (o CompactOptions) minRatioGain() float64 {
	if o.MinRatioGain == 0 {
		return 0.02
	}
	return o.MinRatioGain
}

// CompactResult summarizes one compaction.
type CompactResult struct {
	Generation  uint64   `json:"generation"`
	Compacted   int      `json:"segments_compacted"`
	NewSegments []string `json:"new_segments"`
	Docs        int      `json:"docs"`
	BytesBefore int64    `json:"bytes_before"`
	BytesAfter  int64    `json:"bytes_after"`
	// Dict is the dictionary generation the new segments were factorized
	// against (0 when every pending document was empty); Relearned
	// reports whether this compaction adopted it as a new generation.
	Dict      uint64 `json:"dict_id,omitempty"`
	Relearned bool   `json:"dict_relearned,omitempty"`
}

// run is one maximal run of consecutive raw segments to be drained into
// a single RLZ segment.
type run struct {
	lo, hi int // segment indices [lo, hi)
	start  int // global id of the run's first document
	docs   int
	seq    uint64 // sequence number of the replacement segment
	segs   []archive.Reader
	bytes  int64
}

// Compact drains the append path into the paper's format: the open
// segment is sealed, every maximal run of consecutive raw segments is
// rewritten as one RLZ archive factorized against the shared prepared
// dictionary, a new generation is published, and the superseded files
// are removed. Document ids and bytes are preserved exactly; tombstoned
// documents are stored as empty (their ids still return not-found).
//
// The expensive build runs without the write lock, so appends and
// deletes proceed concurrently; only the manifest swaps at either end
// take it. One compaction may run at a time (ErrCompacting otherwise).
func (c *Collection) Compact(opts CompactOptions) (CompactResult, error) {
	var res CompactResult
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return res, fmt.Errorf("collection: compact on closed collection")
	}
	if c.compacting {
		c.mu.Unlock()
		return res, ErrCompacting
	}
	if err := c.sealLocked(); err != nil {
		c.mu.Unlock()
		return res, err
	}
	v := c.view.Load()
	dicts := append([]Dict(nil), c.man.Dicts...)
	runs := findRuns(v, c.man, &c.man.NextSeq, opts.UpgradeStale)
	if len(runs) == 0 {
		res.Generation = v.gen
		c.mu.Unlock()
		return res, nil
	}
	tomb := v.set.Tombstones()
	c.compacting = true
	c.mu.Unlock()

	var chosen chosenDict
	finish := func(err error) (CompactResult, error) {
		if chosen.fresh {
			// The adopted dictionary was published but no manifest will
			// reference it: drop the prepared state and the orphan file.
			c.releaseDict(chosen.id)
			_ = c.fs.Remove(filepath.Join(c.dir, chosen.path))
		}
		c.mu.Lock()
		c.compacting = false
		c.mu.Unlock()
		return res, err
	}

	var err error
	chosen, err = c.chooseDict(dicts, runs, tomb, opts)
	if err != nil {
		return finish(err)
	}
	aopts := archive.Options{
		Backend:      archive.RLZ,
		Codec:        opts.Codec,
		PreparedDict: chosen.dict,
		Workers:      opts.Workers,
		Heat:         chosen.heat,
	}
	built := make([]Segment, len(runs))
	for i := range runs {
		seg, err := BuildSegment(c.fs, c.dir, runs[i].seq, &runSource{r: &runs[i], tomb: tomb, id: runs[i].start}, aopts)
		if err != nil {
			for _, b := range built[:i] {
				_ = c.fs.Remove(filepath.Join(c.dir, b.Path))
			}
			return finish(fmt.Errorf("collection: compacting run %d: %w", i, err))
		}
		built[i] = seg
	}

	// Open and verify every replacement before touching shared state, so
	// a failure leaves the collection exactly as it was. This function
	// holds each replacement's creator reference until it returns: the
	// published view takes its own, and on any other path dropping ours
	// closes the reader.
	fresh := make([]*member, 0, len(runs))
	defer func() {
		for _, m := range fresh {
			m.unref()
		}
	}()
	removeBuilt := func() {
		for _, b := range built {
			_ = c.fs.Remove(filepath.Join(c.dir, b.Path))
		}
	}
	for i := range runs {
		sr, err := openSegmentFile(c.dir, built[i].Path)
		if err == nil {
			fresh = append(fresh, newMember(sr, built[i].Path))
			if sr.NumDocs() != runs[i].docs {
				err = fmt.Errorf("collection: compacted segment %s holds %d documents, expected %d", built[i].Path, sr.NumDocs(), runs[i].docs)
			}
		}
		if err != nil {
			removeBuilt()
			return finish(err)
		}
	}

	// Splice the manifest and view. Segment indices are stable while
	// compacting: appends only touch the open segment, deletes only the
	// tombstone set, and no second compaction can start. Runs splice in
	// reverse so earlier runs' indices stay valid.
	c.mu.Lock()
	if c.closed {
		// Close ran during the unlocked build and already released every
		// reader; publishing a view over closed segments would leak the
		// replacements and serve errors. The built files are
		// unreferenced (no publish happened), so removing them is safe.
		c.compacting = false
		c.mu.Unlock()
		removeBuilt()
		return res, fmt.Errorf("collection: compact on closed collection")
	}
	m := c.cloneManifest()
	cur := c.view.Load()
	members := cur.members
	var superseded []string
	for i := len(runs) - 1; i >= 0; i-- {
		r := runs[i]
		seg := built[i]
		seg.Dict = chosen.id
		for _, p := range m.Segments[r.lo:r.hi] {
			superseded = append(superseded, p.Path)
		}
		res.BytesAfter += fresh[i].r.Size()
		m.Segments = splice(m.Segments, r.lo, r.hi, seg)
		// The replaced members simply drop out of the new view; they
		// close once the older views drain.
		members = splice(members, r.lo, r.hi, fresh[i])
		res.Compacted += r.hi - r.lo
		res.Docs += r.docs
		res.BytesBefore += r.bytes
		res.NewSegments = append(res.NewSegments, seg.Path)
	}
	// The splice ran in reverse; report the new segments in id order
	// like every other segment list in the system.
	for i, j := 0, len(res.NewSegments)-1; i < j; i, j = i+1, j-1 {
		res.NewSegments[i], res.NewSegments[j] = res.NewSegments[j], res.NewSegments[i]
	}
	// Maintain the dictionary list: add the adopted generation, retire
	// generations no live segment references any more. The newest
	// generation always stays — it is the next compaction's target even
	// while momentarily unreferenced.
	if chosen.fresh {
		m.Dicts = append(m.Dicts, Dict{ID: chosen.id, Path: chosen.path})
	}
	var retired []Dict
	if len(m.Dicts) > 0 {
		refd := make(map[uint64]bool, len(m.Dicts))
		for _, s := range m.Segments {
			if s.Dict != 0 {
				refd[s.Dict] = true
			}
		}
		newest := m.Dicts[len(m.Dicts)-1].ID
		kept := m.Dicts[:0]
		for _, d := range m.Dicts {
			if refd[d.ID] || d.ID == newest {
				kept = append(kept, d)
			} else {
				retired = append(retired, d)
			}
		}
		m.Dicts = kept
	}
	if err := c.publishLocked(m, newView(members, cur.set.Tombstones(), cur.open)); err != nil {
		c.compacting = false
		c.mu.Unlock()
		// The replacement readers close with the dropped view, but their
		// files stay: a publish error after the manifest's rename (a
		// failed directory fsync) means the on-disk manifest may already
		// reference them; deleting them would strand it. Unreferenced
		// files are gc'd.
		return res, err
	}
	res.Generation = m.Generation
	res.Dict = chosen.id
	res.Relearned = chosen.fresh
	c.compacting = false
	c.mu.Unlock()

	// Commit the usage accumulator the build fed, so the next adaptive
	// pass ranks regions by what this one observed (accumulating across
	// compactions while the dictionary is unchanged).
	if chosen.id != 0 {
		c.dictMu.Lock()
		c.heat = chosen.heat
		c.heatID = chosen.id
		c.dictMu.Unlock()
	}

	// Garbage-collect the superseded segment files. Old views may still
	// be mid-read on them: their readers stay open (retired) and POSIX
	// keeps unlinked files readable, so removal is safe immediately.
	// Retired dictionary files follow the same rule — prepared in-memory
	// state goes with them (the satellite fix: a long-running daemon no
	// longer pins every generation's suffix array forever).
	for _, p := range superseded {
		_ = c.fs.RemoveAll(filepath.Join(c.dir, p))
	}
	if len(retired) > 0 {
		live := make(map[uint64]bool, len(m.Dicts))
		for _, d := range m.Dicts {
			live[d.ID] = true
		}
		c.releaseDicts(live)
		for _, d := range retired {
			_ = c.fs.Remove(filepath.Join(c.dir, d.Path))
		}
	}
	return res, nil
}

// findRuns collects the maximal runs of consecutive compactable segments
// and allocates each replacement's sequence number. A raw segment is
// always compactable; with upgrade set, RLZ segments built against a
// non-current dictionary generation are too (staleness is judged against
// the manifest's newest dictionary id — 0 when no dictionary exists
// yet). The allocation is persisted only by the final publish: a crash
// in between leaves a .tmp or a fully renamed orphan under a
// not-yet-persisted sequence number — both unreferenced by the manifest,
// skipped by the open-segment allocator, overwritable by a retried
// compaction, and removed by gc.
func findRuns(v *view, man *Manifest, nextSeq *uint64, upgrade bool) []run {
	newest := uint64(0)
	if len(man.Dicts) > 0 {
		newest = man.Dicts[len(man.Dicts)-1].ID
	}
	segs := v.sealed()
	compactable := func(i int) bool {
		switch segs[i].r.Stats().Backend {
		case archive.Raw:
			return true
		case archive.RLZ:
			return upgrade && i < len(man.Segments) && man.Segments[i].Dict != newest
		}
		return false
	}
	var runs []run
	i := 0
	for i < len(segs) {
		if !compactable(i) {
			i++
			continue
		}
		r := run{lo: i, start: v.set.Start(i)}
		for i < len(segs) && compactable(i) {
			sr := segs[i].r
			r.docs += sr.NumDocs()
			r.bytes += sr.Size()
			r.segs = append(r.segs, sr)
			i++
		}
		r.hi = i
		r.seq = *nextSeq
		*nextSeq++
		runs = append(runs, r)
	}
	return runs
}

// runSource streams a run's documents for dictionary sampling and the
// compaction build. Tombstoned documents yield empty bodies: their ids
// keep their slots (id stability) but cost no storage and never pollute
// the dictionary.
type runSource struct {
	r    *run
	tomb map[int]struct{}
	seg  int
	next int // local id within segs[seg]
	id   int // global id of the next document
}

func (s *runSource) Next() (archive.Doc, error) {
	for s.seg < len(s.r.segs) && s.next >= s.r.segs[s.seg].NumDocs() {
		s.seg++
		s.next = 0
	}
	if s.seg >= len(s.r.segs) {
		return archive.Doc{}, io.EOF
	}
	id := s.id
	s.id++
	local := s.next
	s.next++
	if _, dead := s.tomb[id]; dead {
		return archive.Doc{}, nil
	}
	// Get, not a reused GetAppend buffer: the parallel build pipeline
	// retains submitted bodies past the next call.
	body, err := s.r.segs[s.seg].Get(local)
	if err != nil {
		return archive.Doc{}, fmt.Errorf("collection: reading document %d for compaction: %w", id, err)
	}
	return archive.Doc{Body: body}, nil
}

// BuildSegment streams src into the sealed segment numbered seq under
// dir: the archive is built under a temporary name and published at its
// final one, so a crash leaves no half-written segment under a live name
// — the one way a segment file comes to exist, for a compaction run and
// for a bulk build (internal/shard) alike. It returns the segment's
// manifest entry with Dict left 0; the caller knows what aopts factorized
// against. On error nothing is left behind.
func BuildSegment(fs faultfs.FS, dir string, seq uint64, src archive.DocSource, aopts archive.Options) (Segment, error) {
	name := segFileName(seq)
	tmp := filepath.Join(dir, name+".tmp")
	res, err := archive.Create(tmp, src, aopts)
	if err != nil {
		return Segment{}, fmt.Errorf("building %s: %w", name, err)
	}
	f, err := fs.OpenFile(tmp, os.O_RDWR, 0o644)
	if err != nil {
		_ = fs.Remove(tmp)
		return Segment{}, err
	}
	if err := faultfs.Publish(fs, f, filepath.Join(dir, name)); err != nil {
		return Segment{}, err
	}
	return Segment{Path: name, Docs: res.Docs, Raw: res.RawBytes}, nil
}

// multiRunSource chains every run's documents for dictionary sampling.
type multiRunSource struct {
	runs []run
	tomb map[int]struct{}
	i    int
	cur  *runSource
}

func (s *multiRunSource) Next() (archive.Doc, error) {
	for {
		if s.cur == nil {
			if s.i >= len(s.runs) {
				return archive.Doc{}, io.EOF
			}
			s.cur = &runSource{r: &s.runs[s.i], tomb: s.tomb, id: s.runs[s.i].start}
			s.i++
		}
		d, err := s.cur.Next()
		if err == io.EOF {
			s.cur = nil
			continue
		}
		return d, err
	}
}

// splice returns s with [lo, hi) replaced by one element, leaving s
// itself untouched (live views share the original backing array).
func splice[T any](s []T, lo, hi int, repl T) []T {
	out := make([]T, 0, len(s)-(hi-lo)+1)
	out = append(out, s[:lo]...)
	out = append(out, repl)
	return append(out, s[hi:]...)
}
