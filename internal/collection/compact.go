package collection

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"rlz/internal/archive"
	"rlz/internal/faultfs"
	"rlz/internal/rlz"
)

// CompactOptions tunes the background compactor. The zero value selects
// the repository defaults: rlz.DefaultCodec (PV), a dictionary budget
// of 1% of the compacted bytes, the fast factorization engine with its
// k-gram ladder on, GOMAXPROCS build workers.
type CompactOptions struct {
	// Codec is the RLZ pair codec for compacted segments.
	Codec rlz.PairCodec
	// Dict supplies the compaction dictionary directly; it becomes a new
	// dictionary generation unless it equals the current one. When empty,
	// a dictionary is sampled from the documents being compacted and
	// published as a new generation on the first compaction, and on any
	// later one whose budget (DictSize) is at least twice the newest
	// generation's size; otherwise the newest generation is reused.
	Dict []byte
	// DictSize is the dictionary budget: the size a fresh sample takes,
	// and what the newest generation is measured against to decide
	// whether to take one. 0 selects 1% of the compacted documents' bytes
	// with a 4 KiB floor (archive.DictBudget). SampleSize is the length of
	// each sampled window (see archive.SampleDict).
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
	// UpgradeStale lifts the cap on convergence. Every compaction also
	// re-encodes RLZ segments built against a generation older than the
	// newest, oldest generation first (then in id order), whole segments
	// only, stopping before their document bytes pass the raw bytes it
	// drains: convergence costs at most as much as the ingest driving it,
	// and a compaction with nothing raw to drain converges nothing. With
	// UpgradeStale every stale segment is re-encoded now — what an idle
	// collection needs to retire its old dictionaries. Staleness is
	// judged against the newest generation as the compaction starts:
	// when the same pass adopts a new dictionary, segments built against
	// the previously-current one become stale and converge on a later
	// pass, not this one.
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
	// Upgraded counts the stale-generation RLZ segments among the
	// Compacted ones, re-encoded against Dict; BytesUpgraded is their
	// document bytes as recorded when they were built.
	Upgraded      int   `json:"segments_upgraded"`
	BytesUpgraded int64 `json:"bytes_upgraded"`
}

// run is one maximal run of consecutive compactable segments to be
// drained into a single RLZ segment.
type run struct {
	lo, hi int // segment indices [lo, hi)
	start  int // global id of the run's first document
	docs   int
	seq    uint64 // sequence number of the replacement segment
	segs   []archive.Reader
	raws   []int64 // each segment's manifest Raw, parallel to segs
	bytes  int64
	// stale and staleBytes count the run's stale-generation RLZ
	// segments and their manifest Raw.
	stale      int
	staleBytes int64
}

// Compact drains the append path into the paper's format: the open
// segment is sealed, every maximal run of consecutive compactable
// segments is rewritten as one RLZ archive factorized against the shared
// prepared dictionary, a new generation is published, and the
// superseded files are removed. Compactable are the raw segments and,
// up to their document bytes (all of them with opts.UpgradeStale), RLZ
// segments of an older dictionary generation (see
// CompactOptions.UpgradeStale); a generation no segment references any
// more is retired in the same publish. Document ids and bytes are
// preserved exactly; tombstoned documents are stored as empty (their ids
// still return not-found).
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
		res.Upgraded += r.stale
		res.BytesUpgraded += r.staleBytes
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

	// Only the newest generation stays prepared: when this compaction
	// adopted one, its predecessor's prepared state goes now, although
	// the predecessor's segments (which decode from their own embedded
	// copy) keep its file until they drain.
	if len(m.Dicts) > 0 {
		c.releaseDictsExcept(m.Dicts[len(m.Dicts)-1].ID)
	}

	// Garbage-collect the superseded segment files. Old views may still
	// be mid-read on them: their readers stay open (retired) and POSIX
	// keeps unlinked files readable, so removal is safe immediately.
	// Retired dictionary files follow the same rule.
	for _, p := range superseded {
		_ = c.fs.RemoveAll(filepath.Join(c.dir, p))
	}
	for _, d := range retired {
		_ = c.fs.Remove(filepath.Join(c.dir, d.Path))
	}
	return res, nil
}

// findRuns collects the maximal runs of consecutive compactable segments
// and allocates each replacement's sequence number. A raw segment is
// always compactable. An RLZ segment is stale when it was built against
// a generation other than the manifest's newest (0 when no dictionary
// exists yet); stale segments are compactable oldest generation first,
// then in id order, for as long as their manifest Raw bytes fit in the
// raw segments' (none when no raw segment drains, not even an empty
// one) — all of them with upgrade set. A stale segment the cap
// leaves out splits the runs around it. The allocation is persisted only
// by the final publish: a crash in between leaves a .tmp or a fully
// renamed orphan under a not-yet-persisted sequence number — both
// unreferenced by the manifest, skipped by the open-segment allocator,
// overwritable by a retried compaction, and removed by gc.
func findRuns(v *view, man *Manifest, nextSeq *uint64, upgrade bool) []run {
	newest := uint64(0)
	if len(man.Dicts) > 0 {
		newest = man.Dicts[len(man.Dicts)-1].ID
	}
	segs := v.sealed()
	take := make([]bool, len(segs))
	draining := false // any raw segment: without one, nothing converges
	var budget int64
	var stale []int
	for i := range segs {
		switch segs[i].r.Stats().Backend {
		case archive.Raw:
			take[i], draining = true, true
			budget += man.Segments[i].Raw
		case archive.RLZ:
			if man.Segments[i].Dict != newest {
				stale = append(stale, i)
			}
		}
	}
	slices.SortStableFunc(stale, func(a, b int) int {
		return cmp.Compare(man.Segments[a].Dict, man.Segments[b].Dict)
	})
	for _, i := range stale {
		if !upgrade {
			if !draining || man.Segments[i].Raw > budget {
				break
			}
			budget -= man.Segments[i].Raw
		}
		take[i] = true
	}

	var runs []run
	i := 0
	for i < len(segs) {
		if !take[i] {
			i++
			continue
		}
		r := run{lo: i, start: v.set.Start(i)}
		for i < len(segs) && take[i] {
			sr := segs[i].r
			r.docs += sr.NumDocs()
			r.bytes += sr.Size()
			r.segs = append(r.segs, sr)
			r.raws = append(r.raws, man.Segments[i].Raw)
			if sr.Stats().Backend == archive.RLZ {
				r.stale++
				r.staleBytes += man.Segments[i].Raw
			}
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

// eachDoc calls fn with the segment reader and local id of every live
// document the runs drain, in id order (tombstoned documents are
// skipped), and returns fn's first error.
func eachDoc(runs []run, tomb map[int]struct{}, fn func(sr archive.Reader, local int) error) error {
	for i := range runs {
		id := runs[i].start
		for _, sr := range runs[i].segs {
			for local := 0; local < sr.NumDocs(); local, id = local+1, id+1 {
				if _, dead := tomb[id]; dead {
					continue
				}
				if err := fn(sr, local); err != nil {
					return fmt.Errorf("collection: reading document %d for compaction: %w", id, err)
				}
			}
		}
	}
	return nil
}

// splice returns s with [lo, hi) replaced by one element, leaving s
// itself untouched (live views share the original backing array).
func splice[T any](s []T, lo, hi int, repl T) []T {
	out := make([]T, 0, len(s)-(hi-lo)+1)
	out = append(out, s[:lo]...)
	out = append(out, repl)
	return append(out, s[hi:]...)
}
