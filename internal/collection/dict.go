package collection

import (
	"fmt"
	"io"
	"path/filepath"

	"rlz/internal/archive"
	"rlz/internal/faultfs"
	"rlz/internal/rlz"
)

// dictFileName names dictionary generation id's file inside the
// collection directory. Ids are allocated ascending and never reused, so
// a crashed adoption's orphan can never collide with a live dictionary.
func dictFileName(id uint64) string { return fmt.Sprintf("dict-%08d", id) }

// PublishDict writes data as dictionary generation id under dir —
// atomically and fsynced, before any manifest may name it — and returns
// its manifest entry: the one way a dictionary file comes to exist, for
// an adopting compaction and for a bulk build (internal/shard) alike.
func PublishDict(fs faultfs.FS, dir string, id uint64, data []byte) (Dict, error) {
	name := dictFileName(id)
	if err := faultfs.WriteFileAtomic(fs, filepath.Join(dir, name), data); err != nil {
		return Dict{}, fmt.Errorf("collection: publishing dictionary %d: %w", id, err)
	}
	return Dict{ID: id, Path: name}, nil
}

// trialBudget bounds the bytes trial-factorized when deciding whether a
// candidate dictionary earns adoption — enough signal to measure a ratio
// gain, cheap next to the compaction build that follows.
const trialBudget = 1 << 20

// chosenDict is chooseDict's outcome: the prepared dictionary the
// compaction will factorize against, its manifest id (0 for the
// unversioned placeholder used when every pending document is empty),
// and whether the publish must add a new manifest entry for it.
type chosenDict struct {
	dict  *rlz.Dictionary
	id    uint64
	path  string
	fresh bool // id is new this compaction: add a Dicts entry at publish
	// heat is the accumulator the build feeds: the existing one when the
	// dictionary is unchanged (usage keeps accumulating across
	// compactions), a fresh one when a new generation was adopted.
	heat *rlz.RegionHeat
}

// preparedDict returns the prepared (suffix-array-indexed) form of
// dictionary id, reading path on first use. Only the newest generation
// is ever a factorization target (older segments decode from the
// dictionary their own header embeds), so the cache holds at most that
// one: a compaction that adopts a generation releases its predecessor's
// suffix array, ladder and factorizer pool at once (releaseDictsExcept),
// and a long-running daemon's memory holds one prepared dictionary, not
// its history.
func (c *Collection) preparedDict(id uint64, path string) (*rlz.Dictionary, error) {
	c.dictMu.Lock()
	d := c.dicts[id]
	c.dictMu.Unlock()
	if d != nil {
		return d, nil
	}
	data, err := c.fs.ReadFile(filepath.Join(c.dir, path))
	if err != nil {
		return nil, fmt.Errorf("collection: reading dictionary %d: %w", id, err)
	}
	d, err = rlz.NewDictionary(data)
	if err != nil {
		return nil, fmt.Errorf("collection: preparing dictionary %d: %w", id, err)
	}
	c.dictMu.Lock()
	if existing := c.dicts[id]; existing != nil {
		d = existing // lost a benign race; keep the first preparation
	} else {
		c.dicts[id] = d
	}
	c.dictMu.Unlock()
	return d, nil
}

// releaseDict drops one dictionary's prepared state (a failed adoption's
// candidate, never referenced by any manifest).
func (c *Collection) releaseDict(id uint64) {
	c.dictMu.Lock()
	delete(c.dicts, id)
	c.dictMu.Unlock()
}

// releaseDictsExcept drops prepared state for every dictionary but id,
// releasing the suffix array, k-gram ladder and factorizer pool of every
// generation no compaction targets any more (all three hang off the
// rlz.Dictionary).
func (c *Collection) releaseDictsExcept(id uint64) {
	c.dictMu.Lock()
	for k := range c.dicts {
		if k != id {
			delete(c.dicts, k)
		}
	}
	c.dictMu.Unlock()
}

// preparedDictCount reports the prepared-dictionary cache size — the
// figure the leak regression test bounds.
func (c *Collection) preparedDictCount() int {
	c.dictMu.Lock()
	defer c.dictMu.Unlock()
	return len(c.dicts)
}

// chooseDict decides what dictionary this compaction factorizes against:
//
//  1. Explicit opts.Dict bytes become a new generation (unless they equal
//     the current one).
//  2. No dictionary yet: a fresh even sample over the pending documents
//     becomes generation 1 (or the unversioned placeholder when every
//     pending document is empty).
//  3. Growth: the budget is what a fresh sample over the drained
//     documents — the raw ones and the stale-generation ones converging
//     with them — would hold (opts.DictSize, else 1% of their bytes with
//     a 4 KiB floor, see archive.DictBudget; never more than the drained
//     bytes themselves). When the newest generation is at most half of
//     it, a fresh even sample becomes a new generation, so a collection
//     that outgrows its first sample is never factorized against a
//     dictionary far below the paper's representative fraction. The
//     factor of two is the hysteresis: equal-sized compactions never
//     re-sample. Growth takes precedence over opts.Adapt.
//  4. A dictionary exists and opts.Adapt is set: build a candidate with
//     AdaptiveSampler from the current dictionary's observed usage and
//     the pending documents, trial-factorize a bounded sample against
//     both, and adopt the candidate only when the encoded-byte gain
//     clears opts.MinRatioGain. No usage data means nothing to learn
//     from: reuse.
//  5. Otherwise: reuse the current dictionary.
//
// A newly adopted dictionary's file is published (atomically, fsynced)
// here, before any segment is built against it — a crash later leaves an
// orphan dict file for GC, never a manifest naming a missing dictionary.
func (c *Collection) chooseDict(dicts []Dict, runs []run, tomb map[int]struct{}, opts CompactOptions) (chosenDict, error) {
	var latest *Dict
	nextID := uint64(1)
	if len(dicts) > 0 {
		latest = &dicts[len(dicts)-1]
		nextID = latest.ID + 1
	}

	publish := func(d *rlz.Dictionary, err error) (chosenDict, error) {
		if err != nil {
			return chosenDict{}, err
		}
		pd, err := PublishDict(c.fs, c.dir, nextID, d.Bytes())
		if err != nil {
			return chosenDict{}, err
		}
		c.dictMu.Lock()
		c.dicts[nextID] = d
		c.dictMu.Unlock()
		return chosenDict{dict: d, id: nextID, path: pd.Path, fresh: true,
			heat: rlz.NewRegionHeat(d.Len(), 0)}, nil
	}
	reuse := func() (chosenDict, error) {
		d, err := c.preparedDict(latest.ID, latest.Path)
		if err != nil {
			return chosenDict{}, err
		}
		return chosenDict{dict: d, id: latest.ID, path: latest.Path,
			heat: c.heatFor(latest.ID, d.Len())}, nil
	}

	if len(opts.Dict) > 0 {
		if latest != nil {
			if d, err := c.preparedDict(latest.ID, latest.Path); err == nil && string(d.Bytes()) == string(opts.Dict) {
				return reuse()
			}
		}
		return publish(rlz.NewDictionary(opts.Dict))
	}

	total, err := drainedBytes(runs, tomb)
	if err != nil {
		return chosenDict{}, err
	}
	budget := min(int64(archive.DictBudget(total, opts.DictSize)), total)
	if latest != nil {
		// The file's size, not the prepared form: preparing builds the
		// suffix array of the generation growth is about to replace.
		st, err := c.fs.Stat(filepath.Join(c.dir, latest.Path))
		if err != nil {
			return chosenDict{}, fmt.Errorf("collection: sizing dictionary %d: %w", latest.ID, err)
		}
		if 2*st.Size() > budget {
			if opts.Adapt {
				if cand := c.adaptCandidate(latest, runs, tomb, total, opts); cand != nil {
					return publish(cand, nil)
				}
			}
			return reuse()
		}
	}
	data, err := sampleFresh(runs, tomb, total, int(budget), opts.SampleSize)
	if err != nil {
		return chosenDict{}, fmt.Errorf("collection: sampling compaction dictionary: %w", err)
	}
	if len(data) == 0 {
		// Only reached without a dictionary (growth needs a non-empty
		// budget). Every pending document is empty or tombstoned: there is
		// nothing to sample, but the run must still drain (otherwise
		// the auto-compactor retries it forever). Factorize against a
		// minimal placeholder and do not version it, so the first
		// compaction that sees real bytes samples a proper dictionary.
		d, err := rlz.NewDictionary([]byte{0})
		if err != nil {
			return chosenDict{}, err
		}
		return chosenDict{dict: d}, nil
	}
	return publish(rlz.NewDictionary(data))
}

// heatFor returns the usage accumulator for dictionary id, creating it
// when the collection has none (or has one for a different generation —
// heat never crosses dictionary swaps).
func (c *Collection) heatFor(id uint64, dictLen int) *rlz.RegionHeat {
	c.dictMu.Lock()
	defer c.dictMu.Unlock()
	if c.heat == nil || c.heatID != id || c.heat.DictLen() != dictLen {
		c.heat = rlz.NewRegionHeat(dictLen, 0)
		c.heatID = id
	}
	return c.heat
}

// adaptCandidate is chooseDict's step 4: the AdaptiveSampler candidate
// built from latest's observed usage and the pending documents (total
// bytes), or nil when there is no usage to learn from or the candidate's
// trial gain falls short of opts.MinRatioGain.
func (c *Collection) adaptCandidate(latest *Dict, runs []run, tomb map[int]struct{}, total int64, opts CompactOptions) *rlz.Dictionary {
	cur, err := c.preparedDict(latest.ID, latest.Path)
	if err != nil {
		return nil
	}
	heat := c.heatFor(latest.ID, cur.Len())
	if heat.Copies() == 0 || total == 0 {
		// No observed usage yet (first compaction against this
		// dictionary, or a restart discarded the in-memory heat): nothing
		// to rank evictions by.
		return nil
	}
	s := rlz.NewAdaptiveSampler(cur.Bytes(), heat, total, rlz.AdaptiveOptions{
		EvictFraction: opts.EvictFraction,
		SampleSize:    opts.SampleSize,
	})
	if err := drain(runs, tomb, s); err != nil {
		return nil
	}
	data := s.Bytes()
	if len(data) == 0 {
		return nil
	}
	cand, err := rlz.NewDictionary(data)
	if err != nil || trialGain(cur, cand, runs, tomb, opts) < opts.minRatioGain() {
		return nil
	}
	return cand
}

// drainedBytes sums the bytes of the documents the runs drain,
// tombstones excluded: the collection size a fresh sample over them
// measures, exact because rlz.EvenSampler places its windows by it. A
// segment's manifest Raw is its document bytes as built (documents
// tombstoned by then were stored empty), so only the documents
// tombstoned since are measured and subtracted: by extent in a raw
// segment, by decoding in an RLZ one. A segment whose Raw is 0 is
// measured document by document.
func drainedBytes(runs []run, tomb map[int]struct{}) (int64, error) {
	var total int64
	var buf []byte
	docLen := func(sr archive.Reader, local int) (int64, error) {
		if sr.Stats().Backend == archive.Raw {
			_, n, err := sr.Extent(local)
			return n, err
		}
		var err error
		buf, err = sr.GetAppend(buf[:0], local)
		return int64(len(buf)), err
	}
	for i := range runs {
		id := runs[i].start
		for j, sr := range runs[i].segs {
			raw := runs[i].raws[j]
			total += raw
			for local := 0; local < sr.NumDocs(); local, id = local+1, id+1 {
				// With Raw known, only tombstoned documents are measured
				// (and subtracted); without it, only live ones (and added).
				_, dead := tomb[id]
				if dead != (raw > 0) {
					continue
				}
				n, err := docLen(sr, local)
				if err != nil {
					return 0, fmt.Errorf("collection: reading document %d for compaction: %w", id, err)
				}
				if dead {
					n = -n
				}
				total += n
			}
		}
	}
	return total, nil
}

// sampleFresh even-samples budget bytes from the runs' documents, which
// hold total bytes: the paper's scheme (§3.3), byte-identical to
// archive.SampleDict over the same documents.
func sampleFresh(runs []run, tomb map[int]struct{}, total int64, budget, sampleSize int) ([]byte, error) {
	s := rlz.NewEvenSampler(total, budget, sampleSize)
	if err := drain(runs, tomb, s); err != nil {
		return nil, err
	}
	return s.Bytes(), nil
}

// drain writes every document the runs drain to w, in id order, through
// one reused buffer.
func drain(runs []run, tomb map[int]struct{}, w io.Writer) error {
	var buf []byte
	return eachDoc(runs, tomb, func(sr archive.Reader, local int) error {
		var err error
		if buf, err = sr.GetAppend(buf[:0], local); err == nil {
			_, err = w.Write(buf)
		}
		return err
	})
}

// trialGain factorizes a bounded prefix of the pending documents against
// the current and candidate dictionaries and returns the candidate's
// relative encoded-byte saving (0.1 = 10% smaller records). The trial
// uses the compaction's own codec so the measured gain is the one the
// built segments would realize.
func trialGain(cur, cand *rlz.Dictionary, runs []run, tomb map[int]struct{}, opts CompactOptions) float64 {
	codec := opts.Codec
	if codec == (rlz.PairCodec{}) {
		codec = rlz.DefaultCodec
	}
	fzCur := rlz.NewFactorizer(cur, rlz.FactorizerOptions{})
	fzCand := rlz.NewFactorizer(cand, rlz.FactorizerOptions{})
	var curBytes, candBytes int64
	var consumed int64
	var factors []rlz.Factor
	var doc, rec []byte
	// A read error ends the trial early, like the budget does.
	_ = eachDoc(runs, tomb, func(sr archive.Reader, local int) error {
		if consumed >= trialBudget {
			return io.EOF
		}
		var err error
		if doc, err = sr.GetAppend(doc[:0], local); err != nil || len(doc) == 0 {
			return err
		}
		consumed += int64(len(doc))
		factors = fzCur.Factorize(doc, factors[:0])
		rec = codec.Encode(rec[:0], factors)
		curBytes += int64(len(rec))
		factors = fzCand.Factorize(doc, factors[:0])
		rec = codec.Encode(rec[:0], factors)
		candBytes += int64(len(rec))
		return nil
	})
	if curBytes == 0 {
		return 0
	}
	return 1 - float64(candBytes)/float64(curBytes)
}
