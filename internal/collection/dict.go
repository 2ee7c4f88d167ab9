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
// dictionary id, reading path on first use. The cache holds only
// compaction-target dictionaries — retired generations are released by
// releaseDictsLocked when their last referencing segment goes away, so a
// long-running daemon's memory tracks the live dictionary set, not its
// history.
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

// releaseDicts drops prepared state for every dictionary id not in live,
// releasing the suffix array, k-gram ladder and factorizer pool of
// retired generations (all three hang off the rlz.Dictionary).
func (c *Collection) releaseDicts(live map[uint64]bool) {
	c.dictMu.Lock()
	for id := range c.dicts {
		if !live[id] {
			delete(c.dicts, id)
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
//  3. A dictionary exists and opts.Adapt is set: build a candidate with
//     AdaptiveSampler from the current dictionary's observed usage and
//     the pending documents, trial-factorize a bounded sample against
//     both, and adopt the candidate only when the encoded-byte gain
//     clears opts.MinRatioGain. No usage data means nothing to learn
//     from: reuse.
//  4. Otherwise: reuse the current dictionary.
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

	publish := func(data []byte) (chosenDict, error) {
		pd, err := PublishDict(c.fs, c.dir, nextID, data)
		if err != nil {
			return chosenDict{}, err
		}
		d, err := rlz.NewDictionary(data)
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
		return publish(opts.Dict)
	}

	if latest == nil {
		data, _, err := archive.SampleDict(func() (archive.DocSource, error) {
			return &multiRunSource{runs: runs, tomb: tomb}, nil
		}, opts.DictSize, opts.SampleSize)
		if err != nil {
			return chosenDict{}, fmt.Errorf("collection: sampling compaction dictionary: %w", err)
		}
		if len(data) == 0 {
			// Every pending document is empty or tombstoned: there is
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
		return publish(data)
	}

	if !opts.Adapt {
		return reuse()
	}
	cur, err := c.preparedDict(latest.ID, latest.Path)
	if err != nil {
		return chosenDict{}, err
	}
	heat := c.heatFor(latest.ID, cur.Len())
	if heat.Copies() == 0 {
		// No observed usage yet (first compaction against this
		// dictionary, or a restart discarded the in-memory heat): nothing
		// to rank evictions by.
		return reuse()
	}
	cand, err := c.sampleAdaptive(cur, heat, runs, tomb, opts)
	if err != nil || cand == nil {
		return reuse()
	}
	gain := trialGain(cur, cand, runs, tomb, opts)
	if gain < opts.minRatioGain() {
		return reuse()
	}
	return publish(cand.Bytes())
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

// sampleAdaptive runs the two-pass AdaptiveSampler over the pending
// documents: measure the stream, then evict cold regions of cur and
// refill from the stream. Returns nil when the stream is empty.
func (c *Collection) sampleAdaptive(cur *rlz.Dictionary, heat *rlz.RegionHeat, runs []run, tomb map[int]struct{}, opts CompactOptions) (*rlz.Dictionary, error) {
	var total int64
	src := &multiRunSource{runs: runs, tomb: tomb}
	for {
		d, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		total += int64(len(d.Body))
	}
	if total == 0 {
		return nil, nil
	}
	s := rlz.NewAdaptiveSampler(cur.Bytes(), heat, total, rlz.AdaptiveOptions{
		EvictFraction: opts.EvictFraction,
		SampleSize:    opts.SampleSize,
	})
	src = &multiRunSource{runs: runs, tomb: tomb}
	for {
		d, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		_, _ = s.Write(d.Body)
	}
	data := s.Bytes()
	if len(data) == 0 {
		return nil, nil
	}
	return rlz.NewDictionary(data)
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
	src := &multiRunSource{runs: runs, tomb: tomb}
	var curBytes, candBytes int64
	var consumed int64
	var factors []rlz.Factor
	var rec []byte
	for consumed < trialBudget {
		d, err := src.Next()
		if err != nil {
			break
		}
		if len(d.Body) == 0 {
			continue
		}
		consumed += int64(len(d.Body))
		factors = fzCur.Factorize(d.Body, factors[:0])
		rec = codec.Encode(rec[:0], factors)
		curBytes += int64(len(rec))
		factors = fzCand.Factorize(d.Body, factors[:0])
		rec = codec.Encode(rec[:0], factors)
		candBytes += int64(len(rec))
	}
	if curBytes == 0 {
		return 0
	}
	return 1 - float64(candBytes)/float64(curBytes)
}
