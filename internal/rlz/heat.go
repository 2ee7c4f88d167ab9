package rlz

import (
	"sort"
	"sync/atomic"
)

// DefaultRegionSize is the dictionary-region granularity usage scoring
// operates at when callers pass 0: fine enough that one hot template
// does not shield a cold kilobyte next to it, coarse enough that the
// counter array for a 1% dictionary over a multi-GiB collection stays
// a few hundred KiB.
const DefaultRegionSize = 1024

// RegionHeat counts how often factors reference each fixed-size region
// of a dictionary — the usage signal adaptive re-sampling evicts cold
// regions by. A factor spanning [Pos, Pos+Len) increments every region
// the span overlaps by one, so long template matches and dense short
// matches both register where the dictionary is earning its bytes.
//
// Observe uses atomic adds and is safe for concurrent use; a parallel
// compaction build instead gives each worker a HeatTally and flushes
// them all when the build's pipeline closes. Accessors read the counters
// atomically and may run concurrently with Observe and Flush; they see a
// live snapshot, which is what the stats surface wants (behind a running
// parallel build by the tallies not yet flushed).
type RegionHeat struct {
	regionSize int
	dictLen    int
	counts     []int64 // accessed atomically
	copies     atomic.Int64
	literals   atomic.Int64
}

// NewRegionHeat prepares a usage accumulator for a dictionary of dictLen
// bytes scored at regionSize granularity (0 selects DefaultRegionSize).
func NewRegionHeat(dictLen, regionSize int) *RegionHeat {
	if regionSize <= 0 {
		regionSize = DefaultRegionSize
	}
	if dictLen < 0 {
		dictLen = 0
	}
	regions := (dictLen + regionSize - 1) / regionSize
	return &RegionHeat{
		regionSize: regionSize,
		dictLen:    dictLen,
		counts:     make([]int64, regions),
	}
}

// Observe records one document's factors. Copy factors increment every
// region their dictionary span overlaps; literals are only counted in
// the totals (they reference no dictionary position). Factors reaching
// past the dictionary length (corrupt input) are clipped, not dropped.
//
// The two totals are tallied locally and added once per call; a
// goroutine observing many documents keeps a HeatTally instead, so it
// touches the shared counters once in all.
func (h *RegionHeat) Observe(factors []Factor) {
	var copies, literals int64
	for _, f := range factors {
		if f.Len == 0 {
			literals++
			continue
		}
		copies++
		lo, hi := h.span(f)
		for r := lo; r <= hi; r++ {
			atomic.AddInt64(&h.counts[r], 1)
		}
	}
	h.copies.Add(copies)
	h.literals.Add(literals)
}

// span returns the regions [lo, hi] copy factor f overlaps, clipped to
// the dictionary: empty (hi < lo) when f starts past the last region.
func (h *RegionHeat) span(f Factor) (lo, hi int) {
	lo = int(f.Pos) / h.regionSize
	hi = (int(f.Pos) + int(f.Len) - 1) / h.regionSize
	return lo, min(hi, len(h.counts)-1)
}

// HeatTally is one goroutine's share of a RegionHeat: plain counters
// over the same regions, added into it by Flush. A parallel build gives
// each worker one, so workers never contend on the shared counters'
// cache lines; the flushed counts equal what Observe would have left,
// since a sum does not depend on its order. Until Flush, the shared
// accumulator does not see the tally's observations.
type HeatTally struct {
	h                *RegionHeat
	counts           []int64
	copies, literals int64
}

// NewTally returns an empty tally that flushes into h.
func (h *RegionHeat) NewTally() *HeatTally {
	return &HeatTally{h: h, counts: make([]int64, len(h.counts))}
}

// Observe records one document's factors, as RegionHeat.Observe does.
// A tally is not safe for concurrent use.
func (t *HeatTally) Observe(factors []Factor) {
	for _, f := range factors {
		if f.Len == 0 {
			t.literals++
			continue
		}
		t.copies++
		lo, hi := t.h.span(f)
		for r := lo; r <= hi; r++ {
			t.counts[r]++
		}
	}
}

// Flush adds the tally into its RegionHeat and empties it.
func (t *HeatTally) Flush() {
	for r, n := range t.counts {
		if n != 0 {
			atomic.AddInt64(&t.h.counts[r], n)
			t.counts[r] = 0
		}
	}
	t.h.copies.Add(t.copies)
	t.h.literals.Add(t.literals)
	t.copies, t.literals = 0, 0
}

// RegionSize returns the scoring granularity in bytes.
func (h *RegionHeat) RegionSize() int { return h.regionSize }

// DictLen returns the dictionary length this accumulator was built for.
func (h *RegionHeat) DictLen() int { return h.dictLen }

// Regions returns the number of scored regions.
func (h *RegionHeat) Regions() int { return len(h.counts) }

// Count returns region r's reference count.
func (h *RegionHeat) Count(r int) int64 { return atomic.LoadInt64(&h.counts[r]) }

// Copies returns the total copy factors observed — zero means no usage
// data exists and adaptive sampling must fall back to even sampling.
func (h *RegionHeat) Copies() int64 { return h.copies.Load() }

// Literals returns the total literal factors observed.
func (h *RegionHeat) Literals() int64 { return h.literals.Load() }

// UnusedPercent returns the percentage of regions never referenced by
// any factor — the region-granular analogue of Stats.UnusedPercent,
// cheap enough to serve from a live daemon's /stats.
func (h *RegionHeat) UnusedPercent() float64 {
	if len(h.counts) == 0 {
		return 0
	}
	unused := 0
	for r := range h.counts {
		if atomic.LoadInt64(&h.counts[r]) == 0 {
			unused++
		}
	}
	return 100 * float64(unused) / float64(len(h.counts))
}

// ColdestRegions returns the indices of the k least-referenced regions.
// Ordering is fully deterministic: regions sort by (count, index)
// ascending, so equal counts break ties toward the front of the
// dictionary — the determinism contract AdaptiveSampler builds on.
func (h *RegionHeat) ColdestRegions(k int) []int {
	n := len(h.counts)
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	snap := make([]int64, n)
	idx := make([]int, n)
	for r := range h.counts {
		snap[r] = atomic.LoadInt64(&h.counts[r])
		idx[r] = r
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if snap[a] != snap[b] {
			return snap[a] < snap[b]
		}
		return a < b
	})
	return idx[:k:k]
}
