package suffix

import (
	"encoding/binary"
	"slices"
)

// Ladder is the factorizer's jump structure over an Array: for a few gram
// widths k (8, 4 and 2 bytes, widest first) a hash table mapping each
// k-byte string that occurs in the text to the suffix-array interval of
// the suffixes starting with it — exactly the interval a chain of k Refine
// calls from All() reaches, so opening a factor with a lookup instead of
// the chain cannot change any factorization (see rlz's differential
// tests). A factorizer tries the rungs widest first and falls back to
// All() when none hits; most factors of a web collection against a sampled
// dictionary are at least 8 bytes long, so most open with one probe at
// depth 8, where the interval is a handful of slots instead of thousands.
//
// Each rung is open-addressed with linear probing, 8 bytes per slot
// (lo, hi) and no stored key: a probe is verified by comparing the gram
// with the k bytes at text[sa[lo]], the cache line the factorizer's
// boundary skip reads next anyway. Suffixes shorter than k are not
// inserted (Refine excludes them too). A table that would grow to a slot
// per possible gram — only the 2-byte rung's can, over text holding most
// bigrams — is indexed by the gram itself instead, with nothing to collide
// or verify: the dense 512 KiB table, where the text calls for it.
//
// Which rungs exist is decided from the text, never by the caller: a rung
// is built only if its distinct grams number at most len(text)/4 — on
// text that does not repeat, a wide table would hold one slot per suffix
// and find nothing the binary search would not — and only while the whole
// ladder stays within 8 bytes per text byte (twice the suffix array),
// narrower rungs claiming their share first. High-entropy text keeps the
// 2-byte rung alone.
//
// A Ladder — its rungs, widest gram first, possibly none — is immutable
// after construction and safe for concurrent readers sharing one instance.
type Ladder []Rung

// Rung is one gram width's table.
type Rung struct {
	K     int32  // gram width in bytes
	mask  uint64 // low 8K bits of an 8-byte little-endian load
	shift uint   // 64 - log2(len(slots))
	slots []slot
	text  []byte
	sa    []int32
}

// slot is a suffix-array interval; hi == 0 marks a free slot (an occupied
// one has hi > lo >= 0).
type slot struct{ lo, hi int32 }

// ladderWidths are the gram widths a Ladder may hold, widest first — the
// order a factorizer probes them in.
var ladderWidths = [...]int{8, 4, 2}

// MaxRungs bounds len(Ladder), for callers keeping per-rung state in a
// fixed array.
const MaxRungs = len(ladderWidths)

// NewLadder builds the ladder for a in two scans of the suffix array: one
// counting each width's distinct grams, one filling the tables.
func NewLadder(a *Array) Ladder { return newLadder(a, false) }

// newLadder is NewLadder; minimal sizes every table at the smallest power
// of two that leaves one slot free instead of at half load, so tests can
// force long probe chains and verification on collision.
func newLadder(a *Array, minimal bool) Ladder {
	text, sa := a.text, a.sa
	m := len(text)

	// Suffixes sharing a k-byte prefix occupy one contiguous run of the
	// suffix array, and a suffix shorter than k never sorts inside a run
	// (it lacks the prefix), so a width's distinct grams are the changes of
	// gram along the suffixes long enough to have one.
	var distinct [MaxRungs]int
	var prev [MaxRungs]uint64
	for _, p := range sa {
		g := Gram(text, int(p))
		for r, k := range ladderWidths {
			if int(p)+k > m {
				continue
			}
			if gk := g & gramMask(k); distinct[r] == 0 || gk != prev[r] {
				distinct[r]++
				prev[r] = gk
			}
		}
	}

	// Tables, narrowest width first: it is the cheapest rung and every
	// wider one's fallback, so it is the last to be dropped.
	l := make(Ladder, 0, MaxRungs)
	budget := m // slots, 8 bytes each
	for r := MaxRungs - 1; r >= 0; r-- {
		k, d := ladderWidths[r], distinct[r]
		if d == 0 || d > m/4 {
			continue
		}
		want := 2 * d // half load: a miss ends after ~2.5 slots, a hit after ~1.5
		if minimal {
			want = d + 1 // a miss needs one free slot to end on
		}
		b := uint(1)
		for 1<<b < want && b < 8*uint(k) { // stop at a slot per gram: see direct
			b++
		}
		if 1<<b <= budget {
			budget -= 1 << b
			l = append(l, Rung{K: int32(k), mask: gramMask(k), shift: 64 - b,
				slots: make([]slot, 1<<b), text: text, sa: sa})
		}
	}
	slices.Reverse(l) // probe order: widest first

	// Fill: a gram is inserted when its run starts and its hi follows the
	// run as it grows.
	var cur [MaxRungs]*slot
	for i, p := range sa {
		g := Gram(text, int(p))
		for j := range l {
			rg := &l[j]
			if int(p)+int(rg.K) > m {
				continue
			}
			if gk := g & rg.mask; cur[j] == nil || gk != prev[j] {
				prev[j] = gk
				cur[j] = rg.insert(gk, int32(i))
			}
			cur[j].hi = int32(i) + 1
		}
	}
	return l
}

func gramMask(k int) uint64 { return ^uint64(0) >> (64 - 8*uint(k)) }

// Gram returns the up-to-8 bytes of b at offset i as a little-endian
// integer — byte i in the low 8 bits — zero-filled past the end of b. It
// never reads outside b: the last seven offsets are assembled bytewise.
func Gram(b []byte, i int) uint64 {
	if i+8 <= len(b) {
		return binary.LittleEndian.Uint64(b[i:])
	}
	var g uint64
	for j := len(b) - 1; j >= i; j-- {
		g = g<<8 | uint64(b[j])
	}
	return g
}

// home is the gram's first slot: multiplicative hashing, top bits — or,
// in a table with a slot for every possible gram, the gram itself.
func (r *Rung) home(gram uint64) uint64 {
	if r.direct() {
		return gram
	}
	return gram * 0x9E3779B97F4A7C15 >> r.shift
}

// direct reports whether the table has a slot per possible gram, which
// then index it.
func (r *Rung) direct() bool { return 64-r.shift == 8*uint(r.K) }

// insert claims the first free slot of gram's probe sequence for a run
// starting at suffix-array slot lo. Build-time only; every gram is
// inserted once.
func (r *Rung) insert(gram uint64, lo int32) *slot {
	n := uint64(len(r.slots))
	h := r.home(gram)
	for r.slots[h].hi != 0 {
		if h++; h == n {
			h = 0
		}
	}
	r.slots[h] = slot{lo, lo + 1}
	return &r.slots[h]
}

// Bytes returns the ladder's memory footprint.
func (l Ladder) Bytes() int {
	n := 0
	for i := range l {
		n += 8 * len(l[i].slots)
	}
	return n
}

// Lookup returns the interval of suffixes starting with the rung's K-byte
// gram held in the low bytes of g (as Gram loads it; higher bytes are
// ignored), or an empty interval if no suffix does.
func (r *Rung) Lookup(g uint64) (lo, hi int32) {
	g &= r.mask
	n := uint64(len(r.slots))
	for h := r.home(g); ; {
		s := r.slots[h]
		// A free slot is the empty interval {0, 0}. Occupied slots hold
		// suffixes at least K long, so the compare never sees Gram's zero
		// fill as text.
		if s.hi == 0 || r.direct() || Gram(r.text, int(r.sa[s.lo]))&r.mask == g {
			return s.lo, s.hi
		}
		if h++; h == n {
			h = 0
		}
	}
}
