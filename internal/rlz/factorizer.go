package rlz

import (
	"encoding/binary"
	"math/bits"

	"rlz/internal/suffix"
)

// FactorizerOptions holds nothing: the engine has one configuration, and
// the ladder decides from the dictionary which rungs it keeps. The type
// and NewFactorizer's second parameter stay only because
// benchmark/layers.go names both and a change may not edit the benchmark.
type FactorizerOptions struct{}

// linearThreshold is the interval size at or below which Factorize
// narrows a factor's interval a byte at a time by sequential scans; a
// wider one takes longestMatch's binary search. Thresholds from 16 to 48
// measure alike, 96 and 192 slower on web dictionaries; see suffix.Refine
// for the same trade-off in the exported primitive.
const linearThreshold = 48

// A rung of the ladder that misses restStreak factor openings in a row is
// not probed for the next restOpens openings of the same Factorize call,
// and goes back to rest on its first miss after that, until it hits. A
// document that shares nothing with the dictionary (a binary body in a
// text crawl) would otherwise pay a failed probe per rung per byte. The
// narrowest rung never rests: its table is small, and its miss is worth
// more than its probe (see end in Factorize).
const (
	restStreak = 8
	restOpens  = 64
)

// rungGate is that rule's state for one rung within one Factorize call.
type rungGate struct{ miss, rest int32 }

// resting reports whether this opening skips the rung, counting it off.
func (g *rungGate) resting() bool {
	if g.rest > 0 {
		g.rest--
		return true
	}
	return false
}

func (g *rungGate) hit() { g.miss = 0 }

func (g *rungGate) missed() {
	if g.miss++; g.miss >= restStreak {
		g.rest = restOpens
	}
}

// Factorizer is a reusable factorization engine over one dictionary: the
// suffix-array view and the dictionary's k-gram ladder (see
// suffix.Ladder). Building one is cheap — the ladder is built once per
// dictionary and shared — but not free, so parallel build pipelines keep
// one Factorizer per worker (see internal/archive) rather than one per
// document.
//
// A Factorizer is stateless across calls and safe for concurrent use;
// per-worker instances exist to amortize construction, not to guard
// mutable state. Factorize output is byte-identical to
// Dictionary.Factorize for every input, whatever rungs exist — a rung only
// replaces a factor's first k Refine steps with a lookup that lands on
// the interval those steps would have produced.
type Factorizer struct {
	sa    *suffix.Array
	rungs suffix.Ladder // empty when the dictionary is too small to keep a rung
}

// NewFactorizer prepares a factorization engine over dict. The ladder is
// built on first use per dictionary and shared by every Factorizer (and
// every Dictionary.Factorize call) over it.
func NewFactorizer(dict *Dictionary, _ FactorizerOptions) *Factorizer {
	return &Factorizer{sa: dict.index(), rungs: dict.ladder()}
}

// matchLen returns the length of the longest common prefix of a and b,
// comparing eight bytes per step — the sequential half of the engine's
// cost (boundary skips and single-candidate extension) runs through it.
func matchLen(a, b []byte) int32 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i+8 <= n {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return int32(i + bits.TrailingZeros64(x)>>3)
		}
		i += 8
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return int32(i)
}

// Factorize appends the RLZ factorization of doc relative to the
// dictionary to factors and returns the extended slice — the same
// contract, and byte-for-byte the same output, as Dictionary.Factorize.
//
// This is the paper's Figure 1 loop with the hot path flattened:
//
//   - each factor opens with a ladder lookup of its first 8, else 4, else
//     2 bytes, landing on the interval at that depth (falling back to the
//     full array when no rung holds the gram, fewer bytes remain, or the
//     rungs are resting — see restStreak); a rung that misses bounds the
//     factor below its width, so the search that follows stops there
//     instead of finding out;
//   - an interval wider than linearThreshold is searched once for the
//     whole pattern (longestMatch): an lcp-bounded binary search for its
//     insertion point, whose neighbours hold the longest match;
//   - a narrower one is narrowed a byte at a time: while both boundary
//     suffixes match the next pattern bytes every suffix between them
//     does too, so depth advances by eight-byte compares with no search
//     at all, and where they diverge a linear scan narrows the interval,
//     which strictly shrinks — the diverging boundary drops out;
//   - a single surviving candidate switches to direct extension
//     (csp2-style, eight bytes per step).
//
// Both searches report the leftmost suffix of the interval that shares
// the longest match, which is the suffix the reference's last Refine
// leaves at the interval's low end; so every factor is the reference's.
func (f *Factorizer) Factorize(doc []byte, factors []Factor) []Factor {
	text, slots := f.sa.Text(), f.sa.SA()
	m := int32(len(text))
	n := int32(len(doc))
	rungs := f.rungs
	narrowest := len(rungs) - 1
	var gates [suffix.MaxRungs]rungGate
	// The narrow search runs on (lo, hi) locals with the scans inlined —
	// one Refine-sized function call per character showed up as a top
	// cost in the build profile, and the suffix-array probes here are the
	// innermost loop of every archive build.
	for i := int32(0); i < n; {
		var lo, depth int32
		hi := int32(len(slots))
		// end bounds this factor: a rung that was probed and missed says
		// the next k bytes do not occur in the dictionary, so the factor is
		// shorter than k and the search below need not look past i+k-1 —
		// after a miss on the 2-byte rung, not past the first byte.
		end := n
		g := suffix.Gram(doc, int(i))
		for r := range rungs {
			rg, gate := &rungs[r], &gates[r]
			k := rg.K
			if n-i < k || (r < narrowest && gate.resting()) {
				continue
			}
			if jlo, jhi := rg.Lookup(g); jlo < jhi {
				lo, hi, depth = jlo, jhi, k
				gate.hit()
				break
			}
			gate.missed()
			end = i + k - 1
		}
		if hi-lo > linearThreshold && i+depth < end {
			// hi = lo: the match is settled, nothing below narrows or
			// extends it.
			lo, depth = longestMatch(text, slots, doc[i:end], lo, hi, depth)
			hi = lo
		}
		for i+depth < end && hi-lo > 1 {
			// Boundary skip (see the doc comment): capped at the lower
			// boundary's match length, then at the upper's.
			if k := matchLen(text[slots[lo]+depth:], doc[i+depth:end]); k > 0 {
				depth += matchLen(text[slots[hi-1]+depth:], doc[i+depth:i+depth+k])
				if i+depth >= end {
					break
				}
			}
			// Linear scan for the run of slots holding c at depth. An
			// exhausted suffix (p >= m) sorts before every character.
			c := doc[i+depth]
			k := lo
			for k < hi {
				if p := slots[k] + depth; p < m && text[p] >= c {
					break
				}
				k++
			}
			newLo := k
			for k < hi {
				if p := slots[k] + depth; p >= m || text[p] != c {
					break
				}
				k++
			}
			if newLo >= k {
				break
			}
			lo, hi = newLo, k
			depth++
		}
		// One candidate suffix left: extend by direct comparison
		// (csp2-style, eight bytes per step). Running it before the
		// literal check matters for the depth == 0 corner — a one-byte
		// dictionary starts at a size-1 interval with nothing matched yet,
		// and matchLen from depth 0 is exactly the verification the
		// reference path's first Refine performs.
		p := slots[lo]
		if hi-lo == 1 && i+depth < end && p+depth < m {
			depth += matchLen(text[p+depth:], doc[i+depth:end])
		}
		if depth == 0 {
			factors = append(factors, Factor{Pos: uint32(doc[i]), Len: 0})
			i++
			continue
		}
		factors = append(factors, Factor{Pos: uint32(p), Len: uint32(depth)})
		i += depth
	}
	return factors
}

// longestMatch returns the leftmost slot of [lo,hi) whose suffix shares
// the longest prefix with pat, and that prefix's length; every suffix in
// [lo,hi) shares pat[:depth], and depth < len(pat).
//
// It binary-searches for pat's insertion point l — the first slot whose
// suffix is not below pat — tracking llcp and rlcp, the prefix pat shares
// with the slots at l-1 and r; every suffix between those two shares
// min(llcp, rlcp) with pat, so each probe compares from there (Manber and
// Myers' bound). A suffix that matches all of pat counts as not below it,
// and one that runs out first (the dictionary's end) as below. The
// longest match is with l-1 or l, and the lcp with pat never decreases
// from lo up to l-1, so when l-1 holds it the leftmost slot that does is
// found by galloping left and bisecting.
//
// A pattern one byte past depth — most factors of a document that shares
// little with the dictionary open so, after the 2-byte rung misses —
// takes a plain lower-bound search on that byte instead: the lcp-tracked
// probe costs such documents a third of their speed.
func longestMatch(text []byte, slots []int32, pat []byte, lo, hi, depth int32) (slot, n int32) {
	m, plen := int32(len(text)), int32(len(pat))
	l, r := lo, hi
	if plen-depth == 1 {
		c := pat[depth]
		for l < r {
			mid := int32(uint32(l+r) >> 1)
			if p := slots[mid] + depth; p < m && text[p] >= c {
				r = mid
			} else {
				l = mid + 1
			}
		}
		if l < hi {
			if p := slots[l] + depth; p < m && text[p] == c {
				return l, plen
			}
		}
		return lo, depth
	}
	llcp, rlcp := depth, depth // a neighbour outside [lo,hi) counts as depth
	for l < r {
		mid := int32(uint32(l+r) >> 1)
		s, k := slots[mid], min(llcp, rlcp)
		k += matchLen(text[s+k:], pat[k:])
		if k == plen || (s+k < m && text[s+k] > pat[k]) {
			r, rlcp = mid, k
		} else {
			l, llcp = mid+1, k
		}
	}
	switch {
	case llcp <= depth && rlcp <= depth:
		return lo, depth
	case llcp < rlcp:
		return l, rlcp
	}
	// The longest match is llcp, held by l-1: gallop left from there while
	// slots still hold it (g, the leftmost seen so far), then bisect (b, g).
	n = llcp
	g, step := l-1, int32(1)
	b := g - 1
	for b >= lo && matchLen(text[slots[b]+depth:], pat[depth:n]) == n-depth {
		g, step = b, step<<1
		b = g - step
	}
	b = max(b, lo-1) // b holds less than n, or lies outside [lo,hi)
	for g-b > 1 {
		mid := int32(uint32(b+g) >> 1)
		if matchLen(text[slots[mid]+depth:], pat[depth:n]) == n-depth {
			g = mid
		} else {
			b = mid
		}
	}
	return g, n
}
