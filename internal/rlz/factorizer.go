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

// linearThreshold is the interval size at or below which the factorizer's
// inlined search scans slots sequentially instead of binary-searching;
// see suffix.Refine for the same trade-off in the exported primitive.
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
//     2 bytes, landing on the interval at that depth (falling back to
//     narrowing from the full array when no rung holds the gram, fewer
//     bytes remain, or the rungs are resting — see restStreak); a rung
//     that misses bounds the factor below its width, so the search that
//     follows stops there instead of finding out;
//   - the interval's boundary suffixes absorb shared prefixes: while both
//     boundaries match the next pattern bytes every suffix between them
//     does too, so depth advances by sequential eight-byte compares with
//     no search at all;
//   - when the boundaries diverge, one equal_range-style closure-free
//     binary search (linear scan below linearThreshold) narrows the
//     interval, which strictly shrinks — the diverging boundary drops out
//     — so the skip/narrow alternation terminates;
//   - a single surviving candidate switches to direct extension
//     (csp2-style, as before, now eight bytes per step).
func (f *Factorizer) Factorize(doc []byte, factors []Factor) []Factor {
	text, slots := f.sa.Text(), f.sa.SA()
	m := int32(len(text))
	n := int32(len(doc))
	rungs := f.rungs
	narrowest := len(rungs) - 1
	var gates [suffix.MaxRungs]rungGate
	// The whole search runs on (lo, hi) locals with the bound searches
	// inlined — one Refine-sized function call per character showed up as
	// a top cost in the build profile, and the suffix-array probes here
	// are the innermost loop of every archive build.
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
		for i+depth < end && hi-lo > 1 {
			// Boundary skip (see the doc comment): capped at the lower
			// boundary's match length, then at the upper's.
			if k := matchLen(text[slots[lo]+depth:], doc[i+depth:end]); k > 0 {
				depth += matchLen(text[slots[hi-1]+depth:], doc[i+depth:i+depth+k])
				if i+depth >= end {
					break
				}
			}
			c := doc[i+depth]
			l, h := lo, hi
			var newLo, newHi int32
			for {
				if h-l <= linearThreshold {
					// Small range: sequential scan beats further probes.
					k := l
					for k < h {
						if p := slots[k] + depth; p < m && text[p] >= c {
							break
						}
						k++
					}
					newLo = k
					for k < h {
						if p := slots[k] + depth; p >= m || text[p] != c {
							break
						}
						k++
					}
					newHi = k
					break
				}
				// equal_range: one probe sequence until a slot holding c
				// is hit, then bound the run from both sides within the
				// halves — ~1.5 log probes instead of 2 log. An exhausted
				// suffix (p >= m) sorts before every character.
				mid := int32(uint32(l+h) >> 1)
				p := slots[mid] + depth
				if p >= m || text[p] < c {
					l = mid + 1
					continue
				}
				if text[p] > c {
					h = mid
					continue
				}
				lb, lh := l, mid
				for lb < lh {
					m2 := int32(uint32(lb+lh) >> 1)
					if p2 := slots[m2] + depth; p2 < m && text[p2] >= c {
						lh = m2
					} else {
						lb = m2 + 1
					}
				}
				newLo = lb
				ub, uh := mid+1, h
				for ub < uh {
					m2 := int32(uint32(ub+uh) >> 1)
					if p2 := slots[m2] + depth; p2 < m && text[p2] > c {
						uh = m2
					} else {
						ub = m2 + 1
					}
				}
				newHi = ub
				break
			}
			if newLo >= newHi {
				break
			}
			lo, hi = newLo, newHi
			depth++
		}
		// One candidate suffix left: extend by direct comparison
		// (csp2-style, now eight bytes per step). Running it before the
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
