// Package huffman implements canonical Huffman coding over small integer
// alphabets. It is the entropy-coding stage of the large-window LZ77
// baseline compressor (the stand-in for the paper's lzma baseline).
//
// Codes are canonical: only the code *lengths* need to be transmitted, and
// the decoder reconstructs the exact codebook from them. Code lengths are
// capped at MaxCodeLen so the decoder can use fixed-width arithmetic.
package huffman

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"rlz/internal/coding"
)

// MaxCodeLen is the longest permitted codeword, in bits. Length-limiting
// uses the standard heuristic of flattening overlong codes and repairing
// the Kraft sum, which costs a negligible fraction of a bit per symbol.
const MaxCodeLen = 24

// ErrInvalidLengths is returned when a set of code lengths does not form a
// valid (complete or over-subscribed) prefix code.
var ErrInvalidLengths = errors.New("huffman: invalid code lengths")

// Codec holds a canonical Huffman code for an alphabet of n symbols.
type Codec struct {
	lengths []uint8  // code length per symbol; 0 = symbol unused
	codes   []uint32 // canonical codeword per symbol (MSB-first)

	// Canonical decoding tables, indexed by code length.
	firstCode  [MaxCodeLen + 2]uint32 // smallest codeword of each length
	firstIndex [MaxCodeLen + 2]int32  // index into sorted symbol list
	sorted     []int32                // symbols ordered by (length, symbol)
	maxLen     uint
}

// Build constructs an optimal length-limited code for the given symbol
// frequencies. Symbols with zero frequency receive no code. If fewer than
// two symbols occur, the code degenerates gracefully (a single symbol gets
// a 1-bit code so the bitstream remains self-delimiting).
func Build(freqs []int) (*Codec, error) {
	lengths := computeLengths(freqs)
	return FromLengths(lengths)
}

// FromLengths reconstructs a codec from code lengths, as a decoder does.
func FromLengths(lengths []uint8) (*Codec, error) {
	c := new(Codec)
	if err := c.Reset(lengths); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset makes c the codec for lengths, reusing its tables: a decoder that
// reads one code per record keeps one Codec and allocates nothing once
// the tables have reached the alphabet's size. lengths is kept, not
// copied. On error c holds no code.
func (c *Codec) Reset(lengths []uint8) error {
	*c = Codec{lengths: lengths, codes: c.codes[:0], sorted: c.sorted[:0]}
	err := c.buildTables()
	if err != nil {
		c.maxLen = 0
	}
	return err
}

// Lengths returns the code length table (zero means unused symbol). The
// returned slice is the codec's own; callers must not mutate it.
func (c *Codec) Lengths() []uint8 { return c.lengths }

// CodeLen returns the codeword length in bits for symbol s, or 0 if the
// symbol has no code.
func (c *Codec) CodeLen(s int) int { return int(c.lengths[s]) }

// Encode appends the codeword for symbol s to w. Encoding a symbol with no
// code is a programming error and panics.
func (c *Codec) Encode(w *coding.BitWriter, s int) {
	l := c.lengths[s]
	if l == 0 {
		panic(fmt.Sprintf("huffman: encoding symbol %d with no code", s))
	}
	w.WriteBits(uint64(c.codes[s]), uint(l))
}

// Decode reads one symbol from r.
func (c *Codec) Decode(r *coding.BitReader) (int, error) {
	if c.maxLen == 0 {
		return 0, ErrInvalidLengths
	}
	// Canonical decode: peek maxLen bits, find the length whose codeword
	// range contains the prefix, then index the sorted symbol list.
	window, avail := r.Peek(c.maxLen)
	for l := uint(1); l <= c.maxLen; l++ {
		code := uint32(window >> (c.maxLen - l))
		if code < c.limit(l) {
			if l > avail {
				return 0, coding.ErrShortBuffer
			}
			idx := c.firstIndex[l] + int32(code-c.firstCode[l])
			if err := r.Skip(l); err != nil {
				return 0, err
			}
			return int(c.sorted[idx]), nil
		}
	}
	return 0, ErrInvalidLengths
}

// limit returns one past the largest codeword of length l.
func (c *Codec) limit(l uint) uint32 {
	return c.firstCode[l] + uint32(c.count(l))
}

func (c *Codec) count(l uint) int32 {
	if l == c.maxLen {
		return int32(len(c.sorted)) - c.firstIndex[l]
	}
	return c.firstIndex[l+1] - c.firstIndex[l]
}

func (c *Codec) buildTables() error {
	lengths := c.lengths
	var counts [MaxCodeLen + 2]int32
	used := 0
	for s, l := range lengths {
		if l > MaxCodeLen {
			return fmt.Errorf("%w: symbol %d has length %d", ErrInvalidLengths, s, l)
		}
		if l > 0 {
			counts[l]++
			used++
			if uint(l) > c.maxLen {
				c.maxLen = uint(l)
			}
		}
	}
	if used == 0 {
		c.maxLen = 0
		return nil // empty codec: valid but cannot decode
	}
	// Kraft-McMillan check: sum 2^(max-l) must equal 2^max for a complete
	// code; a single-symbol code with length 1 uses half the space and is
	// accepted for the degenerate case.
	var kraft uint64
	for l := uint(1); l <= c.maxLen; l++ {
		kraft += uint64(counts[l]) << (c.maxLen - l)
	}
	full := uint64(1) << c.maxLen
	if kraft > full || (kraft < full && used > 1) {
		return fmt.Errorf("%w: kraft sum %d/%d with %d symbols", ErrInvalidLengths, kraft, full, used)
	}

	// Canonical assignment: symbols sorted by (length, symbol value) — a
	// counting sort, since symbols arrive in value order; codewords are
	// consecutive within a length, doubling at each step up.
	c.sorted = slices.Grow(c.sorted, used)[:used]
	c.codes = slices.Grow(c.codes, len(lengths))[:len(lengths)]
	clear(c.codes)
	var code uint32
	var idx int32
	for l := uint(1); l <= c.maxLen; l++ {
		c.firstCode[l] = code
		c.firstIndex[l] = idx
		code = (code + uint32(counts[l])) << 1
		idx += counts[l]
	}
	c.firstIndex[c.maxLen+1] = idx
	next := c.firstIndex
	for s, l := range lengths {
		if l > 0 {
			i := next[l]
			next[l]++
			c.sorted[i] = int32(s)
			c.codes[s] = c.firstCode[l] + uint32(i-c.firstIndex[l])
		}
	}
	return nil
}

// computeLengths derives length-limited code lengths from frequencies using
// a pairing heap-free two-queue Huffman construction followed by depth
// limiting.
func computeLengths(freqs []int) []uint8 {
	type node struct {
		weight      int64
		left, right int32 // children indices, -1 for leaves
		symbol      int32
	}
	lengths := make([]uint8, len(freqs))
	var leaves []node
	for s, f := range freqs {
		if f > 0 {
			leaves = append(leaves, node{weight: int64(f), left: -1, right: -1, symbol: int32(s)})
		}
	}
	switch len(leaves) {
	case 0:
		return lengths
	case 1:
		lengths[leaves[0].symbol] = 1
		return lengths
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].weight < leaves[j].weight })

	// Two-queue merge: sorted leaves in one queue, internal nodes (created
	// in nondecreasing weight order) in the other.
	nodes := make([]node, len(leaves), 2*len(leaves))
	copy(nodes, leaves)
	internal := make([]int32, 0, len(leaves))
	li, ii := 0, 0
	popMin := func() int32 {
		if li < len(leaves) && (ii >= len(internal) || nodes[li].weight <= nodes[internal[ii]].weight) {
			li++
			return int32(li - 1)
		}
		ii++
		return internal[ii-1]
	}
	remaining := len(leaves)
	for remaining > 1 {
		a := popMin()
		b := popMin()
		nodes = append(nodes, node{weight: nodes[a].weight + nodes[b].weight, left: a, right: b, symbol: -1})
		internal = append(internal, int32(len(nodes)-1))
		remaining--
	}
	root := internal[len(internal)-1]

	// Depth-first traversal to collect leaf depths.
	type frame struct {
		n     int32
		depth uint8
	}
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := nodes[f.n]
		if nd.left < 0 {
			d := f.depth
			if d == 0 {
				d = 1
			}
			lengths[nd.symbol] = d
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
	limitLengths(lengths)
	return lengths
}

// limitLengths enforces MaxCodeLen by flattening overlong codes and then
// repairing the Kraft sum: while the code is over-subscribed, deepen the
// shallowest repairable symbol by one level.
func limitLengths(lengths []uint8) {
	over := false
	for _, l := range lengths {
		if l > MaxCodeLen {
			over = true
			break
		}
	}
	if !over {
		return
	}
	var kraft uint64
	full := uint64(1) << MaxCodeLen
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		if l > MaxCodeLen {
			lengths[s] = MaxCodeLen
			l = MaxCodeLen
		}
		kraft += uint64(1) << (MaxCodeLen - l)
	}
	// Over-subscribed: deepen the deepest symbol shallower than the cap;
	// each deepening of a symbol at length l frees 2^(max-l-1) units, so
	// working deepest-first frees the smallest chunks and converges fast.
	for kraft > full {
		for l := MaxCodeLen - 1; l >= 1; l-- {
			fixed := false
			for s := range lengths {
				if int(lengths[s]) == l {
					lengths[s]++
					kraft -= uint64(1) << (MaxCodeLen - l - 1)
					fixed = true
					break
				}
			}
			if fixed {
				break
			}
		}
	}
	// The loop above can overshoot into under-subscription when the only
	// available symbol freed a bigger chunk than the excess. Repair by
	// shortening cap-length symbols: each shortening adds exactly one unit.
	for kraft < full {
		repaired := false
		for s := range lengths {
			if lengths[s] == MaxCodeLen {
				lengths[s]--
				kraft++
				repaired = true
				break
			}
		}
		if !repaired {
			panic("huffman: cannot repair kraft deficit") // unreachable: clamped symbols sit at the cap
		}
	}
}
