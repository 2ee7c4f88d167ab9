package suffix

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// ladderTexts are texts repetitive enough that every rung is built (a
// piece repeated often enough has few distinct grams of any width),
// chosen to cover the corners: single-letter and period-2 text, every
// byte value, zero and 0xFF bytes (Gram's zero fill must not pass for
// text), and a last suffix shorter than each width — plus random bytes,
// which keep the 2-byte rung alone and grow it to a slot per possible
// gram, the directly indexed form.
func ladderTexts() map[string][]byte {
	rng := rand.New(rand.NewSource(7))
	piece := func(n, sigma int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(sigma))
		}
		return b
	}
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	return map[string][]byte{
		"a^n":        bytes.Repeat([]byte("a"), 64),
		"period-2":   bytes.Repeat([]byte("ab"), 40),
		"zero-tail":  append(bytes.Repeat([]byte("b\x00"), 20), 'b'),
		"zeros":      make([]byte, 50),
		"ff-runs":    bytes.Repeat([]byte("\xff\xff\xff\x00"), 16),
		"all-bytes":  bytes.Repeat(all, 8),
		"sigma-2":    bytes.Repeat(piece(97, 2), 5),
		"sigma-4":    bytes.Repeat(piece(301, 4), 8),
		"sigma-256":  bytes.Repeat(piece(500, 256), 8),
		"odd-length": append(bytes.Repeat(piece(100, 3), 6), piece(7, 3)...),
		"random":     piece(300<<10, 256),
	}
}

// TestLadderMatchesLookup is the ladder's specification: on every rung,
// the gram at every text position looks up to exactly Array.Lookup of
// those k bytes, and grams that do not occur miss — at half load and in a
// minimal table, where probe chains are long and most probes are verified
// against another gram's slot before they reach their own or a free one.
func TestLadderMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, text := range ladderTexts() {
		a := New(text)
		for _, minimal := range []bool{false, true} {
			l := newLadder(a, minimal)
			if name == "random" {
				if len(l) != 1 || !l[0].direct() {
					t.Fatalf("random minimal=%v: %d rungs, want the 2-byte rung alone, directly indexed", minimal, len(l))
				}
			} else if len(l) != MaxRungs {
				t.Fatalf("%s minimal=%v: %d rungs built, want all %d", name, minimal, len(l), MaxRungs)
			}
			if !minimal && l.Bytes() > 8*len(text) {
				t.Errorf("%s: ladder %d bytes over a %d-byte text", name, l.Bytes(), len(text))
			}
			for r := range l {
				rg := &l[r]
				k := int(rg.K)
				check := func(g []byte) {
					t.Helper()
					lo, hi := rg.Lookup(Gram(g, 0))
					want := a.Lookup(g)
					if want.Empty() {
						if lo < hi {
							t.Fatalf("%s minimal=%v k=%d gram %q: hit [%d,%d), gram is absent", name, minimal, k, g, lo, hi)
						}
						return
					}
					if (Interval{lo, hi}) != want {
						t.Fatalf("%s minimal=%v k=%d gram %q: [%d,%d), Array.Lookup %+v", name, minimal, k, g, lo, hi, want)
					}
				}
				step := 1 + len(text)/20000 // every position, up to a size
				for i := 0; i+k <= len(text); i += step {
					check(text[i : i+k])
				}
				// A suffix shorter than k, zero-filled the way Gram fills
				// it, is not a gram of the text unless those zeros are.
				for i := len(text) - k + 1; i < len(text); i++ {
					g := make([]byte, k)
					copy(g, text[i:])
					check(g)
				}
				for trial := 0; trial < 300; trial++ {
					g := make([]byte, k)
					copy(g, text[rng.Intn(len(text)):]) // a real prefix …
					for j := rng.Intn(k); j < k; j++ {  // … with a random tail
						g[j] = byte(rng.Intn(256))
					}
					check(g)
				}
			}
		}
	}
}

// TestLadderRungsFollowTheText pins the rule that decides which rungs
// exist: distinct grams at most len/4, narrowest first within 8 bytes per
// text byte. Random text keeps the 2-byte rung at most; text too short or
// too varied keeps none.
func TestLadderRungsFollowTheText(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := make([]byte, 335<<10)
	rng.Read(random)
	widths := func(text []byte) []int {
		l := NewLadder(New(text))
		if l.Bytes() > 8*len(text) {
			t.Errorf("ladder %d bytes over a %d-byte text", l.Bytes(), len(text))
		}
		var ks []int
		for _, rg := range l {
			ks = append(ks, int(rg.K))
		}
		return ks
	}
	for _, tc := range []struct {
		name string
		text []byte
		want []int
	}{
		{"empty", nil, nil},
		{"one byte", []byte("a"), nil},
		{"shorter than every rung", []byte("ab"), nil},
		{"aaaa", []byte("aaaa"), []int{4, 2}}, // one gram each, two slots each, four in all
		{"no repeats", []byte("the quick brown fox"), nil},
		{"a^64", bytes.Repeat([]byte("a"), 64), []int{8, 4, 2}},
		{"random 335 KB", random, []int{2}},
		{"random 64 KB", random[:64<<10], nil}, // ~41k distinct 2-grams > 16k
	} {
		if got := widths(tc.text); !slices.Equal(got, tc.want) {
			t.Errorf("%s: rungs %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestGramStaysInsideSlice: the 8-byte load must not read past len(b)
// even when the backing array goes on; what is missing reads as zero.
func TestGramStaysInsideSlice(t *testing.T) {
	backing := bytes.Repeat([]byte{0xEE}, 32)
	for n := 0; n <= 16; n++ {
		b := backing[:n]
		for i := 0; i <= n; i++ {
			var want uint64
			for j := 0; j < 8 && i+j < n; j++ {
				want |= 0xEE << (8 * j)
			}
			if got := Gram(b, i); got != want {
				t.Fatalf("n=%d i=%d: Gram = %#x, want %#x", n, i, got, want)
			}
		}
	}
}

func BenchmarkNewLadder(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	piece := make([]byte, 16<<10)
	for i := range piece {
		piece[i] = byte('a' + rng.Intn(20))
	}
	a := New(bytes.Repeat(piece, 16))
	b.SetBytes(int64(a.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewLadder(a)
	}
}
