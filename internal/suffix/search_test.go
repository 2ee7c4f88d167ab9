package suffix

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRefinePaperExample(t *testing.T) {
	// Table 1 of the paper: dictionary d = cabbaabba, pattern x = bbaancabb.
	// Matching "bbaa": 'b' keeps {ba, baabba, bba, bbaabba} = [4,8);
	// 'b' keeps {bba, bbaabba} = [6,8); 'a' keeps both (both continue with
	// 'a') = [6,8); the final 'a' exhausts "bba" leaving only "bbaabba" =
	// [7,8). (The paper's printed lb/rb chain relies on its Table 1 SA row,
	// which contradicts the suffix listing in the same table; the factor
	// produced — offset 2, length 4 — is identical either way.)
	a := New([]byte("cabbaabba"))
	x := []byte("bbaancabb")

	iv := a.All()
	wantChain := []Interval{{4, 8}, {6, 8}, {6, 8}, {7, 8}}
	for depth, want := range wantChain {
		iv = a.Refine(iv, int32(depth), x[depth])
		if iv != want {
			t.Fatalf("depth %d: interval = %+v, want %+v", depth, iv, want)
		}
	}
	// The fifth character 'n' does not occur in d: refinement must fail.
	if got := a.Refine(iv, 4, 'n'); !got.Empty() {
		t.Fatalf("Refine on 'n' = %+v, want empty", got)
	}
	// The surviving suffix is position 2 (paper: SA_d[8] = 3, 1-based).
	if p := a.SA()[iv.Lo]; p != 2 {
		t.Fatalf("match position = %d, want 2", p)
	}
}

func TestLongestMatchPaperFactorization(t *testing.T) {
	a := New([]byte("cabbaabba"))
	pos, l := a.LongestMatch([]byte("bbaancabb"))
	if pos != 2 || l != 4 {
		t.Fatalf("factor 1 = (%d,%d), want (2,4)", pos, l)
	}
	pos, l = a.LongestMatch([]byte("ncabb"))
	if l != 0 {
		t.Fatalf("factor 2 length = %d, want 0 (literal)", l)
	}
	pos, l = a.LongestMatch([]byte("cabb"))
	if pos != 0 || l != 4 {
		t.Fatalf("factor 3 = (%d,%d), want (0,4)", pos, l)
	}
}

func TestLongestMatchAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dict := make([]byte, 400)
	for i := range dict {
		dict[i] = byte('a' + rng.Intn(4))
	}
	a := New(dict)
	for trial := 0; trial < 500; trial++ {
		p := make([]byte, 1+rng.Intn(20))
		for i := range p {
			p[i] = byte('a' + rng.Intn(5)) // 'e' never occurs in dict
		}
		pos, l := a.LongestMatch(p)
		wantLen := naiveLongestMatch(dict, p)
		if int(l) != wantLen {
			t.Fatalf("pattern %q: length = %d, want %d", p, l, wantLen)
		}
		if l > 0 && !bytes.Equal(dict[pos:pos+l], p[:l]) {
			t.Fatalf("pattern %q: reported occurrence mismatch", p)
		}
	}
}

func naiveLongestMatch(text, pattern []byte) int {
	best := 0
	for i := range text {
		l := 0
		for l < len(pattern) && i+l < len(text) && text[i+l] == pattern[l] {
			l++
		}
		if l > best {
			best = l
		}
	}
	return best
}

func TestLookupCountOccurrences(t *testing.T) {
	text := []byte("abracadabra")
	a := New(text)
	cases := []struct {
		pat  string
		want int
	}{
		{"a", 5}, {"ab", 2}, {"abra", 2}, {"abracadabra", 1},
		{"b", 2}, {"ra", 2}, {"cad", 1}, {"z", 0}, {"abraz", 0},
	}
	for _, c := range cases {
		iv := a.Lookup([]byte(c.pat))
		if got := int(iv.Size()); got != c.want {
			t.Errorf("Lookup(%q) spans %d suffixes, want %d", c.pat, got, c.want)
		}
		for _, p := range a.SA()[iv.Lo:iv.Hi] {
			if !bytes.HasPrefix(text[p:], []byte(c.pat)) {
				t.Errorf("Lookup(%q) includes non-occurrence %d", c.pat, p)
			}
		}
	}
}

func TestLookupQuickAgainstBytesCount(t *testing.T) {
	f := func(text []byte, pat []byte) bool {
		if len(text) > 1000 {
			text = text[:1000]
		}
		if len(pat) == 0 || len(pat) > 8 {
			return true
		}
		a := New(text)
		want := countOverlapping(text, pat)
		return int(a.Lookup(pat).Size()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func countOverlapping(text, pat []byte) int {
	n := 0
	for i := 0; i+len(pat) <= len(text); i++ {
		if bytes.Equal(text[i:i+len(pat)], pat) {
			n++
		}
	}
	return n
}

func TestRefineEmptyIntervalStaysEmpty(t *testing.T) {
	a := New([]byte("abc"))
	if got := a.Refine(Interval{2, 2}, 0, 'a'); !got.Empty() {
		t.Errorf("refining empty interval = %+v", got)
	}
}

func TestRefineExcludesExhaustedSuffixes(t *testing.T) {
	// Text "aa": suffixes "a" (pos 1) and "aa" (pos 0). After matching one
	// 'a', refining on the second 'a' must keep only suffix 0.
	a := New([]byte("aa"))
	iv := a.Refine(a.All(), 0, 'a')
	if iv.Size() != 2 {
		t.Fatalf("first refine size = %d", iv.Size())
	}
	iv = a.Refine(iv, 1, 'a')
	if iv.Size() != 1 || a.SA()[iv.Lo] != 0 {
		t.Fatalf("second refine = %+v (pos %d)", iv, a.SA()[iv.Lo])
	}
}

func TestIntervalHelpers(t *testing.T) {
	if !(Interval{3, 3}).Empty() || !(Interval{4, 2}).Empty() {
		t.Error("degenerate intervals should be empty")
	}
	if (Interval{4, 2}).Size() != 0 {
		t.Error("inverted interval size should be 0")
	}
	if (Interval{2, 5}).Size() != 3 {
		t.Error("size of [2,5) should be 3")
	}
}

func TestLongestMatchEmptyInputs(t *testing.T) {
	a := New(nil)
	if _, l := a.LongestMatch([]byte("x")); l != 0 {
		t.Error("match against empty dictionary should be empty")
	}
	b := New([]byte("abc"))
	if _, l := b.LongestMatch(nil); l != 0 {
		t.Error("empty pattern should match with length 0")
	}
}

// TestValidateLinearOnRepetitiveText is the regression guard for the old
// O(n^2) Validate: on a highly repetitive text the adjacent-suffix byte
// comparison degenerated to ~n^2/2 steps (10^10 for this input), so this
// test finishing at all demonstrates the linear verifier.
func TestValidateLinearOnRepetitiveText(t *testing.T) {
	n := 200_000
	text := make([]byte, n) // all zero bytes: the worst case
	a := New(text)
	if !a.Validate() {
		t.Fatal("valid repetitive array failed validation")
	}
	// A rotated permutation keeps the permutation property but breaks the
	// order; the linear verifier must still catch it.
	sa := make([]int32, n)
	copy(sa, a.SA())
	first := sa[0]
	copy(sa, sa[1:])
	sa[n-1] = first
	if NewFromParts(text, sa).Validate() {
		t.Error("rotated suffix array passed validation")
	}
}

// TestValidateAgainstBruteForce cross-checks the linear verifier against
// definitional suffix comparison on random small inputs and random
// corruptions.
func TestValidateAgainstBruteForce(t *testing.T) {
	bruteValid := func(text []byte, sa []int32) bool {
		if len(sa) != len(text) {
			return false
		}
		seen := make(map[int32]bool, len(sa))
		for _, p := range sa {
			if p < 0 || int(p) >= len(text) || seen[p] {
				return false
			}
			seen[p] = true
		}
		for i := 1; i < len(sa); i++ {
			if string(text[sa[i-1]:]) >= string(text[sa[i]:]) {
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		text := make([]byte, n)
		for i := range text {
			text[i] = byte('a' + rng.Intn(3))
		}
		sa := Build(text)
		if trial%3 != 0 {
			// Corrupt: either swap two entries or overwrite one.
			if rng.Intn(2) == 0 && n > 1 {
				i, j := rng.Intn(n), rng.Intn(n)
				sa[i], sa[j] = sa[j], sa[i]
			} else {
				sa[rng.Intn(n)] = int32(rng.Intn(n))
			}
		}
		got := NewFromParts(text, sa).Validate()
		want := bruteValid(text, sa)
		if got != want {
			t.Fatalf("trial %d: text %q sa %v: Validate = %v, brute force = %v",
				trial, text, sa, got, want)
		}
	}
}
