package rlz

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzFactorizeEquivalence holds the fast factorization engine (k-gram
// ladder + boundary skip + inlined interval search), ladder on and off,
// byte-identical to factorizeNoFastPath — the paper's pure binary-search
// factorizer — on arbitrary dictionary/document pairs, and checks the
// factors still round-trip through Decode. Each input also runs against
// the dictionary text repeated eight times: that keeps the distinct grams
// under the ladder's len/4 rule, so every rung a fuzzed dictionary can
// have is built and probed. Any divergence is a correctness bug in the
// engine, not a tuning regression.
func FuzzFactorizeEquivalence(f *testing.F) {
	f.Add([]byte("abaacabbabcc"), []byte("bbaancabb"))
	f.Add([]byte("the quick brown fox"), []byte("the lazy dog jumps the fox"))
	f.Add([]byte("aaaaaaaa"), []byte("aaaaaaaaaaaaaaaaaaaaaaaa"))
	f.Add([]byte{0}, []byte{0, 0, 1, 255})
	f.Add([]byte("ab"), []byte(""))
	f.Add(bytes.Repeat([]byte("ab"), 40), bytes.Repeat([]byte("aab"), 30))
	for _, c := range cornerCases() {
		if len(c.dict) <= 1<<14 { // the target skips larger ones
			f.Add(c.dict, c.doc)
		}
	}
	f.Fuzz(func(t *testing.T, dictData, doc []byte) {
		if len(dictData) == 0 || len(dictData) > 1<<14 || len(doc) > 1<<14 {
			t.Skip()
		}
		for _, data := range [][]byte{dictData, bytes.Repeat(dictData, 8)} {
			d, err := NewDictionary(data)
			if err != nil {
				t.Skip()
			}
			checkEngines(t, fmt.Sprintf("dict %q doc %q", data, doc), d, doc)
		}
	})
}
