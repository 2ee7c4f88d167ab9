package rlz

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rlz/internal/corpus"
	"rlz/internal/suffix"
)

// engines returns every way into the fast factorization engine — pooled
// behind Dictionary.Factorize and freshly constructed — each of which
// must produce byte-identical factors, labeled for failure messages.
func engines(d *Dictionary) []struct {
	name string
	run  func(doc []byte) []Factor
} {
	return []struct {
		name string
		run  func(doc []byte) []Factor
	}{
		{"dictionary-pooled", func(doc []byte) []Factor { return d.Factorize(doc, nil) }},
		{"factorizer-ladder", func(doc []byte) []Factor { return NewFactorizer(d, FactorizerOptions{}).Factorize(doc, nil) }},
	}
}

func diffFactors(t *testing.T, label string, got, want []Factor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d factors, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: factor %d = %v, reference %v", label, i, got[i], want[i])
		}
	}
}

// checkEngines holds every engine equal to factorizeNoFastPath on doc and
// the factors to a round trip.
func checkEngines(t *testing.T, label string, d *Dictionary, doc []byte) {
	t.Helper()
	want := d.factorizeNoFastPath(doc, nil)
	for _, e := range engines(d) {
		diffFactors(t, label+"/"+e.name, e.run(doc), want)
	}
	dec, err := d.Decode(nil, want)
	if err != nil || !bytes.Equal(dec, doc) {
		t.Fatalf("%s: round trip failed: %v", label, err)
	}
}

// rungWidths lists the gram widths of d's ladder, widest first.
func rungWidths(d *Dictionary) []int {
	var ks []int
	for _, rg := range d.ladder() {
		ks = append(ks, int(rg.K))
	}
	return ks
}

// TestFactorizerEquivalenceCorpus holds every engine configuration
// byte-identical to factorizeNoFastPath — the paper's pure binary-search
// factorizer — on both synthetic collection profiles, across dictionary
// sizes small enough to force literals and partial matches (and to leave
// the ladder without its wide rungs) and large enough that it has all
// three.
func TestFactorizerEquivalenceCorpus(t *testing.T) {
	for _, prof := range []corpus.Profile{corpus.Gov, corpus.Wiki} {
		c := corpus.Generate(prof, 2<<20, 3)
		collection := c.Bytes()
		for _, dictSize := range []int{512, 16 << 10, 256 << 10} {
			d := mustDict(t, SampleEven(collection, dictSize, 256))
			// Gov's large sample repeats enough for every rung; Wiki's sits
			// at the len/4 boundary and may keep two.
			if ks := rungWidths(d); prof.Name == "gov" && dictSize == 256<<10 && len(ks) != suffix.MaxRungs {
				t.Fatalf("%s/%d: ladder rungs %v, want every width", prof.Name, dictSize, ks)
			}
			for _, doc := range c.Docs[:min(len(c.Docs), 6)] {
				checkEngines(t, prof.Name, d, doc.Body)
			}
		}
	}
}

// TestFactorizerEquivalenceRandom drives the engines over random
// dictionaries and documents on tiny alphabets (maximizing deep suffix
// ties, boundary-skip hits, and exhausted-suffix corner cases) plus
// documents containing bytes absent from the dictionary (literal path).
// Every other trial repeats the dictionary text eight times, which keeps
// its distinct grams under the ladder's len/4 rule so that all rungs are
// built and probed.
func TestFactorizerEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		sigma := 2 + rng.Intn(4)
		dictData := make([]byte, 1+rng.Intn(400))
		for i := range dictData {
			dictData[i] = byte('a' + rng.Intn(sigma))
		}
		if trial%2 == 1 {
			dictData = bytes.Repeat(dictData, 8)
		}
		doc := make([]byte, rng.Intn(300))
		for i := range doc {
			doc[i] = byte('a' + rng.Intn(sigma+1)) // one byte outside the dictionary alphabet
		}
		d := mustDict(t, dictData)
		checkEngines(t, fmt.Sprint("trial ", trial), d, doc)
		// Cross-check greedy maximality against the quadratic scanner:
		// factor count and lengths must agree (positions may differ — the
		// engine reports the lexicographically smallest occurrence, the
		// naive scanner the leftmost).
		want := d.Factorize(doc, nil)
		naive := d.FactorizeNaive(doc)
		if len(naive) != len(want) {
			t.Fatalf("trial %d: %d factors, naive %d", trial, len(want), len(naive))
		}
		for i := range naive {
			if naive[i].Len != want[i].Len {
				t.Fatalf("trial %d factor %d: len %d, naive len %d", trial, i, want[i].Len, naive[i].Len)
			}
		}
	}
}

// TestFactorizerEquivalenceCorners names the inputs the ladder's edges
// are made of; the fuzz target carries the same ones as seeds.
func TestFactorizerEquivalenceCorners(t *testing.T) {
	for _, c := range cornerCases() {
		d := mustDict(t, c.dict)
		if c.rungs >= 0 && len(rungWidths(d)) != c.rungs {
			t.Fatalf("%s: ladder rungs %v, want %d of them", c.name, rungWidths(d), c.rungs)
		}
		checkEngines(t, c.name, d, c.doc)
	}
}

// cornerCases are dictionary/document pairs at the ladder's edges; rungs
// is the number of rungs the dictionary must come out with (-1: any).
func cornerCases() []struct {
	name      string
	dict, doc []byte
	rungs     int
} {
	rng := rand.New(rand.NewSource(17))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	web := bytes.Repeat([]byte("<div class=\"nav\">home | about | contact</div>\n"), 16)
	// A long stretch the dictionary shares nothing with, then dictionary
	// text again: every rung rests, and must be probing again (and
	// hitting) by the end.
	streak := append(random(2000), web[:300]...)
	return []struct {
		name      string
		dict, doc []byte
		rungs     int
	}{
		{"one-byte dictionary", []byte("a"), []byte("aaabaa"), 0},
		{"dictionary shorter than the 2-rung", []byte("a"), []byte("a"), 0},
		{"dictionary shorter than the 4-rung", []byte("aaa"), []byte("aaaaaaaaaa"), -1},
		{"dictionary shorter than the 8-rung", []byte("aaaaaaa"), []byte("aaaaaaaaaaaaaaaaaaaa"), -1},
		{"a^n", bytes.Repeat([]byte("a"), 100), bytes.Repeat([]byte("a"), 333), 3},
		{"period 2", bytes.Repeat([]byte("ab"), 60), append(bytes.Repeat([]byte("ab"), 50), []byte("ba ab aab")...), 3},
		{"all 256 byte values", bytes.Repeat(all, 8), append(append([]byte{}, all[100:]...), all[:130]...), 3},
		{"zero runs", bytes.Repeat([]byte{0, 0, 0, 1}, 32), append(make([]byte, 21), 1, 0, 0), 3},
		{"0xFF runs", bytes.Repeat([]byte{0xFF, 0xFF, 0xFF, 0}, 32), bytes.Repeat([]byte{0xFF}, 19), 3},
		{"document shorter than a rung", web, web[5:8], 3},
		{"tail shorter than a rung", web, append(append([]byte{}, web[:40]...), web[7:10]...), 3},
		{"seven-byte document", web, web[3:10], 3},
		{"random dictionary", random(4096), random(600), 0},
		{"random dictionary, directly indexed 2-byte rung", random(300 << 10), random(2000), 1},
		{"miss streak then hits", web, streak, 3},
	}
}

// TestRungGateRestsAndResumes pins the miss-streak gate: a rung that
// keeps missing is probed restStreak times and then once per restOpens+1
// openings; one hit puts it fully back. (That the engine's factors are
// the reference's through a rest and after it is the "miss streak then
// hits" corner above.)
func TestRungGateRestsAndResumes(t *testing.T) {
	var g rungGate
	const opens = 4000
	probes := 0
	for i := 0; i < opens; i++ {
		if g.resting() {
			continue
		}
		probes++
		g.missed()
	}
	if want := restStreak + (opens-restStreak)/(restOpens+1); probes < want || probes > want+1 {
		t.Errorf("%d probes over %d missing openings, want %d", probes, opens, want)
	}
	for g.resting() {
	}
	g.hit()
	for i := 0; i < restStreak-1; i++ {
		if g.resting() {
			t.Fatalf("resting again %d misses after a hit, want %d", i, restStreak)
		}
		g.missed()
	}
	if g.resting() {
		t.Fatalf("resting after %d misses, want %d", restStreak-1, restStreak)
	}
	g.missed()
	if !g.resting() {
		t.Fatalf("still probing after %d misses in a row", restStreak)
	}
}

// TestFactorizerAppendsToBuffer checks the append contract matches
// Dictionary.Factorize's, and that Dictionary.Factorize, which draws its
// Factorizer from a pool, allocates nothing once warm when handed a
// buffer with room — the Factorizer goes back to the pool.
func TestFactorizerAppendsToBuffer(t *testing.T) {
	d := mustDict(t, []byte("abcabc"))
	fz := NewFactorizer(d, FactorizerOptions{})
	buf := fz.Factorize([]byte("ab"), nil)
	n := len(buf)
	buf = fz.Factorize([]byte("bc"), buf)
	if len(buf) <= n {
		t.Fatalf("second Factorize did not append: %v", buf)
	}
	if !raceEnabled {
		doc := []byte("abcab-cabca")
		if n := testing.AllocsPerRun(100, func() { buf = d.Factorize(doc, buf[:0]) }); n != 0 {
			t.Errorf("warm Dictionary.Factorize allocates %v objects per call, want 0", n)
		}
	}
}

// TestFactorizerSharesLadder verifies that N factorizers over one
// dictionary — constructed at once, as a parallel build's workers are —
// share one ladder, built once (the sharded-build property: N workers,
// one table set).
func TestFactorizerSharesLadder(t *testing.T) {
	d := mustDict(t, bytes.Repeat([]byte("the quick brown fox "), 16))
	const n = 8
	var wg sync.WaitGroup
	fzs := make([]*Factorizer, n)
	for i := range fzs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fzs[i] = NewFactorizer(d, FactorizerOptions{})
			fzs[i].Factorize([]byte("the quick brown fox jumps"), nil)
		}(i)
	}
	wg.Wait()
	if len(fzs[0].rungs) != suffix.MaxRungs {
		t.Fatalf("ladder has %d rungs, want %d", len(fzs[0].rungs), suffix.MaxRungs)
	}
	for i, fz := range fzs {
		if &fz.rungs[0] != &d.ladder()[0] {
			t.Errorf("factorizer %d holds its own ladder", i)
		}
	}
}

// TestLadderWithinEightBytesPerDictionaryByte bounds the ladder's memory
// on the kinds of dictionary the repository builds — web, wiki, genome —
// and on random bytes, where only the narrowest rung survives.
func TestLadderWithinEightBytesPerDictionaryByte(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	random := make([]byte, 335<<10)
	rng.Read(random)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"gov", SampleEven(corpus.Generate(corpus.Gov, 4<<20, 5).Bytes(), 335<<10, 1<<10)},
		{"gov-1pct", SampleEven(corpus.Generate(corpus.Gov, 4<<20, 5).Bytes(), 40<<10, 1<<10)},
		{"wiki", SampleEven(corpus.Generate(corpus.Wiki, 4<<20, 5).Bytes(), 335<<10, 1<<10)},
		{"genome", SampleEven(corpus.GenerateGenomes(corpus.Genomes, 8, 256<<10, 5).Bytes(), 335<<10, 1<<10)},
		{"random", random},
	} {
		d := mustDict(t, tc.data)
		l := d.ladder()
		t.Logf("%s: %d-byte dictionary, rungs %v, ladder %d bytes (%.2f per byte)",
			tc.name, d.Len(), rungWidths(d), l.Bytes(), float64(l.Bytes())/float64(d.Len()))
		if l.Bytes() > 8*d.Len() {
			t.Errorf("%s: ladder %d bytes over a %d-byte dictionary", tc.name, l.Bytes(), d.Len())
		}
		if ks := rungWidths(d); tc.name == "random" && (len(ks) != 1 || ks[0] != 2) {
			t.Errorf("random dictionary kept rungs %v, want the 2-byte rung alone", ks)
		}
	}
}
