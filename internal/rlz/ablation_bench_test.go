package rlz

import (
	"fmt"
	"math/rand"
	"testing"

	"rlz/internal/corpus"
)

// Ablation benches for the design choices the README's "The fast
// factorization engine" section calls out. These use the same synthetic
// collection as the experiment harness so numbers are comparable across
// runs.

func benchCollection(b *testing.B) *corpus.Collection {
	b.Helper()
	return corpus.Generate(corpus.Gov, 2<<20, 5)
}

// BenchmarkAblationRefine sets the factorization engine (k-gram ladder +
// boundary skip + inlined search + csp2 extension) against the paper's
// pure binary-search factorizer, the floor.
func BenchmarkAblationRefine(b *testing.B) {
	c := benchCollection(b)
	dictData := SampleEven(c.Bytes(), 64<<10, 1<<10)
	d, err := NewDictionary(dictData)
	if err != nil {
		b.Fatal(err)
	}
	doc := c.Docs[0].Body
	variants := []struct {
		name string
		run  func(doc []byte, fs []Factor) []Factor
	}{
		{"ladder", func(doc []byte, fs []Factor) []Factor { return d.Factorize(doc, fs) }},
		{"binary-search-only", d.factorizeNoFastPath},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			var fs []Factor
			for i := 0; i < b.N; i++ {
				fs = v.run(doc, fs[:0])
			}
		})
	}
}

// BenchmarkAblationSampling compares dictionary construction policies at
// equal dictionary budget: the paper's evenly spaced samples versus a
// head-of-collection prefix. The reported metric is the resulting encoded
// size (smaller is better); even sampling should win or tie because it
// alone sees the whole collection.
func BenchmarkAblationSampling(b *testing.B) {
	c := benchCollection(b)
	collection := c.Bytes()
	budget := len(collection) / 100
	policies := []struct {
		name string
		data []byte
	}{
		{"even", SampleEven(collection, budget, 1<<10)},
		{"head", collection[:budget]},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			var encoded int64
			for i := 0; i < b.N; i++ {
				d, err := NewDictionary(p.data)
				if err != nil {
					b.Fatal(err)
				}
				encoded = 0
				var fs []Factor
				for _, doc := range c.Docs {
					fs = d.Factorize(doc.Body, fs[:0])
					encoded += int64(CodecZV.EncodedSize(fs))
				}
			}
			b.ReportMetric(100*float64(encoded)/float64(len(collection)), "enc-pct")
		})
	}
}

// BenchmarkFactorize measures raw factorization throughput across both
// synthetic collection profiles and several dictionary sizes (the
// n log m term of §3.2).
func BenchmarkFactorize(b *testing.B) {
	for _, prof := range []struct {
		name string
		p    corpus.Profile
	}{{"gov", corpus.Gov}, {"wiki", corpus.Wiki}} {
		c := corpus.Generate(prof.p, 2<<20, 5)
		collection := c.Bytes()
		doc := c.Docs[1].Body
		for _, dictSize := range []int{16 << 10, 64 << 10, 256 << 10} {
			d, err := NewDictionary(SampleEven(collection, dictSize, 1<<10))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/dict-%dKB", prof.name, dictSize>>10), func(b *testing.B) {
				b.SetBytes(int64(len(doc)))
				var fs []Factor
				for i := 0; i < b.N; i++ {
					fs = d.Factorize(doc, fs[:0])
				}
			})
		}
	}
}

// BenchmarkFactorizeMismatch is the floor for documents that share little
// or nothing with the dictionary — the inputs a wider jump structure
// cannot help and must not hurt: random printable bytes against a web
// dictionary (a binary or foreign-language body in a text crawl), random
// bytes against a random dictionary (nothing repeats, so no wide
// structure is worth building), and documents of another collection
// against this one's dictionary (short factors, few long ones).
func BenchmarkFactorizeMismatch(b *testing.B) {
	const dictSize = 335 << 10 // the static-cold benchmark dictionary's size
	gov := corpus.Generate(corpus.Gov, 4<<20, 5)
	govDict, err := NewDictionary(SampleEven(gov.Bytes(), dictSize, 1<<10))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	random := func(n int, printable bool) []byte {
		out := make([]byte, n)
		for i := range out {
			if printable {
				out[i] = byte(' ' + rng.Intn(95))
			} else {
				out[i] = byte(rng.Intn(256))
			}
		}
		return out
	}
	randDict, err := NewDictionary(random(dictSize, false))
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range []struct {
		name string
		d    *Dictionary
		doc  []byte
	}{
		{"printable-vs-gov", govDict, random(16<<10, true)},
		{"random-vs-random", randDict, random(16<<10, false)},
		{"wiki-vs-gov", govDict, corpus.Generate(corpus.Wiki, 1<<20, 9).Docs[1].Body},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.SetBytes(int64(len(row.doc)))
			var fs []Factor
			for i := 0; i < b.N; i++ {
				fs = row.d.Factorize(row.doc, fs[:0])
			}
			b.ReportMetric(float64(len(row.doc))/float64(len(fs)), "B/factor")
		})
	}
}

// BenchmarkDecode measures factor decoding throughput — the operation the
// paper optimizes for, since documents are decoded far more often than
// encoded.
func BenchmarkDecode(b *testing.B) {
	c := benchCollection(b)
	d, err := NewDictionary(SampleEven(c.Bytes(), 64<<10, 1<<10))
	if err != nil {
		b.Fatal(err)
	}
	doc := c.Docs[2].Body
	fs := d.Factorize(doc, nil)
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	var out []byte
	for i := 0; i < b.N; i++ {
		out, err = d.Decode(out[:0], fs)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecs measures per-document encode and decode cost of the four
// paper codecs on a realistic factorization.
func BenchmarkCodecs(b *testing.B) {
	c := benchCollection(b)
	d, err := NewDictionary(SampleEven(c.Bytes(), 64<<10, 1<<10))
	if err != nil {
		b.Fatal(err)
	}
	fs := d.Factorize(c.Docs[3].Body, nil)
	for _, codec := range AllCodecs {
		enc := codec.Encode(nil, fs)
		b.Run(codec.String()+"/encode", func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = codec.Encode(buf[:0], fs)
			}
			b.ReportMetric(float64(len(enc)), "bytes/doc")
		})
		b.Run(codec.String()+"/decode", func(b *testing.B) {
			var out []Factor
			for i := 0; i < b.N; i++ {
				var err error
				out, _, err = codec.Decode(out[:0], enc)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
