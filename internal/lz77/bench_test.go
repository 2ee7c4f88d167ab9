package lz77

import (
	"bytes"
	"math/rand"
	"testing"
)

// webBlock builds a block of boilerplate-heavy web text, the workload the
// blocked baselines compress.
func webBlock(size int) []byte {
	rng := rand.New(rand.NewSource(12))
	var b bytes.Buffer
	for b.Len() < size {
		b.WriteString("<div class=\"nav\"><a href=\"/home\">Home</a><a href=\"/about\">About</a></div>")
		for i := 0; i < 20; i++ {
			b.WriteString(" word")
			b.WriteByte(byte('a' + rng.Intn(26)))
		}
		b.WriteString("\n")
	}
	return b.Bytes()[:size]
}

// BenchmarkAblationLazy quantifies the lazy-vs-greedy parsing choice:
// lazy costs extra match searches but finds longer matches on text with
// overlapping repeats.
func BenchmarkAblationLazy(b *testing.B) {
	src := webBlock(256 << 10)
	for _, mode := range []struct {
		name   string
		greedy bool
	}{{"lazy", false}, {"greedy", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			var out []byte
			for i := 0; i < b.N; i++ {
				out = Compress(out[:0], src, Options{Greedy: mode.greedy})
			}
			b.ReportMetric(100*float64(len(out))/float64(len(src)), "enc-pct")
		})
	}
}

// BenchmarkCompressWindow shows ratio and cost across window sizes — the
// zlib-vs-lzma contrast in one dial.
func BenchmarkCompressWindow(b *testing.B) {
	src := webBlock(512 << 10)
	for _, w := range []int{32 << 10, 1 << 20} {
		name := "32KB"
		if w > 32<<10 {
			name = "1MB"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			var out []byte
			for i := 0; i < b.N; i++ {
				out = Compress(out[:0], src, Options{WindowSize: w})
			}
			b.ReportMetric(100*float64(len(out))/float64(len(src)), "enc-pct")
		})
	}
}

// BenchmarkDecompress measures the decode rate the blocked lzma* baseline
// pays per block access.
func BenchmarkDecompress(b *testing.B) {
	src := webBlock(256 << 10)
	comp := Compress(nil, src, Options{})
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	var out []byte
	for i := 0; i < b.N; i++ {
		var err error
		out, err = Decompress(out[:0], comp)
		if err != nil {
			b.Fatal(err)
		}
	}
}
