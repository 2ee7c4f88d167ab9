// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks: one benchmark per artifact, each a thin
// wrapper over internal/experiment (cmd/rlzbench prints the same tables
// with full formatting).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The default scale matches experiment.Default; -short switches to the
// miniature experiment.Quick configuration. Each benchmark reports the
// key space metric of its table via b.ReportMetric so shapes are visible
// in bench output without re-running the CLI.
package bench

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/blockstore"
	"rlz/internal/codec"
	"rlz/internal/collection"
	"rlz/internal/corpus"
	"rlz/internal/experiment"
	"rlz/internal/rlz"
	"rlz/internal/serve"
	"rlz/internal/shard"
	"rlz/internal/workload"
)

func cfg(b *testing.B) experiment.Config {
	if testing.Short() {
		return experiment.Quick
	}
	return experiment.Default
}

// runTable regenerates one artifact b.N times. metricCol, when >= 0,
// selects a numeric column whose first-row value is reported (e.g. the
// best Enc% of the grid).
func runTable(b *testing.B, id string, metricCol int, metricName string) {
	r, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	c := cfg(b)
	var last *experiment.Table
	for i := 0; i < b.N; i++ {
		tab, err := r.Run(c)
		if err != nil {
			b.Fatal(err)
		}
		last = tab
	}
	if metricCol >= 0 && len(last.Rows) > 0 {
		v, err := strconv.ParseFloat(strings.TrimSpace(last.Rows[0][metricCol]), 64)
		if err == nil {
			b.ReportMetric(v, metricName)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (GOV2 stand-in factor statistics).
func BenchmarkTable2(b *testing.B) { runTable(b, "Table 2", 2, "avg-factor-len") }

// BenchmarkTable3 regenerates Table 3 (Wikipedia stand-in factor stats).
func BenchmarkTable3(b *testing.B) { runTable(b, "Table 3", 2, "avg-factor-len") }

// BenchmarkFigure3 regenerates Figure 3 (length-value histogram).
func BenchmarkFigure3(b *testing.B) { runTable(b, "Figure 3", -1, "") }

// BenchmarkTable4 regenerates Table 4 (RLZ grid, GOV2 crawl order).
func BenchmarkTable4(b *testing.B) { runTable(b, "Table 4", 2, "enc-pct") }

// BenchmarkTable5 regenerates Table 5 (RLZ grid, GOV2 URL-sorted).
func BenchmarkTable5(b *testing.B) { runTable(b, "Table 5", 2, "enc-pct") }

// BenchmarkTable6 regenerates Table 6 (baselines, GOV2 crawl order).
func BenchmarkTable6(b *testing.B) { runTable(b, "Table 6", 2, "ascii-enc-pct") }

// BenchmarkTable7 regenerates Table 7 (baselines, GOV2 URL-sorted).
func BenchmarkTable7(b *testing.B) { runTable(b, "Table 7", 2, "ascii-enc-pct") }

// BenchmarkTable8 regenerates Table 8 (RLZ grid, Wikipedia).
func BenchmarkTable8(b *testing.B) { runTable(b, "Table 8", 2, "enc-pct") }

// BenchmarkTable9 regenerates Table 9 (baselines, Wikipedia).
func BenchmarkTable9(b *testing.B) { runTable(b, "Table 9", 2, "ascii-enc-pct") }

// BenchmarkTable10 regenerates Table 10 (prefix-dictionary robustness).
func BenchmarkTable10(b *testing.B) { runTable(b, "Table 10", 1, "full-prefix-enc-pct") }

// BenchmarkExtensions regenerates the §6 future-work table (Simple9
// length coding, iterative dictionary refinement).
func BenchmarkExtensions(b *testing.B) { runTable(b, "Extensions", 1, "enc-pct") }

// BenchmarkGenomes regenerates the genome-collection table (RLZ's
// original domain, the paper's citation [20]).
func BenchmarkGenomes(b *testing.B) { runTable(b, "Genomes", 1, "enc-pct") }

// crossBackendOptions enumerates the unified-interface comparison axis:
// RLZ versus the paper's two baselines, one Options per backend.
func crossBackendOptions(coll *corpus.Collection) []struct {
	name string
	opts archive.Options
} {
	dict := rlz.SampleEven(coll.Bytes(), int(coll.TotalSize())/100, 1<<10)
	return []struct {
		name string
		opts archive.Options
	}{
		{"rlz", archive.Options{Backend: archive.RLZ, Dict: dict, Codec: rlz.CodecZV}},
		{"zlib-block", archive.Options{Backend: archive.Block, BlockSize: 256 << 10}},
		{"raw", archive.Options{Backend: archive.Raw}},
	}
}

// BenchmarkCrossBackendGet drives the same query-log random-access
// workload through every backend via the unified archive interface, so
// BENCH_*.json tracks RLZ against both baselines on one axis. Each
// sub-benchmark reports bytes decoded per op plus the backend's encoded
// size as a percentage of raw.
func BenchmarkCrossBackendGet(b *testing.B) {
	c := cfg(b)
	coll := corpus.Generate(corpus.Gov, c.GovBytes, c.Seed)
	raw := coll.TotalSize()
	bodies := make([][]byte, coll.Len())
	for i, d := range coll.Docs {
		bodies[i] = d.Body
	}
	ids := workload.QueryLog(coll.Len(), c.QlogRequests, c.Seed)
	for _, bk := range crossBackendOptions(coll) {
		var buf bytes.Buffer
		if _, err := archive.Build(&buf, archive.FromBodies(bodies), bk.opts); err != nil {
			b.Fatal(err)
		}
		r, err := archive.OpenBytes(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bk.name, func(b *testing.B) {
			var dst []byte
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, id := range ids {
					dst, err = r.GetAppend(dst[:0], id)
					if err != nil {
						b.Fatal(err)
					}
					total += int64(len(dst))
				}
			}
			b.SetBytes(total / int64(b.N))
			b.ReportMetric(100*float64(r.Size())/float64(raw), "enc-pct")
		})
	}
}

// serveBackendOptions is crossBackendOptions plus the block backend's
// codec axis (PR 6): the serving benchmarks track how far the pluggable
// codecs move the zlib cliff without multiplying the build/shard grids.
func serveBackendOptions(coll *corpus.Collection) []struct {
	name string
	opts archive.Options
} {
	out := crossBackendOptions(coll)
	// The speed-tier codecs trade ratio for serving latency, so their
	// serving configuration also trades: 64 KiB blocks cut the decode
	// amplification of a random access 4× against the zlib entry's
	// 256 KiB (the paper-fidelity point, kept unchanged for comparison).
	for _, alg := range []struct {
		name string
		alg  blockstore.Algorithm
	}{
		{"flate-block", blockstore.Flate},
		{"lzr-block", blockstore.LZR},
	} {
		out = append(out, struct {
			name string
			opts archive.Options
		}{alg.name, archive.Options{Backend: archive.Block, BlockSize: 64 << 10, Algorithm: alg.alg}})
	}
	return out
}

// BenchmarkBlockCodecs is the codec matrix behind the README table: for
// each block compressor, encoded size as a percentage of raw (enc-pct)
// and single-threaded query-log decode throughput through one Reader.
func BenchmarkBlockCodecs(b *testing.B) {
	c := cfg(b)
	coll := corpus.Generate(corpus.Gov, c.GovBytes, c.Seed)
	raw := coll.TotalSize()
	bodies := make([][]byte, coll.Len())
	for i, d := range coll.Docs {
		bodies[i] = d.Body
	}
	ids := workload.QueryLog(coll.Len(), c.QlogRequests, c.Seed)
	for _, alg := range []blockstore.Algorithm{blockstore.Zlib, blockstore.Flate, blockstore.LZ77, blockstore.LZR} {
		var buf bytes.Buffer
		opts := archive.Options{Backend: archive.Block, BlockSize: 256 << 10, Algorithm: alg}
		if _, err := archive.Build(&buf, archive.FromBodies(bodies), opts); err != nil {
			b.Fatal(err)
		}
		r, err := archive.OpenBytes(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(alg.String(), func(b *testing.B) {
			var dst []byte
			var total int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, id := range ids {
					dst, err = r.GetAppend(dst[:0], id)
					if err != nil {
						b.Fatal(err)
					}
					total += int64(len(dst))
				}
			}
			b.SetBytes(total / int64(b.N))
			b.ReportMetric(100*float64(r.Size())/float64(raw), "enc-pct")
		})
	}
}

// BenchmarkInflate prices the inflate kernel against compress/zlib (its
// reader reused through Reset, the best the standard library offers) on
// the two shapes the serving path inflates: one document's ~1 KB
// Z-coded position stream, where set-up and table building dominate, and
// a 256 KiB block of the block backend, where the symbol loop does. The
// kernel has to earn its place on both; it allocates nothing.
func BenchmarkInflate(b *testing.B) {
	for _, in := range zlibShapes(b) {
		comp := codec.ZlibCompress(nil, in.raw)
		out := make([]byte, 0, len(in.raw))
		check := func(b *testing.B, got []byte, err error) {
			if err != nil || !bytes.Equal(got, in.raw) {
				b.Fatalf("inflated %d of %d bytes: %v", len(got), len(in.raw), err)
			}
		}
		b.Run(in.name+"/kernel", func(b *testing.B) {
			var dec codec.ZlibDecoder
			b.SetBytes(int64(len(in.raw)))
			b.ReportAllocs()
			b.ReportMetric(float64(len(comp)), "comp-bytes")
			for i := 0; i < b.N; i++ {
				got, err := dec.Decode(out, comp, len(in.raw))
				if i == 0 {
					check(b, got, err)
				}
			}
		})
		b.Run(in.name+"/stdlib", func(b *testing.B) {
			br := bytes.NewReader(comp)
			zr, err := zlib.NewReader(br)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(in.raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				br.Reset(comp)
				if err := zr.(zlib.Resetter).Reset(br, nil); err != nil {
					b.Fatal(err)
				}
				got := out[:len(in.raw)]
				_, err := io.ReadFull(zr, got)
				if err == nil { // the read that sees EOF verifies the Adler-32
					_, err = zr.Read(got[:0:0])
				}
				if err == io.EOF {
					err = nil
				}
				if i == 0 {
					check(b, got, err)
				}
			}
		})
	}
}

// zlibShapes are the two inputs the Z coding and the block backend hand
// to zlib: the median document's (by factor count) U-coded position
// stream, and a 256 KiB block of the collection.
func zlibShapes(b *testing.B) []struct {
	name string
	raw  []byte
} {
	c := cfg(b)
	coll := corpus.Generate(corpus.Gov, c.GovBytes, c.Seed)
	text := coll.Bytes()
	dict, err := rlz.NewDictionary(rlz.SampleEven(text, len(text)/100, 1<<10))
	if err != nil {
		b.Fatal(err)
	}
	byFactors := make([][]rlz.Factor, coll.Len())
	for i, d := range coll.Docs {
		byFactors[i] = dict.Factorize(d.Body, nil)
	}
	sort.Slice(byFactors, func(i, j int) bool { return len(byFactors[i]) < len(byFactors[j]) })
	var positions []byte
	for _, f := range byFactors[len(byFactors)/2] {
		positions = binary.LittleEndian.AppendUint32(positions, f.Pos)
	}
	return []struct {
		name string
		raw  []byte
	}{
		{"positions", positions},
		{"block256K", text[:min(len(text), 256<<10)]},
	}
}

// BenchmarkDeflate prices the module's deflater (codec.ZlibCompress)
// against a compress/zlib writer at BestCompression reused through Reset,
// on the same two shapes as BenchmarkInflate. Both write the same bytes;
// on a kilobyte stream the writer's cost is mostly fixed — clearing
// 640 KB of hash tables and sorting three Huffman alphabets — which is
// what the deflater drops.
func BenchmarkDeflate(b *testing.B) {
	for _, in := range zlibShapes(b) {
		var want bytes.Buffer
		zw, err := zlib.NewWriterLevel(&want, zlib.BestCompression)
		if err != nil {
			b.Fatal(err)
		}
		zw.Write(in.raw)
		zw.Close()
		out := make([]byte, 0, 2*want.Len())
		b.Run(in.name+"/deflater", func(b *testing.B) {
			b.SetBytes(int64(len(in.raw)))
			b.ReportAllocs()
			b.ReportMetric(float64(want.Len()), "comp-bytes")
			for i := 0; i < b.N; i++ {
				if got := codec.ZlibCompress(out, in.raw); i == 0 && !bytes.Equal(got, want.Bytes()) {
					b.Fatal("deflater and compress/zlib differ")
				}
			}
		})
		b.Run(in.name+"/stdlib", func(b *testing.B) {
			buf := bytes.NewBuffer(out)
			b.SetBytes(int64(len(in.raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				zw.Reset(buf)
				zw.Write(in.raw)
				zw.Close()
			}
		})
	}
}

// BenchmarkConcurrentGet measures the serving layer under load: a
// closed-loop 8-worker query-log (zipfian) workload retrieving batches
// through a shared serve.Server, for every backend, cached and uncached.
// This is the paper's random-access claim measured the way a frontend
// pool exercises it, rather than one Get at a time.
func BenchmarkConcurrentGet(b *testing.B) {
	const workers = 8
	c := cfg(b)
	coll := corpus.Generate(corpus.Gov, c.GovBytes, c.Seed)
	bodies := make([][]byte, coll.Len())
	for i, d := range coll.Docs {
		bodies[i] = d.Body
	}
	ids := workload.QueryLog(coll.Len(), c.QlogRequests, c.Seed)
	for _, bk := range serveBackendOptions(coll) {
		var buf bytes.Buffer
		if _, err := archive.Build(&buf, archive.FromBodies(bodies), bk.opts); err != nil {
			b.Fatal(err)
		}
		r, err := archive.OpenBytes(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		for _, cacheDocs := range []int{0, 256} {
			name := bk.name + "/uncached"
			if cacheDocs > 0 {
				name = bk.name + "/cached"
			}
			b.Run(name, func(b *testing.B) {
				srv := serve.New(r, serve.Options{CacheDocs: cacheDocs, Workers: workers})
				b.ResetTimer()
				var bytesServed int64
				for i := 0; i < b.N; i++ {
					res := workload.Run(srv, ids, workers)
					if res.Errors > 0 {
						b.Fatalf("%d errors in load run", res.Errors)
					}
					bytesServed += res.Bytes
				}
				b.SetBytes(bytesServed / int64(b.N))
				st := srv.Stats()
				b.ReportMetric(float64(st.P50Nanos), "p50-ns")
				b.ReportMetric(float64(st.P99Nanos), "p99-ns")
				if st.CacheHits+st.CacheMisses > 0 {
					b.ReportMetric(100*float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses), "hit-pct")
				}
			})
		}
	}
}

// BenchmarkConcurrentGetBatch drives the same workload through the batch
// API: one GetBatch per chunk of 64 ids, fanned across the Server's
// worker pool.
func BenchmarkConcurrentGetBatch(b *testing.B) {
	c := cfg(b)
	coll := corpus.Generate(corpus.Gov, c.GovBytes, c.Seed)
	bodies := make([][]byte, coll.Len())
	for i, d := range coll.Docs {
		bodies[i] = d.Body
	}
	ids := workload.QueryLog(coll.Len(), c.QlogRequests, c.Seed)
	for _, bk := range serveBackendOptions(coll) {
		var buf bytes.Buffer
		if _, err := archive.Build(&buf, archive.FromBodies(bodies), bk.opts); err != nil {
			b.Fatal(err)
		}
		r, err := archive.OpenBytes(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bk.name, func(b *testing.B) {
			srv := serve.New(r, serve.Options{CacheDocs: 256, Workers: 8})
			b.ResetTimer()
			var total int64
			for i := 0; i < b.N; i++ {
				for off := 0; off < len(ids); off += 64 {
					end := off + 64
					if end > len(ids) {
						end = len(ids)
					}
					for _, res := range srv.GetBatch(ids[off:end]) {
						if res.Err != nil {
							b.Fatal(res.Err)
						}
						total += int64(len(res.Data))
					}
				}
			}
			b.SetBytes(total / int64(b.N))
		})
	}
}

// shardCounts is the sharding axis of the sharded benchmarks: a single
// shard (the monolithic baseline through the shard layer), a small set
// and a wide set.
var shardCounts = []int{1, 4, 16}

// BenchmarkShardedGet measures random access through the shard routing
// layer: the query-log workload against shard sets of 1, 4 and 16
// shards for every backend, read through archive.Open's auto-detected
// shard Reader. The single-shard case prices the routing layer itself
// against BenchmarkCrossBackendGet.
func BenchmarkShardedGet(b *testing.B) {
	c := cfg(b)
	coll := corpus.Generate(corpus.Gov, c.GovBytes, c.Seed)
	bodies := make([][]byte, coll.Len())
	for i, d := range coll.Docs {
		bodies[i] = d.Body
	}
	ids := workload.QueryLog(coll.Len(), c.QlogRequests, c.Seed)
	for _, bk := range crossBackendOptions(coll) {
		for _, n := range shardCounts {
			dir := filepath.Join(b.TempDir(), fmt.Sprintf("%s-%d", bk.name, n))
			if _, err := shard.Create(dir, archive.FromBodies(bodies), shard.Options{Shards: n, Archive: bk.opts}); err != nil {
				b.Fatal(err)
			}
			r, err := archive.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/shards=%d", bk.name, n), func(b *testing.B) {
				var dst []byte
				var total int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, id := range ids {
						dst, err = r.GetAppend(dst[:0], id)
						if err != nil {
							b.Fatal(err)
						}
						total += int64(len(dst))
					}
				}
				b.SetBytes(total / int64(b.N))
			})
			r.Close()
		}
	}
}

// BenchmarkShardedBuild measures the partitioned parallel build: N
// per-shard pipelines fed by the routing goroutine, in raw bytes
// consumed per second, across the same shard × backend grid.
func BenchmarkShardedBuild(b *testing.B) {
	c := cfg(b)
	coll := corpus.Generate(corpus.Gov, c.GovBytes/2, c.Seed)
	bodies := make([][]byte, coll.Len())
	for i, d := range coll.Docs {
		bodies[i] = d.Body
	}
	for _, bk := range crossBackendOptions(coll) {
		for _, n := range shardCounts {
			b.Run(fmt.Sprintf("%s/shards=%d", bk.name, n), func(b *testing.B) {
				b.SetBytes(coll.TotalSize())
				for i := 0; i < b.N; i++ {
					dir := filepath.Join(b.TempDir(), strconv.Itoa(i))
					if _, err := shard.Create(dir, archive.FromBodies(bodies), shard.Options{Shards: n, Archive: bk.opts}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCrossBackendBuild measures the streaming parallel build
// pipeline for every backend, in raw bytes consumed per second.
func BenchmarkCrossBackendBuild(b *testing.B) {
	c := cfg(b)
	coll := corpus.Generate(corpus.Gov, c.GovBytes/2, c.Seed)
	bodies := make([][]byte, coll.Len())
	for i, d := range coll.Docs {
		bodies[i] = d.Body
	}
	for _, bk := range crossBackendOptions(coll) {
		b.Run(bk.name, func(b *testing.B) {
			b.SetBytes(coll.TotalSize())
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if _, err := archive.Build(&buf, archive.FromBodies(bodies), bk.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMixedAppendRead measures the live-collection serving path
// under the workload it exists for: a closed-loop mix of 90% reads and
// 10% appends through a shared serve.Server over a live collection.
// Three shapes: reads landing on the open (raw) segment, reads landing
// on a compacted RLZ segment, and the same with the hot-document cache —
// the first end-to-end numbers of the serving perf trajectory
// (BENCH_serve.json).
func BenchmarkMixedAppendRead(b *testing.B) {
	const workers = 8
	c := cfg(b)
	coll := corpus.Generate(corpus.Gov, c.GovBytes, c.Seed)
	bodies := make([][]byte, coll.Len())
	for i, d := range coll.Docs {
		bodies[i] = d.Body
	}
	nAppend := len(bodies) / 10
	if nAppend < 1 {
		nAppend = 1
	}
	seed, appendDocs := bodies[:len(bodies)-nAppend], bodies[len(bodies)-nAppend:]
	ids := workload.QueryLog(len(seed), c.QlogRequests, c.Seed)
	shapes := []struct {
		name      string
		compacted bool
		cacheDocs int
	}{
		{"open-raw/uncached", false, 0},
		{"compacted-rlz/uncached", true, 0},
		{"compacted-rlz/cached", true, 256},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			dir := filepath.Join(b.TempDir(), "live")
			if err := collection.Init(dir); err != nil {
				b.Fatal(err)
			}
			// Async keeps this benchmark measuring the serving path, not
			// fsync latency — the shape it has recorded since PR 5, from
			// before appends became durable by default. The durability
			// modes are costed separately by BenchmarkDurableAppend.
			col, err := collection.Open(dir, collection.Options{Async: true})
			if err != nil {
				b.Fatal(err)
			}
			defer col.Close()
			for _, d := range seed {
				if _, err := col.Append(d); err != nil {
					b.Fatal(err)
				}
			}
			if shape.compacted {
				if _, err := col.Compact(collection.CompactOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			srv := serve.New(col, serve.Options{CacheDocs: shape.cacheDocs, Workers: workers})
			b.ResetTimer()
			var served int64
			for i := 0; i < b.N; i++ {
				res := workload.RunMixed(srv, col, ids, appendDocs, workers)
				if res.Errors > 0 {
					b.Fatalf("%d errors in mixed run", res.Errors)
				}
				served += res.ReadBytes + res.AppendBytes
			}
			b.SetBytes(served / int64(b.N))
			b.ReportMetric(float64(len(ids)+nAppend)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkDurableAppend costs the write path's durability modes
// (BENCH_wal.json): group commit (the default — each append writes its
// frame to the open segment once and waits for a flush of the segment
// that started after the write; one flush acknowledges every append in
// flight) and async (the same write, acknowledged without waiting: the
// durability-free ceiling). Workers are explicit goroutines, each a
// closed loop over one shared collection: group commit's whole point is
// that concurrent appends amortize the flush, so the 8-worker rows are
// the headline.
func BenchmarkDurableAppend(b *testing.B) {
	doc := bytes.Repeat([]byte("durable-append-payload."), 45) // ~1 KiB
	modes := []struct {
		name string
		opts collection.Options
	}{
		{"group-commit", collection.Options{}},
		{"async", collection.Options{Async: true}},
	}
	for _, mode := range modes {
		for _, workers := range []int{1, 8} {
			b.Run(mode.name+"/w"+strconv.Itoa(workers), func(b *testing.B) {
				dir := filepath.Join(b.TempDir(), "wal-bench")
				if err := collection.Init(dir); err != nil {
					b.Fatal(err)
				}
				col, err := collection.Open(dir, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				defer col.Close()
				b.SetBytes(int64(len(doc)))
				b.ResetTimer()
				var next atomic.Int64
				var wg sync.WaitGroup
				var failed atomic.Value
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for int(next.Add(1)) <= b.N {
							if _, err := col.Append(doc); err != nil {
								failed.Store(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				if err := failed.Load(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "appends/s")
			})
		}
	}
}
