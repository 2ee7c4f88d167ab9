package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rlz/internal/archive"
	"rlz/internal/blockstore"
	"rlz/internal/collection"
	"rlz/internal/faultfs"
	"rlz/internal/lru"
	"rlz/internal/mmapio"
	"rlz/internal/rlz"
	"rlz/internal/serve"
	"rlz/internal/shard"
	"rlz/internal/store"
	"rlz/internal/suffix"
	"rlz/internal/wal"
)

// This file is the traced run's layer replay: after the end-to-end
// phases, the same documents and ids go through each layer's public
// functions in-process, one timed call per span. Everything here
// depends on internal APIs; the end-to-end path (scenario.go, phases.go)
// needs only corpus, workload, collection and serve.

// tinyBatch is how many sub-microsecond calls share one span.
const tinyBatch = 1024

// baselineBudget caps the time one baseline backend's reads may take (a
// 256 KiB zlib block costs about a millisecond to inflate).
const baselineBudget = 700 * time.Millisecond

// layersOnCollection measures the reopened collection itself: the same
// documents read through the collection and straight from its first
// segment's file, whose difference is what routing costs; then a
// compaction so the next reopen is a clean one.
func (r *run) layersOnCollection(col *collection.Collection) error {
	seg := col.Info().Segments[0]
	if seg.Backend != archive.RLZ {
		return fmt.Errorf("first segment %s is %s, want rlz", seg.Path, seg.Backend)
	}
	sr, err := store.OpenFile(filepath.Join(r.colDir, seg.Path))
	if err != nil {
		return err
	}
	defer sr.Close()
	ids := r.nextIDs(r.sc.ReplayOps)
	var buf []byte
	routed, direct := make([]time.Duration, len(ids)), make([]time.Duration, len(ids))
	for i, id := range ids {
		id %= seg.Docs // the first segment holds ids [0, seg.Docs)
		op := r.rec.newOp()
		t := time.Now()
		buf, err = col.GetAppend(buf[:0], id)
		mid := time.Now()
		if err != nil {
			return err
		}
		buf, err = sr.GetAppend(buf[:0], id)
		end := time.Now()
		if err != nil {
			return err
		}
		routed[i], direct[i] = mid.Sub(t), end.Sub(mid)
		parent := r.rec.add(op, "collection.get", 0, t, mid, 1)
		r.rec.add(op, "store.get.segment", parent, mid, end, 1)
	}
	r.set("collection.route_self_ns", max(0, medianNanos(routed)-medianNanos(direct)), len(ids))
	_, err = col.Compact(collection.CompactOptions{})
	return err
}

// layers runs every replay and derives the per-layer metrics.
func (r *run) layers() error {
	t := time.Now()
	col, err := collection.Open(r.colDir, collection.Options{})
	if err != nil {
		return err
	}
	r.set("collection.open_clean_ms", float64(time.Since(t).Microseconds())/1e3, 1)
	if err := col.Close(); err != nil {
		return err
	}

	if err := r.replayReads(); err != nil {
		return fmt.Errorf("read path: %w", err)
	}
	if err := r.replayWrites(); err != nil {
		return fmt.Errorf("write path: %w", err)
	}

	l := &r.layer
	v := func(name string) float64 { return r.values[name].Value }
	r.set("serve.cache_hit_pct", l.hitPct, l.getOps)
	r.set("serve.decoded_per_served", l.decodedPerServed, l.getOps)
	r.set("rlzd.self_us", v("rlzd.get_us")-v("serve.do_ns")/1e3, r.sc.SoloOps)
	r.set("rlzd.cpu_us_per_get", ratio(float64(l.getCPU.Microseconds()), float64(l.getOps)), l.getOps)
	r.set("rlzd.batch_us_per_doc", l.batchP50us/float64(r.sc.BatchIDs), 1)
	r.set("rlzd.batch_wire_per_doc_byte", ratio(float64(l.batchWire), float64(l.batchDocBytes)), 1)
	r.set("rlzd.append_self_us", v("rlzd.append_us")-v("collection.append_ns")/1e3, r.sc.SoloOps)
	r.set("rlzd.cpu_us_per_append", ratio(float64(l.appendCPU.Microseconds()), float64(l.appendOps)), l.appendOps)
	r.set("rlzd.compact_cpu_s", l.compactCPU.Seconds(), r.sc.Rounds)
	r.set("rlzd.append_p99_us", v("append_p99_us"), l.appendOps)
	_, p99 := highestPercentile(sortedMicros(l.duringCompact))
	r.set("collection.get_p99_during_compact_us", p99, len(l.duringCompact))
	r.set("trace.overhead_pct", 100*ratio(median(l.untracedRate)-median(l.tracedRate), median(l.untracedRate)),
		len(l.tracedRate)+len(l.untracedRate))

	segments, rlzSegs := 0, 0
	var dictBytes, stored int64
	if l.info != nil {
		segments = len(l.info.Segments)
		for _, s := range l.info.Segments {
			stored += s.Size
			if s.Backend == archive.RLZ {
				rlzSegs++
			}
		}
		// Every RLZ segment embeds the dictionary it was built against.
		for _, d := range l.info.Dicts {
			dictBytes += d.Size * int64(d.Segments)
		}
	}
	r.set("collection.segments", float64(segments), 1)
	r.set("collection.dict_copies", float64(rlzSegs), 1)
	r.set("collection.dict_disk_pct", 100*ratio(float64(dictBytes), float64(stored)), 1)
	return nil
}

// spanMedian reports the median per-call duration of the spans called
// span as metric name.
func (r *run) spanMedian(name, span string, from int) {
	d := durations(r.rec.spans[from:], span)
	r.set(name, medianNanos(d), len(d))
}

// mallocs runs fn n times and returns allocations and bytes per call.
func mallocs(n int, fn func(i int)) (allocs, bytesPer float64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// timeEach times fn(i) for i in [0,n), one span each, stopping early
// once budget is spent, and returns the durations. check, when not nil,
// runs untimed after each call.
func (r *run) timeEach(span string, n int, budget time.Duration, fn, check func(i int) error) ([]time.Duration, error) {
	lat := make([]time.Duration, 0, n)
	for i, start := 0, time.Now(); i < n && time.Since(start) < budget; i++ {
		t := time.Now()
		err := fn(i)
		end := time.Now()
		if err == nil && check != nil {
			err = check(i)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", span, err)
		}
		lat = append(lat, end.Sub(t))
		r.rec.add(r.rec.newOp(), span, 0, t, end, 1)
	}
	return lat, nil
}

// noBudget lets timeEach run all its calls.
const noBudget = time.Hour

// timeGets times rd.GetAppend over ids, comparing every document with
// the corpus, and returns the median in nanoseconds and the call count.
func (r *run) timeGets(span string, rd archive.Reader, ids []int, docs [][]byte, budget time.Duration) (float64, int, error) {
	var buf []byte
	lat, err := r.timeEach(span, len(ids), budget, func(i int) (err error) {
		buf, err = rd.GetAppend(buf[:0], ids[i])
		return err
	}, func(i int) error {
		if !bytes.Equal(buf, docs[ids[i]]) {
			return fmt.Errorf("document %d differs from the corpus", ids[i])
		}
		return nil
	})
	return medianNanos(lat), len(lat), err
}

// replayReads rebuilds the read population's leading ReplayBytes as the
// paper's static RLZ archive and as its baselines, then times each layer
// of a read on the ids the HTTP phases used.
func (r *run) replayReads() error {
	n := min(r.pop, prefixDocs(r.docs, r.sc.ReplayBytes))
	docs := make([][]byte, n)
	var raw int64
	for id := range docs {
		docs[id] = r.docs[r.idDoc[id]]
		raw += int64(len(docs[id]))
	}
	ids := r.nextIDs(r.sc.ReplayOps)
	for i := range ids {
		ids[i] %= n
	}
	dir := filepath.Join(r.dir, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	build := func(name string, opts archive.Options) (string, int64, error) {
		path := filepath.Join(dir, name)
		if _, err := archive.Create(path, archive.FromBodies(docs), opts); err != nil {
			return "", 0, fmt.Errorf("building %s: %w", name, err)
		}
		st, err := os.Stat(path)
		if err != nil {
			return "", 0, err
		}
		return path, st.Size(), nil
	}

	// The RLZ archive, with a dictionary sampled here so the decode-only
	// dictionary can be rebuilt outside the store.
	dict := rlz.SampleEven(bytes.Join(docs, nil), int(raw/100), 1024)
	rlzPath, _, err := build("replay.rlz", archive.Options{Dict: dict, Codec: rlz.CodecZV})
	if err != nil {
		return err
	}
	sr, err := store.OpenFile(rlzPath)
	if err != nil {
		return err
	}
	defer sr.Close()
	f, err := os.Open(rlzPath)
	if err != nil {
		return err
	}
	defer f.Close()
	mm, err := mmapio.Map(f, sr.Size())
	if err != nil {
		return err
	}
	defer mm.Close()
	dd, err := rlz.NewDictionaryForDecode(dict)
	if err != nil {
		return err
	}
	codec := sr.Codec()

	from := len(r.rec.spans)
	var out, out2, recBuf []byte
	var factors []rlz.Factor
	var nFactors, nRead int64
	for _, id := range ids {
		op := r.rec.newOp()
		t := time.Now()
		out, err = sr.GetAppend(out[:0], id)
		end := time.Now()
		if err != nil {
			return err
		}
		parent := r.rec.add(op, "store.get", 0, t, end, 1)

		// The same read again, one layer at a time.
		off, size, err := sr.Extent(id)
		if err != nil {
			return err
		}
		if int64(cap(recBuf)) < size {
			recBuf = make([]byte, size)
		}
		t = time.Now()
		_, err = mm.ReadAt(recBuf[:size], off)
		end = time.Now()
		if err != nil {
			return err
		}
		r.rec.add(op, "mmapio.read", parent, t, end, 1)
		t = time.Now()
		factors, _, err = codec.Decode(factors[:0], recBuf[:size])
		end = time.Now()
		if err != nil {
			return err
		}
		r.rec.add(op, "rlz.pair_decode", parent, t, end, 1)
		t = time.Now()
		out2, err = dd.Decode(out2[:0], factors)
		end = time.Now()
		if err != nil {
			return err
		}
		r.rec.add(op, "rlz.dict_copy", parent, t, end, 1)
		if !bytes.Equal(out, docs[id]) || !bytes.Equal(out2, docs[id]) {
			return fmt.Errorf("replayed document %d differs from the corpus", id)
		}
		nFactors += int64(len(factors))
		nRead += size
	}
	for lo := 0; lo < len(ids); lo += tinyBatch {
		batch := ids[lo:min(lo+tinyBatch, len(ids))]
		t := time.Now()
		for _, id := range batch {
			if _, _, err := sr.Extent(id); err != nil {
				return err
			}
		}
		r.rec.add(r.rec.newOp(), "docmap.extent", 0, t, time.Now(), len(batch))
	}
	r.spanMedian("docmap.extent_ns", "docmap.extent", from)
	r.spanMedian("mmapio.read_ns", "mmapio.read", from)
	r.spanMedian("rlz.pair_decode_ns", "rlz.pair_decode", from)
	r.spanMedian("rlz.dict_copy_ns", "rlz.dict_copy", from)
	r.spanMedian("store.get_ns", "store.get", from)
	self := selfTimes(r.rec.spans[from:])
	var selfs []time.Duration
	for _, s := range r.rec.spans[from:] {
		if s.Name == "store.get" {
			selfs = append(selfs, self[s.ID])
		}
	}
	r.set("store.self_ns", max(0, medianNanos(selfs)-r.values["docmap.extent_ns"].Value), len(selfs))
	r.set("rlz.factors_per_doc", float64(nFactors)/float64(len(ids)), len(ids))
	r.set("mmapio.read_bytes_per_get", float64(nRead)/float64(len(ids)), len(ids))
	allocs, allocBytes := mallocs(len(ids), func(i int) { out, _ = sr.GetAppend(out[:0], ids[i]) })
	r.set("store.allocs_per_get", allocs, len(ids))
	r.set("store.alloc_bytes_per_get", allocBytes, len(ids))

	ar, err := archive.Open(rlzPath)
	if err != nil {
		return err
	}
	defer ar.Close()
	ns, cnt, err := r.timeGets("archive.get", ar, ids, docs, noBudget)
	if err != nil {
		return err
	}
	r.set("archive.get_ns", ns, cnt)

	// Baselines: the paper's blocked zlib, the fast LZ variant, raw, and
	// a 4-shard RLZ set.
	for _, b := range []struct {
		metric, file string
		opts         archive.Options
	}{
		{"blockstore.zlib_get_ns", "replay.zlib", archive.Options{Backend: archive.Block, BlockSize: 256 << 10, Algorithm: blockstore.Zlib}},
		{"blockstore.lzr_get_ns", "replay.lzr", archive.Options{Backend: archive.Block, BlockSize: 64 << 10, Algorithm: blockstore.LZR}},
		{"rawstore.get_ns", "replay.raw", archive.Options{Backend: archive.Raw}},
	} {
		path, size, err := build(b.file, b.opts)
		if err != nil {
			return err
		}
		rd, err := archive.Open(path)
		if err != nil {
			return err
		}
		ns, cnt, err := r.timeGets(b.metric[:len(b.metric)-3], rd, ids, docs, baselineBudget)
		_ = rd.Close() // read-only
		if err != nil {
			return err
		}
		r.set(b.metric, ns, cnt)
		if b.file == "replay.zlib" {
			r.set("blockstore.zlib_stored_pct", 100*float64(size)/float64(raw), 1)
		}
	}
	shardDir := filepath.Join(dir, "shards")
	if _, err := shard.Create(shardDir, archive.FromBodies(docs), shard.Options{
		// Ranges keeps served ids in append order, so the same ids name
		// the same documents as in the other archives.
		Shards: 4, Policy: shard.Ranges, DocsPerShard: (n + 3) / 4,
		Archive: archive.Options{Dict: dict, Codec: rlz.CodecZV},
	}); err != nil {
		return fmt.Errorf("building shard set: %w", err)
	}
	sh, err := archive.Open(shardDir)
	if err != nil {
		return err
	}
	ns, cnt, err = r.timeGets("shard.get", sh, ids, docs, baselineBudget)
	_ = sh.Close() // read-only
	if err != nil {
		return err
	}
	r.set("shard.get_ns", ns, cnt)

	return r.replayServe(ar, ids, docs)
}

// replayServe times the serving layer over ar: uncached for its own
// bookkeeping cost, then with the workload's cache.
func (r *run) replayServe(ar archive.Reader, ids []int, docs [][]byte) error {
	var buf []byte
	timeCalls := func(span string, call func(id int) error) (float64, error) {
		lat, err := r.timeEach(span, len(ids), noBudget, func(i int) error { return call(ids[i]) }, nil)
		return medianNanos(lat), err
	}
	get := func(s *serve.Server) func(id int) error {
		return func(id int) (err error) {
			buf, err = s.GetAppend(buf[:0], id)
			return err
		}
	}
	uncached, err := timeCalls("serve.get.uncached", get(serve.New(ar, serve.Options{})))
	if err != nil {
		return err
	}
	r.set("serve.self_ns", max(0, uncached-r.values["archive.get_ns"].Value), len(ids))

	cache := r.cacheSize(len(docs))
	srv := serve.New(ar, serve.Options{CacheDocs: cache})
	if r.w.cache == cacheAll {
		for id := range docs {
			if err := get(srv)(id); err != nil {
				return err
			}
		}
	}
	ns, err := timeCalls("serve.get", get(srv))
	if err != nil {
		return err
	}
	r.set("serve.get_ns", ns, len(ids))
	ns, err = timeCalls("serve.do", func(id int) error {
		return srv.Do(id, func(doc []byte) error {
			if len(doc) != len(docs[id]) {
				return fmt.Errorf("document %d: %d bytes, want %d", id, len(doc), len(docs[id]))
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	r.set("serve.do_ns", ns, len(ids))
	allocs, _ := mallocs(len(ids), func(i int) { buf, _ = srv.GetAppend(buf[:0], ids[i]) })
	r.set("serve.allocs_per_get", allocs, len(ids))

	per := r.sc.BatchIDs
	var res []serve.Result
	batchLat, err := r.timeEach("serve.batch", len(ids)/per, noBudget, func(i int) error {
		res = srv.GetBatch(ids[i*per : (i+1)*per])
		return nil
	}, func(int) error {
		for _, d := range res {
			if d.Err != nil || len(d.Data) != len(docs[d.ID]) {
				return fmt.Errorf("document %d: %d bytes, %v", d.ID, len(d.Data), d.Err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("serve.batch_ns_per_doc", medianNanos(batchLat)/float64(per), len(batchLat))

	// The cache alone, sized like the workload's (at least the small
	// cache, so eviction runs).
	c := lru.New(max(cache, r.sc.SmallCache))
	var putLat, getLat []time.Duration
	for lo := 0; lo < len(ids); lo += tinyBatch {
		batch := ids[lo:min(lo+tinyBatch, len(ids))]
		t := time.Now()
		for _, id := range batch {
			c.Put(uint64(id), docs[id])
		}
		mid := time.Now()
		for _, id := range batch {
			_ = c.Get(uint64(id))
		}
		end := time.Now()
		r.rec.add(r.rec.newOp(), "lru.put", 0, t, mid, len(batch))
		r.rec.add(r.rec.newOp(), "lru.get", 0, mid, end, len(batch))
		putLat = append(putLat, mid.Sub(t)/time.Duration(len(batch)))
		getLat = append(getLat, end.Sub(mid)/time.Duration(len(batch)))
	}
	r.set("lru.put_ns", medianNanos(putLat), len(ids))
	r.set("lru.get_ns", medianNanos(getLat), len(ids))
	return nil
}

// replayWrites replays the first ingest round in-process on one
// goroutine through a counting filesystem, so every count repeats
// exactly, then times the stages of compacting what it appended.
func (r *run) replayWrites() error {
	sc := r.sc
	nSingle, per := sc.appendsPerRound(), sc.AppendBatch
	round := r.docs[r.nBase : r.nBase+nSingle+sc.batchDocsPerRound()]
	singles, batched := round[:nSingle], round[nSingle:]
	payload := func(docs [][]byte) (n int64) {
		for _, d := range docs {
			n += int64(len(d))
		}
		return n
	}
	newCol := func(name string, fs faultfs.FS) (*collection.Collection, error) {
		dir := filepath.Join(r.dir, name)
		if err := collection.Init(dir); err != nil {
			return nil, err
		}
		return collection.Open(dir, collection.Options{FS: fs})
	}
	timeAppends := func(span string, col *collection.Collection, docs [][]byte) ([]time.Duration, error) {
		return r.timeEach(span, len(docs), noBudget, func(i int) error {
			id, err := col.Append(docs[i])
			if err == nil && id != i {
				err = fmt.Errorf("append %d got id %d", i, id)
			}
			return err
		}, nil)
	}

	cfs := newCountingFS(faultfs.OS)
	col, err := newCol("replay-col", cfs)
	if err != nil {
		return err
	}
	defer func() {
		if col != nil {
			_ = col.Close() // an earlier error is already being returned
		}
	}()
	lat, err := timeAppends("collection.append", col, singles)
	if err != nil {
		return err
	}
	c := cfs.snapshot()
	n := float64(len(singles))
	writes, written := c.writes()
	r.set("collection.append_ns", medianNanos(lat), len(lat))
	r.set("faultfs.write_amp", float64(written)/float64(payload(singles)), len(singles))
	r.set("faultfs.writes_per_append", float64(writes)/n, len(singles))
	r.set("faultfs.fsyncs_per_append", float64(c.syncs())/n, len(singles))
	r.set("faultfs.seg_write_ns", medianNanos(c.Class[classSeg].writeLat), c.Class[classSeg].Writes)
	r.set("faultfs.lens_write_ns", medianNanos(c.Class[classLens].writeLat), c.Class[classLens].Writes)
	r.set("faultfs.wal_write_ns", medianNanos(c.Class[classWAL].writeLat), c.Class[classWAL].Writes)
	r.set("faultfs.wal_sync_ns", medianNanos(c.Class[classWAL].syncLat), c.Class[classWAL].Syncs)
	// A checkpoint fsyncs the open segment's two files so the log can be
	// truncated.
	ckpt := append(c.Class[classSeg].syncLat, c.Class[classLens].syncLat...)
	r.set("faultfs.checkpoint_sync_ns", medianNanos(ckpt), len(ckpt))
	r.out.line(map[string]any{"workload": r.w.Name, "faultfs_counts": countsByClass(c)})

	batchLat, err := r.timeEach("collection.append_batch", len(batched)/per, noBudget, func(i int) error {
		ids, err := col.AppendBatch(batched[i*per : (i+1)*per])
		if err == nil && len(ids) != per {
			err = fmt.Errorf("%d ids for %d documents", len(ids), per)
		}
		return err
	}, nil)
	if err != nil {
		return err
	}
	c = cfs.snapshot()
	r.set("collection.append_batch_ns_per_doc", medianNanos(batchLat)/float64(per), len(batchLat))
	r.set("faultfs.fsyncs_per_batch_doc", float64(c.syncs())/float64(len(batched)), len(batched))

	// Zero-copy reads of the open segment.
	var viewLat []time.Duration
	for k := 0; k < 4; k++ {
		t := time.Now()
		for i := 0; i < tinyBatch; i++ {
			id := (k*tinyBatch + i) % len(round)
			if _, err := col.View(id, func(doc []byte) error { return nil }); err != nil {
				return err
			}
		}
		end := time.Now()
		viewLat = append(viewLat, end.Sub(t)/tinyBatch)
		r.rec.add(r.rec.newOp(), "collection.open_view", 0, t, end, tinyBatch)
	}
	r.set("collection.open_view_ns", medianNanos(viewLat), 4*tinyBatch)

	// The stages of a compaction, each on its own, then the compaction.
	size := payload(round)
	mbPerS := func(bytes int64, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }
	stage := func(name string, fn func() error) (time.Duration, error) {
		t := time.Now()
		err := fn()
		end := time.Now()
		r.rec.add(r.rec.newOp(), name, 0, t, end, 1)
		return end.Sub(t), err
	}
	var dict []byte
	sampleT, err := stage("rlz.sample", func() (err error) {
		dict, _, err = archive.SampleDict(func() (archive.DocSource, error) { return archive.FromBodies(round), nil }, 0, 0)
		return err
	})
	if err != nil {
		return err
	}
	var sa []int32
	suffixT, _ := stage("suffix.build", func() error { sa = suffix.Build(dict); return nil })
	pd, err := rlz.NewDictionaryFromParts(dict, sa)
	if err != nil {
		return err
	}
	fz := rlz.NewFactorizer(pd, rlz.FactorizerOptions{})
	factors := make([][]rlz.Factor, len(round))
	factorT, _ := stage("rlz.factorize", func() error {
		for i, d := range round {
			factors[i] = fz.Factorize(d, nil)
		}
		return nil
	})
	var enc []byte
	encodeT, _ := stage("rlz.encode", func() error {
		for _, fs := range factors {
			enc = rlz.CodecZV.Encode(enc[:0], fs)
		}
		return nil
	})
	r.set("rlz.sample_mb_per_s", mbPerS(size, sampleT), 1)
	r.set("suffix.build_mb_per_s", mbPerS(int64(len(dict)), suffixT), 1)
	r.set("rlz.factorize_mb_per_s", mbPerS(size, factorT), len(round))
	r.set("rlz.encode_mb_per_s", mbPerS(size, encodeT), len(round))

	cfs.snapshot()
	t := time.Now()
	// One worker, so the stage times above add up to this call's.
	res, err := col.Compact(collection.CompactOptions{Workers: 1})
	end := time.Now()
	if err != nil {
		return err
	}
	compactT := end.Sub(t)
	r.rec.add(r.rec.newOp(), "collection.compact", 0, t, end, 1)
	c = cfs.snapshot()
	r.set("collection.compact_ms", float64(compactT.Microseconds())/1e3, 1)
	other := compactT - sampleT - suffixT - factorT - encodeT - c.ioTime()
	r.set("collection.compact_self_pct", 100*max(0, other.Seconds())/compactT.Seconds(), 1)
	r.set("collection.compact_ratio_pct", 100*ratio(float64(res.BytesAfter), float64(res.BytesBefore)), 1)
	err = col.Close()
	col = nil
	if err != nil {
		return err
	}

	// Group commit under two writers: how many acknowledged appends one
	// WAL fsync carries. Interleaving decides, so this one varies.
	cfs2 := newCountingFS(faultfs.OS)
	col2, err := newCol("replay-col2", cfs2)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(singles) && errs[g] == nil; i += 2 {
				_, errs[g] = col2.Append(singles[i])
			}
		}(g)
	}
	wg.Wait()
	c = cfs2.snapshot()
	if err := col2.Close(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	r.set("wal.appends_per_fsync", ratio(n, float64(c.Class[classWAL].Syncs)), len(singles))

	// The same appends straight on the filesystem holding -dir, without
	// the counting wrapper.
	col3, err := newCol("replay-col3", faultfs.OS)
	if err != nil {
		return err
	}
	lat, err = timeAppends("collection.append.disk", col3, singles)
	if cerr := col3.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.set("collection.append_disk_p50_us", medianNanos(lat)/1e3, len(lat))

	// The log alone: enqueue one record and wait for its group commit.
	log, _, err := wal.Open(filepath.Join(r.dir, "replay-wal"), wal.Options{})
	if err != nil {
		return err
	}
	lat, err = r.timeEach("wal.commit", len(singles), noBudget, func(i int) error {
		wait, err := log.Enqueue(uint64(i), singles[i])
		if err == nil {
			err = wait()
		}
		return err
	}, nil)
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.set("wal.commit_ns", medianNanos(lat), len(lat))
	return nil
}

// countsByClass is the exact, repeatable part of a counting snapshot.
func countsByClass(c fsCounts) map[string]any {
	out := map[string]any{"renames": c.Renames, "syncdirs": c.SyncDirs, "removes": c.Removes}
	for i, k := range c.Class {
		out[classNames[i]] = map[string]any{"writes": k.Writes, "syncs": k.Syncs, "bytes": k.Bytes}
	}
	return out
}
