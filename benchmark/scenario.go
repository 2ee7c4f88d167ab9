package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"

	"rlz/internal/collection"
	"rlz/internal/corpus"
	"rlz/internal/serve"
	"rlz/internal/workload"
)

// poolDocBytes sizes the corpus for the append pool: Gov documents
// average 17 KB. generate grows the corpus if a seed comes up short.
const poolDocBytes = 18 << 10

// Shares of -seconds given to the time-sliced phases; the rest is the
// nominal cost of the fixed-count ingest rounds.
const (
	shareReads  = 0.50
	shareInproc = 0.12
)

// sample is one reported value with the number of observations behind
// it.
type sample struct {
	Value float64
	N     int
}

// run is one workload run: the single scenario configured by w.
type run struct {
	ctx     context.Context
	w       workloadSpec
	sc      scale
	seed    int64
	seconds float64
	rlzd    string // daemon binary
	dir     string // scratch directory of this run, removed by the caller
	rec     *recorder
	clients int
	out     *reporter

	docs      [][]byte // corpus; [0,nBase) present at start, the rest is the append pool
	nBase     int
	pool      int   // next unused pool document
	pending   int64 // payload bytes awaiting compaction
	colDir    string
	d         *daemon
	cl        *client
	bufs      [][]byte // one response buffer per client goroutine
	pop       int      // ids the read phases draw from: [0,pop)
	ids       []int    // master id list, consumed in order by the read phases
	idCursor  int
	cacheDocs int

	speeds      []float64 // every gauge's speed factor, for host.speed_pct
	lastReading reading

	mu        sync.Mutex
	idDoc     []int32 // acknowledged id -> corpus index, -1 while unknown
	acked     int     // ids acknowledged so far (base documents count)
	ackedSize int64   // their payload bytes
	recent    []int   // ring of the last sc.RecentIDs acknowledged ids
	attempted int
	failed    int
	errShown  int

	values map[string]sample
	layer  layerInputs
}

// layerInputs carries what the end-to-end phases observed for the
// per-layer arithmetic of a traced run.
type layerInputs struct {
	getCPU, appendCPU, compactCPU time.Duration
	getOps, appendOps             int
	tracedRate, untracedRate      []float64
	batchP50us                    float64
	batchWire, batchDocBytes      int64
	duringCompact                 []time.Duration
	info                          *collection.Info
	hitPct, decodedPerServed      float64
}

func (r *run) set(name string, v float64, n int) {
	r.values[name] = sample{v, n}
	r.out.metric(r.w.Name, name, v, n)
}

// setBoth reports a calibrated value (calibrate.go) under name and what
// the clock read under name.raw, for the reader; only the first is a
// metric.
func (r *run) setBoth(name string, v, raw float64, n int) {
	r.set(name, v, n)
	r.out.metric(r.w.Name, name+".raw", raw, n)
}

// count records one attempted operation and its outcome.
func (r *run) count(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if r.errShown < 5 {
		r.errShown++
		fmt.Fprintf(os.Stderr, "benchmark: %s: operation failed: %v\n", r.w.Name, err)
	}
}

// ack records that the daemon acknowledged corpus document doc as id.
func (r *run) ack(id, doc int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || id >= len(r.idDoc) || r.idDoc[id] != -1 {
		return fmt.Errorf("append of document %d acknowledged with unusable id %d", doc, id)
	}
	r.idDoc[id] = int32(doc)
	r.acked++
	r.ackedSize += int64(len(r.docs[doc]))
	r.pending += int64(len(r.docs[doc]))
	if n := r.sc.RecentIDs; len(r.recent) < n {
		r.recent = append(r.recent, id)
	} else {
		r.recent[r.acked%n] = id
	}
	return nil
}

// expected returns the bytes id must hold, or nil for an id never
// acknowledged.
func (r *run) expected(id int) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || id >= len(r.idDoc) || r.idDoc[id] < 0 {
		return nil
	}
	return r.docs[r.idDoc[id]]
}

// recentID picks one of the last acknowledged ids, k steps back.
func (r *run) recentID(k int) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.recent) == 0 {
		return 0, false
	}
	return r.recent[k%len(r.recent)], true
}

func (r *run) check(id int, got []byte) error {
	if want := r.expected(id); want == nil || !bytes.Equal(got, want) {
		return fmt.Errorf("document %d: %d bytes differ from the corpus", id, len(got))
	}
	return nil
}

// generate builds the corpus for this run's seed and splits it into the
// base documents and the append pool.
func (r *run) generate() {
	base := r.sc.baseBytes(r.w)
	need := r.sc.poolDocs(r.rec != nil)
	// Generate is prefix-stable in its size, so growing it keeps the
	// documents already counted on.
	for total := base + need*poolDocBytes; ; total += total / 8 {
		c := corpus.Generate(corpus.Gov, total, r.seed)
		r.docs = make([][]byte, len(c.Docs))
		for i, d := range c.Docs {
			r.docs[i] = d.Body
		}
		r.nBase = prefixDocs(r.docs, base)
		if len(r.docs)-r.nBase >= need {
			return
		}
	}
}

// prefixDocs returns how many leading documents reach size bytes.
func prefixDocs(docs [][]byte, size int) int {
	n, sum := 0, 0
	for n < len(docs) && sum < size {
		sum += len(docs[n])
		n++
	}
	return n
}

// buildCollection lays out the base documents in dir through the
// collection's public API, the way a deployment would have arrived at
// the workload's starting state. It returns the payload bytes left
// uncompacted.
func (r *run) buildCollection(dir string) (pending int64, err error) {
	if err := collection.Init(dir); err != nil {
		return 0, err
	}
	if r.w.layout == layoutEmpty {
		return 0, nil
	}
	// Async: set-up needs no per-append fsync; Compact, Seal and Close
	// make everything durable before the daemon opens the directory.
	col, err := collection.Open(dir, collection.Options{Async: true})
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := col.Close(); err == nil {
			err = cerr
		}
	}()
	next := 0
	appendTo := func(end int) error {
		for next < end {
			hi := min(next+256, end)
			ids, err := col.AppendBatch(r.docs[next:hi])
			if err != nil {
				return err
			}
			if len(ids) != hi-next || ids[0] != next {
				return fmt.Errorf("set-up append of documents [%d,%d) got ids %v", next, hi, ids)
			}
			next = hi
		}
		return nil
	}
	switch r.w.layout {
	case layoutOneSegment:
		if err := appendTo(r.nBase); err != nil {
			return 0, err
		}
		_, err = col.Compact(collection.CompactOptions{})
		return 0, err
	case layoutFragmented:
		nFrag := prefixDocs(r.docs, r.sc.FragBytes)
		for round := 1; round <= r.sc.FragRounds; round++ {
			if err := appendTo(nFrag * round / r.sc.FragRounds); err != nil {
				return 0, err
			}
			if _, err := col.Compact(collection.CompactOptions{}); err != nil {
				return 0, err
			}
		}
		if err := appendTo(r.nBase); err != nil {
			return 0, err
		}
		for _, d := range r.docs[nFrag:r.nBase] {
			pending += int64(len(d))
		}
		return pending, col.Seal()
	}
	return 0, fmt.Errorf("unknown layout %d", r.w.layout)
}

// setUp generates the corpus, builds the collection, starts the daemon
// and warms its cache: everything setup_s covers.
func (r *run) setUp(dir string) error {
	r.generate()
	pending, err := r.buildCollection(dir)
	if err != nil {
		return fmt.Errorf("building collection: %w", err)
	}
	r.colDir, r.pending, r.pool = dir, pending, r.nBase
	r.idDoc = make([]int32, len(r.docs))
	r.acked, r.ackedSize, r.recent = 0, 0, nil
	for i := range r.idDoc {
		r.idDoc[i] = -1
	}
	for i := 0; i < r.nBase; i++ {
		r.idDoc[i] = int32(i)
		r.ackedSize += int64(len(r.docs[i]))
	}
	r.acked = r.nBase
	// cacheAll: room for every document this run will ever hold.
	r.cacheDocs = r.cacheSize(len(r.docs))
	if r.d, err = startDaemon(r.ctx, r.rlzd, dir, r.cacheDocs); err != nil {
		return err
	}
	r.cl = newClient(r.d.url, r.clients+1)
	if r.w.cache == cacheAll {
		var buf []byte
		for id := 0; id < r.nBase; id++ {
			if buf, err = r.cl.GetAppend(buf[:0], id); err != nil {
				return fmt.Errorf("warm pass: %w", err)
			}
		}
	}
	return nil
}

// cacheSize is the workload's document-cache capacity when all
// documents would fill the cache.
func (r *run) cacheSize(all int) int {
	switch r.w.cache {
	case cacheAll:
		return all
	case cacheSmall:
		return r.sc.SmallCache
	}
	return 0
}

func (r *run) tearDown() {
	if r.cl != nil {
		r.cl.close()
		r.cl = nil
	}
	r.d.kill()
	r.d = nil
}

// startReads fixes the id population of the read phases to everything
// acknowledged so far and draws the master id list.
func (r *run) startReads() {
	r.pop = r.acked
	// Enough for every slice a run can fit; drawn once so the Zipf
	// popularity ranking (a seeded permutation inside QueryLog) is the
	// same in every phase and the small cache keeps its hot set.
	n := 200 * r.sc.GetSliceOps
	if r.w.zipf {
		r.ids = workload.QueryLog(r.pop, n, r.seed)
	} else {
		r.ids = workload.Uniform(r.pop, n, r.seed)
	}
	r.idCursor = 0
}

// nextIDs returns the next n ids of the master list, wrapping around.
func (r *run) nextIDs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = r.ids[r.idCursor]
		r.idCursor = (r.idCursor + 1) % len(r.ids)
	}
	return out
}

// execute runs the scenario and fills r.values.
func (r *run) execute() error {
	// Set-up runs SetupReps times so setup_s is a median; the last
	// instance is the one measured.
	var setups, rawSetups []float64
	for rep := 0; rep < r.sc.SetupReps; rep++ {
		if rep > 0 {
			r.tearDown()
			if err := os.RemoveAll(r.colDir); err != nil {
				return err
			}
		}
		g := r.gauge(r.clients)
		t := time.Now()
		if err := r.setUp(filepath.Join(r.dir, fmt.Sprintf("col%d", rep))); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t).Seconds()
		setups, rawSetups = append(setups, took*g.stop()), append(rawSetups, took)
	}
	defer r.tearDown()
	r.setBoth("setup_s", median(setups), median(rawSetups), len(setups))
	// Set-up leaves tens of MB of dirty pages; write them out now rather
	// than under the measured phases' fsyncs.
	syscall.Sync()

	r.bufs = make([][]byte, r.clients)
	budget := func(share float64) time.Duration {
		return time.Duration(share * r.seconds * float64(time.Second))
	}
	order := []func() error{
		func() error { return r.phaseReads(budget(shareReads)) },
		r.phaseWrites,
	}
	if r.w.writesFirst {
		slices.Reverse(order)
	}
	for _, phase := range order {
		if err := phase(); err != nil {
			return err
		}
	}
	if r.rec != nil {
		r.phaseSolo()
	}
	if !r.d.alive() {
		return fmt.Errorf("rlzd died during the run; stderr:\n%s", r.d.stderr)
	}
	rss := r.d.rssPeakMB()

	// SIGKILL keeps the OS cache, so the reopen below checks
	// process-crash durability only.
	r.tearDown()
	if err := r.reopenAndRead(budget(shareInproc)); err != nil {
		return err
	}
	if r.rec != nil {
		r.set("rlzd.rss_peak_mb", rss, 1)
		if err := r.layers(); err != nil {
			return fmt.Errorf("layer replay: %w", err)
		}
	}
	return r.ctx.Err()
}

// reopenAndRead opens the killed daemon's directory in-process, checks
// every acknowledged id, and runs the in-process read phase on it.
func (r *run) reopenAndRead(budget time.Duration) error {
	t := time.Now()
	col, err := collection.Open(r.colDir, collection.Options{})
	if err != nil {
		return fmt.Errorf("reopening after SIGKILL: %w", err)
	}
	opened := time.Since(t)
	defer col.Close()
	var buf []byte
	for id := 0; id < r.acked; id++ {
		var err error
		if buf, err = col.GetAppend(buf[:0], id); err == nil {
			err = r.check(id, buf)
		}
		r.count(err)
	}
	if col.NumDocs() < r.acked {
		r.count(fmt.Errorf("reopened collection holds %d documents, %d were acknowledged", col.NumDocs(), r.acked))
	}

	srv := serve.New(col, serve.Options{CacheDocs: r.cacheDocs})
	ops := r.sc.InprocSliceOps
	if r.w.cache == cacheAll {
		// A cache hit is ~100x cheaper than a decode; keep slices long
		// enough to time.
		ops *= 64
		for id := 0; id < r.pop; id++ {
			if buf, err = srv.GetAppend(buf[:0], id); err != nil {
				return fmt.Errorf("in-process warm pass: %w", err)
			}
		}
	}
	var rates, rawRates []float64
	total := 0
	for start := time.Now(); ; {
		ids := r.nextIDs(ops)
		bad := 0
		g := r.gauge(1)
		t := time.Now()
		for _, id := range ids {
			if buf, err = srv.GetAppend(buf[:0], id); err != nil || len(buf) != len(r.docs[r.idDoc[id]]) {
				bad++
			}
		}
		rate := float64(len(ids)) / time.Since(t).Seconds()
		rates, rawRates = append(rates, rate/g.stop()), append(rawRates, rate)
		total += len(ids)
		// Lengths are checked inside the timed loop, bytes outside it:
		// the reopen check above already compared every document.
		r.mu.Lock()
		r.attempted += len(ids)
		r.failed += bad
		r.mu.Unlock()
		if time.Since(start) >= budget || r.ctx.Err() != nil {
			break
		}
	}
	r.setBoth("get_inproc_docs_per_s", median(rates), median(rawRates), total)
	r.set("host.speed_pct", 100*median(r.speeds), len(r.speeds))

	if r.rec != nil {
		r.set("collection.open_ms", float64(opened.Microseconds())/1e3, 1)
		if err := r.layersOnCollection(col); err != nil {
			return err
		}
	}
	return nil
}

// runWorkload runs one workload in a fresh scratch directory under
// dataDir and removes it on every path.
func runWorkload(ctx context.Context, cfg config, w workloadSpec, seed int64, out *reporter) (res result, err error) {
	dir, err := os.MkdirTemp(cfg.dataDir, "run-"+w.Name+"-")
	if err != nil {
		return res, err
	}
	r := &run{
		ctx: ctx, w: w, sc: cfg.scale, seed: seed, seconds: cfg.seconds, rlzd: cfg.rlzd,
		dir: dir, clients: cfg.clients, out: out, values: make(map[string]sample),
	}
	if cfg.trace != "" {
		r.rec = newRecorder()
	}
	defer func() {
		r.tearDown()
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	if err := r.execute(); err != nil {
		if r.d != nil {
			err = errors.Join(err, fmt.Errorf("rlzd stderr:\n%s", r.d.stderr))
		}
		return res, err
	}
	if r.rec != nil {
		path := cfg.tracePath(w.Name, seed)
		if err := r.rec.write(path); err != nil {
			return res, fmt.Errorf("writing trace: %w", err)
		}
		out.note("trace of %s: %d spans in %s", w.Name, len(r.rec.spans), path)
	}
	want := endToEnd
	if r.rec != nil {
		want = perLayer
	}
	res = result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range want {
		s, ok := r.values[m.Name]
		if !ok {
			return res, fmt.Errorf("workload %s produced no %s", w.Name, m.Name)
		}
		res.Metrics[m.Name] = value{s.Value, m.Unit}
	}
	return res, nil
}
