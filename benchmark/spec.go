package main

import (
	"encoding/json"
	"fmt"
)

// metric names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists what a user of rlzd sees. BENCHMARK.json repeats this
// table; TestBenchmarkJSONMatchesSpec keeps the two in step. Every
// workload reports every metric (the driver gates each cell), which is
// why every workload runs every phase.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"stored_pct", "%", "lower", 0.15},
	{"get_inproc_docs_per_s", "1/s", "higher", 0.25},
	{"get_docs_per_s", "1/s", "higher", 0.25},
	{"get_p50_us", "us", "lower", 0.25},
	{"get_p99_us", "us", "lower", 0.25},
	{"batch_docs_per_s", "1/s", "higher", 0.25},
	{"append_docs_per_s", "1/s", "higher", 0.25},
	{"append_p50_us", "us", "lower", 0.25},
	{"append_batch_docs_per_s", "1/s", "higher", 0.25},
	{"compact_mb_per_s", "MB/s", "higher", 0.25},
	{"mixed_ops_per_s", "1/s", "higher", 0.25},
}

// perLayer lists the numbers a traced run attributes to single layers,
// grouped by the end-to-end metrics each should move (README.md has the
// table).
var perLayer = []metric{
	// Read path: moves get_* and batch_docs_per_s where documents are
	// decoded (static-cold, live-ingest, part of live-mixed), not on
	// static-hot.
	{"docmap.extent_ns", "ns", "lower", 0},
	{"mmapio.read_ns", "ns", "lower", 0},
	{"mmapio.read_bytes_per_get", "B", "lower", 0},
	{"rlz.pair_decode_ns", "ns", "lower", 0},
	{"rlz.factors_per_doc", "count", "lower", 0},
	{"rlz.dict_copy_ns", "ns", "lower", 0},
	{"store.get_ns", "ns", "lower", 0},
	{"store.self_ns", "ns", "lower", 0},
	{"store.allocs_per_get", "count", "lower", 0},
	{"store.alloc_bytes_per_get", "B", "lower", 0},
	{"archive.get_ns", "ns", "lower", 0},
	// Paper baselines on the same ids.
	{"blockstore.zlib_get_ns", "ns", "lower", 0},
	{"blockstore.zlib_stored_pct", "%", "lower", 0},
	{"blockstore.lzr_get_ns", "ns", "lower", 0},
	{"rawstore.get_ns", "ns", "lower", 0},
	{"shard.get_ns", "ns", "lower", 0},
	// Serving: moves get_inproc_docs_per_s, most on static-hot.
	{"serve.get_ns", "ns", "lower", 0},
	{"serve.self_ns", "ns", "lower", 0},
	{"serve.do_ns", "ns", "lower", 0},
	{"serve.allocs_per_get", "count", "lower", 0},
	{"serve.batch_ns_per_doc", "ns", "lower", 0},
	{"lru.get_ns", "ns", "lower", 0},
	{"lru.put_ns", "ns", "lower", 0},
	{"serve.cache_hit_pct", "%", "higher", 0},
	{"serve.decoded_per_served", "ratio", "lower", 0},
	// HTTP daemon: moves get_docs_per_s, get_p50_us, get_p99_us,
	// batch_docs_per_s on every workload.
	{"rlzd.get_us", "us", "lower", 0},
	{"rlzd.self_us", "us", "lower", 0},
	{"rlzd.cpu_us_per_get", "us", "lower", 0},
	{"rlzd.batch_us_per_doc", "us", "lower", 0},
	{"rlzd.batch_wire_per_doc_byte", "ratio", "lower", 0},
	{"rlzd.rss_peak_mb", "MB", "lower", 0},
	{"rlzd.open_p50_us", "us", "lower", 0},
	{"rlzd.open_p99_us", "us", "lower", 0},
	{"loadgen.open_max_late_us", "us", "lower", 0},
	// Write path: moves append_* and mixed_ops_per_s.
	{"collection.append_ns", "ns", "lower", 0},
	{"collection.append_batch_ns_per_doc", "ns", "lower", 0},
	{"faultfs.write_amp", "ratio", "lower", 0},
	{"faultfs.writes_per_append", "count", "lower", 0},
	{"faultfs.fsyncs_per_append", "count", "lower", 0},
	{"faultfs.fsyncs_per_batch_doc", "count", "lower", 0},
	{"faultfs.seg_write_ns", "ns", "lower", 0},
	{"faultfs.lens_write_ns", "ns", "lower", 0},
	{"faultfs.wal_write_ns", "ns", "lower", 0},
	{"faultfs.wal_sync_ns", "ns", "lower", 0},
	{"faultfs.checkpoint_sync_ns", "ns", "lower", 0},
	{"wal.commit_ns", "ns", "lower", 0},
	{"wal.appends_per_fsync", "ratio", "higher", 0},
	{"rlzd.append_us", "us", "lower", 0},
	{"rlzd.append_p99_us", "us", "lower", 0},
	{"rlzd.append_self_us", "us", "lower", 0},
	{"rlzd.cpu_us_per_append", "us", "lower", 0},
	{"collection.open_ms", "ms", "lower", 0},
	{"collection.open_clean_ms", "ms", "lower", 0},
	{"collection.append_disk_p50_us", "us", "lower", 0},
	// Compaction: moves compact_mb_per_s, setup_s of live-mixed and
	// stored_pct.
	{"rlz.sample_mb_per_s", "MB/s", "higher", 0},
	{"suffix.build_mb_per_s", "MB/s", "higher", 0},
	{"rlz.factorize_mb_per_s", "MB/s", "higher", 0},
	{"rlz.encode_mb_per_s", "MB/s", "higher", 0},
	{"collection.compact_ms", "ms", "lower", 0},
	{"collection.compact_self_pct", "%", "lower", 0},
	{"collection.compact_ratio_pct", "%", "lower", 0},
	{"rlzd.compact_cpu_s", "s", "lower", 0},
	// Fragmentation: moves get_p50_us, get_p99_us, stored_pct and
	// rlzd.rss_peak_mb where the collection has many segments
	// (live-mixed most, live-ingest some).
	{"collection.segments", "count", "lower", 0},
	{"collection.route_self_ns", "ns", "lower", 0},
	{"collection.open_view_ns", "ns", "lower", 0},
	{"collection.dict_copies", "count", "lower", 0},
	{"collection.dict_disk_pct", "%", "lower", 0},
	{"collection.get_p99_during_compact_us", "us", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	// The host, not the program: the median speed factor of the run's
	// calibration readings (calibrate.go). Clock time = calibrated time
	// x 100 / this.
	{"host.speed_pct", "%", "higher", 0},
}

// layout is how a workload's collection looks when the daemon starts.
type layout int

const (
	layoutOneSegment layout = iota // every base document in one RLZ segment
	layoutEmpty                    // nothing; the measured ingest fills it
	layoutFragmented               // many small RLZ segments plus a raw sealed one
)

// cacheMode sizes rlzd's document cache relative to the documents read.
type cacheMode int

const (
	cacheNone  cacheMode = iota // -cache 0
	cacheAll                    // every read document fits; warmed before timing
	cacheSmall                  // scale.smallCache documents, below the working set
)

// workloadSpec is one configuration of the single scenario (scenario.go).
type workloadSpec struct {
	Name string
	Why  string

	layout layout
	cache  cacheMode
	zipf   bool // read ids from workload.QueryLog, else workload.Uniform
	// writesFirst runs the ingest rounds before the read phases; the
	// other workloads read the collection as set-up left it and write
	// afterwards.
	writesFirst bool
}

var workloads = []workloadSpec{
	{
		Name:   "static-cold",
		Why:    "uniform ids over one prebuilt RLZ segment, no cache: every read pays docmap, pread, pair decode and dictionary copy",
		layout: layoutOneSegment, cache: cacheNone,
	},
	{
		Name:   "static-hot",
		Why:    "same segment, cache holds every document, Zipf ids: decode is bypassed, so only lru, serve and HTTP work is left",
		layout: layoutOneSegment, cache: cacheAll, zipf: true,
	},
	{
		Name:   "live-ingest",
		Why:    "empty collection filled over HTTP in append+compact rounds, then read: the write path and compaction make every byte served",
		layout: layoutEmpty, cache: cacheNone, writesFirst: true,
	},
	{
		Name:   "live-mixed",
		Why:    "fragmented collection, cache below the working set, reads beside appends: routing, eviction and write-path sharing",
		layout: layoutFragmented, cache: cacheSmall, zipf: true,
	},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// scale fixes every operation count and corpus size. Phases that change
// what is stored run a fixed count, so stored bytes and compaction
// input repeat; read-only phases repeat fixed-size slices until their
// share of -seconds is spent.
type scale struct {
	Name string `json:"name"`

	BaseBytes  int `json:"base_bytes"`  // layoutOneSegment
	FragBytes  int `json:"frag_bytes"`  // layoutFragmented: compacted part
	FragRounds int `json:"frag_rounds"` // ... in this many RLZ segments
	RawBytes   int `json:"raw_bytes"`   // ... plus this much sealed raw

	Rounds               int `json:"rounds"`        // append / batch / compact rounds
	AppendSlices         int `json:"append_slices"` // per round
	AppendSliceOps       int `json:"append_slice_ops"`
	AppendBatchSlices    int `json:"append_batch_slices"` // per round
	AppendBatchSliceReqs int `json:"append_batch_slice_reqs"`
	AppendBatch          int `json:"append_batch"` // documents per POST /append/batch

	MixedSlices   int `json:"mixed_slices"`
	MixedSliceOps int `json:"mixed_slice_ops"`
	RecentIDs     int `json:"recent_ids"`

	GetSliceOps       int `json:"get_slice_ops"`
	GetSlicesPerCycle int `json:"get_slices_per_cycle"`
	BatchSliceReqs    int `json:"batch_slice_reqs"`
	BatchIDs          int `json:"batch_ids"`
	InprocSliceOps    int `json:"inproc_slice_ops"`
	SmallCache        int `json:"small_cache"`
	SetupReps         int `json:"setup_reps"`
	// CalIters is the length of one reading of the host's speed
	// (calibrate.go) per thread, ~20 ms at full scale: readings a quarter
	// as long disagree with their successor by 10-20 %, these by ~5 %.
	CalIters int `json:"cal_iters"`

	// Traced runs only.
	ReplayBytes int `json:"replay_bytes"` // corpus prefix the layer replay archives hold
	ReplayOps   int `json:"replay_ops"`
	SoloOps     int `json:"solo_ops"`      // 1-client HTTP phases
	OpenLoopOps int `json:"open_loop_ops"` // at OpenLoopRate requests/s
	OpenRate    int `json:"open_loop_rate"`
}

const mib = 1 << 20

var scales = map[string]scale{
	"full": {
		Name:      "full",
		BaseBytes: 32 * mib, FragBytes: 32 * mib, FragRounds: 8, RawBytes: 16 * mib,
		Rounds: 4, AppendSlices: 6, AppendSliceOps: 200, AppendBatchSlices: 5, AppendBatchSliceReqs: 12, AppendBatch: 16,
		MixedSlices: 12, MixedSliceOps: 750, RecentIDs: 256,
		GetSliceOps: 1500, GetSlicesPerCycle: 2, BatchSliceReqs: 32, BatchIDs: 32, InprocSliceOps: 2000,
		SmallCache: 256, SetupReps: 3, CalIters: 1_600_000,
		ReplayBytes: 32 * mib, ReplayOps: 5000, SoloOps: 1500, OpenLoopOps: 6000, OpenRate: 2000,
	},
	// tiny is the smoke test's scale: every phase and every layer replay
	// runs, nothing is large enough to measure.
	"tiny": {
		Name:      "tiny",
		BaseBytes: mib / 2, FragBytes: mib / 2, FragRounds: 3, RawBytes: mib / 4,
		Rounds: 2, AppendSlices: 2, AppendSliceOps: 4, AppendBatchSlices: 2, AppendBatchSliceReqs: 2, AppendBatch: 3,
		MixedSlices: 2, MixedSliceOps: 30, RecentIDs: 4,
		GetSliceOps: 40, GetSlicesPerCycle: 2, BatchSliceReqs: 3, BatchIDs: 4, InprocSliceOps: 40,
		SmallCache: 4, SetupReps: 1, CalIters: 10_000,
		ReplayBytes: mib / 4, ReplayOps: 40, SoloOps: 10, OpenLoopOps: 40, OpenRate: 400,
	},
}

// baseBytes is the payload present when the daemon starts.
func (sc scale) baseBytes(w workloadSpec) int {
	switch w.layout {
	case layoutOneSegment:
		return sc.BaseBytes
	case layoutFragmented:
		return sc.FragBytes + sc.RawBytes
	}
	return 0
}

func (sc scale) appendsPerRound() int { return sc.AppendSlices * sc.AppendSliceOps }
func (sc scale) batchDocsPerRound() int {
	return sc.AppendBatchSlices * sc.AppendBatchSliceReqs * sc.AppendBatch
}

// poolDocs is how many documents the measured phases append at most.
func (sc scale) poolDocs(traced bool) int {
	perRound := sc.appendsPerRound() + sc.batchDocsPerRound()
	// The mixed schedule appends one operation in ten; a sixth leaves
	// room for the schedule's luck.
	n := sc.Rounds*perRound + sc.MixedSlices*sc.MixedSliceOps/6 + 8
	if traced {
		n += sc.SoloOps
	}
	return n
}

// benchmarkJSON renders the tables above in the benchmark driver's
// format; the root BENCHMARK.json is this output.
func benchmarkJSON() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []named     `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-buildvcs=false", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, unbounded{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // strings and numbers only
	}
	return out
}
