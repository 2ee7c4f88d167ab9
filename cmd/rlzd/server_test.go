package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/collection"
	"rlz/internal/rlz"
	"rlz/internal/serve"
	"rlz/internal/shard"
	"rlz/internal/workload"
)

func makeDocs(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]byte, n)
	for i := range docs {
		var b bytes.Buffer
		fmt.Fprintf(&b, "<html><title>Doc %d</title><body>", i)
		for j := 0; j < 2+rng.Intn(6); j++ {
			fmt.Fprintf(&b, "<p>shared boilerplate %d</p>", rng.Intn(3))
		}
		fmt.Fprintf(&b, "%x</body></html>", rng.Int63())
		docs[i] = b.Bytes()
	}
	return docs
}

// newStaticMux builds an in-memory archive for docs with the given backend
// options and wraps it in the rlzd handler.
func newStaticMux(t testing.TB, docs [][]byte, opts archive.Options, cacheDocs int, mopts muxOptions) (http.Handler, *serve.Server) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := archive.Build(&buf, archive.FromBodies(docs), opts); err != nil {
		t.Fatal(err)
	}
	r, err := archive.OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(r, serve.Options{CacheDocs: cacheDocs, Workers: 4})
	return newMux(srv, nil, mopts), srv
}

// newTestServer serves newStaticMux through rlzd's connection loop.
func newTestServer(t *testing.T, docs [][]byte, opts archive.Options, cacheDocs, maxBatch int) (*testServer, *serve.Server) {
	t.Helper()
	h, srv := newStaticMux(t, docs, opts, cacheDocs, muxOptions{maxBatch: maxBatch})
	return startServer(t, h), srv
}

func allBackendOptions(docs [][]byte) map[string]archive.Options {
	var all []byte
	for _, d := range docs {
		all = append(all, d...)
	}
	return map[string]archive.Options{
		"rlz":   {Backend: archive.RLZ, Dict: rlz.SampleEven(all, len(all)/10+64, 256), Codec: rlz.CodecZV},
		"block": {Backend: archive.Block, BlockSize: 4096},
		"raw":   {Backend: archive.Raw},
	}
}

func TestGetDoc(t *testing.T) {
	docs := makeDocs(25, 1)
	for name, opts := range allBackendOptions(docs) {
		t.Run(name, func(t *testing.T) {
			ts, _ := newTestServer(t, docs, opts, 8, 64)
			for i, want := range docs {
				resp, err := http.Get(ts.URL + "/doc/" + strconv.Itoa(i))
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET /doc/%d = %d: %s", i, resp.StatusCode, body)
				}
				if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(want)) {
					t.Errorf("GET /doc/%d Content-Length = %q, want %d", i, got, len(want))
				}
				if !bytes.Equal(body, want) {
					t.Errorf("GET /doc/%d returned wrong bytes", i)
				}
			}
		})
	}
}

func TestGetDocErrors(t *testing.T) {
	docs := makeDocs(5, 2)
	ts, _ := newTestServer(t, docs, allBackendOptions(docs)["raw"], 0, 64)
	tests := []struct {
		name       string
		method     string
		path       string
		wantStatus int
	}{
		{"out-of-range", "GET", "/doc/5", http.StatusNotFound},
		{"negative", "GET", "/doc/-1", http.StatusNotFound},
		{"non-numeric", "GET", "/doc/abc", http.StatusBadRequest},
		{"missing-id", "GET", "/doc/", http.StatusNotFound}, // no pattern match
		{"wrong-method", "POST", "/doc/1", http.StatusMethodNotAllowed},
		{"unknown-path", "GET", "/nope", http.StatusNotFound},
		{"stats-wrong-method", "POST", "/stats", http.StatusMethodNotAllowed},
		{"docs-wrong-method", "GET", "/docs", http.StatusMethodNotAllowed},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
			}
		})
	}
}

func TestPostDocsBatch(t *testing.T) {
	docs := makeDocs(20, 3)
	for name, opts := range allBackendOptions(docs) {
		t.Run(name, func(t *testing.T) {
			ts, _ := newTestServer(t, docs, opts, 8, 64)
			// Mixed batch: valid ids, a duplicate, and two bad ids whose
			// errors must be reported per document, not fail the request.
			ids := []int{3, 0, 3, 19, 99, -1}
			body, _ := json.Marshal(batchRequest{IDs: ids})
			resp, err := http.Post(ts.URL+"/docs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /docs = %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
			var br batchResponse
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				t.Fatal(err)
			}
			if len(br.Docs) != len(ids) {
				t.Fatalf("got %d docs, want %d", len(br.Docs), len(ids))
			}
			if br.Errors != 2 {
				t.Errorf("Errors = %d, want 2", br.Errors)
			}
			for i, d := range br.Docs {
				if d.ID != ids[i] {
					t.Errorf("doc %d has id %d, want %d", i, d.ID, ids[i])
				}
				if ids[i] < 0 || ids[i] >= len(docs) {
					if d.Error == "" {
						t.Errorf("bad id %d reported no error", ids[i])
					}
					continue
				}
				if d.Error != "" {
					t.Errorf("id %d: unexpected error %q", ids[i], d.Error)
				}
				if !bytes.Equal(d.Data, docs[ids[i]]) {
					t.Errorf("id %d: wrong bytes", ids[i])
				}
			}
		})
	}
}

// TestPostDocsZeroByteDocument pins the batch response contract for the
// degenerate document: success always carries a "data" field (an empty
// string for an empty document), never a bare {"id":N}.
func TestPostDocsZeroByteDocument(t *testing.T) {
	docs := [][]byte{[]byte("first"), {}, []byte("third")}
	ts, _ := newTestServer(t, docs, archive.Options{Backend: archive.Raw}, 0, 16)
	resp, err := http.Post(ts.URL+"/docs", "application/json", strings.NewReader(`{"ids":[1,99]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var shape struct {
		Docs []map[string]any `json:"docs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&shape); err != nil {
		t.Fatal(err)
	}
	if len(shape.Docs) != 2 {
		t.Fatalf("got %d docs", len(shape.Docs))
	}
	if data, ok := shape.Docs[0]["data"]; !ok || data != "" {
		t.Errorf(`zero-byte document: data = %v (present %v), want ""`, data, ok)
	}
	if _, ok := shape.Docs[0]["error"]; ok {
		t.Error("zero-byte document reported an error")
	}
	if errStr, ok := shape.Docs[1]["error"]; !ok || errStr == "" {
		t.Errorf("bad id: error = %v (present %v)", errStr, ok)
	}
}

func TestPostDocsRejects(t *testing.T) {
	docs := makeDocs(5, 4)
	ts, _ := newTestServer(t, docs, allBackendOptions(docs)["raw"], 0, 3)
	tests := []struct {
		name       string
		body       string
		wantStatus int
	}{
		{"malformed-json", `{"ids":[1,`, http.StatusBadRequest},
		{"empty-ids", `{"ids":[]}`, http.StatusBadRequest},
		{"no-ids-key", `{}`, http.StatusBadRequest},
		{"over-batch-limit", `{"ids":[0,1,2,3]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/docs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("POST /docs %s = %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
			}
		})
	}
}

func TestStatsEndpoint(t *testing.T) {
	docs := makeDocs(10, 5)
	ts, _ := newTestServer(t, docs, allBackendOptions(docs)["block"], 16, 64)
	// Generate traffic: two sweeps (second hits cache) and one miss.
	for pass := 0; pass < 2; pass++ {
		for i := range docs {
			resp, err := http.Get(ts.URL + "/doc/" + strconv.Itoa(i))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	http.Get(ts.URL + "/doc/999")

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats = %d", resp.StatusCode)
	}
	// Decode into a loose map to pin the JSON field names the endpoint
	// promises, then into the typed struct for value checks.
	raw, _ := io.ReadAll(resp.Body)
	var shape map[string]any
	if err := json.Unmarshal(raw, &shape); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"backend", "num_docs", "archive_size_bytes", "requests", "errors",
		"cache_hits", "cache_misses", "cached_docs", "cache_capacity",
		"bytes_decoded", "bytes_served", "p50_latency_ns", "p99_latency_ns",
	} {
		if _, ok := shape[key]; !ok {
			t.Errorf("stats JSON missing key %q", key)
		}
	}
	var st serve.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Backend != "block" {
		t.Errorf("backend = %q, want block", st.Backend)
	}
	if st.NumDocs != len(docs) {
		t.Errorf("num_docs = %d, want %d", st.NumDocs, len(docs))
	}
	if want := int64(2*len(docs) + 1); st.Requests != want {
		t.Errorf("requests = %d, want %d", st.Requests, want)
	}
	if st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
	if st.CacheHits < int64(len(docs)) {
		t.Errorf("cache_hits = %d, want >= %d (full second sweep)", st.CacheHits, len(docs))
	}
	if st.P50Nanos <= 0 || st.P99Nanos < st.P50Nanos {
		t.Errorf("latency quantiles p50=%d p99=%d are not sane", st.P50Nanos, st.P99Nanos)
	}
}

// TestLoadGeneratorAgainstDaemon drives the HTTP daemon with the
// closed-loop load generator — the same driver the benchmarks use
// against the in-process Server — over all three backends.
func TestLoadGeneratorAgainstDaemon(t *testing.T) {
	docs := makeDocs(30, 6)
	for name, opts := range allBackendOptions(docs) {
		t.Run(name, func(t *testing.T) {
			ts, srv := newTestServer(t, docs, opts, 16, 64)
			ids := workload.QueryLog(len(docs), 300, 42)
			res := workload.Run(&workload.HTTPGetter{BaseURL: ts.URL, Client: ts.Client()}, ids, 8)
			if res.Errors != 0 {
				t.Fatalf("load run had %d errors", res.Errors)
			}
			if res.Requests != int64(len(ids)) {
				t.Errorf("Requests = %d, want %d", res.Requests, len(ids))
			}
			if srv.Stats().Requests != int64(len(ids)) {
				t.Errorf("server saw %d requests, want %d", srv.Stats().Requests, len(ids))
			}
			if res.Throughput() <= 0 {
				t.Errorf("throughput = %f", res.Throughput())
			}
		})
	}
}

// TestPostDocsNegativeIDFastPath: negative ids are rejected in the
// handler, before the serving layer — the backend sees only the valid
// ids — and the response still reports every id in request order.
func TestPostDocsNegativeIDFastPath(t *testing.T) {
	docs := makeDocs(8, 7)
	ts, srv := newTestServer(t, docs, archive.Options{Backend: archive.Raw}, 0, 64)
	ids := []int{-5, 2, -1, 0, 7, -9}
	body, _ := json.Marshal(batchRequest{IDs: ids})
	resp, err := http.Post(ts.URL+"/docs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Docs) != len(ids) || br.Errors != 3 {
		t.Fatalf("got %d docs, %d errors; want %d docs, 3 errors", len(br.Docs), br.Errors, len(ids))
	}
	for i, d := range br.Docs {
		if d.ID != ids[i] {
			t.Errorf("doc %d has id %d, want %d", i, d.ID, ids[i])
		}
		if ids[i] < 0 {
			if d.Error == "" {
				t.Errorf("negative id %d reported no error", ids[i])
			}
			continue
		}
		if d.Error != "" || !bytes.Equal(d.Data, docs[ids[i]]) {
			t.Errorf("id %d: %q / wrong bytes", ids[i], d.Error)
		}
	}
	// The serving layer must have been asked only for the 3 valid ids.
	if got := srv.Stats().Requests; got != 3 {
		t.Errorf("backend saw %d requests, want 3 (negatives short-circuited)", got)
	}
}

// failAfterHeaderWriter passes header writes through to the recorder but
// fails body writes, simulating a client gone before the JSON body.
type failAfterHeaderWriter struct {
	http.ResponseWriter
}

func (w failAfterHeaderWriter) Write([]byte) (int, error) {
	return 0, fmt.Errorf("client went away")
}

// TestEncodeErrorsAreLogged: a response-encoding failure on /docs and
// /stats lands in the error log instead of vanishing.
func TestEncodeErrorsAreLogged(t *testing.T) {
	docs := makeDocs(4, 8)
	var buf bytes.Buffer
	if _, err := archive.Build(&buf, archive.FromBodies(docs), archive.Options{Backend: archive.Raw}); err != nil {
		t.Fatal(err)
	}
	r, err := archive.OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	h := newMux(serve.New(r, serve.Options{}), nil, muxOptions{maxBatch: 64, errlog: log.New(&logBuf, "", 0)})

	req := httptest.NewRequest("POST", "/docs", strings.NewReader(`{"ids":[0,1]}`))
	h.ServeHTTP(failAfterHeaderWriter{httptest.NewRecorder()}, req)
	if !strings.Contains(logBuf.String(), "/docs") {
		t.Errorf("dropped /docs encode error not logged: %q", logBuf.String())
	}

	logBuf.Reset()
	h.ServeHTTP(failAfterHeaderWriter{httptest.NewRecorder()}, httptest.NewRequest("GET", "/stats", nil))
	if !strings.Contains(logBuf.String(), "/stats") {
		t.Errorf("dropped /stats encode error not logged: %q", logBuf.String())
	}
}

// TestServeShardSet: rlzd serves a directory rlz build -shards wrote as
// what it is, a collection — every document through the routed ids,
// /stats carrying one live.segments entry per shard, and POST /append
// answered 200 with the next id.
func TestServeShardSet(t *testing.T) {
	docs := makeDocs(30, 9)
	for name, opts := range allBackendOptions(docs) {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "set")
			if _, err := shard.Create(dir, archive.FromBodies(docs), shard.Options{Shards: 4, Archive: opts}); err != nil {
				t.Fatal(err)
			}
			// main's own test: this is what decides the write API is on.
			if !isCollection(dir) {
				t.Fatal("rlzd does not take a shard-built directory for a collection")
			}
			col, err := collection.Open(dir, collection.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { col.Close() })
			srv := serve.New(col, serve.Options{CacheDocs: 8, Workers: 4})
			ts := startServer(t, newMux(srv, col, muxOptions{maxBatch: 64}))

			// Every document is served through the routed ids.
			seen := map[string]int{}
			for i := 0; i < len(docs); i++ {
				resp, err := http.Get(ts.URL + "/doc/" + strconv.Itoa(i))
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET /doc/%d = %d", i, resp.StatusCode)
				}
				seen[string(body)]++
			}
			for _, want := range docs {
				if seen[string(want)] != 1 {
					t.Fatalf("document served %d times", seen[string(want)])
				}
			}
			resp, err := http.Get(ts.URL + "/doc/999")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("out-of-range over shards = %d, want 404", resp.StatusCode)
			}

			stats := func() statsResponse {
				t.Helper()
				resp, err := http.Get(ts.URL + "/stats")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var st statsResponse
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					t.Fatal(err)
				}
				if st.Live == nil {
					t.Fatal("/stats carries no live breakdown")
				}
				return st
			}
			st := stats()
			if len(st.Live.Segments) != 4 || st.Live.OpenSeg != "" {
				t.Fatalf("live.segments has %d entries (open segment %q), want the 4 shards", len(st.Live.Segments), st.Live.OpenSeg)
			}
			totalDocs, totalBytes := 0, int64(0)
			for i, seg := range st.Live.Segments {
				if seg.Path == "" || string(seg.Backend) != name {
					t.Errorf("segment %d = %+v, want a %s segment with a path", i, seg, name)
				}
				totalDocs += seg.Docs
				totalBytes += seg.Size
			}
			if totalDocs != len(docs) {
				t.Errorf("segment doc counts sum to %d, want %d", totalDocs, len(docs))
			}
			if totalBytes != st.ArchiveSize {
				t.Errorf("segment sizes sum to %d, archive_size_bytes %d", totalBytes, st.ArchiveSize)
			}

			// The write API is live on the same directory.
			resp, err = http.Post(ts.URL+"/append", "application/octet-stream", strings.NewReader("appended after the bulk build"))
			if err != nil {
				t.Fatal(err)
			}
			var ack struct{ ID int }
			err = json.NewDecoder(resp.Body).Decode(&ack)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil || ack.ID != len(docs) {
				t.Fatalf("POST /append = %d, id %d, %v; want 200 and id %d", resp.StatusCode, ack.ID, err, len(docs))
			}
			resp, err = http.Get(ts.URL + "/doc/" + strconv.Itoa(ack.ID))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(body) != "appended after the bulk build" {
				t.Errorf("GET of the appended document = %d %q", resp.StatusCode, body)
			}
			if st := stats(); len(st.Live.Segments) != 4 || st.Live.OpenDocs != 1 {
				t.Errorf("after the append: %d sealed segments, %d open documents", len(st.Live.Segments), st.Live.OpenDocs)
			}
		})
	}
}

// TestServeLegacyShardSetReadOnly: a shard directory written before
// shard sets were collections (a SHRD manifest, given here as the bytes
// that encoder wrote) is still served, as the static archive it is: reads
// work, the write API answers 405, /stats has no live breakdown.
func TestServeLegacyShardSetReadOnly(t *testing.T) {
	docs := makeDocs(5, 11)
	dir := t.TempDir()
	if _, err := archive.Create(filepath.Join(dir, "shard-0000"), archive.FromBodies(docs), archive.Options{Backend: archive.Raw}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, archive.DirManifest), []byte("SHRD\x01\x03raw\x01\x0ashard-0000\x05SHRE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if isCollection(dir) {
		t.Fatal("rlzd takes a legacy shard directory for a collection")
	}
	r, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if got := backendLabel(r); got != "raw backend" {
		t.Errorf("backendLabel = %q", got)
	}
	ts := startServer(t, newMux(serve.New(r, serve.Options{}), nil, muxOptions{maxBatch: 64}))
	for i, want := range docs {
		resp, err := http.Get(ts.URL + "/doc/" + strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("GET /doc/%d = %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/append", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /append on a legacy shard set = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.Live != nil || st.NumDocs != len(docs) {
		t.Errorf("/stats = %+v, %v", st, err)
	}
}

// TestLoadGeneratorAgainstShardedDaemon: the closed-loop load generator
// drives a daemon serving a shard-built collection, end to end.
func TestLoadGeneratorAgainstShardedDaemon(t *testing.T) {
	docs := makeDocs(40, 10)
	dir := filepath.Join(t.TempDir(), "set")
	if _, err := shard.Create(dir, archive.FromBodies(docs), shard.Options{Shards: 5, Archive: allBackendOptions(docs)["rlz"]}); err != nil {
		t.Fatal(err)
	}
	r, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	srv := serve.New(r, serve.Options{CacheDocs: 16, Workers: 4})
	ts := startServer(t, newMux(srv, nil, muxOptions{maxBatch: 64}))
	ids := workload.QueryLog(len(docs), 400, 42)
	res := workload.Run(&workload.HTTPGetter{BaseURL: ts.URL, Client: ts.Client()}, ids, 8)
	if res.Errors != 0 || res.Requests != int64(len(ids)) {
		t.Fatalf("sharded load run: %+v", res)
	}
}
