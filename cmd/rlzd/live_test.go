package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/collection"
	"rlz/internal/serve"
	"rlz/internal/workload"
)

// newLiveServer spins up the rlzd handler over a fresh live collection.
func newLiveServer(t *testing.T, cacheDocs int) (*testServer, *serve.Server, *collection.Collection) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "live")
	if err := collection.Init(dir); err != nil {
		t.Fatal(err)
	}
	r, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	col, ok := archive.As[*collection.Collection](r)
	if !ok {
		t.Fatal("archive.Open did not yield a collection")
	}
	srv := serve.New(r, serve.Options{CacheDocs: cacheDocs, Workers: 4})
	ts := startServer(t, newMux(srv, col, muxOptions{maxBatch: 64}))
	return ts, srv, col
}

func httpGetDoc(t *testing.T, ts *testServer, id int) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/doc/" + strconv.Itoa(id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestLiveCollectionLifecycle is the acceptance test of PR 5: a document
// appended over HTTP to a running rlzd is readable immediately without a
// restart; after compaction it is served from an RLZ segment with
// byte-identical content under the same id; deleted ids return 404
// across generations. Appends race a closed-loop reader workload
// throughout, so `go test -race` exercises the swap path under load.
func TestLiveCollectionLifecycle(t *testing.T) {
	docs := makeDocs(120, 11)
	ts, _, col := newLiveServer(t, 32)
	hg := &workload.HTTPGetter{BaseURL: ts.URL, Client: ts.Client()}

	// Phase 1: append the first half over HTTP; each document must be
	// readable immediately under its returned id.
	for i := 0; i < 60; i++ {
		id, err := hg.Append(docs[i])
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if id != i {
			t.Fatalf("append %d got id %d", i, id)
		}
		if code, body := httpGetDoc(t, ts, id); code != http.StatusOK || !bytes.Equal(body, docs[i]) {
			t.Fatalf("immediate read of %d: code %d, %d bytes", id, code, len(body))
		}
	}

	// Phase 2: readers hammer the served prefix while the second half is
	// appended and a compaction swaps generations mid-traffic.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			var buf []byte
			for i := seed; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := i % 60
				var err error
				buf, err = hg.GetAppend(buf[:0], id)
				if err != nil {
					t.Errorf("read %d under load: %v", id, err)
					return
				}
				if !bytes.Equal(buf, docs[id]) {
					t.Errorf("read %d under load: wrong bytes", id)
					return
				}
			}
		}(w * 17)
	}
	for i := 60; i < 120; i++ {
		if _, err := hg.Append(docs[i]); err != nil {
			t.Fatalf("append %d under load: %v", i, err)
		}
		if i == 90 {
			resp, err := ts.Client().Post(ts.URL+"/compact", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /compact = %d: %s", resp.StatusCode, body)
			}
			var res collection.CompactResult
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatal(err)
			}
			if res.Docs != 91 || res.Compacted == 0 {
				t.Fatalf("compaction result %+v", res)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Phase 3: compact the remainder; every document must now be served
	// from an RLZ segment, byte-identical, same ids.
	resp, err := ts.Client().Post(ts.URL+"/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	info := col.Info()
	if info.PendingDocs != 0 {
		t.Fatalf("pending docs after full compaction: %+v", info)
	}
	for _, seg := range info.Segments {
		if seg.Backend != archive.RLZ {
			t.Fatalf("segment %s still %s", seg.Path, seg.Backend)
		}
	}
	for i, want := range docs {
		if code, body := httpGetDoc(t, ts, i); code != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("post-compaction read of %d: code %d", i, code)
		}
	}

	// Phase 4: deletes 404 immediately (cache invalidated) and across
	// the next compaction's generation swap.
	victim := 17
	if code, _ := httpGetDoc(t, ts, victim); code != http.StatusOK {
		t.Fatalf("victim unreadable before delete: %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/doc/"+strconv.Itoa(victim), nil)
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", dresp.StatusCode)
	}
	if code, _ := httpGetDoc(t, ts, victim); code != http.StatusNotFound {
		t.Fatalf("deleted doc served: %d", code)
	}
	// Deleting again 404s; deleting out-of-range 404s.
	dresp, _ = ts.Client().Do(req)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("double DELETE = %d", dresp.StatusCode)
	}
	// Append + compact once more: the tombstone must hold in the new
	// generation too.
	if _, err := hg.Append([]byte("one more")); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Compact(collection.CompactOptions{}); err != nil && !errors.Is(err, collection.ErrCompacting) {
		t.Fatal(err)
	}
	if code, _ := httpGetDoc(t, ts, victim); code != http.StatusNotFound {
		t.Fatalf("deleted doc resurrected after compaction: %d", code)
	}

	// Phase 5: /stats carries the generation breakdown.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Live == nil {
		t.Fatal("stats missing live breakdown")
	}
	if st.Live.Generation == 0 || len(st.Live.Segments) == 0 || st.Live.Tombstones != 1 {
		t.Fatalf("live stats %+v", st.Live)
	}
	if st.Backend != string(archive.Live) {
		t.Fatalf("backend = %q", st.Backend)
	}
}

// TestStatsDictBlock: after a compaction, /stats carries a per-generation
// dictionary block — id, file size, segments built against it, and the
// generation's compression ratio — under the JSON names the endpoint
// promises.
func TestStatsDictBlock(t *testing.T) {
	docs := makeDocs(40, 9)
	ts, _, _ := newLiveServer(t, 0)
	hg := &workload.HTTPGetter{BaseURL: ts.URL, Client: ts.Client()}
	for i, d := range docs {
		if _, err := hg.Append(d); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /compact = %d", resp.StatusCode)
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	raw, _ := io.ReadAll(sresp.Body)
	// Pin the JSON field names first, then check values through the
	// typed struct.
	var shape struct {
		Live struct {
			Dicts []map[string]any `json:"dicts"`
		} `json:"live"`
	}
	if err := json.Unmarshal(raw, &shape); err != nil {
		t.Fatal(err)
	}
	if len(shape.Live.Dicts) != 1 {
		t.Fatalf("stats dicts = %d entries, want 1: %s", len(shape.Live.Dicts), raw)
	}
	for _, key := range []string{
		"id", "path", "size_bytes", "segments", "raw_bytes",
		"compressed_bytes", "ratio_percent", "unused_percent",
	} {
		if _, ok := shape.Live.Dicts[0][key]; !ok {
			t.Errorf("dict block missing key %q", key)
		}
	}
	var st statsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	d := st.Live.Dicts[0]
	if d.ID == 0 || d.Path == "" || d.Size <= 0 {
		t.Errorf("dict identity %+v not plausible", d)
	}
	if d.Segments == 0 || d.Raw <= 0 || d.Compressed <= 0 || d.RatioPercent <= 0 {
		t.Errorf("dict attribution %+v not plausible", d)
	}
	// The compaction just ran against this dictionary, so usage was
	// observed: unused share is a real percentage, not the -1 sentinel.
	if d.UnusedPercent < 0 || d.UnusedPercent > 100 {
		t.Errorf("unused_percent = %v, want [0,100]", d.UnusedPercent)
	}
}

// TestMixedWorkloadAgainstLiveDaemon drives the daemon with the mixed
// read/append closed-loop generator — the load shape a live store
// exists for — and proves every appended document landed readable.
func TestMixedWorkloadAgainstLiveDaemon(t *testing.T) {
	docs := makeDocs(80, 12)
	ts, _, col := newLiveServer(t, 16)
	hg := &workload.HTTPGetter{BaseURL: ts.URL, Client: ts.Client()}
	// Seed a readable prefix.
	for i := 0; i < 40; i++ {
		if _, err := hg.Append(docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ids := workload.QueryLog(40, 400, 7)
	res := workload.RunMixed(hg, hg, ids, docs[40:], 8)
	if res.Errors != 0 {
		t.Fatalf("mixed run: %+v", res)
	}
	if res.Reads != 400 || res.Appends != 40 {
		t.Fatalf("mixed run op counts: %+v", res)
	}
	if col.NumDocs() != 80 {
		t.Fatalf("NumDocs = %d, want 80", col.NumDocs())
	}
	// Every appended document is readable; the generator's appends are
	// concurrent so ids 40..79 hold SOME permutation of docs[40:].
	got := map[string]int{}
	for i := 40; i < 80; i++ {
		code, body := httpGetDoc(t, ts, i)
		if code != http.StatusOK {
			t.Fatalf("doc %d: code %d", i, code)
		}
		got[string(body)]++
	}
	for i := 40; i < 80; i++ {
		if got[string(docs[i])] != 1 {
			t.Fatalf("appended doc %d served %d times", i, got[string(docs[i])])
		}
	}
}

// TestWriteEndpointsReadOnlyArchive: the write API answers 405 on a
// static archive instead of panicking or pretending.
func TestWriteEndpointsReadOnlyArchive(t *testing.T) {
	docs := makeDocs(5, 13)
	ts, _ := newTestServer(t, docs, archive.Options{Backend: archive.Raw}, 0, 16)
	cases := []struct {
		method, path string
	}{
		{http.MethodPost, "/append"},
		{http.MethodPost, "/append/batch"},
		{http.MethodDelete, "/doc/1"},
		{http.MethodPost, "/compact"},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte("x")))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestAppendTooLarge: the append body cap answers 413.
func TestAppendTooLarge(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "live2")
	if err := collection.Init(dir); err != nil {
		t.Fatal(err)
	}
	r2, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r2.Close() })
	col, _ := archive.As[*collection.Collection](r2)
	srv := serve.New(r2, serve.Options{})
	ts2 := startServer(t, newMux(srv, col, muxOptions{maxBatch: 16, maxDoc: 64}))
	resp, err := http.Post(ts2.URL+"/append", "application/octet-stream", bytes.NewReader(make([]byte, 200)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized append = %d, want 413", resp.StatusCode)
	}
	// An in-cap append still lands.
	resp, err = http.Post(ts2.URL+"/append", "application/octet-stream", bytes.NewReader([]byte("small")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small append = %d", resp.StatusCode)
	}
}
