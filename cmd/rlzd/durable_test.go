package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rlz/internal/collection"
	"rlz/internal/serve"
)

// newAdmissionServer builds an rlzd handler over a live collection opened
// with explicit admission options, so backpressure is reachable in-test.
func newAdmissionServer(t *testing.T, copts collection.Options, mopts muxOptions) (*testServer, *serve.Server, *collection.Collection) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "live")
	if err := collection.Init(dir); err != nil {
		t.Fatal(err)
	}
	col, err := collection.Open(dir, copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { col.Close() })
	srv := serve.New(col, serve.Options{})
	ts := startServer(t, newMux(srv, col, mopts))
	return ts, srv, col
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// postRaw posts body to url as it is and returns the status and the
// response body.
func postRaw(t *testing.T, url string, body io.Reader) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// postShort sends a POST to path whose body ends, with the client's side
// of the connection, 4096 - len(body) bytes short of its Content-Length,
// and returns the status of the answer.
func postShort(t *testing.T, addr, path, body string) int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST "+path+" HTTP/1.1\r\nHost: rlzd\r\nContent-Length: 4096\r\n\r\n"+body); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// chunked hides the reader's type, and with it the length: the client
// sends the body chunked.
func chunked(b []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(b)} }

// TestAppendBatchEndpoint: a batch lands in order, ids are contiguous,
// and every document is readable byte-identical right away — whether the
// body came chunked, and whether it is in the canonical shape the handler
// decodes itself or in one it leaves to encoding/json (a null document, a
// key in another case, bytes after the object), which is answered as
// encoding/json has it.
func TestAppendBatchEndpoint(t *testing.T) {
	ts, _, col := newAdmissionServer(t, collection.Options{}, muxOptions{maxBatch: 16})
	docs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma"), {}, []byte("epsilon")}
	resp, body := postJSON(t, ts.URL+"/append/batch", appendBatchRequest{Docs: docs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch append = %d: %s", resp.StatusCode, body)
	}
	var out appendBatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if len(out.IDs) != len(docs) {
		t.Fatalf("acked %d ids, want %d: %s", len(out.IDs), len(docs), body)
	}
	for i, id := range out.IDs {
		if id != i {
			t.Fatalf("ids = %v, want contiguous from 0", out.IDs)
		}
		got, err := col.Get(id)
		if err != nil || !bytes.Equal(got, docs[i]) {
			t.Fatalf("doc %d after batch = (%q, %v), want %q", id, got, err, docs[i])
		}
	}

	big := bytes.Repeat([]byte("a chunked batch document "), 2000)
	bigBody, err := json.Marshal(appendBatchRequest{Docs: [][]byte{big, []byte("a")}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body io.Reader
		want [][]byte
	}{
		{"chunked", chunked(bigBody), [][]byte{big, []byte("a")}},
		{"null document", strings.NewReader(`{"docs":["YQ==",null]}`), [][]byte{[]byte("a"), {}}},
		{"key in another case", strings.NewReader(`{"Docs":["Yg=="]}`), [][]byte{[]byte("b")}},
		{"escaped", strings.NewReader(`{"docs":["Y\u0077=="]}`), [][]byte{[]byte("c")}},
		{"trailing junk", strings.NewReader(`{"docs":["ZA=="]} and then {not json`), [][]byte{[]byte("d")}},
	} {
		status, body := postRaw(t, ts.URL+"/append/batch", tc.body)
		var out appendBatchResponse
		if err := json.Unmarshal(body, &out); status != http.StatusOK || err != nil || len(out.IDs) != len(tc.want) {
			t.Fatalf("%s: batch append = %d %s, want 200 and %d ids", tc.name, status, body, len(tc.want))
		}
		for i, id := range out.IDs {
			if got, err := col.Get(id); err != nil || !bytes.Equal(got, tc.want[i]) {
				t.Fatalf("%s: document %d read back as %d bytes (%v), want %q", tc.name, id, len(got), err, tc.want[i])
			}
		}
	}
}

// TestAppendBatchConcurrentClients: two clients append different batches
// at once, and every acknowledged id reads back as what that client sent —
// the body buffers and arenas the requests share through the pools never
// carry one batch's bytes into another.
func TestAppendBatchConcurrentClients(t *testing.T) {
	ts, _, col := newAdmissionServer(t, collection.Options{}, muxOptions{maxBatch: 16})
	const clients, batches = 2, 40
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				docs := make([][]byte, 1+(g+b)%8)
				for i := range docs {
					docs[i] = bytes.Repeat([]byte(fmt.Sprintf("<c%d b%d d%d>", g, b, i)), 1+(g*batches+b*8+i)*37%2000)
				}
				raw, err := json.Marshal(appendBatchRequest{Docs: docs})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/append/batch", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				var out appendBatchResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || len(out.IDs) != len(docs) {
					t.Errorf("client %d batch %d: %d ids (%v), want %d", g, b, len(out.IDs), err, len(docs))
					return
				}
				for i, id := range out.IDs {
					if got, err := col.Get(id); err != nil || !bytes.Equal(got, docs[i]) {
						t.Errorf("client %d batch %d document %d read back as id %d: %d bytes, want %d (%v)", g, b, i, id, len(got), len(docs[i]), err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAppendBatchRejects: empty batches 400, over-count batches 413,
// a body one byte past -max-doc 413, malformed JSON 400, a body shorter
// than its Content-Length 400 — and none of them appends anything.
func TestAppendBatchRejects(t *testing.T) {
	const maxDoc = 4 << 10
	ts, _, col := newAdmissionServer(t, collection.Options{}, muxOptions{maxBatch: 16, appendBatch: 2, maxDoc: maxDoc})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"empty", appendBatchRequest{}, http.StatusBadRequest},
		{"over count", appendBatchRequest{Docs: [][]byte{[]byte("a"), []byte("b"), []byte("c")}}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/append/batch", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s = %d, want %d: %s", tc.name, resp.StatusCode, tc.want, body)
		}
	}
	resp, err := http.Post(ts.URL+"/append/batch", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", resp.StatusCode)
	}

	// A canonical body of maxDoc+1 bytes: whitespace pads it out.
	head, tail := `{"docs":[`, `"YWJj"]}`
	over := head + strings.Repeat(" ", maxDoc+1-len(head)-len(tail)) + tail
	for _, body := range []io.Reader{strings.NewReader(over), chunked([]byte(over))} {
		if status, raw := postRaw(t, ts.URL+"/append/batch", body); status != http.StatusRequestEntityTooLarge {
			t.Errorf("body one byte past -max-doc = %d %s, want 413", status, raw)
		}
	}

	if status := postShort(t, ts.addr, "/append/batch", `{"docs":["YQ=="`); status != http.StatusBadRequest {
		t.Errorf("body shorter than its Content-Length = %d, want 400", status)
	}
	if col.NumDocs() != 0 {
		t.Fatalf("rejected batches appended %d documents", col.NumDocs())
	}
}

// TestAppendBackpressure429: once the admission budget is exhausted the
// write endpoints answer 429 with Retry-After, the shed writes are
// counted separately from errors in /stats, and draining the backlog
// (here: a compaction) reopens admission.
func TestAppendBackpressure429(t *testing.T) {
	ts, _, col := newAdmissionServer(t, collection.Options{MaxPendingDocs: 2},
		muxOptions{maxBatch: 16})
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/append", nil) // body irrelevant; raw bytes endpoint
		_ = body
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d = %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/append", "application/octet-stream", bytes.NewReader([]byte("shed me")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget append = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The batch endpoint sheds the same way, reporting the acked prefix.
	bresp, bbody := postJSON(t, ts.URL+"/append/batch", appendBatchRequest{Docs: [][]byte{[]byte("x")}})
	if bresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget batch = %d: %s", bresp.StatusCode, bbody)
	}
	var bout appendBatchResponse
	if err := json.Unmarshal(bbody, &bout); err != nil {
		t.Fatalf("decoding %q: %v", bbody, err)
	}
	if len(bout.IDs) != 0 || bout.Error == "" {
		t.Fatalf("over-budget batch response = %+v", bout)
	}

	// Shed writes are visible in /stats as backpressure, not errors.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Backpressure != 2 {
		t.Fatalf("stats backpressure = %d, want 2", st.Backpressure)
	}

	// Draining the backlog reopens admission.
	if _, err := col.Compact(collection.CompactOptions{}); err != nil {
		t.Fatalf("compact: %v", err)
	}
	resp2, err := http.Post(ts.URL+"/append", "application/octet-stream", bytes.NewReader([]byte("admitted again")))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("append after drain = %d, want 200", resp2.StatusCode)
	}
}

// TestAppendBatchPartialAck: when admission closes mid-batch the acked
// prefix is reported alongside the 429 — those documents are durable and
// keep their ids.
func TestAppendBatchPartialAck(t *testing.T) {
	ts, _, col := newAdmissionServer(t, collection.Options{MaxPendingDocs: 2},
		muxOptions{maxBatch: 16})
	docs := [][]byte{[]byte("first"), []byte("second"), []byte("third"), []byte("fourth")}
	resp, body := postJSON(t, ts.URL+"/append/batch", appendBatchRequest{Docs: docs})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("partial batch = %d: %s", resp.StatusCode, body)
	}
	var out appendBatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if len(out.IDs) != 2 || out.Error == "" {
		t.Fatalf("partial batch response = %+v, want 2 acked ids and an error", out)
	}
	for i, id := range out.IDs {
		got, err := col.Get(id)
		if err != nil || !bytes.Equal(got, docs[i]) {
			t.Fatalf("acked doc %d = (%q, %v), want %q", id, got, err, docs[i])
		}
	}
	if col.NumDocs() != 2 {
		t.Fatalf("NumDocs = %d, want the acked prefix only", col.NumDocs())
	}
}

// TestAppendBodyHandling: the pooled, Content-Length-sized body buffer
// changes nothing a client can see — a chunked body is read whole, one
// past -max-doc is still 413, a body shorter than its Content-Length is
// still 400, the acknowledgement is byte for byte what encoding the
// two-field object gives, and buffers reused across concurrent requests
// never leak one document's bytes into another — and it is reused: a warm
// append allocates far less than its body.
func TestAppendBodyHandling(t *testing.T) {
	ts, _, col := newAdmissionServer(t, collection.Options{}, muxOptions{maxBatch: 16, maxDoc: 1 << 16})
	doc := bytes.Repeat([]byte("chunked "), 3000)
	status, ack := postRaw(t, ts.URL+"/append", chunked(doc))
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(map[string]any{"id": 0, "generation": col.Generation()}); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || string(ack) != want.String() {
		t.Fatalf("chunked append = %d %q, want 200 %q", status, ack, want.String())
	}
	if got, err := col.Get(0); err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("chunked document read back %d bytes, want %d (%v)", len(got), len(doc), err)
	}
	if status, _ := postRaw(t, ts.URL+"/append", chunked(make([]byte, 1<<16+1))); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked body past the limit = %d, want 413", status)
	}

	if status := postShort(t, ts.addr, "/append", "short"); status != http.StatusBadRequest {
		t.Fatalf("body shorter than its Content-Length = %d, want 400", status)
	}
	if n := col.NumDocs(); n != 1 {
		t.Fatalf("refused bodies left %d documents, want 1", n)
	}

	const writers, each = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				doc := bytes.Repeat([]byte(fmt.Sprintf("<w%d d%d>", g, i)), 1+(g*each+i)*7%900)
				resp, err := http.Post(ts.URL+"/append", "application/octet-stream", bytes.NewReader(doc))
				if err != nil {
					t.Error(err)
					return
				}
				var ack struct{ ID int }
				err = json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := col.Get(ack.ID); err != nil || !bytes.Equal(got, doc) {
					t.Errorf("writer %d doc %d read back as id %d: %d bytes, want %d (%v)", g, i, ack.ID, len(got), len(doc), err)
				}
			}
		}(g)
	}
	wg.Wait()

	if !raceEnabled {
		h := newMux(serve.New(col, serve.Options{}), col, muxOptions{maxBatch: 16, maxDoc: 1 << 16})
		raw := []byte("POST /append HTTP/1.1\r\nHost: rlzd\r\nContent-Length: 60000\r\n\r\n" + strings.Repeat("x", 60000))
		var in bytes.Reader
		br := bufio.NewReader(&in)
		dw := discardWriter{h: make(http.Header)}
		if n := bytesPerRun(50, func() {
			in.Reset(raw)
			req, err := http.ReadRequest(br)
			if err != nil {
				t.Fatal(err)
			}
			clear(dw.h)
			h.ServeHTTP(dw, req)
		}); n >= 60000 {
			t.Errorf("a warm POST /append of 60000 bytes allocates %d bytes: its body buffer is not reused", n)
		}
	}
}
