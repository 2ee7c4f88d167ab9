package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"testing"

	"rlz/internal/collection"
	"rlz/internal/serve"
)

// benchBatch is the benchmark client's batch shape: 16 documents of about
// 18 KB of page-like bytes, as json.Marshal sends them.
func benchBatch(tb testing.TB) (docs [][]byte, body []byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		var b bytes.Buffer
		for b.Len() < 18<<10 {
			fmt.Fprintf(&b, "<p class=%q>page %d paragraph %x</p>\n", "c"+strconv.Itoa(rng.Intn(8)), i, rng.Int63())
		}
		docs = append(docs, b.Bytes())
	}
	body, err := json.Marshal(appendBatchRequest{Docs: docs})
	if err != nil {
		tb.Fatal(err)
	}
	return docs, body
}

// FuzzAppendBatchBody holds the POST /append/batch decoder to encoding/json:
// for any body, the same error or none, the same error text, and the same
// documents byte for byte. One arena serves every input, as the pool has it
// serve request after request.
func FuzzAppendBatchBody(f *testing.F) {
	canonical := []string{
		`{"docs":["YQ==","","Yg==","YWJj","YWJjZA=="]}`,
		" \t\r\n{ \"docs\" :\n[ \"YQ==\" ,\r\n\t\"Yg==\" ] \n} ",
		`{"docs":[]}`,
		`{"docs":[""]}`,
	}
	for _, s := range canonical {
		f.Add([]byte(s))
		// Truncated at, and just after, every structural byte.
		for k := 0; k < len(s); k++ {
			if bytes.IndexByte([]byte(`{}[]:,"`), s[k]) >= 0 {
				f.Add([]byte(s[:k]))
				f.Add([]byte(s[:k+1]))
			}
		}
	}
	for _, s := range []string{
		``, `null`, `{}`, `[]`, `"docs"`, `{"docs":null}`, `{"docs":[null]}`, `{"docs":["YQ==",null]}`,
		`{"Docs":["YQ=="]}`, `{"DOCS":["YQ=="]}`, `{"doſs":["YQ=="]}`, `{"docs":["YQ=="]}`,
		`{"docs":["YQ\/="]}`, `{"docs":["AAAA"]}`, `{"docs":["YQ=="]}`, `{"docs":["YW\"Jj"]}`,
		"{\"docs\":[\"YWJj\r\n\r\n\"]}", "{\"docs\":[\"YQ==\n\n\n\n\"]}", "{\"docs\":[\"YW\nJj\"]}", "{\"docs\":[\"YWJj\t\t\t\t\"]}",
		`{"docs":["YQ="]}`, `{"docs":["YQ"]}`, `{"docs":["Y==="]}`, `{"docs":["YQ=A"]}`, `{"docs":["YR=="]}`, `{"docs":["YQ==YQ=="]}`,
		`{"docs":["YQ=="]} trailing junk`, `{"docs":["YQ=="]}{"docs":["Yg=="]}`, `{"docs":["YQ=="]`,
		`{"docs":["YQ=="],"docs":["Yg=="]}`, `{"docs":["YQ=="],"other":1}`, `{"other":1,"docs":["YQ=="]}`,
		"\xef\xbb\xbf{\"docs\":[\"YQ==\"]}", `{"docs":["YQ==",]}`, `{"docs":[,"YQ=="]}`, `{"docs":["YQ==" "Yg=="]}`,
		`{"docs":[1]}`, `{"docs":"YQ=="}`, `{"docs":["Yé=="]}`, "{\"docs\":[\"Y\xe9==\"]}", "{\"docs\":[\"\xff\xfe\xfd\xfc\"]}",
	} {
		f.Add([]byte(s))
	}

	page, err := json.Marshal(appendBatchRequest{Docs: makeDocs(3, 1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(page)

	arena := new(batchArena)
	f.Fuzz(func(t *testing.T, body []byte) {
		var want appendBatchRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		got, err := arena.decode(body, nil)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("decode(%q) = %v, encoding/json %v", body, err, wantErr)
		}
		if len(got) != len(want.Docs) {
			t.Fatalf("decode(%q) = %d documents, encoding/json %d", body, len(got), len(want.Docs))
		}
		for i := range got {
			if !bytes.Equal(got[i], want.Docs[i]) {
				t.Fatalf("decode(%q) document %d = %q, encoding/json %q", body, i, got[i], want.Docs[i])
			}
		}
	})
}

// BenchmarkAppendBatchBody decodes the benchmark client's batch body with
// encoding/json, which POST /append/batch ran on every body before, and
// with the handler's decoder.
func BenchmarkAppendBatchBody(b *testing.B) {
	_, body := benchBatch(b)
	b.Run("json.Decoder", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req appendBatchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil || len(req.Docs) != 16 {
				b.Fatal(err)
			}
		}
	})
	b.Run("arena", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := batchArenas.Get().(*batchArena)
			if docs, err := a.decode(body, nil); err != nil || len(docs) != 16 {
				b.Fatal(err)
			}
			a.put()
		}
	})
}

// TestAppendBatchAllocations pins what a warm POST /append/batch of the
// benchmark's 16 × 18 KB shape allocates through the connection loop: the
// body buffer and the decoded documents are pooled, so a request allocates
// a small fraction of its 390 KB body.
func TestAppendBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	dir := filepath.Join(t.TempDir(), "live")
	if err := collection.Init(dir); err != nil {
		t.Fatal(err)
	}
	col, err := collection.Open(dir, collection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { col.Close() })
	h := newMux(serve.New(col, serve.Options{}), col, muxOptions{maxBatch: 16})

	docs, body := benchBatch(t)
	raw := append([]byte("POST /append/batch HTTP/1.1\r\nHost: rlzd\r\nContent-Length: "+strconv.Itoa(len(body))+"\r\n\r\n"), body...)
	mc := &memConn{}
	c := newServer(nil, h).newConn(mc)
	const runs = 20
	n := bytesPerRun(runs, func() {
		mc.in.Reset(raw)
		mc.written = 0
		if !c.next() || mc.written == 0 {
			t.Fatal("request not served")
		}
	})
	if got, want := col.NumDocs(), (runs+1)*len(docs); got != want {
		t.Fatalf("%d documents appended, want %d", got, want)
	}
	for i, want := range docs {
		if got, err := col.Get(runs*len(docs) + i); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("document %d of the last batch read back as %d bytes (%v), want %d", i, len(got), err, len(want))
		}
	}
	if n >= 32<<10 {
		t.Errorf("a warm POST /append/batch of %d bytes allocates %d bytes, want < 32 KiB", len(body), n)
	}
	t.Logf("bytes allocated per batch: %d (body %d bytes)", n, len(body))
}
