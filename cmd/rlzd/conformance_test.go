package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlz/internal/collection"
	"rlz/internal/serve"
)

// The conformance suite drives rlzd's connection loop and net/http.Server
// over raw TCP with the same bytes, each in front of its own copy of the same
// mux and collection, and compares what comes back: status, body,
// Content-Type, Content-Length, Retry-After, and whether the connection
// survived. Where the loop departs from net/http on purpose the row says why
// and states both transcripts.

// fixtureDocs is the collection both servers start from: a short document,
// a page-sized one, an empty one, and one large enough that a batch holding
// it outgrows any buffer.
func fixtureDocs() [][]byte {
	return [][]byte{
		[]byte("first"),
		bytes.Repeat([]byte("<p>seventeen kilobytes of page</p>\n"), 500),
		{},
		bytes.Repeat([]byte("0123456789abcdef"), 20<<10),
	}
}

// extraRoutes wraps the daemon's mux with the handlers no rlzd endpoint
// provides: one that panics, one that never reads its body, one that sets no
// Content-Type, and one whose header block outgrows the response scratch.
func extraRoutes(mux http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/panic":
			panic("handler bug")
		case "/ignore-body":
			w.Header().Set("Content-Type", "text/plain")
			io.WriteString(w, "ignored\n")
		case "/untyped":
			io.WriteString(w, "<html>no type</html>")
		case "/big-header":
			w.Header().Set("Content-Type", "text/plain")
			w.Header().Set("X-Padding", strings.Repeat("p", 2<<20))
			io.WriteString(w, "padded\n")
		default:
			mux.ServeHTTP(w, r)
		}
	})
}

// newFixtureHandler builds the handler of one side of the comparison.
func newFixtureHandler(t testing.TB, mopts muxOptions) http.Handler {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "live")
	if err := collection.Init(dir); err != nil {
		t.Fatal(err)
	}
	col, err := collection.Open(dir, collection.Options{Async: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { col.Close() })
	for _, d := range fixtureDocs() {
		if _, err := col.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	if mopts.maxBatch == 0 {
		mopts.maxBatch = 64
	}
	mopts.errlog = log.New(io.Discard, "", 0)
	return extraRoutes(newMux(serve.New(col, serve.Options{CacheDocs: 8}), col, mopts))
}

// syncBuffer collects a server's error log.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// take returns what was logged and forgets it.
func (s *syncBuffer) take() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.b.Reset()
	return s.b.String()
}

// side is one server under comparison and the transcript of one row.
type side struct {
	t    *testing.T
	name string
	addr string
	logs *syncBuffer
	log  []string
}

// startSides serves two equal fixtures, one behind the loop and one behind
// net/http, with the given deadlines on both.
func startSides(t *testing.T, mopts muxOptions, readTimeout, writeTimeout time.Duration) (loop, std *side) {
	t.Helper()
	loop = &side{t: t, name: "loop", logs: &syncBuffer{}}
	ts := startServer(t, newFixtureHandler(t, mopts), func(s *server) {
		s.readTimeout, s.writeTimeout = readTimeout, writeTimeout
		s.errlog = log.New(loop.logs, "", 0)
	})
	loop.addr = ts.addr

	std = &side{t: t, name: "net/http", logs: &syncBuffer{}}
	hs := httptest.NewUnstartedServer(newFixtureHandler(t, mopts))
	hs.Config.ReadTimeout, hs.Config.WriteTimeout = readTimeout, writeTimeout
	hs.Config.ErrorLog = log.New(std.logs, "", 0)
	hs.Start()
	t.Cleanup(hs.Close)
	std.addr = hs.Listener.Addr().String()
	return loop, std
}

// wireConn is one client connection of a row.
type wireConn struct {
	s  *side
	nc net.Conn
	br *bufio.Reader
}

func (s *side) dial() *wireConn {
	s.t.Helper()
	nc, err := net.Dial("tcp", s.addr)
	if err != nil {
		s.t.Fatal(err)
	}
	s.t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(20 * time.Second))
	return &wireConn{s: s, nc: nc, br: bufio.NewReader(nc)}
}

func (c *wireConn) send(raw string) {
	c.s.t.Helper()
	if _, err := io.WriteString(c.nc, raw); err != nil {
		c.s.log = append(c.s.log, "send failed")
	}
}

// recv reads one response to a request of the given method and adds it to
// the transcript; opts may hold "nobody" to leave the body out of the
// comparison (it carries timings) or "status" to compare the status alone.
func (c *wireConn) recv(method string, opts ...string) (status int, header http.Header, body []byte) {
	c.s.t.Helper()
	resp, err := http.ReadResponse(c.br, &http.Request{Method: method})
	if err != nil {
		c.s.log = append(c.s.log, "no response")
		return 0, nil, nil
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Close { // ReadResponse folds the header into this field
		resp.Header.Set("Connection", "close")
	}
	line := fmt.Sprintf("%d %s type=%q length=%q retry=%q body=%d:%x", resp.StatusCode, resp.Proto,
		resp.Header.Get("Content-Type"), resp.Header.Get("Content-Length"), resp.Header.Get("Retry-After"),
		len(body), sha256.Sum256(body))
	for _, o := range opts {
		switch o {
		case "nobody":
			line = line[:strings.Index(line, " length=")]
		case "status":
			line = strconv.Itoa(resp.StatusCode)
		}
	}
	if err != nil {
		line += " truncated"
	}
	c.s.log = append(c.s.log, line)
	return resp.StatusCode, resp.Header, body
}

// ended records whether the server has closed the connection or answers
// another request on it.
func (c *wireConn) ended() bool {
	c.nc.SetDeadline(time.Now().Add(2 * time.Second))
	io.WriteString(c.nc, get("/doc/0")) // fails or goes nowhere if the server is gone
	resp, err := http.ReadResponse(c.br, nil)
	var ne net.Error
	open := err == nil || errors.As(err, &ne) && ne.Timeout()
	if err == nil {
		io.Copy(io.Discard, resp.Body)
	}
	c.s.log = append(c.s.log, map[bool]string{true: "left open", false: "closed"}[open])
	c.nc.SetDeadline(time.Now().Add(20 * time.Second))
	return !open
}

// closedWithin waits, sending nothing, for the server to close the
// connection.
func (c *wireConn) closedWithin(d time.Duration) bool {
	c.nc.SetReadDeadline(time.Now().Add(d))
	_, err := c.br.ReadByte()
	c.s.log = append(c.s.log, map[bool]string{true: "closed", false: "left open"}[err == io.EOF])
	return err == io.EOF
}

func get(path string) string { return "GET " + path + " HTTP/1.1\r\nHost: rlzd\r\n\r\n" }

func post(path, body string) string {
	return "POST " + path + " HTTP/1.1\r\nHost: rlzd\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

type conformanceRow struct {
	name string
	run  func(t *testing.T, s *side)
	// differs says why the loop's transcript is not net/http's; the row then
	// states both.
	differs           string
	wantLoop, wantStd []string
}

func TestLoopMatchesNetHTTP(t *testing.T) {
	docs := fixtureDocs()
	rows := []conformanceRow{
		{name: "get", run: func(t *testing.T, s *side) {
			c := s.dial()
			for id, want := range docs {
				c.send(get("/doc/" + strconv.Itoa(id)))
				if status, h, body := c.recv("GET"); s.name == "loop" &&
					(status != 200 || !bytes.Equal(body, want) || h.Get("Content-Length") != strconv.Itoa(len(want))) {
					t.Errorf("GET /doc/%d = %d, %d bytes, Content-Length %q; want 200 and %d bytes", id, status, len(body), h.Get("Content-Length"), len(want))
				}
			}
			c.ended()
		}},
		{name: "zero-byte-document", run: func(t *testing.T, s *side) {
			c := s.dial()
			c.send(get("/doc/2") + post("/docs", `{"ids":[2]}`))
			c.recv("GET")
			c.recv("POST")
		}},
		{name: "errors", run: func(t *testing.T, s *side) {
			c := s.dial()
			for _, req := range []string{get("/doc/99"), get("/doc/-1"), get("/doc/abc"), get("/doc/"), get("/nope"),
				post("/doc/1", ""), post("/stats", ""), get("/docs"), get("//doc/1"),
				post("/docs", `{"ids":[`), post("/docs", `{"ids":[]}`), post("/docs", `{"ids":[`+strings.Repeat("1,", 64)+`1]}`),
				post("/append/batch", `{"docs":[]}`),
				"DELETE /doc/99 HTTP/1.1\r\nHost: rlzd\r\n\r\n"} {
				c.send(req)
				c.recv(req[:strings.Index(req, " ")])
			}
			c.ended()
		}},
		{name: "head", run: func(t *testing.T, s *side) {
			c := s.dial()
			c.send("HEAD /doc/1 HTTP/1.1\r\nHost: rlzd\r\n\r\n" + get("/doc/0"))
			status, h, body := c.recv("HEAD")
			if status != 200 || len(body) != 0 || h.Get("Content-Length") != strconv.Itoa(len(docs[1])) {
				t.Errorf("%s: HEAD /doc/1 = %d, %d body bytes, Content-Length %q", s.name, status, len(body), h.Get("Content-Length"))
			}
			// Had the HEAD carried a body, this would parse it as a response.
			if _, _, body := c.recv("GET"); !bytes.Equal(body, docs[0]) {
				t.Errorf("%s: GET after HEAD read %q", s.name, body)
			}
		}},
		{name: "http10", run: func(t *testing.T, s *side) {
			c := s.dial()
			c.send("GET /doc/1 HTTP/1.0\r\n\r\n")
			c.recv("GET")
			c.ended()
		}},
		{name: "http10-keep-alive", run: func(t *testing.T, s *side) {
			c := s.dial()
			c.send("GET /doc/1 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
			if _, h, _ := c.recv("GET"); !strings.EqualFold(h.Get("Connection"), "keep-alive") {
				t.Errorf("%s: HTTP/1.0 keep-alive answered Connection: %q", s.name, h.Get("Connection"))
			}
			c.send("GET /doc/0 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
			c.recv("GET")
			c.ended()
		}},
		{name: "http10-batch-ends-with-close", run: func(t *testing.T, s *side) {
			// A body of undeclared length too large to buffer cannot be
			// chunked for HTTP/1.0: it ends when the connection does.
			c := s.dial()
			body := `{"ids":[3,1,3]}`
			c.send("POST /docs HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body)
			c.recv("POST")
			c.ended()
		}},
		{name: "connection-close", run: func(t *testing.T, s *side) {
			c := s.dial()
			c.send("GET /doc/1 HTTP/1.1\r\nHost: rlzd\r\nConnection: close\r\n\r\n")
			if _, h, _ := c.recv("GET"); h.Get("Connection") != "close" {
				t.Errorf("%s: Connection: close answered Connection: %q", s.name, h.Get("Connection"))
			}
			c.ended()
		}},
		{name: "pipelined", run: func(t *testing.T, s *side) {
			c := s.dial()
			c.send(get("/doc/0") + get("/doc/1")) // one segment
			c.recv("GET")
			c.recv("GET")
			c.ended()
		}},
		{name: "batch-chunked", run: func(t *testing.T, s *side) {
			c := s.dial()
			c.send(post("/docs", `{"ids":[3,0,99,-4,3]}`) + post("/docs", `{"ids":[0]}`))
			if _, h, _ := c.recv("POST"); s.name == "loop" && h.Get("Content-Length") != "" {
				t.Errorf("large batch declared Content-Length %q", h.Get("Content-Length"))
			}
			if _, h, _ := c.recv("POST"); s.name == "loop" && h.Get("Content-Length") == "" {
				t.Error("small batch was not sent with a Content-Length")
			}
			c.ended()
		}},
		{name: "expect-continue", run: func(t *testing.T, s *side) {
			c := s.dial()
			doc := strings.Repeat("two mebibytes of upload ", 2<<20/24)
			c.send("POST /append HTTP/1.1\r\nHost: rlzd\r\nExpect: 100-continue\r\nContent-Length: " + strconv.Itoa(len(doc)) + "\r\n\r\n")
			if status, _, _ := c.recv("POST", "status"); status != 100 {
				t.Fatalf("%s: no 100 Continue before the body was sent", s.name)
			}
			c.send(doc)
			c.recv("POST")
			c.send(get("/doc/4"))
			if _, _, body := c.recv("GET"); string(body) != doc {
				t.Errorf("%s: upload read back as %d bytes, want %d", s.name, len(body), len(doc))
			}
		}},
		{name: "expect-continue-refused-unread", differs: "both answer Connection: close without a 100 when the handler never asked for the body; the loop then closes, net/http waits out its read deadline for a body the client was never told to send",
			run: func(t *testing.T, s *side) {
				c := s.dial()
				c.send("POST /ignore-body HTTP/1.1\r\nHost: rlzd\r\nExpect: 100-continue\r\nContent-Length: 1000\r\n\r\n")
				_, h, _ := c.recv("POST", "status")
				s.log = append(s.log, "connection="+h.Get("Connection"))
				c.ended()
			}, wantLoop: []string{"200", "connection=close", "closed"}, wantStd: []string{"200", "connection=close", "left open"}},
		{name: "chunked-request-body", run: func(t *testing.T, s *side) {
			c := s.dial()
			c.send("POST /append HTTP/1.1\r\nHost: rlzd\r\nTransfer-Encoding: chunked\r\n\r\n" +
				"5\r\nhello\r\n1;ext=1\r\n \r\n6\r\nworld!\r\n0\r\nTrailer-Field: x\r\n\r\n" + get("/doc/4"))
			c.recv("POST")
			if _, _, body := c.recv("GET"); string(body) != "hello world!" {
				t.Errorf("%s: chunked upload read back as %q", s.name, body)
			}
		}},
		{name: "smuggling-both-lengths", run: func(t *testing.T, s *side) {
			// Transfer-Encoding wins and the bytes after the last chunk are
			// the next request, whatever Content-Length claimed.
			c := s.dial()
			c.send("POST /append HTTP/1.1\r\nHost: rlzd\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\n" +
				"3\r\nabc\r\n0\r\n\r\n" + get("/doc/4"))
			c.recv("POST")
			c.recv("GET")
			c.send("POST /append HTTP/1.1\r\nHost: rlzd\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcde")
			c.recv("POST")
			c.ended()
		}},
		{name: "write-api", run: func(t *testing.T, s *side) {
			c := s.dial()
			c.send(post("/append", "appended") + post("/append/batch", `{"docs":["YQ==","","Yg=="]}`) +
				"DELETE /doc/5 HTTP/1.1\r\nHost: rlzd\r\n\r\n" + get("/doc/5") + get("/doc/7") + post("/compact", "") + get("/doc/4") + get("/stats"))
			for _, m := range []string{"POST", "POST", "DELETE", "GET", "GET"} {
				c.recv(m)
			}
			c.recv("POST", "nobody") // compaction result carries a duration
			c.recv("GET")
			c.recv("GET", "nobody") // latency quantiles
			c.ended()
		}},
		{name: "header-cap", run: func(t *testing.T, s *side) {
			c := s.dial()
			c.send("GET /doc/0 HTTP/1.1\r\nHost: rlzd\r\nX-Fill: " + strings.Repeat("f", 1<<20-512) + "\r\n\r\n")
			c.recv("GET") // under the cap: served
			go c.send("GET /doc/0 HTTP/1.1\r\nHost: rlzd\r\nX-Fill: " + strings.Repeat("f", 1<<20+16<<10) + "\r\n\r\n")
			if status, _, _ := c.recv("GET"); status != http.StatusRequestHeaderFieldsTooLarge {
				t.Errorf("%s: a header past 1 MiB = %d, want 431", s.name, status)
			}
			c.ended()
		}},
		{name: "malformed-request-line", run: func(t *testing.T, s *side) {
			for _, raw := range []string{"GARBAGE\r\n\r\n", "GET /doc/0 HTTP/1.1\r\nHost: rlzd\r\nbad header line\r\n\r\n", "GET /doc/0 HTTP/1.1\r\nHost: rlzd\r\nContent-Length: x\r\n\r\n"} {
				c := s.dial()
				c.send(raw)
				if status, _, _ := c.recv("GET"); status != http.StatusBadRequest {
					t.Errorf("%s: %q = %d, want 400", s.name, raw, status)
				}
				c.ended()
			}
		}},
		{name: "unsupported-version", run: func(t *testing.T, s *side) {
			c := s.dial()
			c.send("GET /doc/0 HTTP/2.0\r\nHost: rlzd\r\n\r\n")
			c.recv("GET", "status") // net/http appends the reason to the body
			c.ended()
		}},
		{name: "handler-panic", run: func(t *testing.T, s *side) {
			c := s.dial()
			c.send(get("/doc/0") + get("/panic") + get("/doc/0"))
			c.recv("GET")
			c.recv("GET") // no response: the connection is gone
			c.ended()
			if logged := s.logs.String(); !strings.Contains(logged, "handler bug") || !strings.Contains(logged, "panic") {
				t.Errorf("%s: panic not logged: %q", s.name, logged)
			}
			c = s.dial() // the daemon is still up
			c.send(get("/doc/0"))
			c.recv("GET")
		}},
		{name: "no-host", differs: "the loop does not require Host: rlzd routes on the path alone, so HTTP/1.1 without it is served",
			run: func(t *testing.T, s *side) {
				c := s.dial()
				c.send("GET /doc/0 HTTP/1.1\r\n\r\n")
				c.recv("GET", "status")
				c.ended()
			}, wantLoop: []string{"200", "left open"}, wantStd: []string{"400", "closed"}},
		{name: "no-content-sniffing", differs: "the loop sends the Content-Type the handler set and never guesses one; every rlzd handler sets its own",
			run: func(t *testing.T, s *side) {
				c := s.dial()
				c.send(get("/untyped"))
				_, h, _ := c.recv("GET", "status")
				s.log = append(s.log, "type="+h.Get("Content-Type"))
			}, wantLoop: []string{"200", "type="}, wantStd: []string{"200", "type=text/html; charset=utf-8"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			loop, std := startSides(t, muxOptions{}, 30*time.Second, 30*time.Second)
			row.run(t, loop)
			row.run(t, std)
			if row.differs != "" {
				if fmt.Sprint(loop.log) != fmt.Sprint(row.wantLoop) || fmt.Sprint(std.log) != fmt.Sprint(row.wantStd) {
					t.Errorf("loop %q (want %q), net/http %q (want %q)\ndeliberate difference: %s", loop.log, row.wantLoop, std.log, row.wantStd, row.differs)
				}
				return
			}
			if len(loop.log) != len(std.log) {
				t.Fatalf("loop answered %q, net/http %q", loop.log, std.log)
			}
			for i := range loop.log {
				if loop.log[i] != std.log[i] {
					t.Errorf("step %d: loop %q, net/http %q", i, loop.log[i], std.log[i])
				}
			}
		})
	}
}

// TestReadDeadline: a client that stalls inside a request header, or between
// requests, is disconnected when the read deadline passes, without a reply.
func TestReadDeadline(t *testing.T) {
	loop, std := startSides(t, muxOptions{}, 150*time.Millisecond, 30*time.Second)
	for _, s := range []*side{loop, std} {
		for _, partial := range []string{"GET /doc/0 HTTP/1.1\r\nHost:", ""} {
			c := s.dial()
			c.send(get("/doc/0") + partial)
			c.recv("GET")
			start := time.Now()
			if !c.closedWithin(2 * time.Second) {
				t.Errorf("%s: stalled after %q and was not disconnected", s.name, partial)
			}
			if d := time.Since(start); d < 100*time.Millisecond || d > time.Second {
				t.Errorf("%s: stalled after %q, disconnected after %v, want ~150ms", s.name, partial, d)
			}
		}
		// A stalled body gets a fresh window, then the handler's 400.
		c := s.dial()
		c.send("POST /append HTTP/1.1\r\nHost: rlzd\r\nContent-Length: 100\r\n\r\nhalf")
		c.recv("POST", "nobody") // the message names the socket
	}
	if fmt.Sprint(loop.log) != fmt.Sprint(std.log) {
		t.Errorf("loop %q, net/http %q", loop.log, std.log)
	}
}

// TestWriteDeadline: a client that asks for more than the socket buffers
// hold and never reads is disconnected when the write deadline passes; the
// goroutine serving it does not wait for the client.
func TestWriteDeadline(t *testing.T) {
	big := bytes.Repeat([]byte("sixteen megabytes nobody reads.\n"), 16<<20/32)
	release := make(chan struct{})
	var once sync.Once
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(big)))
		_, err := w.Write(big)
		if err == nil {
			t.Error("a write nobody read succeeded")
		}
		once.Do(func() { close(release) })
	})
	ts := startServer(t, h, func(s *server) { s.writeTimeout = 200 * time.Millisecond })
	nc, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, get("/")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-release:
	case <-time.After(5 * time.Second):
		t.Fatal("write to a stalled reader still blocked after 5s under a 200ms deadline")
	}
	// What the client then finds is a truncated body and a closed connection.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := io.Copy(io.Discard, nc)
	if err != nil || n >= int64(len(big)) {
		t.Errorf("stalled reader then read %d bytes (%v), want a short body and EOF", n, err)
	}
}

// TestUnreadBodyDrainOrClose: request bytes a handler did not consume are
// never parsed as the next request. A bounded remainder is drained and the
// connection serves the pipelined request behind it; anything more closes
// the connection after the reply.
func TestUnreadBodyDrainOrClose(t *testing.T) {
	// The body's tail is itself a well-formed request for a document that
	// exists: were it parsed, a second 200 would come back.
	smuggled := get("/doc/1")
	for _, tc := range []struct {
		name, path string
		pad        int
		wantStatus int
		wantNext   bool // the pipelined GET behind the body is answered
	}{
		{"over-max-doc-small", "/append", 100 << 10, 413, true},
		{"over-max-doc-large", "/append", 1 << 20, 413, false},
		{"handler-ignores-small", "/ignore-body", 100 << 10, 200, true},
		{"handler-ignores-large", "/ignore-body", 1 << 20, 200, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop, std := startSides(t, muxOptions{maxDoc: 64 << 10}, 30*time.Second, 30*time.Second)
			sides := []*side{loop, std}
			if tc.name == "over-max-doc-small" {
				// net/http marks a MaxBytesReader refusal Connection: close and
				// never drains; the loop cannot see that verdict and drains
				// what is small. Both are safe; only the loop is held to this.
				sides = sides[:1]
			}
			for _, s := range sides {
				c := s.dial()
				body := strings.Repeat("x", tc.pad) + smuggled
				go c.send(post(tc.path, body) + get("/doc/0"))
				if status, _, _ := c.recv("POST"); status != tc.wantStatus {
					t.Errorf("%s: POST %s with %d unread bytes = %d, want %d", s.name, tc.path, len(body), status, tc.wantStatus)
				}
				if tc.wantNext {
					if _, _, got := c.recv("GET"); string(got) != "first" {
						t.Errorf("%s: request behind the drained body answered %q, want document 0", s.name, got)
					}
					c.send(get("/doc/0"))
					c.recv("GET")
				} else {
					c.recv("GET") // nothing: not the smuggled request, not the pipelined one
					c.ended()
				}
			}
			if s := loop; !tc.wantNext && (len(s.log) != 3 || s.log[1] != "no response" || s.log[2] != "closed") {
				t.Errorf("loop: connection with %d unread bytes went on: %q", tc.pad, s.log)
			}
			if len(sides) == 2 && fmt.Sprint(loop.log) != fmt.Sprint(std.log) {
				t.Errorf("loop %q, net/http %q", loop.log, std.log)
			}
		})
	}
}

// TestScratchNotKeptOnceGrown: a response whose header block outgrew the
// connection's scratch does not leave the grown buffer on the connection.
func TestScratchNotKeptOnceGrown(t *testing.T) {
	var scratchCap atomic.Int64
	fixture := newFixtureHandler(t, muxOptions{})
	ts := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		scratchCap.Store(int64(cap(w.(*response).buf)))
		fixture.ServeHTTP(w, r)
	}))
	loop := &side{t: t, name: "loop", addr: ts.addr}
	c := loop.dial()
	c.send(get("/big-header"))
	if status, h, _ := c.recv("GET"); status != 200 || len(h.Get("X-Padding")) != 2<<20 {
		t.Fatalf("GET /big-header = %d with %d bytes of padding", status, len(h.Get("X-Padding")))
	}
	c.send(get("/doc/0"))
	c.recv("GET")
	if got := scratchCap.Load(); got != scratchSize {
		t.Errorf("scratch on the request after a 2 MiB header block has capacity %d, want %d", got, scratchSize)
	}
}

// countingReader is an endless `1,1,1,...` that counts what was taken.
type countingReader struct {
	prefix string
	n      int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n := copy(p, r.prefix)
	r.prefix = r.prefix[n:]
	for i := n; i < len(p); i++ {
		p[i] = "1,"[(r.n+int64(i))&1]
	}
	r.n += int64(len(p))
	return len(p), nil
}

// TestPostDocsBodyCap: a POST /docs body larger than -max-batch ids can be
// is refused with 413 at the cap, not parsed to its end first.
func TestPostDocsBodyCap(t *testing.T) {
	const maxBatch = 8
	h := newFixtureHandler(t, muxOptions{maxBatch: maxBatch})
	body := &countingReader{prefix: `{"ids":[`}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/docs", io.LimitReader(body, 8<<20)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /docs with an endless id list = %d, want 413", rec.Code)
	}
	if limit := int64(64 + 21*maxBatch); body.n > limit+4096 {
		t.Errorf("handler read %d bytes of the body, want it to stop near the %d-byte cap", body.n, limit)
	}
	// The largest legitimate body still fits.
	ids := strings.Repeat("-9223372036854775808,", maxBatch)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/docs", strings.NewReader(`{"ids":[`+ids[:len(ids)-1]+`]}`)))
	if rec.Code != http.StatusOK {
		t.Errorf("POST /docs with %d longest-possible ids = %d: %s", maxBatch, rec.Code, rec.Body)
	}
}
