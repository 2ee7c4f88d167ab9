package main

import (
	"bufio"
	"bytes"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"rlz/internal/archive"
)

// testServer is rlzd's connection loop on a loopback listener: the one
// server the handler suites run against.
type testServer struct {
	URL  string
	addr string
	hc   *http.Client
}

// Client returns a client whose connections the test's cleanup closes.
func (ts *testServer) Client() *http.Client { return ts.hc }

// startServer serves h the way main does. configure, if given, adjusts the
// server (deadlines, error log) before the first connection is accepted.
func startServer(t testing.TB, h http.Handler, configure ...func(*server)) *testServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ln, h)
	for _, f := range configure {
		f(srv)
	}
	served := make(chan error, 1)
	go func() { served <- srv.serve() }()
	ts := &testServer{URL: "http://" + ln.Addr().String(), addr: ln.Addr().String(), hc: &http.Client{Transport: &http.Transport{}}}
	t.Cleanup(func() {
		ts.hc.CloseIdleConnections()
		if err := srv.shutdown(5 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ts
}

// memConn is a connection held in memory: requests are read from in,
// responses counted and dropped.
type memConn struct {
	in      bytes.Reader
	written int
}

func (c *memConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *memConn) Write(p []byte) (int, error)      { c.written += len(p); return len(p), nil }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return nil }
func (c *memConn) RemoteAddr() net.Addr             { return nil }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// discardWriter is the cheapest possible http.ResponseWriter.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// staticHandler is the daemon's mux over fixtureDocs in a read-only
// in-memory archive.
func staticHandler(t testing.TB, opts archive.Options, cacheDocs int) http.Handler {
	t.Helper()
	h, _ := newStaticMux(t, fixtureDocs(), opts, cacheDocs, muxOptions{maxBatch: 64, errlog: log.New(io.Discard, "", 0)})
	return h
}

// bytesPerRun reports the heap bytes one call of f allocates, averaged over
// runs calls after a warm-up call. The runs see one P and no GC: sync.Pool
// keeps each P's last Put in a slot other Ps cannot take, so a goroutine
// moved to another P between requests (routine on a loaded machine) misses
// the pool and reallocates a whole body buffer and arena, and a GC empties
// the pools outright.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestGetDocAllocations pins what a GET /doc/{id} allocates at what parsing
// the request and running the mux allocate by themselves: the connection loop
// and the response writer add nothing, whether the document is a view of the
// archive or a cache hit. A whole connection adds its conn, header map and
// write scratch to that, but not its 4 KiB read buffer, which is pooled.
func TestGetDocAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	for name, h := range map[string]http.Handler{
		"view":   staticHandler(t, archive.Options{Backend: archive.Raw}, 0),
		"cached": staticHandler(t, archive.Options{Backend: archive.Block, BlockSize: 4096}, 8),
	} {
		t.Run(name, func(t *testing.T) {
			raw := []byte(get("/doc/1"))
			var in bytes.Reader
			br := bufio.NewReader(&in)
			dw := discardWriter{h: make(http.Header)}
			floor := testing.AllocsPerRun(200, func() {
				in.Reset(raw)
				req, err := http.ReadRequest(br)
				if err != nil {
					t.Fatal(err)
				}
				clear(dw.h)
				h.ServeHTTP(dw, req)
			})

			mc := &memConn{}
			c := newServer(nil, h).newConn(mc)
			want := len(fixtureDocs()[1])
			got := testing.AllocsPerRun(200, func() {
				mc.in.Reset(raw)
				mc.written = 0
				if !c.next() || mc.written < want {
					t.Fatalf("request not served: %d bytes written", mc.written)
				}
			})
			if got > floor {
				t.Errorf("GET /doc/{id} through the connection loop allocates %v times, http.ReadRequest and the mux alone %v", got, floor)
			}
			t.Logf("allocations per GET: %v (floor %v)", got, floor)

			srv := newServer(nil, h)
			conn := bytesPerRun(200, func() {
				mc.in.Reset(raw)
				srv.newConn(mc).serve()
			})
			get := bytesPerRun(200, func() {
				mc.in.Reset(raw)
				c.next()
			})
			if conn-get >= scratchSize+4<<10 {
				t.Errorf("a connection allocates %d bytes beyond its GET: a read buffer as well as the write scratch", conn-get)
			}
		})
	}
}

// FuzzConnLoop feeds arbitrary bytes to the connection loop down a net.Pipe.
// Whatever arrives, the loop must return (no hang past its deadlines, no
// goroutine left), must not panic, and must have written nothing but whole,
// well-formed responses.
func FuzzConnLoop(f *testing.F) {
	for _, seed := range []string{
		get("/doc/1"), get("/doc/0") + get("/doc/2") + get("/stats"), get("/doc/99") + get("/nope") + get("/panic") + get("/doc/0"),
		"GET /doc/1 HTTP/1.0\r\n\r\n", "GET /doc/1 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n" + get("/doc/0"),
		"GET /doc/3 HTTP/1.1\r\nConnection: close\r\n\r\n", "GET /doc/0 HTTP/2.0\r\n\r\n", "GARBAGE\r\n\r\n", "\r\n\r\n", "GET /doc/0 HTTP/1.1\r\nHost:",
		post("/docs", `{"ids":[3,0,99,-4,3]}`) + post("/docs", `{"ids":[0]}`), "POST /docs HTTP/1.0\r\nContent-Length: 11\r\n\r\n" + `{"ids":[3]}`,
		post("/append", "read-only") + get("/doc/0"), post("/ignore-body", strings.Repeat("x", 5000)) + get("/doc/0"), post("/append", "short")[:60],
		"POST /append HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\nhello", "POST /docs HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 11\r\n\r\n" + `{"ids":[1]}`,
		"POST /docs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nb\r\n" + `{"ids":[1]}` + "\r\n0\r\n\r\n" + get("/doc/0"),
		"POST /docs HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\nzz\r\n", "POST /docs HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
		get("/big-header"), get("/untyped"), "DELETE /doc/1 HTTP/1.1\r\n\r\n", get("//doc//1"), "OPTIONS * HTTP/1.1\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	var logs syncBuffer
	srv := newServer(nil, extraRoutes(staticHandler(f, archive.Options{Backend: archive.Raw}, 0)))
	srv.readTimeout, srv.writeTimeout, srv.errlog = 5*time.Millisecond, 2*time.Second, log.New(&logs, "", 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		if bytes.Contains(data, []byte("HEAD")) {
			t.Skip("a response to HEAD cannot be told from a truncated one without knowing the loop's view of the request")
		}
		client, server := net.Pipe()
		defer client.Close()
		done := make(chan struct{})
		go func() {
			srv.newConn(server).serve()
			close(done)
		}()
		go func() {
			client.SetWriteDeadline(time.Now().Add(5 * time.Second))
			client.Write(data) // the loop may have hung up already
		}()
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		out, err := io.ReadAll(client)
		if err != nil {
			t.Fatalf("the loop kept the connection past every deadline: %v", err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("the connection's goroutine outlived the connection")
		}
		if logged := logs.take(); strings.Count(logged, "panic serving") != strings.Count(logged, "panic serving pipe: handler bug") {
			t.Fatalf("the loop panicked:\n%s", logged)
		}
		for br := bufio.NewReader(bytes.NewReader(out)); ; {
			if _, err := br.Peek(1); err == io.EOF {
				break
			}
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("malformed response (%v) in %q", err, out)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatalf("malformed response body (%v) in %q", err, out)
			}
		}
	})
}
