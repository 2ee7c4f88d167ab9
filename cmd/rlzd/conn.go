package main

// rlzd's HTTP/1 server: one goroutine per connection reads a request with the
// stdlib parser, runs the mux, and sends status line, headers and body in one
// writev. The stdlib server's background-read goroutine, cancel context,
// deadline churn and second write cost more per request than everything the
// handlers do (CHANGES.md, PR 18). Cleartext HTTP/1.0 and 1.1; no Flusher,
// Hijacker or request context.

import (
	"bufio"
	"errors"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	maxHeaderBytes = http.DefaultMaxHeaderBytes + 4096 // per request; the slop is one bufio fill, as net/http
	scratchSize    = 4 << 10                           // response header plus a body of undeclared length, while it fits
	bodyRoom       = scratchSize - 512                 // the body's share of the scratch
	maxBodyDrain   = 256 << 10                         // unread request body consumed to keep the connection, as net/http
	lingerTimeout  = 500 * time.Millisecond
)

var (
	crlf         = []byte("\r\n")
	lastChunk    = []byte("0\r\n\r\n")
	continueLine = []byte("HTTP/1.1 100 Continue\r\n\r\n")
	readers      = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4<<10) }}
)

// server accepts connections on ln and serves handler on each.
type server struct {
	ln           net.Listener
	handler      http.Handler
	errlog       *log.Logger
	readTimeout  time.Duration // waiting for a request plus its header; a body gets the same again
	writeTimeout time.Duration // handler plus response

	mu      sync.Mutex
	closing atomic.Bool // written under mu
	conns   map[*conn]struct{}
}

func newServer(ln net.Listener, h http.Handler) *server {
	return &server{ln: ln, handler: h, errlog: log.Default(), readTimeout: 30 * time.Second,
		writeTimeout: 30 * time.Second, conns: make(map[*conn]struct{})}
}

// serve runs the accept loop; it returns nil once shutdown has closed the
// listener.
func (s *server) serve() error {
	for {
		rwc, err := s.ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return nil
			}
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			// Anything else (out of descriptors, an aborted handshake) passes.
			s.errlog.Printf("rlzd: accept: %v", err)
			time.Sleep(50 * time.Millisecond)
			continue
		}
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			_ = rwc.Close() // never served
			return nil
		}
		c := s.newConn(rwc)
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve()
	}
}

// shutdown stops accepting, closes every connection that is between requests
// and waits up to grace for the others to finish the request they are
// serving, which they answer with Connection: close.
func (s *server) shutdown(grace time.Duration) error {
	s.mu.Lock()
	s.closing.Store(true)
	err := s.ln.Close()
	for c := range s.conns {
		if c.state.CompareAndSwap(stateIdle, stateClosed) {
			_ = c.rwc.Close() // nothing in flight to lose
		}
	}
	s.mu.Unlock()
	for deadline := time.Now().Add(grace); ; time.Sleep(2 * time.Millisecond) {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			return err
		}
		if time.Now().After(deadline) {
			return errors.New("shutdown: " + strconv.Itoa(n) + " requests still running after " + grace.String())
		}
	}
}

const (
	stateIdle   = iota // between requests: shutdown may close it
	stateActive        // a request has been read and not yet answered
	stateClosed
)

type conn struct {
	srv   *server
	rwc   net.Conn
	state atomic.Int32
	lim   io.LimitedReader // bytes the current request's header may still take from rwc
	br    *bufio.Reader    // pooled; reads lim
	w     response         // reused request after request
	vec   [4][]byte        // backing array of bufs
	bufs  net.Buffers
}

func (s *server) newConn(rwc net.Conn) *conn {
	c := &conn{srv: s, rwc: rwc, br: readers.Get().(*bufio.Reader)}
	c.lim.R = rwc
	c.br.Reset(&c.lim)
	c.w.header = make(http.Header)
	return c
}

// serve answers requests until the connection ends, then releases it. A
// panicking handler is logged and costs its connection, not the daemon.
func (c *conn) serve() {
	s := c.srv
	defer func() {
		if p := recover(); p != nil {
			s.errlog.Printf("rlzd: panic serving %v: %v\n%s", c.rwc.RemoteAddr(), p, debug.Stack())
		}
		_ = c.rwc.Close() // every response has been written, or failed to be
		c.br.Reset(nil)
		readers.Put(c.br)
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	for c.next() {
	}
}

// next reads one request and answers it; it reports whether the connection
// can carry another.
func (c *conn) next() bool {
	s := c.srv
	c.lim.N = maxHeaderBytes
	c.rwc.SetReadDeadline(time.Now().Add(s.readTimeout))
	req, err := http.ReadRequest(c.br)
	if err != nil || req.ProtoMajor != 1 {
		switch {
		case err == nil:
			c.reject(http.StatusHTTPVersionNotSupported)
		case c.lim.N <= 0:
			c.reject(http.StatusRequestHeaderFieldsTooLarge)
		case err == io.EOF: // closed between requests
		default:
			if ne := net.Error(nil); !errors.As(err, &ne) { // a timeout or a dead socket has nobody to answer
				c.reject(http.StatusBadRequest)
			}
		}
		return false
	}
	if !c.state.CompareAndSwap(stateIdle, stateActive) {
		return false // shutdown closed the connection under the read
	}
	c.lim.N = math.MaxInt64 // a body is bounded by its handler, not by the header cap
	now := time.Now()
	if req.ContentLength != 0 {
		c.rwc.SetReadDeadline(now.Add(s.readTimeout))
	}
	c.rwc.SetWriteDeadline(now.Add(s.writeTimeout))
	w := &c.w
	w.reset(c, req, now)
	if req.ContentLength != 0 && req.ProtoAtLeast(1, 1) && strings.EqualFold(req.Header.Get("Expect"), "100-continue") {
		w.expect = &expectBody{ReadCloser: req.Body, w: w}
		req.Body = w.expect
	}
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		// A write blocks in system calls (an append's fdatasync), and the
		// thread it blocks is the one that was watching the sockets when this
		// request came in: the runtime starts no other, so until the call
		// returns every other connection's request sits unseen. Starting a
		// goroutine makes the runtime wake an idle thread, which finds nothing
		// left to run and takes over the watch. Reads make no such call and skip
		// the hand-off, which is most of what net/http's server cost per request.
		go func() {}()
	}
	s.handler.ServeHTTP(w, req)
	w.finish()
	// What the handler left unread stands between here and the next request:
	// consume a bounded remainder, or give the connection up.
	unread := w.expect != nil && !w.expect.sent
	if !unread && req.Body != http.NoBody && w.err == nil {
		_, err := io.CopyN(io.Discard, req.Body, maxBodyDrain+1)
		unread = err != io.EOF
	}
	if unread && w.err == nil {
		c.lingerClose()
	}
	c.state.Store(stateIdle)
	return w.err == nil && !w.closeAfter && !unread && !s.closing.Load()
}

// reject answers a request that could not be read and gives up the connection.
func (c *conn) reject(code int) {
	text := strconv.Itoa(code) + " " + http.StatusText(code)
	c.rwc.SetWriteDeadline(time.Now().Add(c.srv.writeTimeout))
	io.WriteString(c.rwc, "HTTP/1.1 "+text+"\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"+text)
	c.lingerClose()
}

// lingerClose ends a connection whose peer may still be sending: closing
// outright would answer those bytes with a reset, which can destroy the
// response just written before the peer reads it. Half-close instead, and
// discard what arrives until the peer closes or lingerTimeout passes.
func (c *conn) lingerClose() {
	if hc, ok := c.rwc.(interface{ CloseWrite() error }); ok && hc.CloseWrite() == nil {
		c.rwc.SetReadDeadline(time.Now().Add(lingerTimeout))
		io.Copy(io.Discard, c.rwc)
	}
}

// expectBody is the body of a request sent with Expect: 100-continue. The
// client holds the bytes back until told to go on, which the first Read does;
// a handler that answers without reading costs the connection, not the upload.
type expectBody struct {
	io.ReadCloser
	w    *response
	sent bool
}

func (b *expectBody) Read(p []byte) (int, error) {
	if !b.sent {
		if b.w.sent {
			return 0, http.ErrBodyReadAfterClose // 100 Continue cannot follow the final response
		}
		b.sent = true
		if _, err := b.w.c.rwc.Write(continueLine); err != nil {
			return 0, err
		}
	}
	return b.ReadCloser.Read(p)
}

// response is the http.ResponseWriter of one request. The body reaches the
// socket in one of three ways: the handler declared Content-Length, and each
// Write goes out as it is, the first one together with the header; or it did
// not and the body fits the scratch, and finish sends header, computed length
// and body together; or it outgrew the scratch, and every Write from then on
// is one chunk (HTTP/1.1) or raw bytes ended by closing (HTTP/1.0).
type response struct {
	c          *conn
	req        *http.Request
	now        time.Time
	header     http.Header
	expect     *expectBody
	status     int   // 0 until WriteHeader
	declared   int64 // Content-Length set by the handler, or -1
	written    int64 // body bytes accepted against declared
	sent       bool  // the header is on the wire
	streaming  bool  // undeclared length, outgrew the scratch
	chunked    bool
	closeAfter bool
	err        error  // first failed write
	buf        []byte // scratch: buffered body, then the header block behind it
}

func (w *response) reset(c *conn, req *http.Request, now time.Time) {
	h, buf := w.header, w.buf[:0]
	clear(h)
	if cap(buf) != scratchSize { // first use, or a header block grew it: not kept for the life of the connection
		buf = make([]byte, 0, scratchSize)
	}
	*w = response{c: c, req: req, now: now, header: h, declared: -1, closeAfter: req.Close, buf: buf}
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if w.status != 0 {
		return
	}
	w.status = code
	if cl := w.header["Content-Length"]; len(cl) > 0 {
		if n, err := strconv.ParseInt(cl[0], 10, 64); err == nil && n >= 0 && len(cl) == 1 {
			w.declared = n
		} else {
			delete(w.header, "Content-Length")
		}
	}
}

func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	switch {
	case w.err != nil:
	case w.declared >= 0:
		if int64(len(p)) > w.declared-w.written {
			return 0, http.ErrContentLength
		}
		w.written += int64(len(p))
		w.flush(p)
	case !w.sent && len(w.buf)+len(p) <= bodyRoom:
		w.buf = append(w.buf, p...)
	default:
		w.streaming = true
		w.flush(p)
	}
	if w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

// finish sends whatever the handler's Writes have not: the whole response
// when it was buffered or empty, the terminating chunk when it was chunked.
func (w *response) finish() {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	head := w.req.Method == http.MethodHead
	switch {
	case w.err != nil:
	case !w.sent:
		w.flush(nil)
	case w.chunked && !head:
		_, w.err = w.c.rwc.Write(lastChunk)
	}
	if w.written < w.declared && !head {
		w.closeAfter = true // promised bytes never came; only the close tells the client
	}
}

// flush sends what the response owes the wire up to and including p — the
// header block if it has not gone, the buffered body, p — in one writev,
// framed as one chunk when the response is chunked.
func (w *response) flush(p []byte) {
	c := w.c
	held := len(w.buf)
	if !w.sent {
		w.sent = true
		w.appendHeader()
	}
	body := w.buf[:held]
	if w.req.Method == http.MethodHead {
		body, p = nil, nil
	}
	var tail []byte
	if n := len(body) + len(p); w.chunked && n > 0 { // a chunk of no bytes would end the body
		w.buf = append(strconv.AppendUint(w.buf, uint64(n), 16), crlf...)
		tail = crlf
	}
	v := c.vec[:0]
	for _, b := range [...][]byte{w.buf[held:], body, p, tail} {
		if len(b) > 0 {
			v = append(v, b)
		}
	}
	c.bufs = v
	_, w.err = c.bufs.WriteTo(c.rwc)
	w.buf = w.buf[:0]
}

// appendHeader appends the status line and header block to w.buf, settling
// how the body is framed and whether the connection survives it.
func (w *response) appendHeader() {
	http11 := w.req.ProtoAtLeast(1, 1)
	w.chunked = w.streaming && http11
	if w.c.srv.closing.Load() || w.streaming && !http11 || w.expect != nil && !w.expect.sent {
		w.closeAfter = true
	}
	held := len(w.buf)
	b := append(w.buf, "HTTP/1.1 "...)
	if !http11 {
		b[len(b)-2] = '0'
	}
	b = append(append(append(strconv.AppendInt(b, int64(w.status), 10), ' '), http.StatusText(w.status)...), crlf...)
	for k, vs := range w.header {
		for _, v := range vs {
			b = append(append(append(append(b, k...), ": "...), v...), crlf...)
		}
	}
	b = append(w.now.UTC().AppendFormat(append(b, "Date: "...), http.TimeFormat), crlf...)
	switch {
	case w.chunked:
		b = append(b, "Transfer-Encoding: chunked\r\n"...)
	case w.declared < 0 && !w.streaming:
		b = append(strconv.AppendInt(append(b, "Content-Length: "...), int64(held), 10), crlf...)
	}
	switch {
	case w.closeAfter:
		b = append(b, "Connection: close\r\n"...)
	case !http11:
		b = append(b, "Connection: keep-alive\r\n"...)
	}
	w.buf = append(b, crlf...)
}
