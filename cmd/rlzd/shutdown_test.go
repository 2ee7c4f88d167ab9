package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"rlz/internal/collection"
)

// daemonEnv makes the test binary run main() instead of the tests: the
// daemon under test is this very binary, re-executed.
const daemonEnv = "RLZD_TEST_DAEMON_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(daemonEnv); args != "" {
		os.Args = append([]string{"rlzd"}, strings.Split(args, "\n")...)
		main()
		return
	}
	if addr := os.Getenv(stallEnv); addr != "" {
		serveStallFixture(addr)
		return
	}
	os.Exit(m.Run())
}

// startDaemon runs rlzd over dir on a free loopback port and returns
// once it answers.
func startDaemon(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), daemonEnv+"="+strings.Join([]string{"-a", dir, "-addr", addr}, "\n"))
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill() // no-op once the test has waited for it
		_, _ = cmd.Process.Wait()
	})
	url := "http://" + addr
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(url + "/stats")
		if err == nil {
			resp.Body.Close()
			return cmd, url
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never answered: %v\n%s", err, logs.String())
		}
	}
}

// closedCleanly fails the test unless the collection at dir was closed
// with docs in its open segment: the segment's file exactly as long as
// its frames — the zero fill cut.
func closedCleanly(t *testing.T, dir string, docs [][]byte) {
	t.Helper()
	man, err := collection.ReadManifest(filepath.Join(dir, collection.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(5) // the raw archive header, then one [len][crc] frame per document
	for _, d := range docs {
		want += 8 + int64(len(d))
	}
	st, err := os.Stat(filepath.Join(dir, man.OpenSeg))
	if err != nil || st.Size() != want {
		t.Fatalf("open segment %q after a graceful stop: %v, want %d bytes (%v)", man.OpenSeg, st, want, err)
	}
}

// TestSigtermClosesCollection: SIGTERM is a graceful stop — the daemon
// exits 0, the collection was closed (no log, no zero fill), and a
// restart serves every acknowledged document.
func TestSigtermClosesCollection(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no SIGTERM")
	}
	dir := filepath.Join(t.TempDir(), "live")
	if err := collection.Init(dir); err != nil {
		t.Fatal(err)
	}
	cmd, url := startDaemon(t, dir)
	var docs [][]byte
	for i := 0; i < 40; i++ {
		doc := bytes.Repeat([]byte(fmt.Sprintf("<doc %d/>", i)), 1+i*37)
		resp, err := http.Post(url+"/append", "application/octet-stream", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		var ack struct{ ID int }
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || ack.ID != i {
			t.Fatalf("append %d = status %d, id %d, %v", i, resp.StatusCode, ack.ID, err)
		}
		docs = append(docs, doc)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM'd daemon: %v\n%s", err, cmd.Stderr)
	}

	closedCleanly(t, dir, docs)

	cmd2, url := startDaemon(t, dir)
	for id, want := range docs {
		resp, err := http.Get(fmt.Sprintf("%s/doc/%d", url, id))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("doc %d after restart: status %d, %d bytes, want %d (%v)", id, resp.StatusCode, len(got), len(want), err)
		}
	}
	if err := cmd2.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("SIGINT'd daemon: %v\n%s", err, cmd2.Stderr)
	}
}

// TestSigtermDrainsInFlightClosesIdle: the graceful stop of the daemon's own
// connection loop. With one POST /append half sent and one keep-alive
// connection idle, SIGTERM closes the idle connection at once (not when its
// 30 s read deadline expires), stops accepting, lets the append finish with a
// 200 marked Connection: close, closes the collection (no log, no zero fill) and
// exits 0 within 2 s; the appended document is served after a restart.
func TestSigtermDrainsInFlightClosesIdle(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no SIGTERM")
	}
	dir := filepath.Join(t.TempDir(), "live")
	if err := collection.Init(dir); err != nil {
		t.Fatal(err)
	}
	cmd, url := startDaemon(t, dir)
	addr := strings.TrimPrefix(url, "http://")
	dial := func() (net.Conn, *bufio.Reader) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		return nc, bufio.NewReader(nc)
	}

	idle, idleR := dial()
	fmt.Fprint(idle, "GET /stats HTTP/1.1\r\nHost: rlzd\r\n\r\n")
	resp, err := http.ReadResponse(idleR, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats on the idle connection: %v, %v", resp, err)
	}
	io.Copy(io.Discard, resp.Body)

	// 100 Continue is the handler asking for the body: once it arrives the
	// request is in flight, whatever the scheduler did.
	doc := bytes.Repeat([]byte("in flight at SIGTERM. "), 3000)
	busy, busyR := dial()
	fmt.Fprintf(busy, "POST /append HTTP/1.1\r\nHost: rlzd\r\nExpect: 100-continue\r\nContent-Length: %d\r\n\r\n", len(doc))
	if resp, err := http.ReadResponse(busyR, nil); err != nil || resp.StatusCode != http.StatusContinue {
		t.Fatalf("no 100 Continue: %v, %v", resp, err)
	}
	busy.Write(doc[:len(doc)-1])

	stopped := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := idleR.ReadByte(); err != io.EOF {
		t.Errorf("idle keep-alive connection after SIGTERM: %v, want EOF at once", err)
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		nc.Close()
		if time.Now().After(deadline) {
			t.Fatal("daemon still accepts connections 2s after SIGTERM")
		}
	}

	busy.Write(doc[len(doc)-1:])
	resp, err = http.ReadResponse(busyR, nil)
	if err != nil {
		t.Fatalf("in-flight append lost its response: %v", err)
	}
	var ack struct{ ID int }
	err = json.NewDecoder(resp.Body).Decode(&ack)
	if err != nil || resp.StatusCode != http.StatusOK || !resp.Close {
		t.Fatalf("in-flight append = %d, Connection: close %v, %v; want 200, true", resp.StatusCode, resp.Close, err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM'd daemon: %v\n%s", err, cmd.Stderr)
	}
	if d := time.Since(stopped); d > 2*time.Second {
		t.Errorf("exit took %v after SIGTERM, want under 2s", d)
	}

	closedCleanly(t, dir, [][]byte{doc})

	cmd2, url := startDaemon(t, dir)
	got, err := http.Get(fmt.Sprintf("%s/doc/%d", url, ack.ID))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(got.Body)
	got.Body.Close()
	if err != nil || got.StatusCode != http.StatusOK || !bytes.Equal(body, doc) {
		t.Fatalf("doc %d after restart: status %d, %d bytes, want %d (%v)", ack.ID, got.StatusCode, len(body), len(doc), err)
	}
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("SIGTERM'd daemon: %v\n%s", err, cmd2.Stderr)
	}
}

// stallEnv makes the test binary serve the connection loop on the given
// address over a fixture whose POST /block sits in read(2) until POST /release.
const stallEnv = "RLZD_TEST_STALL_ADDR"

func serveStallFixture(addr string) {
	pr, pw, err := os.Pipe()
	if err != nil {
		log.Fatal(err)
	}
	pr.Fd() // puts the descriptor in blocking mode: Read is now one system call, as fdatasync is
	mux := http.NewServeMux()
	mux.HandleFunc("POST /block", func(http.ResponseWriter, *http.Request) { pr.Read(make([]byte, 1)) })
	mux.HandleFunc("POST /release", func(http.ResponseWriter, *http.Request) { pw.Write([]byte{0}) })
	mux.HandleFunc("GET /fast", func(http.ResponseWriter, *http.Request) {})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Fatal(newServer(ln, mux).serve())
}

// TestBlockedWriteLeavesOtherConnectionsServed: while one connection's write
// sits in a system call, a request on another connection is answered at once.
// Without the goroutine next starts before a write, the runtime has no thread
// watching the sockets (the one that was is in the call) and answers only when
// its monitor polls them, 10 ms after it last did. The server is a child
// process, as in production: inside the test binary the test's own goroutines
// would keep the runtime's threads awake.
func TestBlockedWriteLeavesOtherConnectionsServed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), stallEnv+"="+addr)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	a, b := &http.Client{Transport: &http.Transport{}}, &http.Client{Transport: &http.Transport{}}
	do := func(c *http.Client, method, path string) error {
		req, _ := http.NewRequest(method, "http://"+addr+path, nil)
		resp, err := c.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		return err
	}
	for deadline := time.Now().Add(10 * time.Second); do(b, "GET", "/fast") != nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("fixture never answered")
		}
	}
	if err := do(a, "GET", "/fast"); err != nil { // a's connection is up before the clock runs
		t.Fatal(err)
	}
	var waits []time.Duration
	for round := 0; round < 9; round++ {
		blocked := make(chan error, 1)
		go func() { blocked <- do(a, "POST", "/block") }()
		time.Sleep(time.Millisecond) // the handler has reached its read(2)
		start := time.Now()
		if err := do(b, "GET", "/fast"); err != nil {
			t.Fatal(err)
		}
		waits = append(waits, time.Since(start))
		if err := do(b, "POST", "/release"); err != nil {
			t.Fatal(err)
		}
		if err := <-blocked; err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(waits)
	if median := waits[len(waits)/2]; median > 4*time.Millisecond {
		t.Errorf("GET beside a blocked write took %v (all: %v), want well under the runtime's 10ms poll", median, waits)
	}
}
