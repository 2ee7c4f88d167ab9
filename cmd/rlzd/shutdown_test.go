package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"rlz/internal/collection"
	"rlz/internal/wal"
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

// TestSigtermClosesCollection: SIGTERM is a graceful stop — the daemon
// exits 0, the collection was closed (its log is down to the header, so
// nothing is left to replay), and a restart serves every acknowledged
// document.
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

	walPath := filepath.Join(dir, wal.FileName)
	l, recs, err := wal.Open(walPath, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, serr := os.Stat(walPath)
	if serr != nil || len(recs) != 0 || st.Size() != l.Size() {
		t.Fatalf("log after a graceful stop: %d records, %d bytes on disk for a %d-byte header (%v)", len(recs), st.Size(), l.Size(), serr)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

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
