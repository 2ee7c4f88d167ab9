package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rlz/internal/faultfs"
)

func openT(t *testing.T, dir string, opts Options) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(filepath.Join(dir, FileName), opts)
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	return l, recs
}

// checkpoint rewinds the log to its header, as the collection did once
// its open segment had absorbed and fsynced every logged record —
// including records still waiting in the current batch, whose waiters
// are completed successfully without touching disk.
func (l *Log) checkpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.busy {
		l.flushed.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if l.poison != nil {
		return l.poison
	}
	if b := l.cur; b != nil {
		l.cur = nil
		l.completeLocked(b, nil)
	}
	// Frames enqueued from here on belong to the new cycle.
	salt := newSalt(l.salt)
	l.salt = salt
	return l.ownFileLocked("checkpoint", func() error { return l.rewind(salt) })
}

// tail returns the header plus the frames committed this cycle, once no
// commit is in flight.
func (l *Log) tail() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.busy {
		l.flushed.Wait()
	}
	return l.size
}

// pendingBytes returns the bytes enqueued but not yet flushed.
func (l *Log) pendingBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pending
}

// poisoned returns the sticky error of a failed commit, if any.
func (l *Log) poisoned() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poison
}

func mustEnqueue(t *testing.T, l *Log, seq uint64, doc []byte) func() error {
	t.Helper()
	wait, err := l.Enqueue(seq, doc)
	if err != nil {
		t.Fatalf("enqueue %d: %v", seq, err)
	}
	return wait
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs := openT(t, dir, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh log returned %d records", len(recs))
	}
	docs := [][]byte{[]byte("alpha"), []byte("beta"), {}, bytes.Repeat([]byte("x"), 10000)}
	for i, d := range docs {
		if err := mustEnqueue(t, l, uint64(i), d)(); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs := openT(t, dir, Options{})
	defer func() { _ = l2.Close() }()
	if len(recs) != len(docs) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(docs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i) || !bytes.Equal(r.Doc, docs[i]) {
			t.Fatalf("record %d: seq=%d doc=%q", i, r.Seq, r.Doc)
		}
	}
}

// TestGroupCommit: concurrent appends must share fsyncs — records
// enqueued before anyone waits all land in the first waiter's flush.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	sim := faultfs.NewSim()
	l, _ := openT(t, dir, Options{FS: sim})
	defer func() { _ = l.Close() }()

	base := sim.OpCount(faultfs.OpSync)

	const n = 64
	waits := make([]func() error, n)
	for i := 0; i < n; i++ {
		waits[i] = mustEnqueue(t, l, uint64(i), []byte(fmt.Sprintf("doc-%d", i)))
	}

	var wg sync.WaitGroup
	for i, w := range waits {
		wg.Add(1)
		go func(i int, w func() error) {
			defer wg.Done()
			if err := w(); err != nil {
				t.Errorf("wait %d: %v", i, err)
			}
		}(i, w)
	}
	wg.Wait()

	syncs := sim.OpCount(faultfs.OpSync) - base
	if syncs > 2 {
		t.Fatalf("%d appends took %d fsyncs; group commit should batch them", n, syncs)
	}
}

func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := mustEnqueue(t, l, uint64(i), []byte{byte('a' + i)})(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(whole) - 1; cut > headerSize; cut-- {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, recs := openT(t, dir, Options{})
		for i, r := range recs {
			if r.Seq != uint64(i) || len(r.Doc) != 1 || r.Doc[0] != byte('a'+i) {
				t.Fatalf("cut %d: bad surviving record %d: %+v", cut, i, r)
			}
		}
		if len(recs) >= 3 {
			t.Fatalf("cut %d: torn tail yielded %d records", cut, len(recs))
		}
		// The torn bytes must be gone so new appends are parseable.
		if err := mustEnqueue(t, l2, uint64(len(recs)), []byte("new"))(); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		l3, recs3 := openT(t, dir, Options{})
		if len(recs3) != len(recs)+1 || string(recs3[len(recs)].Doc) != "new" {
			t.Fatalf("cut %d: append after torn-tail truncation not recovered", cut)
		}
		if err := l3.Close(); err != nil {
			t.Fatal(err)
		}
		// Restore the full image for the next cut.
		if err := os.WriteFile(path, whole, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptTail: flipped bytes in the last frame must not surface as
// a record.
func TestCorruptTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	l, _ := openT(t, dir, Options{})
	if err := mustEnqueue(t, l, 0, []byte("good"))(); err != nil {
		t.Fatal(err)
	}
	if err := mustEnqueue(t, l, 1, []byte("evil"))(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, recs := openT(t, dir, Options{})
	defer func() { _ = l2.Close() }()
	if len(recs) != 1 || string(recs[0].Doc) != "good" {
		t.Fatalf("corrupt tail: got %d records", len(recs))
	}
}

func TestBackpressure(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{MaxPending: 256})
	defer func() { _ = l.Close() }()

	// Nobody waits yet, so nothing commits and pending bytes cannot drain.
	w := mustEnqueue(t, l, 0, bytes.Repeat([]byte("z"), 512)) // oversized but queue empty: admitted
	if _, err := l.Enqueue(1, []byte("x")); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("want ErrBackpressure, got %v", err)
	}
	if err := w(); err != nil {
		t.Fatal(err)
	}
	// Budget drained: admission resumes.
	if err := mustEnqueue(t, l, 1, []byte("x"))(); err != nil {
		t.Fatal(err)
	}
}

func TestPoisonOnFailedSync(t *testing.T) {
	dir := t.TempDir()
	sim := faultfs.NewSim()
	l, _ := openT(t, dir, Options{FS: sim})
	defer func() { _ = l.Close() }()

	if err := mustEnqueue(t, l, 0, []byte("ok"))(); err != nil {
		t.Fatal(err)
	}
	sim.SetScript(faultfs.Fault{Op: faultfs.OpSync, Path: FileName})
	if err := mustEnqueue(t, l, 1, []byte("doomed"))(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("want injected failure through wait, got %v", err)
	}
	// The log is poisoned: no further acks, even though the next fsync
	// would succeed (the kernel may have dropped the dirty pages).
	if _, err := l.Enqueue(2, []byte("after")); err == nil || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("poisoned log accepted an append: %v", err)
	}
	if l.poisoned() == nil {
		t.Fatal("Err() must report the sticky poison")
	}
}

func TestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := mustEnqueue(t, l, uint64(i), []byte("d"))(); err != nil {
			t.Fatal(err)
		}
	}
	grown := l.tail()
	if grown <= headerSize {
		t.Fatalf("size %d not grown", grown)
	}
	if err := l.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := l.tail(); got != headerSize {
		t.Fatalf("size after checkpoint %d, want %d", got, headerSize)
	}
	if err := mustEnqueue(t, l, 5, []byte("post"))(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs := openT(t, dir, Options{})
	defer func() { _ = l2.Close() }()
	if len(recs) != 1 || recs[0].Seq != 5 || string(recs[0].Doc) != "post" {
		t.Fatalf("after checkpoint want only the post record, got %+v", recs)
	}
}

// TestCheckpointCompletesPendingWaiters: records sitting in the current
// batch when checkpoint runs are acknowledged without a WAL flush —
// the caller's segment fsync already covers them.
func TestCheckpointCompletesPendingWaiters(t *testing.T) {
	dir := t.TempDir()
	sim := faultfs.NewSim()
	l, _ := openT(t, dir, Options{FS: sim})
	defer func() { _ = l.Close() }()

	w := mustEnqueue(t, l, 0, []byte("covered-by-segment"))
	writes := sim.OpCount(faultfs.OpWrite)
	if err := l.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := w(); err != nil {
		t.Fatalf("checkpoint must complete pending waiters: %v", err)
	}
	if got := sim.OpCount(faultfs.OpWrite) - writes; got != 1 {
		t.Fatalf("checkpoint with a pending record wrote %d times, want the header alone", got)
	}
	if got := l.pendingBytes(); got != 0 {
		t.Fatalf("pending %d after checkpoint", got)
	}
}

func TestCloseFlushesQueued(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	waits := make([]func() error, 8)
	for i := range waits {
		waits[i] = mustEnqueue(t, l, uint64(i), []byte("q"))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i, w := range waits {
		if err := w(); err != nil {
			t.Fatalf("wait %d after close: %v", i, err)
		}
	}
	l2, recs := openT(t, dir, Options{})
	defer func() { _ = l2.Close() }()
	if len(recs) != len(waits) {
		t.Fatalf("close flushed %d records, want %d", len(recs), len(waits))
	}
}
