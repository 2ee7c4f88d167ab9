package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rlz/internal/faultfs"
)

// The log's life-cycle: it keeps its blocks across checkpoints (rewind),
// so what an earlier cycle wrote stays on the file past the tail. These
// tests take crash images with that residue in place — a clean Close
// would trim it — and prove it is never read back.

// openImage opens a copy of the log file at path as it is right now:
// what a crash that lost nothing the process wrote would leave.
func openImage(t *testing.T, path string) []Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	return openBytes(t, data)
}

// openBytes opens data as a log image and returns its records.
func openBytes(t *testing.T, data []byte) []Record {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs := openT(t, dir, Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || !bytes.Equal(a[i].Doc, b[i].Doc) {
			return false
		}
	}
	return true
}

// cycleStep is one step of a rewind script: a checkpoint, or one batch
// enqueued whole and then waited for.
type cycleStep struct {
	checkpoint bool
	docs       [][]byte
}

// cycleScript draws cycles of one to four commits and a checkpoint.
// Most documents are small; the odd large one pushes the tail across a
// zero-fill step so later cycles run into earlier cycles' frames at
// every kind of offset.
func cycleScript(rng *rand.Rand, cycles int) []cycleStep {
	var steps []cycleStep
	for c := 0; c < cycles; c++ {
		for commits := 1 + rng.Intn(4); commits > 0; commits-- {
			docs := make([][]byte, 1+rng.Intn(3))
			for i := range docs {
				n := rng.Intn(2000)
				if rng.Intn(8) == 0 {
					n = 300<<10 + rng.Intn(500<<10)
				}
				docs[i] = make([]byte, n)
				rng.Read(docs[i])
			}
			steps = append(steps, cycleStep{docs: docs})
		}
		steps = append(steps, cycleStep{checkpoint: true})
	}
	return steps
}

// cycleState is what the caller of a log knows when a script stops.
type cycleState struct {
	cur          []Record // enqueued since the last completed checkpoint, in order
	acked        int      // how many of cur were acknowledged
	checkpointed bool     // stopped inside Checkpoint: cur is durable elsewhere
}

// runCycles drives steps against a log at path until one fails.
func runCycles(path string, fs faultfs.FS, steps []cycleStep) (st cycleState, err error) {
	l, _, err := Open(path, Options{FS: fs})
	if err != nil {
		return st, err
	}
	defer func() {
		if err != nil {
			_ = l.f.Close() // a dead process: descriptors go, nothing is trimmed
		} else {
			err = l.Close()
		}
	}()
	seq := uint64(0)
	for _, s := range steps {
		if s.checkpoint {
			st.checkpointed = true
			if err := l.Checkpoint(); err != nil {
				return st, err
			}
			st = cycleState{}
			continue
		}
		var wait func() error
		for _, d := range s.docs {
			if wait, err = l.Enqueue(seq, d); err != nil {
				return st, err
			}
			st.cur = append(st.cur, Record{Seq: seq, Doc: d})
			seq++
		}
		if err := wait(); err != nil {
			return st, err
		}
		st.acked = len(st.cur)
	}
	return st, nil
}

// TestRewindNeverResurrects kills a script of enqueue/commit/checkpoint
// cycles at every filesystem step — including between a rewind's header
// write and its flush, and inside a zero fill — and opens both extremes
// of what the crash can leave: only what was flushed (the Sim's durable
// image) and everything that was written. Either way Open returns
// records of the current cycle only, in order, byte-identical, and every
// acknowledged one; or, while a checkpoint was in progress, nothing or
// the whole cycle being retired (all of it durable in the segment by
// then).
func TestRewindNeverResurrects(t *testing.T) {
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	for seed := 0; seed < seeds; seed++ {
		steps := cycleScript(rand.New(rand.NewSource(int64(seed))), 5)
		dry := faultfs.NewSim()
		if _, err := runCycles(filepath.Join(t.TempDir(), FileName), dry, steps); err != nil {
			t.Fatalf("seed %d: fault-free run: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(int64(seed) + 1000))
		for k := 1; k <= dry.Ops(); k++ {
			path := filepath.Join(t.TempDir(), FileName)
			sim := faultfs.NewSim()
			sim.SetScript(faultfs.Fault{Op: faultfs.OpAny, N: k, Kill: true, Tear: rng.Intn(64)})
			st, err := runCycles(path, sim, steps)
			if !errors.Is(err, faultfs.ErrKilled) {
				t.Fatalf("seed %d kill %d: script ended with %v", seed, k, err)
			}
			check := func(image string, recs []Record) {
				t.Helper()
				if st.checkpointed {
					if len(recs) != 0 && !sameRecords(recs, st.cur) {
						t.Fatalf("seed %d kill %d (%s): mid-checkpoint image holds %d records, want none or all %d of the retiring cycle", seed, k, image, len(recs), len(st.cur))
					}
					return
				}
				if len(recs) < st.acked || len(recs) > len(st.cur) || !sameRecords(recs, st.cur[:len(recs)]) {
					t.Fatalf("seed %d kill %d (%s): %d records, want a prefix of the cycle's %d covering the %d acknowledged", seed, k, image, len(recs), len(st.cur), st.acked)
				}
			}
			check("everything written", openImage(t, path))
			if err := sim.Crash(sim.JournalLen()); err != nil {
				t.Fatal(err)
			}
			check("only what was flushed", openImage(t, path))
		}
	}
}

// TestForgedFrameNeverReplays: a document embeds a well-formed frame
// carrying the next sequence number, and the following cycle's batch is
// sized so the tail lands exactly on it. A scan that trusted "valid CRC,
// sequence = previous + 1" would replay the forgery; the cycle salt
// refuses it, whether the forger seeded the CRC like a version 1 frame
// or with the salt of the cycle the document was written in.
func TestForgedFrameNeverReplays(t *testing.T) {
	for _, knowsSalt := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, FileName)
		l, _ := openT(t, dir, Options{})
		forgeSalt := uint32(0)
		if knowsSalt {
			forgeSalt = l.salt
		}
		pad := bytes.Repeat([]byte("p"), 100)
		forged := frame(nil, forgeSalt, 2, []byte("forged"))
		if err := mustEnqueue(t, l, 0, append(append([]byte(nil), pad...), forged...))(); err != nil {
			t.Fatal(err)
		}
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Same sequence-number width, a document as long as the padding:
		// this frame ends where the forged one begins.
		if err := mustEnqueue(t, l, 1, pad)(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data[l.Size():], forged) {
			t.Fatalf("knowsSalt=%v: the tail does not sit on the forged frame; the test is not testing", knowsSalt)
		}
		recs := openBytes(t, data)
		if len(recs) != 1 || recs[0].Seq != 1 || !bytes.Equal(recs[0].Doc, pad) {
			t.Fatalf("knowsSalt=%v: replayed %d records (last seq %d), want only the new cycle's one", knowsSalt, len(recs), recs[len(recs)-1].Seq)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVersion1Log: a log left by a binary that predates the cycle salt
// (8-byte header, unseeded CRCs) is replayed, keeps taking appends in
// its own format, and becomes version 2 at its first checkpoint — after
// which its old frames are as dead as any other cycle's.
func TestVersion1Log(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	image := append(headerMagic[:], 1, 0)
	for i, d := range []string{"one", "two", "three"} {
		image = frame(image, 0, uint64(i), []byte(d))
	}
	image = append(image, 0x40, 0, 0, 0, 0xde, 0xad) // a torn tail
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs := openT(t, dir, Options{})
	if len(recs) != 3 || string(recs[2].Doc) != "three" {
		t.Fatalf("version 1 log replayed %d records, want 3", len(recs))
	}
	if err := mustEnqueue(t, l, 3, []byte("four"))(); err != nil {
		t.Fatal(err)
	}
	if recs := openImage(t, path); len(recs) != 4 || string(recs[3].Doc) != "four" {
		t.Fatalf("append to a version 1 log: image holds %d records, want 4", len(recs))
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := mustEnqueue(t, l, 4, []byte("five"))(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(data[6:]); v != walVersion {
		t.Fatalf("header version after the first checkpoint = %d, want %d", v, walVersion)
	}
	if recs := openBytes(t, data); len(recs) != 1 || string(recs[0].Doc) != "five" {
		t.Fatalf("after the upgrade the image holds %d records, want only the new one", len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBlocksKeptUntilTrim: commits and checkpoints leave the file's
// length alone once it is filled; Trim and Close cut it to the tail.
func TestBlocksKeptUntilTrim(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	fileSize := func() int64 {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	l, _ := openT(t, dir, Options{})
	if err := mustEnqueue(t, l, 0, []byte("first"))(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(); got != fillStep {
		t.Fatalf("file is %d bytes after the first commit, want one fill step (%d)", got, fillStep)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := mustEnqueue(t, l, 1, []byte("second"))(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(); got != fillStep {
		t.Fatalf("file is %d bytes after a rewind and a commit, want %d still", got, fillStep)
	}
	if err := l.Trim(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(); got != l.Size() {
		t.Fatalf("file is %d bytes after Trim, want the tail (%d)", got, l.Size())
	}
	if err := mustEnqueue(t, l, 2, bytes.Repeat([]byte("x"), fillStep))(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(); got != 2*fillStep {
		t.Fatalf("file is %d bytes after a commit spanning a step, want %d", got, 2*fillStep)
	}
	tail := l.Size()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(); got != tail {
		t.Fatalf("file is %d bytes after Close, want the tail (%d)", got, tail)
	}
	l2, recs := openT(t, dir, Options{})
	defer func() { _ = l2.Close() }()
	if len(recs) != 2 || recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("reopen after trim and close: %d records", len(recs))
	}
}

// syncCountFS counts File.Sync calls and can be told to fail them.
type syncCountFS struct {
	faultfs.FS
	syncs atomic.Int64
	fail  atomic.Bool
}

type syncCountFile struct {
	faultfs.File
	fs *syncCountFS
}

func (fs *syncCountFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncCountFile{f, fs}, nil
}

func (f syncCountFile) Sync() error {
	f.fs.syncs.Add(1)
	if f.fs.fail.Load() {
		return faultfs.ErrInjected
	}
	return f.File.Sync()
}

// finishes fails the test if wg does not finish in time: a waiter left
// behind by the commit protocol shows up as a hang.
func finishes(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("%s: goroutines still waiting", what)
	}
}

// TestLeaderFollower: with no committer goroutine, the appenders commit
// for each other. Every wait returns only once its record is on disk,
// concurrent appends share flushes, and nobody is left waiting — not by
// a poisoned flush, not by Close. The appenders also call Admit and
// Pending, a monitor polls Err and a checkpointer races the Close, so that
// under -race every method that touches a `guarded by mu` field without mu
// fails here.
func TestLeaderFollower(t *testing.T) {
	const writers = 8
	each := 2000
	if testing.Short() {
		each = 250
	}
	dir := t.TempDir()
	fs := &syncCountFS{FS: faultfs.OS}
	l, _ := openT(t, dir, Options{FS: fs})
	base := fs.syncs.Load()
	var seq atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				doc := []byte(fmt.Sprintf("writer %d doc %d", g, i))
				if l.Pending() < 0 {
					t.Errorf("writer %d: negative pending bytes", g)
					return
				}
				err := l.Admit(int64(len(doc)))
				var wait func() error
				if err == nil {
					wait, err = l.Enqueue(seq.Add(1), doc)
				}
				if err == nil {
					err = wait()
				}
				if err != nil {
					t.Errorf("writer %d doc %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	finishes(t, &wg, "appends")
	commits := fs.syncs.Load() - base
	if commits >= int64(writers*each) {
		t.Errorf("%d appends took %d flushes: nothing was shared", writers*each, commits)
	}
	// A record nobody waits for is still flushed by Close.
	if _, err := l.Enqueue(seq.Add(1), []byte("unwaited")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs := openT(t, dir, Options{FS: fs})
	if len(recs) != writers*each+1 {
		t.Fatalf("reopen found %d records, want %d", len(recs), writers*each+1)
	}
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		seen[r.Seq] = true
	}
	if len(seen) != len(recs) {
		t.Fatalf("reopen found %d distinct sequence numbers in %d records", len(seen), len(recs))
	}

	// A failing flush: every waiter, leader or follower, gets the error
	// and returns; the log then refuses work.
	fs.fail.Store(true)
	var failed atomic.Int64
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				wait, err := l2.Enqueue(seq.Add(1), []byte("doomed"))
				if err == nil {
					err = wait()
				}
				if err == nil {
					t.Error("append acknowledged over a failing flush")
					return
				}
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Errorf("append over a failing flush: %v", err)
				}
				failed.Add(1)
			}
		}()
	}
	// A monitor polls the poison while the first failure lands.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for l2.Err() == nil {
			runtime.Gosched()
		}
	}()
	finishes(t, &wg, "appends over a failing flush")
	if failed.Load() != writers*50 || l2.Err() == nil {
		t.Fatalf("%d of %d appends failed, poison %v", failed.Load(), writers*50, l2.Err())
	}
	// Close with waiters and a checkpointer in flight: they all return.
	// (Nothing reopens l3, so checkpointing records no segment holds is
	// harmless here.)
	fs.fail.Store(false)
	l3dir := t.TempDir()
	l3, _ := openT(t, l3dir, Options{FS: fs})
	var underWay sync.WaitGroup
	wg.Add(1)
	underWay.Add(1)
	go func() {
		defer wg.Done()
		for n := 1; ; n++ {
			err := l3.Checkpoint()
			if n == 20 || err != nil && n < 20 {
				underWay.Done() // twenty cycles have raced the appenders, or one failed
			}
			if errors.Is(err, ErrClosed) {
				return
			}
			if err != nil {
				t.Errorf("checkpoint racing Close: %v", err)
				return
			}
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		underWay.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				err := l3.Admit(int64(len("racing close")))
				var wait func() error
				if err == nil {
					wait, err = l3.Enqueue(seq.Add(1), []byte("racing close"))
				}
				if err == nil {
					err = wait()
				}
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("append racing Close: %v", err)
					return
				}
				if n == 0 {
					underWay.Done()
				}
			}
		}()
	}
	underWay.Wait()
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
	finishes(t, &wg, "appends racing Close")
	_ = l2.Close()
}
