package collection

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rlz/internal/faultfs"
	"rlz/internal/wal"
)

// Fault-injection suite: the crash_test.go scenarios hand-craft on-disk
// damage; here the damage is produced by the write path itself running
// over a faultfs.Sim — every fsync, write, rename and dir-sync goes
// through the injector, a scripted fault fires mid-protocol, the
// simulated machine loses power, and recovery runs over exactly the
// bytes a real crash would have left.
//
// The durability contract under test: an append acknowledged in the
// default (group commit) mode survives any single
// injected fault plus a crash, byte-identical; an unacknowledged append
// may vanish but never leaves torn bytes behind a readable id.

// faultOpen initializes a fresh collection and opens it through sim.
func faultOpen(t *testing.T, sim *faultfs.Sim, opts Options) (*Collection, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "coll")
	if err := Init(dir); err != nil {
		t.Fatal(err)
	}
	opts.FS = sim
	c, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c, dir
}

// abandon drops c's descriptors the way a dying process does. Unlike
// Close it checkpoints nothing on the way out: the crash that follows
// must find the log and the segment as the fault left them.
func abandon(c *Collection) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if c.wal != nil {
		_ = c.wal.Close()
	}
	c.view.Load().unref()
}

// TestFaultMatrix drives the append protocol into one scripted fault per
// case and asserts byte-identical recovery of every acknowledged
// document. Cases marked sticky additionally pin the poisoned-writer
// contract: after the first failed acknowledgment, every later append
// on the same handle must keep failing rather than silently resume over
// a broken log or segment.
func TestFaultMatrix(t *testing.T) {
	doc := func(i int) []byte {
		return []byte(fmt.Sprintf("<doc %03d>matrix payload %d quick brown fox</doc>", i, i*31))
	}
	cases := []struct {
		name   string
		opts   Options
		prime  int             // appends that must ack before the script installs
		script []faultfs.Fault // installed after priming
		seal   bool            // attempt a Seal after the script installs (must fail, unless sealed)
		sealed bool            // the fault lands after the seal's publish: Seal succeeds
		post   int             // append attempts after the script installs
		acked  int             // total acknowledged appends expected
		sticky bool            // appends must keep failing after the first failure
		// walSuffix is appended to the real WAL after the crash — a torn
		// tail that DID reach durable media (the in-process tear cases
		// model one that did not).
		walSuffix []byte
	}{
		{
			name:   "fail WAL fsync N",
			prime:  3,
			script: []faultfs.Fault{{Op: faultfs.OpSync, Path: wal.FileName}},
			post:   5,
			acked:  3,
			sticky: true,
		},
		{
			name:   "torn WAL write at crash",
			prime:  5,
			script: []faultfs.Fault{{Op: faultfs.OpWrite, Path: wal.FileName, Tear: 7, Kill: true}},
			post:   3,
			acked:  5,
			sticky: true,
		},
		{
			name:      "torn WAL tail: partial length prefix",
			prime:     5,
			acked:     5,
			walSuffix: []byte{0x40, 0x00},
		},
		{
			name:      "torn WAL tail: frame header only",
			prime:     5,
			acked:     5,
			walSuffix: []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef},
		},
		{
			name:      "torn WAL tail: partial payload",
			prime:     5,
			acked:     5,
			walSuffix: []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'j', 'u', 'n', 'k'},
		},
		{
			name:   "dropped manifest rename at seal",
			prime:  5,
			script: []faultfs.Fault{{Op: faultfs.OpRename, Path: ManifestName}},
			seal:   true,
			acked:  5,
		},
		{
			name:   "dropped manifest rename at first append",
			script: []faultfs.Fault{{Op: faultfs.OpRename, Path: ManifestName}},
			post:   3,
			acked:  2,
		},
		{
			name:  "crash between WAL commit and checkpoint",
			prime: 10,
			acked: 10,
		},
		{
			// Every append checkpoints, so the first one after the script
			// installs hits the failing segment fsync: it is still
			// acknowledged (its WAL record committed and is replayed at
			// recovery), the segment is poisoned, and the rest are refused.
			name:   "open segment poisoned on first fsync failure",
			opts:   Options{CheckpointBytes: 1},
			prime:  2,
			script: []faultfs.Fault{{Op: faultfs.OpSync, Path: "seg-"}},
			post:   4,
			acked:  3,
			sticky: true,
		},
		{
			// (Row names here say "log": a fault's Path matches anywhere in
			// the file's path, test directory included.) The first commit
			// after an open runs past the blocks the log holds, so its flush is the one that must also make a zero-fill
			// step durable. It fails: nothing was acknowledged, nothing is.
			name:   "fail the log fsync that follows a zero-fill step",
			script: []faultfs.Fault{{Op: faultfs.OpSync, Path: wal.FileName}},
			post:   5,
			acked:  0,
			sticky: true,
		},
		{
			// Appends 1 and 2 commit to the log, the third crosses the
			// threshold and rewinds it; the process dies on the next
			// commit's write. The log is then a new cycle's header over the
			// old cycle's frames, which must stay dead.
			name:   "kill between log rewind and the next commit",
			opts:   Options{CheckpointBytes: 180},
			prime:  3,
			script: []faultfs.Fault{{Op: faultfs.OpWrite, Path: wal.FileName, Kill: true}},
			post:   2,
			acked:  3,
			sticky: true,
		},
		{
			// Seal has published the segment and checkpointed the log; the
			// process dies giving the log's blocks back.
			name:   "kill inside seal between log checkpoint and trim",
			prime:  5,
			script: []faultfs.Fault{{Op: faultfs.OpTruncate, Path: wal.FileName, Kill: true}},
			seal:   true,
			sealed: true,
			post:   2,
			acked:  5,
			sticky: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := faultfs.NewSim()
			opts := tc.opts
			if opts.CheckpointBytes == 0 {
				opts.CheckpointBytes = 1 << 30 // no checkpoints unless the case wants them
			}
			c, dir := faultOpen(t, sim, opts)
			var acked [][]byte
			tryAppend := func(d []byte) error {
				id, err := c.Append(d)
				if err != nil {
					return err
				}
				if id != len(acked) {
					t.Fatalf("Append returned id %d, want %d", id, len(acked))
				}
				acked = append(acked, d)
				return nil
			}
			for i := 0; i < tc.prime; i++ {
				if err := tryAppend(doc(i)); err != nil {
					t.Fatalf("prime append %d: %v", i, err)
				}
			}
			sim.SetScript(tc.script...)
			if tc.seal {
				if err := c.Seal(); (err == nil) != tc.sealed {
					t.Fatalf("Seal across the scripted fault = %v", err)
				}
			}
			failures := 0
			for i := 0; i < tc.post; i++ {
				err := tryAppend(doc(tc.prime + i))
				if err != nil {
					failures++
					continue
				}
				if failures > 0 && tc.sticky {
					t.Fatalf("append %d succeeded after a failure: writer not poisoned", i)
				}
			}
			if len(tc.script) > 0 && tc.post > 0 && failures == 0 {
				t.Fatal("scripted fault never fired")
			}
			if len(acked) != tc.acked {
				t.Fatalf("acknowledged %d appends, want %d", len(acked), tc.acked)
			}

			abandon(c) // a dead process still closes its descriptors in-test
			if err := sim.Crash(sim.JournalLen()); err != nil {
				t.Fatalf("crash: %v", err)
			}
			if len(tc.walSuffix) > 0 {
				f, err := os.OpenFile(filepath.Join(dir, wal.FileName), os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(tc.walSuffix); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}

			c2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			if n := c2.NumDocs(); n != len(acked) {
				t.Fatalf("recovered %d documents, want %d acknowledged", n, len(acked))
			}
			for id, want := range acked {
				got, err := c2.Get(id)
				if err != nil {
					t.Fatalf("acked doc %d unreadable after recovery: %v", id, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("acked doc %d corrupted: got %d bytes, want %d", id, len(got), len(want))
				}
			}
			if _, err := c2.GC(); err != nil {
				t.Fatalf("GC after recovery: %v", err)
			}
			// Recovery must leave a writable collection.
			if id, err := c2.Append([]byte("post-recovery probe")); err != nil || id != len(acked) {
				t.Fatalf("append after recovery = (%d, %v), want (%d, nil)", id, err, len(acked))
			}
			if err := c2.Close(); err != nil {
				t.Fatalf("close after recovery: %v", err)
			}
			// Second recovery is idempotent.
			c3, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("second recovery: %v", err)
			}
			if n := c3.NumDocs(); n != len(acked)+1 {
				t.Fatalf("second recovery sees %d documents, want %d", n, len(acked)+1)
			}
			c3.Close()
		})
	}
}

// TestRecoverFrames damages the open segment's file the ways a crash or
// the medium can, after every append was acknowledged and none
// checkpointed, and recovers twice. With the write-ahead log, every
// acknowledged document comes back byte-identical whatever the segment
// lost: recovery keeps what verifies and replays the rest. Without it (an
// Async-mode crash: the segment is the only copy) exactly the documents
// before the damage survive — a prefix, never a torn or a phantom one.
func TestRecoverFrames(t *testing.T) {
	docs := make([][]byte, 8)
	for i := range docs {
		docs[i] = bytes.Repeat([]byte(fmt.Sprintf("<doc %d spans more than one page>", i)), 200)
	}
	cases := []struct {
		name string
		seal bool // the footer of a seal that never published is on the file
		// The damage starts off bytes from where document doc's frame
		// starts (doc 8: where the last frame ends): that many zeros are
		// written over the file there, or with none it is truncated there.
		doc     int
		off     int64
		zeros   int
		survive int // documents the segment alone still holds
	}{
		// The size reached the disk, one page of an acknowledged document
		// did not: its length still "fits", its bytes do not verify.
		{name: "zeroed page inside a document", doc: 5, off: frameHeader + 1000, zeros: 4096, survive: 5},
		// Eight zero bytes are not an empty document.
		{name: "zeros past the last frame", doc: 8, zeros: 64 << 10, survive: 8},
		{name: "torn frame header", doc: 7, off: 3, survive: 7},
		{name: "torn document", doc: 8, off: -1, survive: 7},
		{name: "valid frames after a torn one", doc: 5, off: -100, zeros: 100, survive: 4},
		{name: "torn seal footer", seal: true, doc: 8, off: 7, survive: 8},
		{name: "header lost", doc: 0, off: -3, survive: 0},
	}
	for _, tc := range cases {
		for _, logged := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/log=%v", tc.name, logged), func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "coll")
				if err := Init(dir); err != nil {
					t.Fatal(err)
				}
				c, err := Open(dir, Options{CheckpointBytes: 1 << 30})
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range docs {
					if _, err := c.Append(d); err != nil {
						t.Fatal(err)
					}
				}
				open := c.view.Load().open
				path, at := filepath.Join(dir, open.name), open.Size()
				if tc.doc < len(docs) {
					_, at = frameStart(t, c, tc.doc)
				}
				if tc.seal {
					if err := open.seal(); err != nil {
						t.Fatal(err)
					}
				}
				abandon(c)
				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				if tc.zeros > 0 {
					_, err = f.WriteAt(make([]byte, tc.zeros), at+tc.off)
				} else {
					err = f.Truncate(at + tc.off)
				}
				if cerr := f.Close(); err != nil || cerr != nil {
					t.Fatal(err, cerr)
				}
				want := docs
				if !logged {
					dropWAL(t, dir)
					want = docs[:tc.survive]
				}
				// Recovery leaves a writable segment that seals into an
				// ordinary archive, and a second one finds nothing to do.
				c2 := reopenCheck(t, dir, want)
				want = append(want[:len(want):len(want)], []byte("post-recovery probe"))
				if id, err := c2.Append(want[len(want)-1]); err != nil || id != len(want)-1 {
					t.Fatalf("append after recovery = (%d, %v), want id %d", id, err, len(want)-1)
				}
				if err := c2.Seal(); err != nil {
					t.Fatal(err)
				}
				checkDocs(t, c2, want, nil)
				if err := c2.Close(); err != nil {
					t.Fatal(err)
				}
				reopenCheck(t, dir, want)
			})
		}
	}
}

// harnessDoc builds one self-identifying payload: the unique header pins
// which attempt it was, the trailing marker means any truncation differs
// from every attempted payload — torn bytes cannot masquerade as a
// document.
func harnessDoc(seed int64, i int, rng *rand.Rand) []byte {
	b := []byte(fmt.Sprintf("<s%d-a%03d>", seed, i))
	n := rng.Intn(256)
	for j := 0; j < n; j++ {
		b = append(b, byte('a'+rng.Intn(26)))
	}
	return append(b, '#')
}

// TestFaultKillPointHarness runs hundreds of seeded fault scripts: each
// seed drives a randomized append/seal workload over the injector with
// one scripted fault (a kill at a random global step, a torn WAL write,
// a failed fsync, or a dropped rename), loses power with a random
// journal prefix surviving, recovers, and asserts the contract — every
// acknowledged append is byte-identical, every readable id holds a
// payload that was actually handed to Append, and the recovered
// collection accepts new writes.
func TestFaultKillPointHarness(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			runKillPoint(t, int64(seed), 0)
		})
	}
	// The same scripts with a threshold two or three appends reach, so
	// each one rewinds the log several times before its fault lands and
	// recovery always meets an earlier cycle's frames past the tail.
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("rewinding/seed=%03d", seed), func(t *testing.T) {
			runKillPoint(t, int64(seed), 400)
		})
	}
}

// runKillPoint runs one seeded script; checkpointBytes 0 draws the
// threshold from the seed.
func runKillPoint(t *testing.T, seed, checkpointBytes int64) {
	rng := rand.New(rand.NewSource(seed))
	sim := faultfs.NewSim()
	dir := filepath.Join(t.TempDir(), "coll")
	if err := Init(dir); err != nil {
		t.Fatal(err)
	}
	// Small, varied checkpoint threshold: some runs crash mid-burn with
	// records only in the WAL, others right after a checkpoint truncated
	// it — both sides of the checkpoint boundary get crashed on.
	if drawn := int64(1<<10 + rng.Intn(1<<14)); checkpointBytes == 0 {
		checkpointBytes = drawn
	}
	c, err := Open(dir, Options{FS: sim, CheckpointBytes: checkpointBytes})
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	var script faultfs.Fault
	switch rng.Intn(4) {
	case 0: // power cut at a random step of the op stream
		script = faultfs.Fault{Op: faultfs.OpAny, N: 1 + rng.Intn(160), Kill: true}
	case 1: // torn WAL write at the cut
		script = faultfs.Fault{Op: faultfs.OpWrite, Path: wal.FileName,
			N: 1 + rng.Intn(20), Tear: rng.Intn(40), Kill: true}
	case 2: // one fsync fails, the process lives on
		script = faultfs.Fault{Op: faultfs.OpSync, N: 1 + rng.Intn(40)}
	case 3: // one rename never reaches the directory
		script = faultfs.Fault{Op: faultfs.OpRename, N: 1 + rng.Intn(4)}
	}
	sim.SetScript(script)

	attempted := make(map[string]bool)
	acked := make(map[int][]byte)
	attempts := 10 + rng.Intn(30)
	fails := 0
	for i := 0; i < attempts && fails < 5; i++ {
		payload := harnessDoc(seed, i, rng)
		attempted[string(payload)] = true
		id, err := c.Append(payload)
		if err != nil {
			fails++
			continue
		}
		if prev, dup := acked[id]; dup {
			t.Fatalf("id %d acknowledged twice (%q then %q)", id, prev, payload)
		}
		acked[id] = payload
		if rng.Intn(8) == 0 {
			_ = c.Seal() // may die mid-seal; that is the point
		}
	}
	abandon(c)
	if err := sim.Crash(rng.Intn(sim.JournalLen() + 1)); err != nil {
		t.Fatalf("crash: %v", err)
	}

	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery open (fault %+v): %v", script, err)
	}
	defer c2.Close()
	n := c2.NumDocs()
	for id, want := range acked {
		if id >= n {
			t.Fatalf("acked id %d lost: NumDocs = %d (fault %+v)", id, n, script)
		}
		got, err := c2.Get(id)
		if err != nil {
			t.Fatalf("acked id %d unreadable (fault %+v): %v", id, script, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("acked id %d corrupted: got %d bytes, want %d (fault %+v)",
				id, len(got), len(want), script)
		}
	}
	for id := 0; id < n; id++ {
		got, err := c2.Get(id)
		if err != nil {
			t.Fatalf("recovered id %d unreadable (fault %+v): %v", id, script, err)
		}
		if !attempted[string(got)] {
			t.Fatalf("recovered id %d holds torn bytes: %d bytes not matching any attempted payload (fault %+v)",
				id, len(got), script)
		}
	}
	if _, err := c2.Append([]byte("post-recovery probe")); err != nil {
		t.Fatalf("append after recovery (fault %+v): %v", script, err)
	}
}
