package collection

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rlz/internal/faultfs"
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
// Close it flushes and trims nothing on the way out: the crash that
// follows must find the segment as the fault left it.
func abandon(c *Collection) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.view.Load().unref()
}

// TestFaultMatrix drives the append protocol into one scripted fault per
// case and asserts byte-identical recovery of every acknowledged
// document. Cases marked sticky additionally pin the poisoned-writer
// contract: after the first failed acknowledgment, every later append
// on the same handle must keep failing rather than silently resume over
// a broken segment. "WAL" and "log" in a row name mean the open segment:
// it is the collection's log.
func TestFaultMatrix(t *testing.T) {
	doc := func(i, size int) []byte {
		d := []byte(fmt.Sprintf("<doc %03d>matrix payload %d quick brown fox</doc>", i, i*31))
		if size > len(d) {
			d = append(d, bytes.Repeat([]byte{'a' + byte(i%26)}, size-len(d))...)
		}
		return d
	}
	// seg matches the segment files' writes and flushes, and nothing
	// else: a fault's Path matches anywhere in the file's path, test
	// directory included.
	const seg = "seg-"
	cases := []struct {
		name    string
		docSize int             // pad every document to this many bytes
		prime   int             // appends that must ack before the script installs
		script  []faultfs.Fault // installed after priming
		seal    bool            // attempt a Seal after the script installs (must fail, unless sealed)
		sealed  bool            // the fault lands after the seal's publish: Seal succeeds
		post    int             // append attempts after the script installs
		acked   int             // total acknowledged appends expected
		sticky  bool            // appends must keep failing after the first failure
		// written skips the power cut: the process dies, the page cache
		// survives, and recovery reads everything that was written.
		written bool
		// extra counts the unacknowledged documents recovery must find
		// whole behind the acknowledged ones: the first extra that failed.
		extra int
		// segSuffix is written at the open segment's end after the crash
		// — a torn tail that DID reach durable media (the in-process tear
		// cases model one that did not).
		segSuffix []byte
	}{
		{
			name:   "fail WAL fsync N",
			prime:  3,
			script: []faultfs.Fault{{Op: faultfs.OpSync, Path: seg, N: 2}},
			post:   5,
			acked:  4,
			sticky: true,
		},
		{
			name:   "torn WAL write at crash",
			prime:  5,
			script: []faultfs.Fault{{Op: faultfs.OpWrite, Path: seg, Tear: 7, Kill: true}},
			post:   3,
			acked:  5,
			sticky: true,
		},
		{
			name:      "torn WAL tail: partial length prefix",
			prime:     5,
			acked:     5,
			segSuffix: []byte{0x40, 0x00},
		},
		{
			name:      "torn WAL tail: frame header only",
			prime:     5,
			acked:     5,
			segSuffix: []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef},
		},
		{
			name:      "torn WAL tail: partial payload",
			prime:     5,
			acked:     5,
			segSuffix: []byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'j', 'u', 'n', 'k'},
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
			// The sixth frame is written, its flush never runs: after the
			// power cut it is absent, and the next id is its id again.
			name:   "kill between a frame's write and its flush",
			prime:  5,
			script: []faultfs.Fault{{Op: faultfs.OpSync, Path: seg, Kill: true}},
			post:   1,
			acked:  5,
			sticky: true,
		},
		{
			// The same kill, but the page cache outlives the process: the
			// unacknowledged frame is whole, and it keeps its id.
			name:    "kill -9 between a frame's write and its flush",
			prime:   5,
			script:  []faultfs.Fault{{Op: faultfs.OpSync, Path: seg, Kill: true}},
			post:    1,
			acked:   5,
			written: true,
			extra:   1,
		},
		{
			name:   "open segment poisoned on first fsync failure",
			prime:  2,
			script: []faultfs.Fault{{Op: faultfs.OpSync, Path: seg}},
			post:   4,
			acked:  2,
			sticky: true,
		},
		{
			// The first append to a fresh segment runs past the blocks it
			// holds, so its flush (the segment's second, after the
			// header's) is the one that must also make a zero-fill step
			// durable. It fails: nothing was acknowledged, nothing is.
			name:   "fail the log fsync that follows a zero-fill step",
			script: []faultfs.Fault{{Op: faultfs.OpSync, Path: seg, N: 2}},
			post:   5,
			acked:  0,
			sticky: true,
		},
		{
			// Three 300 KB documents fit the first fill step; the fourth
			// crosses it, and the flush after its fill fails. The three
			// survive, the fourth and every later append fail.
			name:    "fail the flush that follows a later fill step",
			docSize: 300 << 10,
			prime:   3,
			script:  []faultfs.Fault{{Op: faultfs.OpSync, Path: seg}},
			post:    3,
			acked:   3,
			sticky:  true,
		},
		{
			// The fourth 300 KB frame straddles the first 1 MiB boundary
			// and is torn past it; the process dies with the torn bytes in
			// the page cache.
			name:    "tear a frame that straddles a fill boundary",
			docSize: 300 << 10,
			prime:   3,
			script:  []faultfs.Fault{{Op: faultfs.OpWrite, Path: seg, Tear: 200 << 10, Kill: true}},
			post:    1,
			acked:   3,
			written: true,
		},
		{
			// The first append fills the file a step ahead and puts the
			// write offset back behind its frame; the process dies on the
			// next frame's write.
			name:   "kill between log rewind and the next commit",
			prime:  1,
			script: []faultfs.Fault{{Op: faultfs.OpWrite, Path: seg, Kill: true}},
			post:   2,
			acked:  1,
			sticky: true,
		},
		{
			// Seal has cut the zero fill; the process dies writing the
			// footer.
			name:   "kill inside seal after the truncate",
			prime:  5,
			script: []faultfs.Fault{{Op: faultfs.OpWrite, Path: seg, Kill: true}},
			seal:   true,
			post:   2,
			acked:  5,
			sticky: true,
		},
		{
			name:   "kill inside seal after the footer, before its flush",
			prime:  5,
			script: []faultfs.Fault{{Op: faultfs.OpSync, Path: seg, Kill: true}},
			seal:   true,
			post:   2,
			acked:  5,
			sticky: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := faultfs.NewSim()
			c, dir := faultOpen(t, sim, Options{})
			var acked, unacked [][]byte
			tryAppend := func(d []byte) error {
				id, err := c.Append(d)
				if err != nil {
					unacked = append(unacked, d)
					return err
				}
				if id != len(acked) {
					t.Fatalf("Append returned id %d, want %d", id, len(acked))
				}
				acked = append(acked, d)
				return nil
			}
			for i := 0; i < tc.prime; i++ {
				if err := tryAppend(doc(i, tc.docSize)); err != nil {
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
				err := tryAppend(doc(tc.prime+i, tc.docSize))
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

			var segPath string
			var segEnd int64
			if open := c.view.Load().open; open != nil {
				segPath, segEnd = filepath.Join(dir, open.name), open.Size()
			}
			abandon(c) // a dead process still closes its descriptors in-test
			if !tc.written {
				if err := sim.Crash(sim.JournalLen()); err != nil {
					t.Fatalf("crash: %v", err)
				}
			}
			if len(tc.segSuffix) > 0 {
				f, err := os.OpenFile(segPath, os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt(tc.segSuffix, segEnd); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}

			want := append(acked[:len(acked):len(acked)], unacked[:tc.extra]...)
			c2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			if n := c2.NumDocs(); n != len(want) {
				t.Fatalf("recovered %d documents, want %d acknowledged and %d whole unacknowledged", n, len(acked), tc.extra)
			}
			for id, want := range want {
				got, err := c2.Get(id)
				if err != nil {
					t.Fatalf("doc %d unreadable after recovery: %v", id, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("doc %d corrupted: got %d bytes, want %d", id, len(got), len(want))
				}
			}
			if _, err := c2.GC(); err != nil {
				t.Fatalf("GC after recovery: %v", err)
			}
			// Recovery must leave a writable collection.
			if id, err := c2.Append([]byte("post-recovery probe")); err != nil || id != len(want) {
				t.Fatalf("append after recovery = (%d, %v), want (%d, nil)", id, err, len(want))
			}
			if err := c2.Close(); err != nil {
				t.Fatalf("close after recovery: %v", err)
			}
			// Second recovery is idempotent.
			c3, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("second recovery: %v", err)
			}
			if n := c3.NumDocs(); n != len(want)+1 {
				t.Fatalf("second recovery sees %d documents, want %d", n, len(want)+1)
			}
			c3.Close()
		})
	}
}

// TestRecoverFrames damages the open segment's file the ways a crash or
// the medium can, after every append was acknowledged, and recovers
// twice. Alone (the segment is the only copy) exactly the documents
// before the damage survive — a prefix, never a torn or a phantom one.
// With a write-ahead log an older release left beside it (log=true) the
// directory is refused before recovery cuts anything; once the log is
// gone, recovery runs as it does alone.
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
				c, err := Open(dir, Options{})
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
				if logged {
					checkLogRefused(t, dir)
				}
				// Recovery leaves a writable segment that seals into an
				// ordinary archive, and a second one finds nothing to do.
				want := docs[:tc.survive]
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
// document. big payloads run 300–800 KB of one letter.
func harnessDoc(seed int64, i int, rng *rand.Rand, big bool) []byte {
	b := []byte(fmt.Sprintf("<s%d-a%03d>", seed, i))
	if big {
		b = append(b, bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 300<<10+rng.Intn(500<<10))...)
		return append(b, '#')
	}
	n := rng.Intn(256)
	for j := 0; j < n; j++ {
		b = append(b, byte('a'+rng.Intn(26)))
	}
	return append(b, '#')
}

// TestFaultKillPointHarness runs hundreds of seeded fault scripts: each
// seed drives a randomized append/seal workload over the injector with
// one scripted fault (a kill at a random global step, a torn segment
// write, a failed fsync, or a dropped rename), loses power with a random
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
			runKillPoint(t, int64(seed), false)
		})
	}
	// The same scripts over 300–800 KB documents: the writer fills the
	// file a step ahead and rewinds its offset behind the last frame
	// every few appends, so faults land on fill writes, on flushes that
	// follow one, and on frames that straddle a step.
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("rewinding/seed=%03d", seed), func(t *testing.T) {
			runKillPoint(t, int64(seed), true)
		})
	}
}

// runKillPoint runs one seeded script, over big documents if big.
func runKillPoint(t *testing.T, seed int64, big bool) {
	rng := rand.New(rand.NewSource(seed))
	sim := faultfs.NewSim()
	dir := filepath.Join(t.TempDir(), "coll")
	if err := Init(dir); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, Options{FS: sim})
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// A big run makes fewer appends, each a larger share of its steps.
	attempts, steps, tear := 10+rng.Intn(30), 160, 40
	if big {
		attempts, steps, tear = 4+rng.Intn(8), 40, 800<<10
	}
	var script faultfs.Fault
	switch rng.Intn(4) {
	case 0: // power cut at a random step of the op stream
		script = faultfs.Fault{Op: faultfs.OpAny, N: 1 + rng.Intn(steps), Kill: true}
	case 1: // torn segment write at the cut
		script = faultfs.Fault{Op: faultfs.OpWrite, Path: "seg-",
			N: 1 + rng.Intn(steps/8), Tear: rng.Intn(tear), Kill: true}
	case 2: // one fsync fails, the process lives on
		script = faultfs.Fault{Op: faultfs.OpSync, N: 1 + rng.Intn(steps/4)}
	case 3: // one rename never reaches the directory
		script = faultfs.Fault{Op: faultfs.OpRename, N: 1 + rng.Intn(4)}
	}
	sim.SetScript(script)

	attempted := make(map[string]bool)
	acked := make(map[int][]byte)
	fails := 0
	for i := 0; i < attempts && fails < 5; i++ {
		payload := harnessDoc(seed, i, rng, big)
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
