package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/collection"
	"rlz/internal/store"
)

// writeDocs lays out a small document tree and returns the dir and the
// expected contents in lexical path order.
func writeDocs(t *testing.T) (string, [][]byte) {
	t.Helper()
	dir := t.TempDir()
	var docs [][]byte
	for i := 0; i < 12; i++ {
		body := []byte(fmt.Sprintf("<html><body>document %d — shared boilerplate text "+
			"shared boilerplate text</body></html>", i))
		path := filepath.Join(dir, fmt.Sprintf("doc%02d.html", i))
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, body)
	}
	return dir, docs
}

func TestBuildAndReadBack(t *testing.T) {
	dir, docs := writeDocs(t)
	arc := filepath.Join(t.TempDir(), "out.rlz")
	if err := cmdBuild([]string{"-o", arc, "-dir", dir, "-codec", "ZV", "-dict", "256B", "-sample", "64B"}); err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenFile(arc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumDocs() != len(docs) {
		t.Fatalf("NumDocs = %d, want %d", r.NumDocs(), len(docs))
	}
	for i, want := range docs {
		got, err := r.Get(i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d): %q, %v", i, got, err)
		}
	}
}

func TestBuildExplicitFiles(t *testing.T) {
	dir, docs := writeDocs(t)
	arc := filepath.Join(t.TempDir(), "out.rlz")
	args := []string{"-o", arc, "-codec", "US"}
	args = append(args, filepath.Join(dir, "doc00.html"), filepath.Join(dir, "doc03.html"))
	if err := cmdBuild(args); err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenFile(arc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.Get(1)
	if err != nil || !bytes.Equal(got, docs[3]) {
		t.Fatalf("Get(1) = %q, %v", got, err)
	}
}

func TestBuildErrors(t *testing.T) {
	if err := cmdBuild([]string{"-o", ""}); err == nil {
		t.Error("missing -o accepted")
	}
	if err := cmdBuild([]string{"-o", filepath.Join(t.TempDir(), "x.rlz")}); err == nil {
		t.Error("no inputs accepted")
	}
	if err := cmdBuild([]string{"-o", "x.rlz", "-codec", "QQ", "some-file"}); err == nil {
		t.Error("bad codec accepted")
	}
	if err := cmdBuild([]string{"-o", "x.rlz", "-dict", "wat", "some-file"}); err == nil {
		t.Error("bad dict size accepted")
	}
	if err := cmdBuild([]string{"-o", filepath.Join(t.TempDir(), "x.rlz"), "/nonexistent/file"}); err == nil {
		t.Error("missing input file accepted")
	}
}

// TestVerifyAndStats: both commands run clean on a fresh archive
// (TestVerifyReport damages one).
func TestVerifyAndStats(t *testing.T) {
	dir, _ := writeDocs(t)
	arc := filepath.Join(t.TempDir(), "out.rlz")
	if err := cmdBuild([]string{"-o", arc, "-dir", dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-a", arc}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := cmdStats([]string{"-a", arc}); err != nil {
		t.Fatalf("stats: %v", err)
	}
}

// TestVerifyReport: verify's two outputs — the clean count with the
// tombstones apart, and on damage the lowest bad id, the one a
// sequential scan meets first — over a single .rlz, a block archive and
// a shard-built collection with one tombstone, at more workers than
// there are chunks to share.
func TestVerifyReport(t *testing.T) {
	dir, docs := writeDocs(t)
	// record names a document to damage: its file within the collection
	// ("" for the archive itself) and its id there.
	type record struct {
		file string
		id   int
	}
	for name, tc := range map[string]struct {
		build  []string
		tomb   bool
		damage []record
	}{
		"rlz":   {build: []string{"-codec", "ZV"}, damage: []record{{"", 10}, {"", 7}}},
		"block": {build: []string{"-backend", "block", "-block", "256B"}, damage: []record{{"", 10}, {"", 7}}},
		// Round robin: global ids 4-7 are seg-00000002's, 8-11 seg-00000003's.
		"shards": {build: []string{"-shards", "3"}, tomb: true, damage: []record{{"seg-00000003", 2}, {"seg-00000002", 3}}},
	} {
		t.Run(name, func(t *testing.T) {
			arc := filepath.Join(t.TempDir(), "a")
			if err := cmdBuild(append([]string{"-o", arc, "-dir", dir}, tc.build...)); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("%s: %d documents decode cleanly (", arc, len(docs))
			if tc.tomb {
				c, err := collection.Open(arc, collection.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Delete(4); err != nil {
					t.Fatal(err)
				}
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
				want = fmt.Sprintf("%s: %d documents decode cleanly, 1 tombstoned (", arc, len(docs)-1)
			}
			verify := func() (string, error) {
				return captureStdout(t, func() error { return cmdVerify([]string{"-a", arc, "-workers", "5"}) })
			}
			if out, err := verify(); err != nil || !strings.HasPrefix(out, want) {
				t.Fatalf("verify = %q, %v; want %q...", out, err, want)
			}
			for _, d := range tc.damage {
				corruptRecord(t, filepath.Join(arc, d.file), d.id)
			}
			first := firstBadID(t, arc)
			if _, err := verify(); err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("document %d: ", first)) {
				t.Fatalf("verify of a damaged archive = %v, want document %d first", err, first)
			}
		})
	}
}

// corruptRecord flips a byte inside the stored record of document id of
// the single-file archive at path (a ZV record: inside its checksummed
// position stream).
func corruptRecord(t *testing.T, path string, id int) {
	t.Helper()
	r, err := archive.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off, n, err := r.Extent(id)
	r.Close()
	data, rerr := os.ReadFile(path)
	if err != nil || rerr != nil {
		t.Fatal(err, rerr)
	}
	data[off+min(8, n/2)] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// firstBadID is the reference: the first id, in order, whose read fails
// for any reason but a tombstone.
func firstBadID(t *testing.T, arc string) int {
	t.Helper()
	r, err := archive.Open(arc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for id := 0; id < r.NumDocs(); id++ {
		if _, err := r.Get(id); err != nil && !errors.Is(err, collection.ErrDeleted) {
			return id
		}
	}
	t.Fatal("the damage went undetected")
	return -1
}

func TestGetAndCatArgErrors(t *testing.T) {
	if err := cmdGet([]string{"-a", "", "-id", "0"}); err == nil {
		t.Error("get without archive accepted")
	}
	if err := cmdGet([]string{"-a", "x.rlz"}); err == nil {
		t.Error("get without id accepted")
	}
	if err := cmdCat([]string{}); err == nil {
		t.Error("cat without archive accepted")
	}
	if err := cmdGet([]string{"-a", "/nonexistent.rlz", "-id", "0"}); err == nil {
		t.Error("get on missing archive accepted")
	}
}

// TestBuildEveryBackendEndToEnd is the CLI half of the acceptance
// criteria: build with -backend {rlz,block,raw}, then get/verify/stats
// work on each without being told the backend.
func TestBuildEveryBackendEndToEnd(t *testing.T) {
	dir, docs := writeDocs(t)
	for _, backend := range []string{"rlz", "block", "raw"} {
		arc := filepath.Join(t.TempDir(), "out."+backend)
		args := []string{"-o", arc, "-backend", backend, "-dir", dir}
		if backend == "block" {
			args = append(args, "-block", "128B", "-alg", "zlib")
		}
		if err := cmdBuild(args); err != nil {
			t.Fatalf("%s: build: %v", backend, err)
		}
		r, err := archive.Open(arc)
		if err != nil {
			t.Fatalf("%s: open: %v", backend, err)
		}
		if got := string(r.Stats().Backend); got != backend {
			t.Fatalf("auto-detected %q, want %q", got, backend)
		}
		for i, want := range docs {
			got, err := r.Get(i)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: Get(%d): %q, %v", backend, i, got, err)
			}
		}
		r.Close()
		if err := cmdVerify([]string{"-a", arc}); err != nil {
			t.Fatalf("%s: verify: %v", backend, err)
		}
		if err := cmdStats([]string{"-a", arc}); err != nil {
			t.Fatalf("%s: stats: %v", backend, err)
		}
		if err := cmdGet([]string{"-a", arc, "-id", "3"}); err != nil {
			t.Fatalf("%s: get: %v", backend, err)
		}
	}
}

func TestBuildBackendErrors(t *testing.T) {
	dir, _ := writeDocs(t)
	arc := filepath.Join(t.TempDir(), "x.arc")
	if err := cmdBuild([]string{"-o", arc, "-backend", "zip", "-dir", dir}); err == nil {
		t.Error("unknown backend accepted")
	}
	if err := cmdBuild([]string{"-o", arc, "-backend", "block", "-alg", "brotli", "-dir", dir}); err == nil {
		t.Error("unknown block algorithm accepted")
	}
	if err := cmdBuild([]string{"-o", arc, "-backend", "block", "-block", "wat", "-dir", dir}); err == nil {
		t.Error("bad block size accepted")
	}
}

func TestGetOutOfRangeID(t *testing.T) {
	dir, _ := writeDocs(t)
	arc := filepath.Join(t.TempDir(), "out.rlz")
	if err := cmdBuild([]string{"-o", arc, "-dir", dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGet([]string{"-a", arc, "-id", "9999"}); err == nil {
		t.Error("out-of-range id accepted")
	}
}

// TestBuildShardedEndToEnd: -shards N writes a collection directory that
// every read command opens like a single archive (directory or manifest
// path), for all three backends; the write commands then take it from
// there, and a second build over it is refused.
func TestBuildShardedEndToEnd(t *testing.T) {
	dir, docs := writeDocs(t)
	for _, backend := range []string{"rlz", "block", "raw"} {
		out := filepath.Join(t.TempDir(), "set."+backend)
		args := []string{"-o", out, "-backend", backend, "-shards", "3", "-dir", dir}
		if backend == "block" {
			args = append(args, "-block", "128B")
		}
		if err := cmdBuild(args); err != nil {
			t.Fatalf("%s: build: %v", backend, err)
		}
		r, err := archive.Open(out)
		if err != nil {
			t.Fatalf("%s: open dir: %v", backend, err)
		}
		col, ok := archive.As[*collection.Collection](r)
		if !ok {
			t.Fatalf("%s: -shards wrote something that opens as %T, not a collection", backend, r)
		}
		if info := col.Info(); len(info.Segments) != 3 || string(info.Segments[0].Backend) != backend {
			t.Fatalf("%s: segments = %+v, want 3 of that backend", backend, info.Segments)
		}
		if r.NumDocs() != len(docs) {
			t.Fatalf("%s: NumDocs = %d, want %d", backend, r.NumDocs(), len(docs))
		}
		// Round-robin routing serves shard 0's documents first; check
		// the full content set matches regardless of order.
		seen := map[string]int{}
		for i := 0; i < r.NumDocs(); i++ {
			doc, err := r.Get(i)
			if err != nil {
				t.Fatalf("%s: Get(%d): %v", backend, i, err)
			}
			seen[string(doc)]++
		}
		for _, want := range docs {
			if seen[string(want)] != 1 {
				t.Fatalf("%s: document %q served %d times", backend, want[:30], seen[string(want)])
			}
		}
		r.Close()
		if err := cmdVerify([]string{"-a", out}); err != nil {
			t.Fatalf("%s: verify: %v", backend, err)
		}
		if err := cmdStats([]string{"-a", out}); err != nil {
			t.Fatalf("%s: stats: %v", backend, err)
		}
		// The manifest path works as well as the directory.
		if err := cmdGet([]string{"-a", filepath.Join(out, "MANIFEST"), "-id", "0"}); err != nil {
			t.Fatalf("%s: get via manifest: %v", backend, err)
		}
		// The build was a bulk load: the live commands carry on from it.
		if err := cmdAppend([]string{"-a", out, filepath.Join(dir, "doc00.html")}); err != nil {
			t.Fatalf("%s: append after build: %v", backend, err)
		}
		if err := cmdCompact([]string{"-a", out}); err != nil {
			t.Fatalf("%s: compact after build: %v", backend, err)
		}
		if err := cmdGet([]string{"-a", out, "-id", fmt.Sprint(len(docs))}); err != nil {
			t.Fatalf("%s: get of the appended document: %v", backend, err)
		}
		if err := cmdVerify([]string{"-a", out}); err != nil {
			t.Fatalf("%s: verify after compact: %v", backend, err)
		}
		if err := cmdGC([]string{"-a", out}); err != nil {
			t.Fatalf("%s: gc: %v", backend, err)
		}
		// And a second build must not run over it.
		if err := cmdBuild(args); err == nil {
			t.Fatalf("%s: build -shards over an existing collection accepted", backend)
		}
		if err := cmdVerify([]string{"-a", out}); err != nil {
			t.Fatalf("%s: verify after the refused rebuild: %v", backend, err)
		}
	}
}

// TestGrepOverShardSet: the scan spans shards with globally remapped
// ids, and refuses the empty pattern as it does on a single file.
func TestGrepOverShardSet(t *testing.T) {
	dir, _ := writeDocs(t)
	out := filepath.Join(t.TempDir(), "set")
	if err := cmdBuild([]string{"-o", out, "-shards", "4", "-dir", dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGrep([]string{"-a", out, "boilerplate"}); err != nil {
		t.Fatalf("grep over shard set: %v", err)
	}
	if err := cmdGrep([]string{"-a", out, ""}); err == nil || !strings.Contains(err.Error(), "empty search pattern") {
		t.Errorf("grep for the empty pattern over a shard set = %v, want a refusal", err)
	}
}
