package main

import (
	"bytes"
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
	// Corrupt a document record (not the dictionary — plain dictionary
	// bytes carry no redundancy to check, by design): verify must fail
	// because the ZV codec's zlib-coded position stream is checksummed.
	r, err := store.OpenFile(arc)
	if err != nil {
		t.Fatal(err)
	}
	off, _, err := r.Extent(0)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	data, err := os.ReadFile(arc)
	if err != nil {
		t.Fatal(err)
	}
	data[off+8] ^= 0xFF
	bad := filepath.Join(t.TempDir(), "bad.rlz")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-a", bad}); err == nil {
		t.Error("verify accepted a corrupted archive")
	}
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
