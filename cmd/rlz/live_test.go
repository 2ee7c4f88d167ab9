package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/collection"
)

// TestLiveLifecycleCLI walks the whole collection lifecycle through the
// CLI surface: append (auto-init) → read back → compact → read back →
// append more → gc, with every read going through archive.Open exactly
// as get/cat/grep/verify do.
func TestLiveLifecycleCLI(t *testing.T) {
	srcDir, docs := writeDocs(t)
	dir := filepath.Join(t.TempDir(), "live")

	if err := cmdAppend([]string{"-a", dir, "-dir", srcDir}); err != nil {
		t.Fatalf("append: %v", err)
	}
	check := func(stage string, want [][]byte) {
		t.Helper()
		r, err := archive.Open(dir)
		if err != nil {
			t.Fatalf("%s: open: %v", stage, err)
		}
		defer r.Close()
		if r.NumDocs() != len(want) {
			t.Fatalf("%s: NumDocs = %d, want %d", stage, r.NumDocs(), len(want))
		}
		for i, w := range want {
			got, err := r.Get(i)
			if err != nil || !bytes.Equal(got, w) {
				t.Fatalf("%s: Get(%d): %d bytes, %v", stage, i, len(got), err)
			}
		}
	}
	check("after append", docs)

	if err := cmdCompact([]string{"-a", dir, "-dict", "256B", "-sample", "64B"}); err != nil {
		t.Fatalf("compact: %v", err)
	}
	check("after compact", docs)

	// The compacted segment really is RLZ.
	r, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	col, ok := archive.As[*collection.Collection](r)
	if !ok {
		t.Fatal("not a collection")
	}
	info := col.Info()
	if len(info.Segments) != 1 || info.Segments[0].Backend != archive.RLZ {
		t.Fatalf("info = %+v", info)
	}
	r.Close()

	// Append more after compaction; ids continue.
	extra := filepath.Join(srcDir, "doc00.html")
	if err := cmdAppend([]string{"-a", dir, extra}); err != nil {
		t.Fatalf("second append: %v", err)
	}
	check("after second append", append(append([][]byte{}, docs...), docs[0]))

	// verify (with a tombstone present) and grep work over the live dir.
	r, err = archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	col, _ = archive.As[*collection.Collection](r)
	if err := col.Delete(3); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if err := cmdVerify([]string{"-a", dir}); err != nil {
		t.Fatalf("verify with tombstone: %v", err)
	}
	if err := cmdGrep([]string{"-a", dir, "boilerplate"}); err != nil {
		t.Fatalf("grep: %v", err)
	}

	// Plant an orphan; gc removes it and the collection stays intact.
	if err := os.WriteFile(filepath.Join(dir, "seg-09999999.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdGC([]string{"-a", dir}); err != nil {
		t.Fatalf("gc: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-09999999.tmp")); !os.IsNotExist(err) {
		t.Fatalf("gc kept the orphan: %v", err)
	}
	deleted := append(append([][]byte{}, docs...), docs[0])
	r, err = archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, w := range deleted {
		got, err := r.Get(i)
		if i == 3 {
			if err == nil {
				t.Fatalf("deleted doc 3 still served")
			}
			continue
		}
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("Get(%d) after gc: %v", i, err)
		}
	}
}
