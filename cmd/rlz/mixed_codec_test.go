package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/collection"
	"rlz/internal/corpus"
	"rlz/internal/rlz"
)

// TestMixedCodecCollection holds a collection whose RLZ segments were
// compacted as ZV — named explicitly, as every collection compacted
// before PV became the default was — and that then gains PV segments
// from a default Compact and a default `rlz compact`. Every document
// reads back byte-identical across reopens, `rlz verify` passes, and
// Info names each segment's codec.
func TestMixedCodecCollection(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "live")
	c := corpus.Generate(corpus.Gov, 3<<20, 11)
	var docs [][]byte
	for _, d := range c.Docs {
		docs = append(docs, d.Body)
	}
	third := len(docs) / 3

	if err := collection.Init(dir); err != nil {
		t.Fatal(err)
	}
	col, err := collection.Open(dir, collection.Options{Async: true})
	if err != nil {
		t.Fatal(err)
	}
	appendDocs := func(from, to int) {
		t.Helper()
		for _, d := range docs[from:to] {
			if _, err := col.Append(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendDocs(0, third)
	if _, err := col.Compact(collection.CompactOptions{Codec: rlz.CodecZV}); err != nil {
		t.Fatal(err)
	}
	appendDocs(third, 2*third)
	if _, err := col.Compact(collection.CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	appendDocs(2*third, len(docs))
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cmdCompact([]string{"-a", dir}); err != nil {
		t.Fatalf("rlz compact: %v", err)
	}

	for round := 0; round < 2; round++ { // each round reopens the directory
		r, err := archive.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for id, want := range docs {
			if got, err := r.Get(id); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("round %d: document %d: %d bytes, %v", round, id, len(got), err)
			}
		}
		col, ok := archive.As[*collection.Collection](r)
		if !ok {
			t.Fatal("not a collection")
		}
		var codecs []string
		for _, s := range col.Info().Segments {
			codecs = append(codecs, s.Codec)
		}
		if len(codecs) != 3 || codecs[0] != "ZV" || codecs[1] != "PV" || codecs[2] != "PV" {
			t.Fatalf("round %d: segment codecs %q, want [ZV PV PV]", round, codecs)
		}
		r.Close()
		if err := cmdVerify([]string{"-a", dir}); err != nil {
			t.Fatalf("round %d: rlz verify: %v", round, err)
		}
	}
}
