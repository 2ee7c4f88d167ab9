package shard

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/coding"
	"rlz/internal/collection"
)

// The SHRD encoder left the product when shard sets became collections;
// what earlier commits wrote must keep opening. marshalV1 is that
// encoder, kept for the tests of the decode half only.
func marshalV1(backend archive.Backend, shards ...ShardInfo) []byte {
	dst := append([]byte(headerMagic), version)
	dst = coding.PutUvarint64(dst, uint64(len(backend)))
	dst = append(dst, backend...)
	dst = coding.PutUvarint64(dst, uint64(len(shards)))
	for _, s := range shards {
		dst = coding.PutUvarint64(dst, uint64(len(s.Path)))
		dst = append(dst, s.Path...)
		dst = coding.PutUvarint64(dst, uint64(s.Docs))
	}
	return append(dst, footerMagic...)
}

func writeLegacyManifest(t *testing.T, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, archive.DirManifest), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// buildLegacySet lays out a directory the way earlier commits did:
// round-robin members named shard-NNNN and a version 1 manifest over
// them. It returns the documents in the order the set serves them.
func buildLegacySet(t *testing.T, dir string, docs [][]byte, n int, opts archive.Options) [][]byte {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var served [][]byte
	infos := make([]ShardInfo, n)
	for s := 0; s < n; s++ {
		var part [][]byte
		for i := s; i < len(docs); i += n {
			part = append(part, docs[i])
		}
		infos[s] = ShardInfo{Path: fmt.Sprintf("shard-%04d", s), Docs: len(part)}
		if _, err := archive.Create(filepath.Join(dir, infos[s].Path), archive.FromBodies(part), opts); err != nil {
			t.Fatal(err)
		}
		served = append(served, part...)
	}
	writeLegacyManifest(t, dir, marshalV1(opts.ResolvedBackend(), infos...))
	return served
}

// TestLegacyManifestFixture: a version 1 manifest exactly as an earlier
// commit wrote it — given as bytes, not re-encoded — still opens over its
// member files and serves every document, as a read-only set rather than
// a collection.
func TestLegacyManifestFixture(t *testing.T) {
	const fixture = "SHRD\x01" + "\x03raw" + "\x02" +
		"\x0ashard-0000\x03" +
		"\x0ashard-0001\x02" +
		"SHRE"
	docs := makeDocs(5, 40)
	dir := t.TempDir()
	for name, part := range map[string][][]byte{"shard-0000": docs[:3], "shard-0001": docs[3:]} {
		if _, err := archive.Create(filepath.Join(dir, name), archive.FromBodies(part), archive.Options{Backend: archive.Raw}); err != nil {
			t.Fatal(err)
		}
	}
	writeLegacyManifest(t, dir, []byte(fixture))

	m, err := UnmarshalManifest([]byte(fixture))
	if err != nil {
		t.Fatal(err)
	}
	if m.Backend != archive.Raw || len(m.Shards) != 2 ||
		m.Shards[0] != (ShardInfo{Path: "shard-0000", Docs: 3}) || m.Shards[1] != (ShardInfo{Path: "shard-0001", Docs: 2}) {
		t.Fatalf("fixture decodes to %+v", m)
	}
	for _, path := range []string{dir, filepath.Join(dir, archive.DirManifest)} {
		r, err := archive.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := archive.As[*archive.Set](r); !ok {
			t.Errorf("a legacy set opens as %T, want a plain archive.Set", r)
		}
		if _, ok := archive.As[*collection.Collection](r); ok {
			t.Error("a legacy set opened as a writable collection")
		}
		if st := r.Stats(); st.Backend != archive.Raw || st.NumDocs != len(docs) {
			t.Errorf("Stats = %+v", st)
		}
		for i, want := range docs {
			if got, err := r.Get(i); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Get(%d): %v", i, err)
			}
		}
		r.Close()
	}
	// Opening wrote nothing: no log, no new manifest.
	if files := dirFiles(t, dir); len(files) != 3 || string(files[archive.DirManifest]) != fixture {
		t.Errorf("serving a legacy set changed its directory: %d files", len(files))
	}
}

// TestManifestRoundTrip: what the version 1 encoder wrote, the decoder
// reads back field for field.
func TestManifestRoundTrip(t *testing.T) {
	want := []ShardInfo{
		{Path: "shard-0000", Docs: 12},
		{Path: "shard-0001", Docs: 0},
		{Path: "nested/shard-0002", Docs: 1 << 30},
	}
	got, err := UnmarshalManifest(marshalV1(archive.Block, want...))
	if err != nil {
		t.Fatal(err)
	}
	if got.Backend != archive.Block || len(got.Shards) != len(want) {
		t.Fatalf("round trip = %+v", got)
	}
	for i := range want {
		if got.Shards[i] != want[i] {
			t.Errorf("shard %d = %+v, want %+v", i, got.Shards[i], want[i])
		}
	}
}

func TestManifestRejectsCorrupt(t *testing.T) {
	valid := marshalV1(archive.Raw, ShardInfo{Path: "shard-0000", Docs: 3})
	cases := map[string][]byte{
		"empty":           {},
		"short":           []byte("SHR"),
		"wrong-magic":     append([]byte("NOPE"), valid[4:]...),
		"bad-version":     append([]byte("SHRD\x63"), valid[5:]...),
		"truncated-mid":   valid[:len(valid)/2],
		"missing-footer":  valid[:len(valid)-1],
		"trailing-broken": append(append([]byte{}, valid[:len(valid)-4]...), "SHRX"...),
		// Declared shard count far beyond the remaining bytes must be
		// rejected before any allocation (the docmap lesson).
		"huge-count": append([]byte("SHRD\x01\x03raw"), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
	}
	for name, data := range cases {
		if _, err := UnmarshalManifest(data); err == nil {
			t.Errorf("%s: corrupt manifest accepted", name)
		} else if !errors.Is(err, ErrCorruptManifest) {
			t.Errorf("%s: error %v does not wrap ErrCorruptManifest", name, err)
		}
	}
	for name, shards := range map[string][]ShardInfo{
		"no-shards":     nil,
		"absolute-path": {{Path: "/etc/passwd", Docs: 1}},
		"dotdot-path":   {{Path: "../escape", Docs: 1}},
		"empty-path":    {{Path: "", Docs: 1}},
	} {
		if _, err := UnmarshalManifest(marshalV1(archive.Raw, shards...)); !errors.Is(err, ErrCorruptManifest) {
			t.Errorf("%s: unmarshal = %v, want ErrCorruptManifest", name, err)
		}
	}
}

// TestManifestRejectsDuplicatePaths: two entries naming the same shard
// file would serve its documents under two global-id ranges.
func TestManifestRejectsDuplicatePaths(t *testing.T) {
	for name, second := range map[string]string{"exact": "shard-0000", "unnormalized": "./shard-0000"} {
		data := marshalV1(archive.Raw, ShardInfo{Path: "shard-0000", Docs: 2}, ShardInfo{Path: second, Docs: 2})
		if _, err := UnmarshalManifest(data); !errors.Is(err, ErrCorruptManifest) {
			t.Errorf("%s duplicate: unmarshal = %v, want ErrCorruptManifest", name, err)
		}
	}
}

// TestManifestRejectsTrailingBytes: a manifest is a standalone file, so
// surplus bytes behind the footer are corruption, not slack.
func TestManifestRejectsTrailingBytes(t *testing.T) {
	valid := marshalV1(archive.Raw, ShardInfo{Path: "shard-0000", Docs: 3})
	for name, data := range map[string][]byte{
		"garbage-byte": append(append([]byte{}, valid...), 0xAB),
		"doubled":      append(append([]byte{}, valid...), valid...),
	} {
		if _, err := UnmarshalManifest(data); !errors.Is(err, ErrCorruptManifest) {
			t.Errorf("%s: %v, want ErrCorruptManifest", name, err)
		}
	}
}

// TestOpenRejectsMismatchedShards: opening cross-checks each member file
// against the manifest.
func TestOpenRejectsMismatchedShards(t *testing.T) {
	docs := makeDocs(12, 7)
	dir := filepath.Join(t.TempDir(), "set")
	buildLegacySet(t, dir, docs, 2, archive.Options{Backend: archive.Raw})
	shards := []ShardInfo{{Path: "shard-0000", Docs: 6}, {Path: "shard-0001", Docs: 6}}
	if r, err := archive.Open(dir); err != nil {
		t.Fatalf("the untouched set: %v", err)
	} else {
		r.Close()
	}

	// Wrong backend in the manifest.
	writeLegacyManifest(t, dir, marshalV1(archive.Block, shards...))
	if _, err := archive.Open(dir); !errors.Is(err, ErrCorruptManifest) {
		t.Errorf("backend mismatch: %v, want ErrCorruptManifest", err)
	}

	// Wrong doc count in the manifest.
	writeLegacyManifest(t, dir, marshalV1(archive.Raw, shards[0], ShardInfo{Path: "shard-0001", Docs: 9}))
	if _, err := archive.Open(dir); !errors.Is(err, ErrCorruptManifest) {
		t.Errorf("count mismatch: %v, want ErrCorruptManifest", err)
	}

	// Missing shard file.
	writeLegacyManifest(t, dir, marshalV1(archive.Raw, shards...))
	if err := os.Remove(filepath.Join(dir, "shard-0001")); err != nil {
		t.Fatal(err)
	}
	if _, err := archive.Open(dir); err == nil {
		t.Error("missing shard file opened cleanly")
	}
}

// TestOpenBytesRejectsManifest: a manifest is a multi-file format, so
// the in-memory openers must refuse it with a pointer to Open.
func TestOpenBytesRejectsManifest(t *testing.T) {
	data := marshalV1(archive.Raw, ShardInfo{Path: "shard-0000", Docs: 1})
	if _, err := archive.OpenBytes(data); !errors.Is(err, archive.ErrNeedsPath) {
		t.Errorf("OpenBytes(manifest) = %v, want ErrNeedsPath", err)
	}
}

// TestOpenRejectsManifestAsShard: a manifest naming another manifest —
// or itself, or a collection's — as a shard must fail cleanly, not
// recurse through archive.Open into a stack overflow.
func TestOpenRejectsManifestAsShard(t *testing.T) {
	dir := t.TempDir()
	// Self-referencing: the manifest lists itself as its only shard.
	writeLegacyManifest(t, dir, marshalV1(archive.Raw, ShardInfo{Path: archive.DirManifest, Docs: 1}))
	if _, err := archive.Open(dir); err == nil {
		t.Fatal("self-referencing manifest opened cleanly")
	} else if !errors.Is(err, archive.ErrNeedsPath) {
		t.Errorf("self-reference: %v, want ErrNeedsPath from the member opener", err)
	}

	// Two-file cycle: A lists B, B lists A.
	cyc := t.TempDir()
	writeLegacyManifest(t, cyc, marshalV1(archive.Raw, ShardInfo{Path: "B", Docs: 1}))
	if err := os.WriteFile(filepath.Join(cyc, "B"), marshalV1(archive.Raw, ShardInfo{Path: archive.DirManifest, Docs: 1}), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := archive.Open(cyc); !errors.Is(err, archive.ErrNeedsPath) {
		t.Errorf("manifest cycle: %v, want ErrNeedsPath", err)
	}

	// A collection's manifest as a shard.
	col := filepath.Join(t.TempDir(), "set")
	if err := collection.Init(filepath.Join(col, "inner")); err != nil {
		t.Fatal(err)
	}
	writeLegacyManifest(t, col, marshalV1(archive.Raw, ShardInfo{Path: "inner/" + archive.DirManifest, Docs: 0}))
	if _, err := archive.Open(col); !errors.Is(err, archive.ErrNeedsPath) {
		t.Errorf("collection manifest as a shard: %v, want ErrNeedsPath", err)
	}
}
