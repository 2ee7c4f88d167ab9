package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/docmap"
	"rlz/internal/rlz"
)

func makeDocs(n int, seed int64) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf(
			"<html><head><title>page %d-%d</title></head><body>"+
				"<div class=\"nav\">home | about | contact</div>"+
				"<p>document %d body text with shared boilerplate and a unique token u%d-%d</p>"+
				"<div id=\"footer\">copyright</div></body></html>",
			seed, i, i, seed, i*i))
	}
	return docs
}

func dictFor(docs [][]byte) []byte {
	var collection []byte
	for _, d := range docs {
		collection = append(collection, d...)
	}
	return rlz.SampleEven(collection, len(collection)/4+1, 128)
}

func optionsFor(docs [][]byte) map[archive.Backend]archive.Options {
	return map[archive.Backend]archive.Options{
		archive.RLZ:   {Backend: archive.RLZ, Dict: dictFor(docs), Codec: rlz.CodecZV},
		archive.Block: {Backend: archive.Block, BlockSize: 512},
		archive.Raw:   {Backend: archive.Raw},
	}
}

// globalID computes the global id a round-robin sharded set serves for
// append-order document i: shards fill with i%N, i/N, and global ids
// follow manifest (shard) order.
func globalID(i, total, n int) int {
	shard, local := i%n, i/n
	start := 0
	for s := 0; s < shard; s++ {
		count := total / n
		if s < total%n {
			count++
		}
		start += count
	}
	return start + local
}

// TestCreateAndReadBackRoundRobin builds shard sets of several widths
// for every backend and reads every document back through archive.Open,
// checking the round-robin permutation contract exactly.
func TestCreateAndReadBackRoundRobin(t *testing.T) {
	docs := makeDocs(53, 1) // deliberately not divisible by the shard counts
	for backend, opts := range optionsFor(docs) {
		for _, n := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", backend, n), func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "set")
				res, err := Create(dir, archive.FromBodies(docs), Options{Shards: n, Archive: opts})
				if err != nil {
					t.Fatal(err)
				}
				if res.Docs != len(docs) {
					t.Fatalf("built %d docs, want %d", res.Docs, len(docs))
				}
				r, err := archive.Open(dir) // directory form
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				if r.NumDocs() != len(docs) {
					t.Fatalf("NumDocs = %d, want %d", r.NumDocs(), len(docs))
				}
				st := r.Stats()
				if st.Backend != backend || st.NumDocs != len(docs) {
					t.Fatalf("Stats = %+v", st)
				}
				if st.Size != r.Size() || st.Size <= 0 {
					t.Fatalf("Size = %d vs stats %d", r.Size(), st.Size)
				}
				var dst []byte
				for i, want := range docs {
					id := globalID(i, len(docs), n)
					dst, err = r.GetAppend(dst[:0], id)
					if err != nil || !bytes.Equal(dst, want) {
						t.Fatalf("GetAppend(global %d = append %d): %v", id, i, err)
					}
					got, err := r.Get(id)
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("Get(%d): %v", id, err)
					}
					if off, sz, err := r.Extent(id); err != nil || sz <= 0 || off <= 0 {
						t.Fatalf("Extent(%d) = %d,%d,%v", id, off, sz, err)
					}
				}
			})
		}
	}
}

// TestRangesPolicyPreservesAppendOrder pins the Ranges contract: global
// ids equal append order.
func TestRangesPolicyPreservesAppendOrder(t *testing.T) {
	docs := makeDocs(23, 2)
	dir := filepath.Join(t.TempDir(), "set")
	// 23 docs, quota 5, 4 shards: shards get 5,5,5,8.
	_, err := Create(dir, archive.FromBodies(docs), Options{
		Shards: 4, Policy: Ranges, DocsPerShard: 5,
		Archive: archive.Options{Backend: archive.Raw},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, want := range docs {
		got, err := r.Get(i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
	sr, ok := archive.As[*Reader](r)
	if !ok {
		t.Fatal("not a shard reader")
	}
	m := sr.Manifest()
	wantDocs := []int{5, 5, 5, 8}
	for i, s := range m.Shards {
		if s.Docs != wantDocs[i] {
			t.Errorf("shard %d holds %d docs, want %d", i, s.Docs, wantDocs[i])
		}
	}
}

func TestRangesPolicyRequiresQuota(t *testing.T) {
	if _, err := Create(t.TempDir(), archive.FromBodies(nil), Options{Shards: 2, Policy: Ranges}); err == nil {
		t.Fatal("Ranges without DocsPerShard accepted")
	}
}

// TestCreateDeterministic: for a fixed shard count, any worker count
// produces byte-identical shard files and manifest.
func TestCreateDeterministic(t *testing.T) {
	docs := makeDocs(80, 3)
	for backend, opts := range optionsFor(docs) {
		var want map[string][]byte
		for _, workers := range []int{1, 2, 7, 0} {
			opts.Workers = workers
			dir := filepath.Join(t.TempDir(), "set")
			if _, err := Create(dir, archive.FromBodies(docs), Options{Shards: 4, Archive: opts}); err != nil {
				t.Fatalf("%s workers=%d: %v", backend, workers, err)
			}
			got := map[string][]byte{}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				got[e.Name()] = data
			}
			if want == nil {
				want = got
				if len(want) != 5 { // 4 shards + manifest
					t.Fatalf("%s: %d files in shard dir, want 5", backend, len(want))
				}
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d files, want %d", backend, workers, len(got), len(want))
			}
			for name, data := range want {
				if !bytes.Equal(got[name], data) {
					t.Fatalf("%s workers=%d: file %s differs from sequential build", backend, workers, name)
				}
			}
		}
	}
}

// TestWriterMatchesCreate: the sequential archive.Writer implementation
// produces byte-identical output to the parallel Create path.
func TestWriterMatchesCreate(t *testing.T) {
	docs := makeDocs(31, 4)
	for backend, opts := range optionsFor(docs) {
		opts.Workers = 1
		viaCreate := filepath.Join(t.TempDir(), "create")
		if _, err := Create(viaCreate, archive.FromBodies(docs), Options{Shards: 3, Archive: opts}); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		viaWriter := filepath.Join(t.TempDir(), "writer")
		w, err := NewWriter(viaWriter, Options{Shards: 3, Archive: opts})
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range docs {
			id, err := w.Append(d)
			if err != nil || id != i {
				t.Fatalf("%s: Append #%d = %d, %v", backend, i, id, err)
			}
		}
		if w.NumDocs() != len(docs) {
			t.Fatalf("%s: NumDocs = %d", backend, w.NumDocs())
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{ShardFileName(0), ShardFileName(1), ShardFileName(2), ManifestName} {
			a, err := os.ReadFile(filepath.Join(viaCreate, name))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(viaWriter, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s: %s differs between Writer and Create", backend, name)
			}
		}
	}
}

func TestOutOfRangeIDs(t *testing.T) {
	docs := makeDocs(10, 5)
	dir := filepath.Join(t.TempDir(), "set")
	if _, err := Create(dir, archive.FromBodies(docs), Options{Shards: 2, Archive: archive.Options{Backend: archive.Raw}}); err != nil {
		t.Fatal(err)
	}
	r, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, id := range []int{-1, 10, 1 << 30} {
		if _, err := r.Get(id); !errors.Is(err, docmap.ErrNoSuchDoc) {
			t.Errorf("Get(%d) = %v, want ErrNoSuchDoc", id, err)
		}
		if _, _, err := r.Extent(id); !errors.Is(err, docmap.ErrNoSuchDoc) {
			t.Errorf("Extent(%d) = %v, want ErrNoSuchDoc", id, err)
		}
	}
}

// TestSearchAcrossShards: every shard set searches through the segment
// router with globally remapped document ids — in the compressed domain
// on RLZ shards, by document scan on the other backends.
func TestSearchAcrossShards(t *testing.T) {
	docs := makeDocs(24, 6)
	for backend, opts := range optionsFor(docs) {
		dir := filepath.Join(t.TempDir(), "set")
		if _, err := Create(dir, archive.FromBodies(docs), Options{Shards: 3, Archive: opts}); err != nil {
			t.Fatal(err)
		}
		r, err := archive.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, ok := archive.As[archive.Searcher](r)
		if !ok {
			t.Fatalf("%s shard set does not implement Searcher", backend)
		}
		ms, err := s.FindAll([]byte("<div id=\"footer\">"), 0)
		if err != nil || len(ms) != len(docs) {
			t.Fatalf("FindAll: %d matches, %v; want %d", len(ms), err, len(docs))
		}
		seen := map[int]bool{}
		var dst []byte
		for _, m := range ms {
			if m.Doc < 0 || m.Doc >= len(docs) || seen[m.Doc] {
				t.Fatalf("match doc %d out of range or duplicated", m.Doc)
			}
			seen[m.Doc] = true
			// The offset must locate the pattern inside that global doc.
			dst, err = r.GetAppend(dst[:0], m.Doc)
			if err != nil || !bytes.HasPrefix(dst[m.Offset:], []byte("<div id=\"footer\">")) {
				t.Fatalf("match (%d,%d) does not locate the pattern: %v", m.Doc, m.Offset, err)
			}
		}
		// Limit is honored across shard boundaries.
		if ms, err = s.FindAll([]byte("<div id=\"footer\">"), 10); err != nil || len(ms) != 10 {
			t.Fatalf("FindAll limit: %d matches, %v", len(ms), err)
		}
		win, err := s.GetRange(ms[3].Doc, ms[3].Offset, ms[3].Offset+5)
		if err != nil || string(win) != "<div " {
			t.Fatalf("GetRange = %q, %v", win, err)
		}
		r.Close()
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{Backend: archive.Block, Shards: []ShardInfo{
		{Path: "shard-0000", Docs: 12},
		{Path: "shard-0001", Docs: 0},
		{Path: "nested/shard-0002", Docs: 1 << 30},
	}}
	got, err := UnmarshalManifest(m.Marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Backend != m.Backend || len(got.Shards) != len(m.Shards) {
		t.Fatalf("round trip = %+v", got)
	}
	for i := range m.Shards {
		if got.Shards[i] != m.Shards[i] {
			t.Errorf("shard %d = %+v, want %+v", i, got.Shards[i], m.Shards[i])
		}
	}
	if got.NumDocs() != 12+0+1<<30 {
		t.Errorf("NumDocs = %d", got.NumDocs())
	}
	starts := got.Starts()
	if starts[0] != 0 || starts[1] != 12 || starts[2] != 12 || starts[3] != got.NumDocs() {
		t.Errorf("Starts = %v", starts)
	}
}

func TestManifestRejectsCorrupt(t *testing.T) {
	valid := (&Manifest{Backend: archive.Raw, Shards: []ShardInfo{{Path: "shard-0000", Docs: 3}}}).Marshal(nil)
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
	for name, m := range map[string]*Manifest{
		"no-shards":     {Backend: archive.Raw},
		"absolute-path": {Backend: archive.Raw, Shards: []ShardInfo{{Path: "/etc/passwd", Docs: 1}}},
		"dotdot-path":   {Backend: archive.Raw, Shards: []ShardInfo{{Path: "../escape", Docs: 1}}},
		"empty-path":    {Backend: archive.Raw, Shards: []ShardInfo{{Path: "", Docs: 1}}},
	} {
		if err := m.validate(); !errors.Is(err, ErrCorruptManifest) {
			t.Errorf("%s: validate = %v, want ErrCorruptManifest", name, err)
		}
	}
}

// TestOpenRejectsMismatchedShards: the reader cross-checks each opened
// shard against the manifest.
func TestOpenRejectsMismatchedShards(t *testing.T) {
	docs := makeDocs(12, 7)
	dir := filepath.Join(t.TempDir(), "set")
	if _, err := Create(dir, archive.FromBodies(docs), Options{Shards: 2, Archive: archive.Options{Backend: archive.Raw}}); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, ManifestName)

	// Wrong backend in the manifest.
	m, err := ReadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	m.Backend = archive.Block
	if err := WriteManifest(mpath, m); err != nil {
		t.Fatal(err)
	}
	if _, err := archive.Open(dir); !errors.Is(err, ErrCorruptManifest) {
		t.Errorf("backend mismatch: %v, want ErrCorruptManifest", err)
	}

	// Wrong doc count in the manifest.
	m.Backend = archive.Raw
	m.Shards[1].Docs += 3
	if err := WriteManifest(mpath, m); err != nil {
		t.Fatal(err)
	}
	if _, err := archive.Open(dir); !errors.Is(err, ErrCorruptManifest) {
		t.Errorf("count mismatch: %v, want ErrCorruptManifest", err)
	}

	// Missing shard file.
	m.Shards[1].Docs -= 3
	if err := WriteManifest(mpath, m); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, ShardFileName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := archive.Open(dir); err == nil {
		t.Error("missing shard file opened cleanly")
	}
}

// TestOpenBytesRejectsManifest: a manifest is a multi-file format, so
// the in-memory openers must refuse it with a pointer to Open.
func TestOpenBytesRejectsManifest(t *testing.T) {
	data := (&Manifest{Backend: archive.Raw, Shards: []ShardInfo{{Path: "shard-0000", Docs: 1}}}).Marshal(nil)
	if _, err := archive.OpenBytes(data); !errors.Is(err, archive.ErrNeedsPath) {
		t.Errorf("OpenBytes(manifest) = %v, want ErrNeedsPath", err)
	}
}

func TestCreateEmptySource(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "set")
	res, err := Create(dir, archive.FromBodies(nil), Options{Shards: 3, Archive: archive.Options{Backend: archive.Raw}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Docs != 0 {
		t.Fatalf("Docs = %d", res.Docs)
	}
	r, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumDocs() != 0 {
		t.Errorf("NumDocs = %d", r.NumDocs())
	}
	r.Close()
	if err := RemoveArchive(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("RemoveArchive left the directory behind: %v", err)
	}
}

type failSource struct{ after int }

func (s *failSource) Next() (archive.Doc, error) {
	if s.after <= 0 {
		return archive.Doc{}, fmt.Errorf("source exploded")
	}
	s.after--
	return archive.Doc{Body: []byte("doc body with some text")}, nil
}

// TestCreateSourceErrorLeavesNoPartialSet: a failed build removes every
// shard file and writes no manifest, even with builders mid-flight.
func TestCreateSourceErrorLeavesNoPartialSet(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "set")
	_, err := Create(dir, &failSource{after: 17}, Options{Shards: 4, Archive: archive.Options{Backend: archive.Raw}})
	if err == nil {
		t.Fatal("source error swallowed")
	}
	// The emptied output directory is removed too, matching the
	// single-file path's no-partial-archive behavior.
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		entries, _ := os.ReadDir(dir)
		t.Errorf("failed build left the shard dir behind with %d files", len(entries))
	}
}

// TestCreateFailureRemovesStaleManifest: a failed rebuild on top of an
// existing shard set must not leave the old manifest describing
// now-overwritten shard files.
func TestCreateFailureRemovesStaleManifest(t *testing.T) {
	docs := makeDocs(12, 21)
	dir := filepath.Join(t.TempDir(), "set")
	if _, err := Create(dir, archive.FromBodies(docs), Options{Shards: 4, Archive: archive.Options{Backend: archive.Raw}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, &failSource{after: 5}, Options{Shards: 2, Archive: archive.Options{Backend: archive.Raw}}); err == nil {
		t.Fatal("failed rebuild reported success")
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); !os.IsNotExist(err) {
		t.Errorf("stale manifest survived a failed rebuild: %v", err)
	}
	if _, err := archive.Open(dir); err == nil {
		t.Error("directory with a failed build still opens as an archive")
	}
}

// TestManifestRejectsDuplicatePaths: two entries naming the same shard
// file would serve its documents under two global-id ranges.
func TestManifestRejectsDuplicatePaths(t *testing.T) {
	for name, m := range map[string]*Manifest{
		"exact":        {Backend: archive.Raw, Shards: []ShardInfo{{Path: "shard-0000", Docs: 2}, {Path: "shard-0000", Docs: 2}}},
		"unnormalized": {Backend: archive.Raw, Shards: []ShardInfo{{Path: "shard-0000", Docs: 2}, {Path: "./shard-0000", Docs: 2}}},
	} {
		if err := m.validate(); !errors.Is(err, ErrCorruptManifest) {
			t.Errorf("%s duplicate: validate = %v, want ErrCorruptManifest", name, err)
		}
		if _, err := UnmarshalManifest(m.Marshal(nil)); !errors.Is(err, ErrCorruptManifest) {
			t.Errorf("%s duplicate: unmarshal = %v, want ErrCorruptManifest", name, err)
		}
	}
}

// TestOpenRejectsManifestAsShard: a manifest naming another manifest —
// or itself — as a shard must fail cleanly, not recurse archive.Open ->
// shard.Open into a stack overflow.
func TestOpenRejectsManifestAsShard(t *testing.T) {
	dir := t.TempDir()
	// Self-referencing: the manifest lists itself as its only shard.
	if err := WriteManifest(filepath.Join(dir, ManifestName),
		&Manifest{Backend: archive.Raw, Shards: []ShardInfo{{Path: ManifestName, Docs: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := archive.Open(dir); err == nil {
		t.Fatal("self-referencing manifest opened cleanly")
	} else if !errors.Is(err, archive.ErrNeedsPath) {
		t.Errorf("self-reference: %v, want ErrNeedsPath from the shard opener", err)
	}

	// Two-file cycle: A lists B, B lists A.
	cyc := t.TempDir()
	if err := WriteManifest(filepath.Join(cyc, ManifestName),
		&Manifest{Backend: archive.Raw, Shards: []ShardInfo{{Path: "B", Docs: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(filepath.Join(cyc, "B"),
		&Manifest{Backend: archive.Raw, Shards: []ShardInfo{{Path: ManifestName, Docs: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := archive.Open(cyc); !errors.Is(err, archive.ErrNeedsPath) {
		t.Errorf("manifest cycle: %v, want ErrNeedsPath", err)
	}
}

// TestManifestRejectsTrailingBytes: a manifest is a standalone file, so
// surplus bytes behind the footer are corruption, not slack.
func TestManifestRejectsTrailingBytes(t *testing.T) {
	valid := (&Manifest{Backend: archive.Raw, Shards: []ShardInfo{{Path: "shard-0000", Docs: 3}}}).Marshal(nil)
	for name, data := range map[string][]byte{
		"garbage-byte": append(append([]byte{}, valid...), 0xAB),
		"doubled":      append(append([]byte{}, valid...), valid...),
	} {
		if _, err := UnmarshalManifest(data); !errors.Is(err, ErrCorruptManifest) {
			t.Errorf("%s: %v, want ErrCorruptManifest", name, err)
		}
	}
}

// TestRebuildNarrowerRemovesOrphanShards: rebuilding a directory with a
// smaller shard count must not leave the wider old set's extra shard
// files orphaned next to the new manifest.
func TestRebuildNarrowerRemovesOrphanShards(t *testing.T) {
	docs := makeDocs(16, 22)
	dir := filepath.Join(t.TempDir(), "set")
	if _, err := Create(dir, archive.FromBodies(docs), Options{Shards: 8, Archive: archive.Options{Backend: archive.Raw}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, archive.FromBodies(docs), Options{Shards: 2, Archive: archive.Options{Backend: archive.Raw}}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 { // 2 shards + manifest, no shard-0002..0007 orphans
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("rebuild left %d files: %v", len(entries), names)
	}
	r, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumDocs() != len(docs) {
		t.Errorf("NumDocs = %d, want %d", r.NumDocs(), len(docs))
	}
	r.Close()
	if err := RemoveArchive(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("RemoveArchive left the rebuilt directory behind: %v", err)
	}
}

// countingSource yields docs while counting how many the router pulled.
type countingSource struct {
	n     int
	count int
}

func (s *countingSource) Next() (archive.Doc, error) {
	if s.count >= s.n {
		return archive.Doc{}, io.EOF
	}
	s.count++
	return archive.Doc{Body: []byte("document body with boilerplate text")}, nil
}

// TestCreateAbortsEarlyOnShardFailure: once one shard's build fails,
// the router must stop feeding the healthy shards instead of streaming
// the rest of the collection into files that are about to be deleted.
func TestCreateAbortsEarlyOnShardFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "set")
	// A directory squatting on shard-0000's path makes that shard's
	// os.Create fail immediately.
	if err := os.MkdirAll(filepath.Join(dir, ShardFileName(0)), 0o755); err != nil {
		t.Fatal(err)
	}
	src := &countingSource{n: 100000}
	_, err := Create(dir, src, Options{Shards: 4, Archive: archive.Options{Backend: archive.Raw}})
	if err == nil {
		t.Fatal("shard creation failure swallowed")
	}
	if src.count == src.n {
		t.Errorf("router consumed the entire %d-doc source despite an immediately failed shard", src.n)
	}
}

// TestSharedDictionaryMatchesPlainBuild: the shard layer indexes the
// global RLZ dictionary once and shares it across shard writers; a
// single-shard set must still be byte-identical to a plain archive.Build
// of the same input (same header, same dictionary bytes, same records).
func TestSharedDictionaryMatchesPlainBuild(t *testing.T) {
	docs := makeDocs(20, 23)
	opts := optionsFor(docs)[archive.RLZ]
	var plain bytes.Buffer
	if _, err := archive.Build(&plain, archive.FromBodies(docs), opts); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "set")
	if _, err := Create(dir, archive.FromBodies(docs), Options{Shards: 1, Archive: opts}); err != nil {
		t.Fatal(err)
	}
	sharded, err := os.ReadFile(filepath.Join(dir, ShardFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), sharded) {
		t.Errorf("shared-dictionary shard differs from plain build (%d vs %d bytes)", len(sharded), plain.Len())
	}
}
