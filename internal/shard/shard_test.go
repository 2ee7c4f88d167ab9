package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/collection"
	"rlz/internal/docmap"
	"rlz/internal/faultfs"
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

// openCollection opens dir through archive.Open and insists that what
// comes back is a collection.
func openCollection(t *testing.T, dir string) *collection.Collection {
	t.Helper()
	r, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	c, ok := archive.As[*collection.Collection](r)
	if !ok {
		t.Fatalf("archive.Open(%s) is a %T, not a collection", dir, r)
	}
	return c
}

// dirFiles reads every file under dir (no recursion), keyed by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
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
				if st.Backend != archive.Live || st.NumDocs != len(docs) {
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

// TestShardBuiltDirectoryIsACollection: what Create writes is a
// first-class collection — it opens as one, lists one segment per shard
// against dictionary 1, takes appends, compacts against the dictionary
// the build used without learning a new one, leaves GC nothing to remove,
// and serves the same bytes after a reopen.
func TestShardBuiltDirectoryIsACollection(t *testing.T) {
	const shards, extra = 4, 7
	docs := makeDocs(41, 31)
	more := makeDocs(extra, 32)
	for backend, opts := range optionsFor(docs) {
		for name, sopts := range map[string]Options{
			"round-robin": {Shards: shards, Archive: opts},
			"ranges":      {Shards: shards, Policy: Ranges, DocsPerShard: 11, Archive: opts},
		} {
			t.Run(string(backend)+"/"+name, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "set")
				if _, err := Create(dir, archive.FromBodies(docs), sopts); err != nil {
					t.Fatal(err)
				}
				// want[id] is the document global id serves.
				want := make([][]byte, len(docs), len(docs)+extra)
				for i, d := range docs {
					if sopts.Policy == Ranges {
						want[i] = d
					} else {
						want[globalID(i, len(docs), shards)] = d
					}
				}
				check := func(c *collection.Collection) {
					t.Helper()
					if c.NumDocs() != len(want) {
						t.Fatalf("NumDocs = %d, want %d", c.NumDocs(), len(want))
					}
					for id, w := range want {
						if got, err := c.Get(id); err != nil || !bytes.Equal(got, w) {
							t.Fatalf("Get(%d): %v", id, err)
						}
					}
				}

				c := openCollection(t, dir)
				check(c)
				info := c.Info()
				if len(info.Segments) != shards || info.OpenSeg != "" || info.Generation != 1 {
					t.Fatalf("shape after build = %+v", info)
				}
				total := 0
				for i, s := range info.Segments {
					if s.Backend != backend {
						t.Errorf("segment %d is %s, want %s", i, s.Backend, backend)
					}
					total += s.Docs
				}
				if total != len(docs) {
					t.Errorf("segments hold %d docs, want %d", total, len(docs))
				}
				if backend == archive.RLZ {
					if len(info.Dicts) != 1 || info.Dicts[0].ID != 1 || info.Dicts[0].Segments != shards ||
						info.Dicts[0].Size != int64(len(opts.Dict)) || info.Dicts[0].Raw <= 0 {
						t.Fatalf("dictionaries after build = %+v", info.Dicts)
					}
				} else if len(info.Dicts) != 0 {
					t.Fatalf("%s build recorded dictionaries: %+v", backend, info.Dicts)
				}

				for i, d := range more {
					id, err := c.Append(d)
					if err != nil || id != len(docs)+i {
						t.Fatalf("Append #%d = %d, %v", i, id, err)
					}
					want = append(want, d)
				}
				check(c)
				before := dirFiles(t, dir)
				res, err := c.Compact(collection.CompactOptions{})
				if err != nil {
					t.Fatal(err)
				}
				// Raw shards are themselves compaction backlog; RLZ and block
				// shards stay as built and only the appended run drains.
				drained := extra
				if backend == archive.Raw {
					drained += len(docs)
				}
				if res.Docs != drained || res.Compacted == 0 {
					t.Fatalf("compaction drained %+v, want %d documents", res, drained)
				}
				if backend == archive.RLZ {
					// The shared dictionary is reused, not relearned.
					if res.Dict != 1 || res.Relearned {
						t.Fatalf("compaction chose dictionary %d (relearned %v), want the build's", res.Dict, res.Relearned)
					}
					for name := range dirFiles(t, dir) {
						if _, old := before[name]; !old && strings.HasPrefix(name, "dict-") {
							t.Errorf("compaction wrote a new dictionary file %s", name)
						}
					}
					if info := c.Info(); len(info.Dicts) != 1 || info.Dicts[0].Segments != shards+1 {
						t.Fatalf("dictionaries after compaction = %+v", info.Dicts)
					}
				}
				check(c)
				if removed, err := c.GC(); err != nil || len(removed) != 0 {
					t.Fatalf("GC removed %v, %v; a built directory holds no orphans", removed, err)
				}
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
				check(openCollection(t, dir))
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
	c := openCollection(t, dir)
	for i, want := range docs {
		got, err := c.Get(i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
	wantDocs := []int{5, 5, 5, 8}
	for i, s := range c.Info().Segments {
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
// produces byte-identical segment files, dictionary and manifest.
func TestCreateDeterministic(t *testing.T) {
	docs := makeDocs(80, 3)
	for backend, opts := range optionsFor(docs) {
		wantFiles := 5 // 4 segments + manifest
		if backend == archive.RLZ {
			wantFiles++ // + the shared dictionary
		}
		var want map[string][]byte
		for _, workers := range []int{1, 2, 7, 0} {
			opts.Workers = workers
			dir := filepath.Join(t.TempDir(), "set")
			if _, err := Create(dir, archive.FromBodies(docs), Options{Shards: 4, Archive: opts}); err != nil {
				t.Fatalf("%s workers=%d: %v", backend, workers, err)
			}
			got := dirFiles(t, dir)
			if want == nil {
				want = got
				if len(want) != wantFiles {
					t.Fatalf("%s: %d files in the built directory, want %d", backend, len(want), wantFiles)
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

func TestCreateEmptySource(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "set")
	res, err := Create(dir, archive.FromBodies(nil), Options{Shards: 3, Archive: archive.Options{Backend: archive.Raw}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Docs != 0 {
		t.Fatalf("Docs = %d", res.Docs)
	}
	c := openCollection(t, dir)
	if c.NumDocs() != 0 {
		t.Errorf("NumDocs = %d", c.NumDocs())
	}
	// Three empty segments are a collection like any other: the first
	// document appended to it is id 0.
	if id, err := c.Append([]byte("first")); err != nil || id != 0 {
		t.Fatalf("Append to an empty build = %d, %v", id, err)
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
// segment file and writes no manifest, even with builders mid-flight.
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
		t.Errorf("failed build left the directory behind with %d files", len(entries))
	}
}

// TestCreateFailureLeavesNoManifest: a failed build removes what it
// created — segments, the dictionary, every temporary — and nothing
// else, and the directory does not open as an archive.
func TestCreateFailureLeavesNoManifest(t *testing.T) {
	docs := makeDocs(12, 21)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("the user's own file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, &failSource{after: 5}, Options{Shards: 2, Archive: optionsFor(docs)[archive.RLZ]}); err == nil {
		t.Fatal("failed build reported success")
	}
	files := dirFiles(t, dir)
	if len(files) != 1 || string(files["notes.txt"]) != "the user's own file" {
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		t.Errorf("failed build left %v, want only notes.txt", names)
	}
	if _, err := archive.Open(dir); err == nil {
		t.Error("directory with a failed build still opens as an archive")
	}
}

// TestCreateRefusesExistingManifest: Create never builds over a directory
// that already holds a MANIFEST — a live collection's or a legacy shard
// set's — and leaves every byte of it alone: removing a manifest it did
// not write would strand every document acknowledged under it.
func TestCreateRefusesExistingManifest(t *testing.T) {
	docs := makeDocs(16, 22)
	setups := map[string]func(t *testing.T, dir string){
		"LIVC": func(t *testing.T, dir string) {
			if err := collection.Init(dir); err != nil {
				t.Fatal(err)
			}
			c, err := collection.Open(dir, collection.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.AppendBatch(docs); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		},
		"SHRD": func(t *testing.T, dir string) {
			buildLegacySet(t, dir, docs, 2, archive.Options{Backend: archive.Raw})
		},
	}
	for name, setup := range setups {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "live")
			setup(t, dir)
			before := dirFiles(t, dir)
			src := &countingSource{n: 8}
			_, err := Create(dir, src, Options{Shards: 2, Archive: archive.Options{Backend: archive.Raw}})
			if err == nil {
				t.Fatal("Create built over an existing manifest")
			}
			// The wording is collection.Init's.
			if ierr := collection.Init(dir); ierr == nil || ierr.Error() != err.Error() {
				t.Errorf("Create refused with %q, Init with %q", err, ierr)
			}
			if src.count != 0 {
				t.Errorf("a refused build consumed %d documents", src.count)
			}
			after := dirFiles(t, dir)
			if len(after) != len(before) {
				t.Fatalf("a refused build changed the file set: %d files, was %d", len(after), len(before))
			}
			for name, data := range before {
				if !bytes.Equal(after[name], data) {
					t.Errorf("a refused build changed %s", name)
				}
			}
			r, err := archive.Open(dir)
			if err != nil {
				t.Fatalf("the directory no longer opens: %v", err)
			}
			defer r.Close()
			if r.NumDocs() != len(docs) {
				t.Errorf("NumDocs = %d, want %d", r.NumDocs(), len(docs))
			}
		})
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
	// A directory squatting on the first segment's temporary name makes
	// that shard's os.Create fail immediately.
	if err := os.MkdirAll(filepath.Join(dir, "seg-00000001.tmp"), 0o755); err != nil {
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
// global RLZ dictionary once and shares it across shard builds; a
// single-shard set must still be byte-identical to a plain archive.Build
// of the same input (same header, same dictionary bytes, same records),
// and the dictionary file beside it holds exactly the dictionary's text.
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
	m, err := collection.ReadManifest(filepath.Join(dir, collection.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if m.Generation != 1 || m.NextSeq != 2 || m.OpenSeg != "" || len(m.Segments) != 1 || len(m.Dicts) != 1 {
		t.Fatalf("manifest = %+v", m)
	}
	if s := m.Segments[0]; s.Dict != 1 || s.Docs != len(docs) || s.Raw != int64(len(bytes.Join(docs, nil))) {
		t.Errorf("segment entry = %+v", s)
	}
	sharded, err := os.ReadFile(filepath.Join(dir, m.Segments[0].Path))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), sharded) {
		t.Errorf("shared-dictionary shard differs from plain build (%d vs %d bytes)", len(sharded), plain.Len())
	}
	dict, err := os.ReadFile(filepath.Join(dir, m.Dicts[0].Path))
	if err != nil || !bytes.Equal(dict, opts.Dict) {
		t.Errorf("dictionary file differs from the build's dictionary: %v", err)
	}
}

// TestCreateCrashLeavesNoManifestOrAWholeCollection cuts the power at
// every filesystem step of a build, and at every prefix of the directory
// operations still unsynced at that step: what the reboot finds either
// has no manifest, or opens and serves every document. The manifest is
// therefore published after every segment and the dictionary are durable
// under their names.
func TestCreateCrashLeavesNoManifestOrAWholeCollection(t *testing.T) {
	docs := makeDocs(30, 24)
	opts := Options{Shards: 3, Policy: Ranges, DocsPerShard: 10, Archive: optionsFor(docs)[archive.RLZ]}
	opts.Archive.Workers = 1
	manifests := 0
	for step, done := 1, false; !done; step++ {
		// Crash consumes the simulation, so every prefix length replays the
		// same kill on a fresh directory.
		for keep := 0; ; keep++ {
			sim := faultfs.NewSim()
			sim.SetScript(faultfs.Fault{Op: faultfs.OpAny, N: step, Kill: true})
			dir := filepath.Join(t.TempDir(), "set")
			if _, err := create(sim, dir, archive.FromBodies(docs), opts); err == nil {
				if step < 10 {
					t.Fatalf("the build finished in %d filesystem steps; the sweep is not reaching it", step)
				}
				done = true // the kill point lies past the build's last step
				break
			}
			if keep > sim.JournalLen() {
				break
			}
			if err := sim.Crash(keep); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(dir, collection.ManifestName)); err != nil {
				continue
			}
			manifests++
			r, err := archive.Open(dir)
			if err != nil {
				t.Fatalf("step %d, %d directory operations kept: a manifest survived that does not open: %v", step, keep, err)
			}
			for i, want := range docs {
				if got, err := r.Get(i); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("step %d, keep %d: Get(%d): %v", step, keep, i, err)
				}
			}
			r.Close()
			// Reads never touch the dictionary file; the next compaction will.
			m, err := collection.ReadManifest(filepath.Join(dir, collection.ManifestName))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range m.Dicts {
				if data, err := os.ReadFile(filepath.Join(dir, d.Path)); err != nil || !bytes.Equal(data, opts.Archive.Dict) {
					t.Fatalf("step %d, keep %d: the surviving manifest names dictionary %s, which is not whole: %v", step, keep, d.Path, err)
				}
			}
		}
	}
	if manifests == 0 {
		t.Error("no crash point left a manifest behind; the sweep never reached the manifest publish")
	}
}
