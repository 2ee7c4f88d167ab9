package archive_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"rlz/internal/archive"
	"rlz/internal/collection"
	"rlz/internal/docmap"
	"rlz/internal/rlz"
	"rlz/internal/shard"
)

// routed is everything archive.Set routes — the surface the contract
// below pins, identical over a bare Set, a collection built in bulk by
// internal/shard and one grown by appends.
type routed interface {
	archive.Reader
	archive.Viewer
	archive.BatchReader
	archive.Searcher
}

const contractNeedle = "needle"

// contractDocs builds n documents that share boilerplate (so RLZ has
// something to factor) and carry the needle a varying number of times,
// overlapping occurrences included ("needleneedle").
func contractDocs(n int) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf(
			"<html><body><div class=\"nav\">home | about</div><p>contract document %d, token u%d</p>", i, i*i))
		for k := 0; k < i%3; k++ {
			docs[i] = append(docs[i], contractNeedle...)
		}
		docs[i] = append(docs[i], "<div id=\"footer\">copyright</div></body></html>"...)
	}
	return docs
}

func contractOptions(backend archive.Backend, docs [][]byte) archive.Options {
	switch backend {
	case archive.RLZ:
		return archive.Options{Backend: archive.RLZ, Dict: rlz.SampleEven(bytes.Join(docs, nil), 512, 64), Codec: rlz.CodecZV}
	case archive.Block:
		// Several documents per block, so a batch has blocks to share.
		return archive.Options{Backend: archive.Block, BlockSize: 600}
	}
	return archive.Options{Backend: archive.Raw}
}

func buildMember(t *testing.T, backend archive.Backend, docs [][]byte) archive.Reader {
	t.Helper()
	var buf bytes.Buffer
	if _, err := archive.Build(&buf, archive.FromBodies(docs), contractOptions(backend, docs)); err != nil {
		t.Fatalf("building %s member: %v", backend, err)
	}
	r, err := archive.OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("opening %s member: %v", backend, err)
	}
	return r
}

// checkRouterContract drives every routed method of r over one id table
// — negative, each member boundary and its neighbours, every tombstone,
// the last id, past the end — and over the search surface, against the
// oracle (docs in global-id order, the tombstone set, the member starts).
func checkRouterContract(t *testing.T, r routed, docs [][]byte, tomb map[int]bool, starts []int) {
	t.Helper()
	n := len(docs)
	if r.NumDocs() != n {
		t.Fatalf("NumDocs = %d, want %d", r.NumDocs(), n)
	}
	ids := []int{-1, 0, n - 1, n, n + 7}
	for _, b := range starts {
		ids = append(ids, b-1, b, b+1)
	}
	for id := range tomb {
		ids = append(ids, id)
	}
	// wantErr is the errors.Is class the oracle assigns id, or nil.
	wantErr := func(id int) error {
		switch {
		case id < 0 || id >= n:
			return docmap.ErrNoSuchDoc
		case tomb[id]:
			return archive.ErrDeleted
		}
		return nil
	}
	// sameClass: a tombstone is ErrDeleted (which is also not-found); a
	// plain miss is ErrNoSuchDoc and must not claim to be a deletion.
	sameClass := func(what string, id int, err error) bool {
		t.Helper()
		want := wantErr(id)
		switch {
		case want == nil && err == nil:
			return true
		case want == nil || err == nil || !errors.Is(err, want) ||
			errors.Is(err, archive.ErrDeleted) != (want == archive.ErrDeleted):
			t.Errorf("%s(%d) error = %v, want class %v", what, id, err, want)
		}
		return false
	}
	for _, id := range ids {
		if doc, err := r.Get(id); sameClass("Get", id, err) && !bytes.Equal(doc, docs[id]) {
			t.Errorf("Get(%d) returned wrong bytes", id)
		}
		dst, err := r.GetAppend([]byte("keep"), id)
		if !bytes.HasPrefix(dst, []byte("keep")) {
			t.Errorf("GetAppend(%d) clobbered dst", id)
		}
		if sameClass("GetAppend", id, err) && !bytes.Equal(dst[4:], docs[id]) {
			t.Errorf("GetAppend(%d) returned wrong bytes", id)
		}
		ok, err := r.View(id, func(doc []byte) error {
			if wantErr(id) != nil || !bytes.Equal(doc, docs[id]) {
				t.Errorf("View(%d) served wrong bytes", id)
			}
			return nil
		})
		if ok {
			sameClass("View", id, err)
		} else if err != nil {
			t.Errorf("View(%d) = (false, %v): an unhandled view carries no error", id, err)
		}
		_, _, err = r.Extent(id)
		sameClass("Extent", id, err)
		win, err := r.GetRange(id, 3, 11)
		if sameClass("GetRange", id, err) && !bytes.Equal(win, docs[id][3:11]) {
			t.Errorf("GetRange(%d, 3, 11) = %q", id, win)
		}
		if whole, err := r.GetRange(id, -5, 1<<30); wantErr(id) == nil && (err != nil || !bytes.Equal(whole, docs[id])) {
			t.Errorf("GetRange(%d) does not clamp to the document", id)
		}
	}
	visited := make([]int, len(ids))
	r.GetBatch(ids, 2, func(i int, doc []byte, err error) {
		visited[i]++
		if sameClass("GetBatch", ids[i], err) && !bytes.Equal(doc, docs[ids[i]]) {
			t.Errorf("GetBatch id %d returned wrong bytes", ids[i])
		}
	})
	for i, c := range visited {
		if c != 1 {
			t.Errorf("GetBatch visited index %d (id %d) %d times", i, ids[i], c)
		}
	}

	all := scanOracle(docs, tomb, contractNeedle)
	// Limits inside the first member, across every boundary, and past the
	// total; 0 means all.
	for _, limit := range []int{0, 1, 3, len(all) / 2, len(all) - 1, len(all), len(all) + 5} {
		want := all
		if limit > 0 && limit < len(all) {
			want = all[:limit]
		}
		got, err := r.FindAll([]byte(contractNeedle), limit)
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("FindAll(limit %d) = %d matches, %v; want %d\n got %v\nwant %v", limit, len(got), err, len(want), got, want)
		}
	}
	if _, err := r.FindAll(nil, 0); err == nil {
		t.Error("FindAll with an empty pattern succeeded")
	}
}

// scanOracle is what a search must return with no limit: every
// occurrence of pattern, overlapping ones included, in the live documents
// in (id, offset) order.
func scanOracle(docs [][]byte, tomb map[int]bool, pattern string) []archive.Match {
	var all []archive.Match
	for id, doc := range docs {
		if tomb[id] {
			continue
		}
		for off := 0; ; off++ {
			k := bytes.Index(doc[off:], []byte(pattern))
			if k < 0 {
				break
			}
			off += k
			all = append(all, archive.Match{Doc: id, Offset: off})
		}
	}
	return all
}

// TestRouterContract is the one routing contract over its three
// assemblies: the same table must hold whichever way a Set is put
// together.
func TestRouterContract(t *testing.T) {
	docs := contractDocs(40)

	t.Run("bare set of mixed members", func(t *testing.T) {
		starts := []int{0, 9, 24}
		set := archive.NewSet(archive.Live, []archive.Reader{
			buildMember(t, archive.RLZ, docs[0:9]),
			buildMember(t, archive.Block, docs[9:24]),
			buildMember(t, archive.Raw, docs[24:]),
		}, map[int]struct{}{2: {}, 9: {}, 23: {}, 39: {}})
		defer set.Close()
		checkRouterContract(t, set, docs, map[int]bool{2: true, 9: true, 23: true, 39: true}, starts)
	})

	// The search is one scan whatever the members are, so the same answers
	// must come back for every order of member kinds, wherever the
	// tombstones fall (none, all in the first or the last member, on the
	// boundaries, a whole member) and wherever the limit cuts — including
	// between two overlapping occurrences ("aba" in "abababa").
	t.Run("search grid", func(t *testing.T) {
		docs := contractDocs(18)
		for i := 1; i < len(docs); i += 4 {
			docs[i] = append(docs[i], "abababa"...)
		}
		R, B, W := archive.RLZ, archive.Block, archive.Raw
		for _, kinds := range [][3]archive.Backend{{R, B, W}, {W, R, B}, {B, W, R}, {R, R, W}, {B, B, B}} {
			members := []archive.Reader{
				buildMember(t, kinds[0], docs[0:6]),
				buildMember(t, kinds[1], docs[6:12]),
				buildMember(t, kinds[2], docs[12:]),
			}
			for _, dead := range [][]int{nil, {1, 2}, {13, 17}, {5, 6, 11, 12}, {6, 7, 8, 9, 10, 11}} {
				tomb, oracle := map[int]struct{}{}, map[int]bool{}
				for _, id := range dead {
					tomb[id], oracle[id] = struct{}{}, true
				}
				set := archive.NewSet(archive.Live, members, tomb)
				for _, pattern := range []string{contractNeedle, "aba"} {
					all := scanOracle(docs, oracle, pattern)
					for _, limit := range []int{0, 1, 2, len(all) - 1, len(all) + 3} {
						want := all
						if limit > 0 && limit < len(all) {
							want = all[:limit]
						}
						got, err := set.FindAll([]byte(pattern), limit)
						if err != nil || !slices.Equal(got, want) {
							t.Errorf("members %v, tombstones %v: FindAll(%q, %d) = %v, %v; want %v", kinds, dead, pattern, limit, got, err, want)
						}
					}
				}
			}
			for _, m := range members {
				m.Close()
			}
		}
	})

	for _, backend := range []archive.Backend{archive.RLZ, archive.Block, archive.Raw} {
		t.Run("4-shard "+string(backend)+" set through Open", func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "set")
			if _, err := shard.Create(dir, archive.FromBodies(docs), shard.Options{
				Shards: 4, Policy: shard.Ranges, DocsPerShard: 10, Archive: contractOptions(backend, docs),
			}); err != nil {
				t.Fatal(err)
			}
			r, err := archive.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			// What shard.Create builds is a collection: the same reader the
			// "live collection" case below drives, here over four sealed
			// segments of one backend and no open segment.
			c, ok := archive.As[*collection.Collection](r)
			if !ok {
				t.Fatalf("a shard-built directory opened as %T, not a collection", r)
			}
			checkRouterContract(t, c, docs, nil, []int{0, 10, 20, 30})
		})
	}

	t.Run("live collection", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "coll")
		if err := collection.Init(dir); err != nil {
			t.Fatal(err)
		}
		c, err := collection.Open(dir, collection.Options{Async: true})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		appendDocs := func(docs [][]byte) {
			t.Helper()
			if _, err := c.AppendBatch(docs); err != nil {
				t.Fatal(err)
			}
		}
		// A compacted RLZ segment, a sealed raw segment, a non-empty open
		// segment, and a tombstone in each.
		appendDocs(docs[0:12])
		if _, err := c.Compact(collection.CompactOptions{}); err != nil {
			t.Fatal(err)
		}
		appendDocs(docs[12:22])
		if err := c.Seal(); err != nil {
			t.Fatal(err)
		}
		appendDocs(docs[22:])
		tomb := map[int]bool{5: true, 12: true, 21: true, 30: true}
		for id := range tomb {
			if err := c.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		info := c.Info()
		if len(info.Segments) != 2 || info.Segments[0].Backend != archive.RLZ ||
			info.Segments[1].Backend != archive.Raw || info.OpenDocs != 18 {
			t.Fatalf("collection shape = %+v", info)
		}
		checkRouterContract(t, c, docs, tomb, []int{0, 12, 22})
	})
}

// countingMember records what reaches one member's own GetBatch.
type countingMember struct {
	archive.Reader
	batches [][]int
}

func (m *countingMember) GetBatch(ids []int, workers int, visit func(i int, doc []byte, err error)) {
	m.batches = append(m.batches, slices.Clone(ids))
	for i, id := range ids {
		doc, err := m.Get(id)
		visit(i, doc, err)
	}
}

// TestSetBatchesOncePerMember: a routed batch reaches each member's own
// GetBatch exactly once, with that member's local ids in request order —
// the path that lets the block backend decode a shared block once
// however many of its documents a batch names.
func TestSetBatchesOncePerMember(t *testing.T) {
	docs := contractDocs(30)
	a := &countingMember{Reader: buildMember(t, archive.Block, docs[0:10])}
	b := &countingMember{Reader: buildMember(t, archive.Block, docs[10:20])}
	c := &countingMember{Reader: buildMember(t, archive.Raw, docs[20:])}
	set := archive.NewSet(archive.Block, []archive.Reader{a, b, c}, nil)
	defer set.Close()
	ids := []int{25, 3, 11, 4, 29, 3, 19, 40, 0}
	got := make(map[int][]byte)
	set.GetBatch(ids, 1, func(i int, doc []byte, err error) {
		if err == nil {
			got[i] = slices.Clone(doc)
		} else if ids[i] != 40 {
			t.Errorf("id %d: %v", ids[i], err)
		}
	})
	for i, id := range ids {
		if id < len(docs) && !bytes.Equal(got[i], docs[id]) {
			t.Errorf("index %d (id %d) returned wrong bytes", i, id)
		}
	}
	for _, tc := range []struct {
		name string
		m    *countingMember
		want []int
	}{{"a", a, []int{3, 4, 3, 0}}, {"b", b, []int{1, 9}}, {"c", c, []int{5, 9, 20}}} {
		if len(tc.m.batches) != 1 || !slices.Equal(tc.m.batches[0], tc.want) {
			t.Errorf("member %s saw batches %v, want exactly [%v]", tc.name, tc.m.batches, tc.want)
		}
	}
}
