package archive

import (
	"bytes"
	"fmt"
	"sync"

	"rlz/internal/docmap"
)

// ErrDeleted is wrapped by reads of a tombstoned document. It wraps
// docmap.ErrNoSuchDoc, so callers that only care about "not found"
// (rlzd's 404 path) need no new check, while callers that iterate every
// id (rlz verify) can skip tombstones specifically.
var ErrDeleted = fmt.Errorf("%w: deleted", docmap.ErrNoSuchDoc)

// Set is the one segment router: an immutable, ordered list of member
// Readers, each owning the contiguous run of global document ids that
// starts at its cumulative offset, plus an optional tombstone set that
// masks ids without renumbering them. It is itself a Reader (and a
// Viewer, BatchReader and Searcher). A collection's routing snapshot is
// a Set whose last member is the open append segment (when one is open);
// a caller wraps a lone archive in a one-member Set to reach the routed
// capabilities (rlz grep, rlz verify).
//
// Ids at or past the last member's start are handed to the last member,
// which bounds-checks them itself — so a last member that is still
// growing needs no special case, and NumDocs and Size follow it.
//
// Optional capabilities are resolved per member once, at construction:
// a member that is a Viewer or BatchReader, or can decode a byte range
// of a document (directly or through Unwrap), is used as one; every
// other member is served by the GetAppend loop or decode-and-slice.
// Search has no member capability: FindAll is one scan over GetAppend.
//
// Concurrency: a Set holds no mutable state, so it is exactly as safe
// for concurrent use as its members (the Reader contract). It does not
// own them beyond Close, which closes each once.
type Set struct {
	backend  Backend // Stats label
	members  []Reader
	starts   []int // starts[i] is member i's first global id
	tomb     map[int]struct{}
	sealed   int64 // total size of every member but the last
	viewers  []Viewer
	batchers []BatchReader
	rangers  []ranger
}

// ranger is the member capability behind GetRange: the RLZ backend
// decodes only the factors that overlap the window.
type ranger interface {
	GetRange(id, from, to int) ([]byte, error)
}

var _ interface {
	Reader
	Viewer
	BatchReader
	Searcher
} = (*Set)(nil)

// NewSet routes over members in order, reporting its Stats under the
// backend label. Every member's document count is read once, here; only
// the last may grow afterwards. tomb may be nil. Neither members nor
// tomb may be mutated after the call.
func NewSet(backend Backend, members []Reader, tomb map[int]struct{}) *Set {
	n := len(members)
	s := &Set{
		backend:  backend,
		members:  members,
		starts:   make([]int, n),
		tomb:     tomb,
		viewers:  make([]Viewer, n),
		batchers: make([]BatchReader, n),
		rangers:  make([]ranger, n),
	}
	for i, m := range members {
		if i+1 < n {
			s.starts[i+1] = s.starts[i] + m.NumDocs()
			s.sealed += m.Size()
		}
		s.viewers[i], _ = As[Viewer](m)
		s.batchers[i], _ = As[BatchReader](m)
		s.rangers[i], _ = As[ranger](m)
	}
	return s
}

// Tombstones returns the masked ids; the map is shared and read-only.
func (s *Set) Tombstones() map[int]struct{} { return s.tomb }

// Start returns the global id of member i's first document.
func (s *Set) Start(i int) int { return s.starts[i] }

// NumDocs returns the number of allocated ids, tombstoned ones included.
func (s *Set) NumDocs() int {
	n := len(s.members)
	if n == 0 {
		return 0
	}
	return s.starts[n-1] + s.members[n-1].NumDocs()
}

// Size returns the members' total size in bytes.
func (s *Set) Size() int64 {
	n := len(s.members)
	if n == 0 {
		return 0
	}
	return s.sealed + s.members[n-1].Size()
}

// Stats aggregates the members under the set's backend label: totals
// for documents, bytes, blocks and dictionary bytes; Codec and Algorithm
// from the first member that reports one.
func (s *Set) Stats() Stats {
	st := Stats{Backend: s.backend, NumDocs: s.NumDocs(), Size: s.Size()}
	for _, m := range s.members {
		ms := m.Stats()
		st.DictLen += ms.DictLen
		st.NumBlocks += ms.NumBlocks
		if st.Codec == "" {
			st.Codec = ms.Codec
		}
		if st.Algorithm == "" {
			st.Algorithm = ms.Algorithm
		}
	}
	return st
}

// Close closes every member, returning the first error.
func (s *Set) Close() error {
	var first error
	for _, m := range s.members {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// route maps a global id to its member and the member-local id: the
// last member whose start is at or below id. Tombstoned and negative ids
// fail here; ids past the end reach the last member, which rejects them.
func (s *Set) route(id int) (member, local int, err error) {
	if _, dead := s.tomb[id]; dead {
		return 0, 0, fmt.Errorf("archive: document %d: %w", id, ErrDeleted)
	}
	if id < 0 || len(s.starts) == 0 {
		return 0, 0, fmt.Errorf("%w: id %d of %d", docmap.ErrNoSuchDoc, id, s.NumDocs())
	}
	// starts[0] == 0 <= id, so the invariant starts[lo] <= id < starts[hi]
	// (with starts[len] read as +inf) holds from the first iteration.
	lo, hi := 0, len(s.starts)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if s.starts[mid] <= id {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, id - s.starts[lo], nil
}

// Get retrieves document id.
func (s *Set) Get(id int) ([]byte, error) { return s.GetAppend(nil, id) }

// GetAppend retrieves document id, appending its text to dst.
func (s *Set) GetAppend(dst []byte, id int) ([]byte, error) {
	m, local, err := s.route(id)
	if err != nil {
		return dst, err
	}
	return s.members[m].GetAppend(dst, local)
}

// Extent returns the extent a Get for id physically reads, within the
// owning member's file (a set has no single byte address space); the
// id-to-member mapping is fixed, so the figure is still what a disk
// model should charge for that id.
func (s *Set) Extent(id int) (off, n int64, err error) {
	m, local, err := s.route(id)
	if err != nil {
		return 0, 0, err
	}
	return s.members[m].Extent(local)
}

// View serves document id zero-copy when its member can, implementing
// Viewer. ok=false means the owning member has no zero-copy path for
// this document — fall back to GetAppend. doc is valid only during fn
// and only for reading.
func (s *Set) View(id int, fn func(doc []byte) error) (bool, error) {
	m, local, err := s.route(id)
	if err != nil {
		return true, err
	}
	if v := s.viewers[m]; v != nil {
		return v.View(local, fn)
	}
	return false, nil
}

// GetBatch retrieves every id, implementing BatchReader: the batch is
// partitioned per member, and each member that batches natively (the
// block backend decodes each distinct block once) gets its whole
// sub-batch in one GetBatch call with its local ids; the others are
// looped through GetAppend. visit is called exactly once per index of
// ids, from the calling goroutine, unroutable ids first and then in
// member order; doc is only valid during the call.
func (s *Set) GetBatch(ids []int, workers int, visit func(i int, doc []byte, err error)) {
	b := batchPool.Get().(*batchScratch)
	b.member, b.local = b.member[:0], b.local[:0]
	for i, id := range ids {
		m, local, err := s.route(id)
		if err != nil {
			visit(i, nil, err)
			m = -1
		}
		b.member = append(b.member, m)
		b.local = append(b.local, local)
	}
	b.visit = visit
	for m := range s.members {
		b.idx, b.locals = b.idx[:0], b.locals[:0]
		for i, owner := range b.member {
			if owner == m {
				b.idx = append(b.idx, i)
				b.locals = append(b.locals, b.local[i])
			}
		}
		if len(b.idx) == 0 {
			continue
		}
		if br := s.batchers[m]; br != nil {
			br.GetBatch(b.locals, workers, b.relay)
			continue
		}
		for j, local := range b.locals {
			var err error
			b.buf, err = s.members[m].GetAppend(b.buf[:0], local)
			if err != nil {
				visit(b.idx[j], nil, err)
			} else {
				visit(b.idx[j], b.buf, nil)
			}
		}
	}
	b.visit = nil
	batchPool.Put(b)
}

// batchScratch is one GetBatch call's routing state and document buffer,
// pooled so that a warm batch allocates nothing.
type batchScratch struct {
	member, local []int // per index of ids: owning member (-1 unroutable), local id
	idx, locals   []int // the sub-batch of the member being served
	buf           []byte
	visit         func(i int, doc []byte, err error)
	// relay hands a batching member's visits on under their indices into
	// ids; built once per scratch, so passing it allocates nothing.
	relay func(j int, doc []byte, err error)
}

var batchPool = sync.Pool{New: func() any {
	b := &batchScratch{}
	b.relay = func(j int, doc []byte, err error) { b.visit(b.idx[j], doc, err) }
	return b
}}

// GetRange retrieves bytes [from, to) of document id, implementing
// Searcher: without decoding the whole document where the owning member
// supports it (RLZ), by decode-and-slice otherwise. Out-of-range
// requests clamp to the document's extent either way.
func (s *Set) GetRange(id, from, to int) ([]byte, error) {
	m, local, err := s.route(id)
	if err != nil {
		return nil, err
	}
	if rg := s.rangers[m]; rg != nil {
		return rg.GetRange(local, from, to)
	}
	doc, err := s.members[m].Get(local)
	if err != nil {
		return nil, err
	}
	from, to = max(from, 0), min(to, len(doc))
	if to <= from {
		return nil, nil
	}
	return doc[from:to], nil
}

// FindAll collects occurrences of pattern across every member in
// global-id order, up to limit (0 = all), implementing Searcher: each
// live document is decoded once into a reused buffer and scanned.
// Overlapping occurrences count; tombstoned documents never match.
func (s *Set) FindAll(pattern []byte, limit int) ([]Match, error) {
	if len(pattern) == 0 {
		return nil, fmt.Errorf("archive: empty search pattern")
	}
	var (
		out  []Match
		buf  []byte
		full = func() bool { return limit > 0 && len(out) >= limit }
	)
	for i, m := range s.members {
		start, n := s.starts[i], m.NumDocs()
		for local := 0; local < n && !full(); local++ {
			if _, dead := s.tomb[start+local]; dead {
				continue
			}
			var err error
			if buf, err = m.GetAppend(buf[:0], local); err != nil {
				return out, fmt.Errorf("archive: member %d: %w", i, err)
			}
			for off := 0; !full(); {
				k := bytes.Index(buf[off:], pattern)
				if k < 0 {
					break
				}
				out = append(out, Match{Doc: start + local, Offset: off + k})
				off += k + 1
			}
		}
	}
	return out, nil
}
