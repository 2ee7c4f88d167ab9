package store

import "rlz/internal/search"

// Match locates one pattern occurrence inside the archive.
type Match struct {
	Doc    int // document ID
	Offset int // byte offset within the document
}

// Scan greps the whole archive for pattern, streaming matches to fn in
// (document, offset) order; fn returning false stops the scan. Documents
// are decoded one at a time into a reused buffer, so memory stays
// O(largest document) regardless of collection size — the compressed-
// collection grep that fast per-document decoding makes practical.
func (r *Reader) Scan(pattern []byte, fn func(Match) bool) error {
	m := search.Compile(pattern)
	var buf []byte
	for id := 0; id < r.NumDocs(); id++ {
		var err error
		buf, err = r.GetAppend(buf[:0], id)
		if err != nil {
			return err
		}
		stopped := false
		m.Scan(buf, func(off int) bool {
			if !fn(Match{Doc: id, Offset: off}) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return nil
		}
	}
	return nil
}

// FindAll collects every occurrence of pattern, up to limit matches
// (limit <= 0 means unlimited).
func (r *Reader) FindAll(pattern []byte, limit int) ([]Match, error) {
	var out []Match
	err := r.Scan(pattern, func(m Match) bool {
		out = append(out, m)
		return limit <= 0 || len(out) < limit
	})
	return out, err
}

// GetRange retrieves bytes [from, to) of document id without decoding the
// rest of the document (see rlz.Dictionary.DecodeRange). Requests beyond
// the document's extent are clamped.
func (r *Reader) GetRange(id, from, to int) ([]byte, error) {
	return r.decodeRange(nil, id, from, to)
}
