package main

// Request bodies of the write endpoints: one pooled read for both, and for
// POST /append/batch a decoder of the canonical body that does not run
// encoding/json's scanner, with encoding/json itself behind it for every
// other body.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"sync"
)

// appendBodies holds the write endpoints' body buffers and batchArenas the
// decoded batches. One that grew past maxPooledBody (or maxPooledDocs
// documents) is dropped instead of returned, so a single huge request does
// not pin its buffer for the life of the daemon.
var (
	appendBodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	batchArenas  = sync.Pool{New: func() any { return new(batchArena) }}
)

const (
	maxPooledBody = 1 << 20
	maxPooledDocs = 1 << 12
)

// readBody reads r's body whole into a pooled buffer sized from
// Content-Length (a chunked or lying body just grows it, inside limit
// either way). err is the read's error — an *http.MaxBytesError past limit,
// io.ErrUnexpectedEOF for a body shorter than its Content-Length — and the
// bytes read before it are in the buffer all the same. The caller hands the
// buffer to putBody once nothing refers to its bytes.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (*bytes.Buffer, error) {
	body := appendBodies.Get().(*bytes.Buffer)
	if n := r.ContentLength; n > 0 && n <= limit {
		body.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return body, err
}

func putBody(body *bytes.Buffer) {
	if body.Cap() <= maxPooledBody {
		body.Reset()
		appendBodies.Put(body)
	}
}

// batchArena holds the documents of one decoded POST /append/batch body:
// their bytes back to back in data, and docs slicing it.
type batchArena struct {
	data []byte
	docs [][]byte
}

func (a *batchArena) put() {
	if cap(a.data) <= maxPooledBody && cap(a.docs) <= maxPooledDocs {
		clear(a.docs[:cap(a.docs)]) // a stale slice would pin a replaced data array
		a.docs = a.docs[:0]
		batchArenas.Put(a)
	}
}

// errReader returns err on every Read.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decode returns the documents of a POST /append/batch body, or the error,
// exactly as json.NewDecoder(...).Decode(&appendBatchRequest{}) gives them
// for body followed by readErr (nil: by the end of the input). A body read
// whole in the canonical shape is decoded into a; the documents are then
// slices of the arena, good until it is put back. Every other body,
// including any read that stopped early, goes to encoding/json itself.
func (a *batchArena) decode(body []byte, readErr error) ([][]byte, error) {
	if readErr == nil {
		if docs, ok := a.decodeCanonical(body); ok {
			return docs, nil
		}
	}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	var req appendBatchRequest
	err := json.NewDecoder(src).Decode(&req)
	return req.Docs, err
}

// decodeCanonical decodes body if it is {"docs":["<base64>",...]} with JSON
// whitespace between the tokens — what json.Marshal of appendBatchRequest
// writes — into a, and reports whether it did. It accepts nothing
// encoding/json would refuse or read differently, and it refuses rather
// than report an error, leaving the error's text to encoding/json:
//
//   - a value not an object, a key other than exactly "docs" (encoding/json
//     also takes "Docs" or "doſs"), a second key, null for the array or a
//     document: not the shape;
//   - a backslash escape, a control character or a byte past ASCII in a
//     string: not in the base64 alphabet, so base64 refuses the string;
//   - raw CR or LF, which JSON forbids in a string and base64 skips: the
//     string decodes short of what its length and padding promise.
//
// What follows the object's closing brace is not looked at, as
// Decoder.Decode does not look at it.
func (a *batchArena) decodeCanonical(body []byte) ([][]byte, bool) {
	i := skipSpace(body, 0)
	if !at(body, i, '{') {
		return nil, false
	}
	if i = skipSpace(body, i+1); !bytes.HasPrefix(body[i:], []byte(`"docs"`)) {
		return nil, false
	}
	if i = skipSpace(body, i+len(`"docs"`)); !at(body, i, ':') {
		return nil, false
	}
	if i = skipSpace(body, i+1); !at(body, i, '[') {
		return nil, false
	}
	i = skipSpace(body, i+1)
	// The strings lie inside body[i:], and each decodes to at most 3 bytes
	// per 4 it takes: the arena never has to grow under the documents.
	if need := (len(body) - i) / 4 * 3; cap(a.data) < need {
		a.data = make([]byte, 0, need)
	}
	data, docs := a.data[:0], a.docs[:0]
	if at(body, i, ']') {
		i++
	} else {
		for {
			if !at(body, i, '"') {
				return nil, false
			}
			s := body[i+1:]
			n := bytes.IndexByte(s, '"')
			if n < 0 || n%4 != 0 {
				return nil, false
			}
			s = s[:n]
			want := n / 4 * 3
			if n > 0 && s[n-1] == '=' {
				want--
				if s[n-2] == '=' {
					want--
				}
			}
			start := len(data)
			m, err := base64.StdEncoding.Decode(data[start:start+n/4*3], s)
			if err != nil || m != want {
				return nil, false
			}
			data = data[:start+m]
			docs = append(docs, data[start:start+m:start+m])
			if i = skipSpace(body, i+n+2); at(body, i, ']') {
				i++
				break
			}
			if !at(body, i, ',') {
				return nil, false
			}
			i = skipSpace(body, i+1)
		}
	}
	if !at(body, skipSpace(body, i), '}') {
		return nil, false
	}
	a.data, a.docs = data, docs
	return docs, true
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace, or len(b).
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// at reports whether b[i] is c.
func at(b []byte, i int, c byte) bool { return i < len(b) && b[i] == c }
