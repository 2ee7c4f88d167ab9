package main

import (
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"strconv"

	"rlz/internal/archive"
	"rlz/internal/collection"
	"rlz/internal/docmap"
	"rlz/internal/serve"
)

// batchRequest is the POST /docs body.
type batchRequest struct {
	IDs []int `json:"ids"`
}

// batchDoc is one document of the POST /docs response. Data is base64
// (Go's default []byte JSON encoding) and is always present on success —
// a zero-byte document yields "data":"" — and null when Error is set.
type batchDoc struct {
	ID    int    `json:"id"`
	Data  []byte `json:"data"`
	Error string `json:"error,omitempty"`
}

// batchResponse is the POST /docs response envelope.
type batchResponse struct {
	Docs   []batchDoc `json:"docs"`
	Errors int        `json:"errors"`
}

// statsResponse is serve.Stats plus, when serving a collection, the
// generation breakdown: every segment's path, backend, document count
// and size (one entry per shard for a directory rlz build -shards wrote).
type statsResponse struct {
	serve.Stats
	Live *collection.Info `json:"live,omitempty"`
}

// appendBatchRequest is the POST /append/batch body: documents as
// base64 strings (Go's []byte JSON encoding), appended in order.
type appendBatchRequest struct {
	Docs [][]byte `json:"docs"`
}

// appendBatchResponse reports the ids that were durably acknowledged.
// On a partial failure IDs holds the acknowledged prefix and Error the
// reason the rest were refused.
type appendBatchResponse struct {
	IDs        []int  `json:"ids"`
	Generation uint64 `json:"generation"`
	Error      string `json:"error,omitempty"`
}

// muxOptions carries the write-path configuration of newMux.
type muxOptions struct {
	maxBatch    int
	maxDoc      int64                     // largest accepted POST /append body
	appendBatch int                       // largest accepted POST /append/batch document count
	compact     collection.CompactOptions // options for POST /compact (and the auto-compactor)
	errlog      *log.Logger
}

// newMux wires the rlzd endpoints around a serve.Server. col is non-nil
// when the archive is a live collection, which lights up the write API
// (POST /append, DELETE /doc/{id}, POST /compact); on static archives
// those endpoints answer 405. Split from main so handler tests run
// against httptest without a process. Response encoding failures
// (typically a client gone mid-body) are reported to errlog — nil means
// the process logger — so truncated responses are observable instead of
// silently dropped.
func newMux(srv *serve.Server, col *collection.Collection, opt muxOptions) http.Handler {
	errlog := opt.errlog
	if errlog == nil {
		errlog = log.Default()
	}
	if opt.maxDoc <= 0 {
		opt.maxDoc = 16 << 20
	}
	if opt.appendBatch <= 0 {
		opt.appendBatch = 256
	}
	mux := http.NewServeMux()

	// backpressured answers ErrBackpressure writes with 429 + Retry-After
	// (the admission budget drains in well under a second; clients with
	// jittered backoff spread the retries) and reports whether it handled
	// the error.
	backpressured := func(w http.ResponseWriter, err error) bool {
		if !errors.Is(err, collection.ErrBackpressure) {
			return false
		}
		srv.RecordBackpressure()
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return true
	}

	readOnly := func(w http.ResponseWriter) bool {
		if col != nil {
			return false
		}
		http.Error(w, "archive is read-only; serve a live collection directory to enable writes", http.StatusMethodNotAllowed)
		return true
	}

	mux.HandleFunc("GET /doc/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			http.Error(w, "document id must be an integer", http.StatusBadRequest)
			return
		}
		// Do serves from a pooled buffer: no per-request allocation on
		// the document path.
		wrote := false
		err = srv.Do(id, func(doc []byte) error {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
			wrote = true
			_, werr := w.Write(doc)
			return werr
		})
		if err != nil && !wrote {
			// Retrieval failed before any byte went out, so a clean
			// error response is still possible. A failed Write means the
			// status and part of the body are already on the wire
			// (typically a gone client); appending an error would only
			// corrupt the stream.
			if errors.Is(err, docmap.ErrNoSuchDoc) {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	mux.HandleFunc("POST /docs", func(w http.ResponseWriter, r *http.Request) {
		// A body that cannot be -max-batch ids (a sign, 19 digits and a comma
		// each, plus the envelope) is refused before it is parsed into memory.
		var req batchRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64+21*int64(opt.maxBatch))).Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				http.Error(w, "body exceeds what "+strconv.Itoa(opt.maxBatch)+" ids can take", http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(req.IDs) == 0 {
			http.Error(w, `body must carry {"ids":[...]} with at least one id`, http.StatusBadRequest)
			return
		}
		if len(req.IDs) > opt.maxBatch {
			http.Error(w, "batch of "+strconv.Itoa(len(req.IDs))+" exceeds limit "+strconv.Itoa(opt.maxBatch), http.StatusRequestEntityTooLarge)
			return
		}
		resp := batchResponse{Docs: make([]batchDoc, len(req.IDs))}
		// Negative ids can never resolve; reject them up front instead
		// of paying a backend round-trip each. valid/slot carry the
		// surviving ids and their response positions.
		valid := req.IDs
		var slot []int
		for _, id := range req.IDs {
			if id < 0 {
				valid = make([]int, 0, len(req.IDs))
				slot = make([]int, 0, len(req.IDs))
				break
			}
		}
		if slot != nil {
			for i, id := range req.IDs {
				if id < 0 {
					resp.Docs[i] = batchDoc{ID: id, Error: "document id must be non-negative"}
					resp.Errors++
					continue
				}
				valid = append(valid, id)
				slot = append(slot, i)
			}
		}
		for k, res := range srv.GetBatch(valid) {
			i := k
			if slot != nil {
				i = slot[k]
			}
			resp.Docs[i].ID = res.ID
			if res.Err != nil {
				resp.Docs[i].Error = res.Err.Error()
				resp.Errors++
				continue
			}
			resp.Docs[i].Data = res.Data
			if resp.Docs[i].Data == nil { // zero-byte document, not an omission
				resp.Docs[i].Data = []byte{}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			errlog.Printf("rlzd: encoding /docs response (%d ids): %v", len(req.IDs), err)
		}
	})

	mux.HandleFunc("POST /append", func(w http.ResponseWriter, r *http.Request) {
		if readOnly(w) {
			return
		}
		// Reusing the pooled body is safe: Append copies the document into
		// its frame and writes that to the open segment's file before it
		// returns, and nothing keeps a reference to the body.
		body, err := readBody(w, r, opt.maxDoc)
		defer putBody(body)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				http.Error(w, "document exceeds limit of "+strconv.FormatInt(opt.maxDoc, 10)+" bytes", http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
			return
		}
		id, err := col.Append(body.Bytes())
		if err != nil {
			if backpressured(w, err) {
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// The bytes json.Encoder gives for the two-field object, without
		// the map and the reflection.
		var buf [64]byte
		ack := append(buf[:0], `{"generation":`...)
		ack = strconv.AppendUint(ack, col.Generation(), 10)
		ack = append(ack, `,"id":`...)
		ack = strconv.AppendInt(ack, int64(id), 10)
		ack = append(ack, "}\n"...)
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(ack); err != nil {
			errlog.Printf("rlzd: writing /append response: %v", err)
		}
	})

	mux.HandleFunc("POST /append/batch", func(w http.ResponseWriter, r *http.Request) {
		if readOnly(w) {
			return
		}
		// The whole batch body shares the single-document byte budget: a
		// batch is a latency optimization (one commit window, about one
		// fsync), not a bulk-import channel. The documents are slices of the
		// pooled arena (or, for a body not in the canonical shape, of what
		// encoding/json allocated). Reusing the arena is safe for the same
		// reason reusing the POST /append body is: AppendBatch copies each
		// document into its frame and writes it to the open segment's file
		// before it returns, and nothing keeps a reference to the documents.
		body, err := readBody(w, r, opt.maxDoc)
		defer putBody(body)
		arena := batchArenas.Get().(*batchArena)
		defer arena.put()
		docs, err := arena.decode(body.Bytes(), err)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				http.Error(w, "batch body exceeds limit of "+strconv.FormatInt(opt.maxDoc, 10)+" bytes", http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(docs) == 0 {
			http.Error(w, `body must carry {"docs":[...]} with at least one document`, http.StatusBadRequest)
			return
		}
		if len(docs) > opt.appendBatch {
			http.Error(w, "batch of "+strconv.Itoa(len(docs))+" documents exceeds limit "+strconv.Itoa(opt.appendBatch), http.StatusRequestEntityTooLarge)
			return
		}
		ids, err := col.AppendBatch(docs)
		resp := appendBatchResponse{IDs: ids, Generation: col.Generation()}
		if resp.IDs == nil {
			resp.IDs = []int{}
		}
		w.Header().Set("Content-Type", "application/json")
		if err != nil {
			// The acknowledged prefix is durable and reported either way;
			// the status says why the rest was refused.
			resp.Error = err.Error()
			status := http.StatusInternalServerError
			if errors.Is(err, collection.ErrBackpressure) {
				srv.RecordBackpressure()
				w.Header().Set("Retry-After", "1")
				status = http.StatusTooManyRequests
			}
			w.WriteHeader(status)
			if err := json.NewEncoder(w).Encode(resp); err != nil {
				errlog.Printf("rlzd: encoding /append/batch error response: %v", err)
			}
			return
		}
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			errlog.Printf("rlzd: encoding /append/batch response: %v", err)
		}
	})

	mux.HandleFunc("DELETE /doc/{id}", func(w http.ResponseWriter, r *http.Request) {
		if readOnly(w) {
			return
		}
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			http.Error(w, "document id must be an integer", http.StatusBadRequest)
			return
		}
		if err := col.Delete(id); err != nil {
			if errors.Is(err, docmap.ErrNoSuchDoc) {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// Advance the cache epoch rather than dropping the one entry: a
		// concurrent GET that fetched the document before the tombstone
		// published could re-cache it after a point invalidation, but its
		// Put lands under the old epoch's key, which no request uses now.
		srv.BumpEpoch()
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(map[string]any{"deleted": id, "generation": col.Generation()}); err != nil {
			errlog.Printf("rlzd: encoding delete response: %v", err)
		}
	})

	mux.HandleFunc("POST /compact", func(w http.ResponseWriter, r *http.Request) {
		if readOnly(w) {
			return
		}
		// The daemon's configured options: repository-default codec,
		// dictionary budget and factorizer, plus adaptive learning when
		// -adapt is set (rlz compact has the full tuning flags for
		// offline runs).
		res, err := col.Compact(opt.compact)
		if err != nil {
			if errors.Is(err, collection.ErrCompacting) {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(res); err != nil {
			errlog.Printf("rlzd: encoding /compact response: %v", err)
		}
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		resp := statsResponse{Stats: srv.Stats()}
		if col != nil {
			info := col.Info()
			resp.Live = &info
		}
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			errlog.Printf("rlzd: encoding /stats response: %v", err)
		}
	})

	return mux
}

// backendLabel names what the daemon is serving, including a
// collection's generation shape.
func backendLabel(r archive.Reader) string {
	if c, ok := archive.As[*collection.Collection](r); ok {
		info := c.Info()
		return "live collection, generation " + strconv.FormatUint(info.Generation, 10) +
			", " + strconv.Itoa(len(info.Segments)) + " sealed segments"
	}
	return string(r.Stats().Backend) + " backend"
}
