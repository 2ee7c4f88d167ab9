package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rlz/internal/collection"
)

// ErrBackpressure aliases the store's admission-control sentinel: an
// operation that failed because the server shed it (HTTP 429, or a
// direct collection append over budget) wraps this error. RunMixed
// counts such failures separately from real errors — a load generator
// that reports shed writes as failures can't tell an overloaded server
// from a broken one.
var ErrBackpressure = collection.ErrBackpressure

// Getter is the one-method view of a document server the load generator
// drives: internal/serve.Server, any archive.Reader, and HTTPGetter all
// satisfy it. Implementations must be safe for concurrent use with
// distinct dst buffers.
type Getter interface {
	GetAppend(dst []byte, id int) ([]byte, error)
}

// Appender is the write-side counterpart: a live collection
// (internal/collection) and HTTPGetter (POST /append against rlzd) both
// satisfy it. Implementations must be safe for concurrent use.
type Appender interface {
	Append(doc []byte) (int, error)
}

// Result summarizes one closed-loop load run.
type Result struct {
	Requests int64         // requests issued (== len(ids))
	Errors   int64         // requests that returned an error
	Bytes    int64         // document bytes received
	Elapsed  time.Duration // wall time of the whole run
}

// Throughput returns the request rate in requests per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// Run drives g with a closed-loop workload: `concurrency` workers each
// hold one outstanding request at a time, pulling the next id from the
// shared list until it is exhausted — the access model of a fixed-size
// frontend pool, and the load shape the paper's query-log experiments
// assume. Pair it with QueryLog (zipfian) or Uniform to pick the id
// distribution. Each worker reuses its own buffer, so a Getter's
// GetAppend zero-allocation path is exercised as a real frontend would.
func Run(g Getter, ids []int, concurrency int) Result {
	if concurrency < 1 {
		concurrency = 1
	}
	if concurrency > len(ids) {
		concurrency = len(ids)
	}
	var res Result
	if len(ids) == 0 {
		return res
	}
	var next, errs, bytes atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				var err error
				buf, err = g.GetAppend(buf[:0], ids[i])
				if err != nil {
					errs.Add(1)
					continue
				}
				bytes.Add(int64(len(buf)))
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Requests = int64(len(ids))
	res.Errors = errs.Load()
	res.Bytes = bytes.Load()
	return res
}

// MixedResult summarizes one closed-loop mixed read/append run.
type MixedResult struct {
	Reads        int64         // read operations issued
	Appends      int64         // append operations issued
	Errors       int64         // operations that returned an error
	Backpressure int64         // appends shed by admission control (not in Errors)
	ReadBytes    int64         // document bytes received by reads
	AppendBytes  int64         // document bytes submitted by appends
	Elapsed      time.Duration // wall time of the whole run
}

// Throughput returns the total operation rate in ops per second.
func (r MixedResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Reads+r.Appends) / r.Elapsed.Seconds()
}

// RunMixed drives a live store with a closed-loop mixed workload:
// `concurrency` workers each hold one outstanding operation, pulling the
// next slot from a shared schedule that spreads len(docs) appends evenly
// through len(ids) reads — the ingest-under-traffic shape a live
// collection exists to serve. The schedule is deterministic, so two runs
// over the same inputs issue the same operation sequence (though
// interleaving across workers still varies). Reads use each worker's
// reused buffer (the zero-allocation GetAppend path); failed operations
// count in Errors and the run continues.
func RunMixed(g Getter, a Appender, ids []int, docs [][]byte, concurrency int) MixedResult {
	var res MixedResult
	total := len(ids) + len(docs)
	if total == 0 {
		return res
	}
	if concurrency < 1 {
		concurrency = 1
	}
	if concurrency > total {
		concurrency = total
	}
	// Slot i is an append iff the even-spread quota of appends rises at
	// i; with that, readIdx/appendIdx for any slot follow by prefix
	// counts, kept as the schedule is built.
	isAppend := make([]bool, total)
	opIdx := make([]int, total) // index into ids or docs, per slot
	reads, appends := 0, 0
	for i := 0; i < total; i++ {
		if (i+1)*len(docs)/total != i*len(docs)/total {
			isAppend[i] = true
			opIdx[i] = appends
			appends++
		} else {
			opIdx[i] = reads
			reads++
		}
	}
	var next, errs, shed, nReads, nAppends, readBytes, appendBytes atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				if isAppend[i] {
					doc := docs[opIdx[i]]
					nAppends.Add(1)
					if _, err := a.Append(doc); err != nil {
						if errors.Is(err, ErrBackpressure) {
							shed.Add(1)
						} else {
							errs.Add(1)
						}
						continue
					}
					appendBytes.Add(int64(len(doc)))
					continue
				}
				nReads.Add(1)
				var err error
				buf, err = g.GetAppend(buf[:0], ids[opIdx[i]])
				if err != nil {
					errs.Add(1)
					continue
				}
				readBytes.Add(int64(len(buf)))
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Reads = nReads.Load()
	res.Appends = nAppends.Load()
	res.Errors = errs.Load()
	res.Backpressure = shed.Load()
	res.ReadBytes = readBytes.Load()
	res.AppendBytes = appendBytes.Load()
	return res
}

// HTTPGetter adapts a running rlzd daemon to the Getter interface, so the
// same load generator drives the in-process Server and the HTTP serving
// path. Safe for concurrent use (http.Client is).
//
// Appends honor the daemon's admission control: a 429 response is
// retried with capped exponential backoff plus jitter (respecting
// Retry-After when the server sends one); when the retries are
// exhausted the append fails with an error wrapping ErrBackpressure.
type HTTPGetter struct {
	BaseURL string       // e.g. "http://localhost:8087"
	Client  *http.Client // nil means http.DefaultClient
	// MaxRetries caps how many times a 429 append response is retried
	// before giving up. Zero means 4; negative disables retries.
	MaxRetries int
}

// backoffCap bounds one backoff sleep: past it, more waiting only
// stretches the closed loop without letting the server drain any faster.
const backoffCap = 2 * time.Second

// backoffDelay picks the sleep before retry number attempt (0-based):
// the server's Retry-After when given, else an exponential ramp from
// 5ms — both capped and full-jittered (uniform in [d/2, 3d/2)) so a
// fleet of shed writers does not reconverge on the same instant.
func backoffDelay(attempt int, retryAfter string) time.Duration {
	d := 5 * time.Millisecond << min(attempt, 10)
	if s, err := strconv.Atoi(retryAfter); err == nil && s > 0 {
		d = time.Duration(s) * time.Second
	}
	if d > backoffCap {
		d = backoffCap
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// errBodyLimit caps how much of a non-200 response body is captured for
// the error message. Error bodies are read into a throwaway buffer, not
// the caller's reused one: an unbounded read there would permanently
// grow every worker's buffer on the first large error page and embed
// megabytes in the error string.
const errBodyLimit = 1024

// GetAppend fetches GET {BaseURL}/doc/{id}, appending the body to dst.
// On a non-200 response dst is returned unchanged (and ungrown) and the
// error carries at most errBodyLimit bytes of the response body.
func (h *HTTPGetter) GetAppend(dst []byte, id int) ([]byte, error) {
	c := h.Client
	if c == nil {
		c = http.DefaultClient
	}
	resp, err := c.Get(h.BaseURL + "/doc/" + strconv.Itoa(id))
	if err != nil {
		return dst, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, errBodyLimit))
		// Drain a bounded remainder so moderate error bodies reach EOF
		// and the connection stays reusable; a body larger than the
		// drain budget costs one connection rather than unbounded reads.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		return dst, fmt.Errorf("workload: GET /doc/%d: %s: %s", id, resp.Status, body)
	}
	base := len(dst)
	dst, err = readAppend(dst, resp.Body)
	if err != nil {
		return dst[:base], err
	}
	return dst, nil
}

// Append submits POST {BaseURL}/append with doc as the raw body,
// returning the stable id the daemon assigned — the write half of the
// mixed workload against a live rlzd. A 429 response is retried with
// backoff up to MaxRetries times; exhausting them returns an error
// wrapping ErrBackpressure.
func (h *HTTPGetter) Append(doc []byte) (int, error) {
	retries := h.MaxRetries
	if retries == 0 {
		retries = 4
	} else if retries < 0 {
		retries = 0
	}
	for attempt := 0; ; attempt++ {
		id, retryAfter, err := h.appendOnce(doc)
		if err == nil || !errors.Is(err, ErrBackpressure) || attempt >= retries {
			return id, err
		}
		time.Sleep(backoffDelay(attempt, retryAfter))
	}
}

// appendOnce issues one POST /append, returning the Retry-After header
// value alongside a backpressure error so the retry loop can honor it.
func (h *HTTPGetter) appendOnce(doc []byte) (int, string, error) {
	c := h.Client
	if c == nil {
		c = http.DefaultClient
	}
	resp, err := c.Post(h.BaseURL+"/append", "application/octet-stream", bytes.NewReader(doc))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, errBodyLimit))
		io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		if resp.StatusCode == http.StatusTooManyRequests {
			return 0, resp.Header.Get("Retry-After"),
				fmt.Errorf("workload: POST /append: %s: %s: %w", resp.Status, body, ErrBackpressure)
		}
		return 0, "", fmt.Errorf("workload: POST /append: %s: %s", resp.Status, body)
	}
	var out struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&out); err != nil {
		return 0, "", fmt.Errorf("workload: POST /append response: %w", err)
	}
	return out.ID, "", nil
}

// readAppend is io.ReadAll into an existing buffer: the response body is
// appended to dst without a throwaway intermediate allocation.
func readAppend(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
