package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"rlz/internal/collection"
	"rlz/internal/serve"
	"rlz/internal/workload"
)

// client talks to one rlzd. GET /doc and POST /append go through
// workload.HTTPGetter, the repo's own load-generator client (it already
// retries 429 with backoff); the endpoints it lacks are added here.
type client struct {
	base string
	hc   *http.Client
	workload.HTTPGetter
}

func newClient(base string, conns int) *client {
	hc := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
		},
	}
	return &client{base: base, hc: hc, HTTPGetter: workload.HTTPGetter{BaseURL: base, Client: hc}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// postJSON posts body and decodes a 200 response into out, returning
// the response size. A 429 is retried like HTTPGetter.Append does.
func (c *client) postJSON(path string, body []byte, out any) (wire int, err error) {
	const retries = 4
	for attempt := 0; ; attempt++ {
		resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		data, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // read to the end above; nothing left to lose
		if err != nil {
			return 0, fmt.Errorf("POST %s: reading response: %w", path, err)
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < retries {
			time.Sleep(5 * time.Millisecond << attempt)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("POST %s: %s: %.200s", path, resp.Status, data)
		}
		if err := json.Unmarshal(data, out); err != nil {
			return 0, fmt.Errorf("POST %s: decoding response: %w", path, err)
		}
		return len(data), nil
	}
}

// batchDoc mirrors rlzd's POST /docs response element.
type batchDoc struct {
	ID    int    `json:"id"`
	Data  []byte `json:"data"`
	Error string `json:"error"`
}

// getBatch fetches ids with one POST /docs.
func (c *client) getBatch(ids []int) (docs []batchDoc, wire int, err error) {
	body, err := json.Marshal(struct {
		IDs []int `json:"ids"`
	}{ids})
	if err != nil {
		return nil, 0, err
	}
	var out struct {
		Docs []batchDoc `json:"docs"`
	}
	wire, err = c.postJSON("/docs", body, &out)
	if err != nil {
		return nil, 0, err
	}
	if len(out.Docs) != len(ids) {
		return nil, 0, fmt.Errorf("POST /docs: %d documents for %d ids", len(out.Docs), len(ids))
	}
	return out.Docs, wire, nil
}

// appendBatch appends docs with one POST /append/batch.
func (c *client) appendBatch(docs [][]byte) ([]int, error) {
	body, err := json.Marshal(struct {
		Docs [][]byte `json:"docs"`
	}{docs})
	if err != nil {
		return nil, err
	}
	var out struct {
		IDs []int `json:"ids"`
	}
	if _, err := c.postJSON("/append/batch", body, &out); err != nil {
		return nil, err
	}
	if len(out.IDs) != len(docs) {
		return nil, fmt.Errorf("POST /append/batch: %d ids for %d documents", len(out.IDs), len(docs))
	}
	return out.IDs, nil
}

// compact runs one synchronous POST /compact.
func (c *client) compact() (collection.CompactResult, error) {
	var res collection.CompactResult
	_, err := c.postJSON("/compact", nil, &res)
	return res, err
}

// daemonStats is the part of GET /stats the benchmark reads.
type daemonStats struct {
	serve.Stats
	Live *collection.Info `json:"live"`
}

func (c *client) stats() (daemonStats, error) {
	var st daemonStats
	resp, err := c.hc.Get(c.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	return st, nil
}
