package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Op groups the spans of one request; Parent is the
// ID of the span that caused this one (0 for none). N above 1 marks a
// batch of N identical sub-microsecond calls timed together.
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent,omitempty"`
	Start  int64  `json:"start"` // ns since the recorder started
	End    int64  `json:"end"`
	N      int    `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newOp returns a fresh request identifier.
func (r *recorder) newOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// add records one span and returns its ID.
func (r *recorder) add(op int, name string, parent int, start, end time.Time, n int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Op: op, Name: name, Parent: parent,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), N: n})
	return id
}

// selfTimes returns, per span ID, the span's duration minus the
// durations of its direct children. The benchmark's children are timed
// one after another, so they never overlap; a child that outlasts its
// parent (separately timed replays can) clamps the parent's self time
// at zero.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur()
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for id, d := range self {
		if d < 0 {
			self[id] = 0
		}
	}
	return self
}

// durations returns the per-call durations of every span called name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.dur()
		if s.N > 1 {
			d /= time.Duration(s.N)
		}
		out = append(out, d)
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
