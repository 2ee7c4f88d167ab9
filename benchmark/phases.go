package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// closedLoop runs operations [0,n) on r.clients goroutines, operation i
// on goroutine i mod clients, each sending its next request only after
// the previous one completed. It returns every latency, the wall time
// and the host's speed factor around the loop (calibrate.go). Each
// operation is one span of rec (nil records nothing).
func (r *run) closedLoop(rec *recorder, name string, clients, n int, op func(c, i int) error) ([]time.Duration, time.Duration, float64) {
	lat := make([]time.Duration, n)
	var wg sync.WaitGroup
	g := r.gauge(clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n && r.ctx.Err() == nil; i += clients {
				t := time.Now()
				err := op(c, i)
				end := time.Now()
				lat[i] = end.Sub(t)
				r.count(err)
				if rec != nil {
					rec.add(rec.newOp(), name, 0, t, end, 1)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	return lat, wall, g.stop()
}

// getChecked fetches id over HTTP into client c's buffer and compares
// it with the corpus.
func (r *run) getChecked(c, id int) error {
	var err error
	if r.bufs[c], err = r.cl.GetAppend(r.bufs[c][:0], id); err != nil {
		return err
	}
	return r.check(id, r.bufs[c])
}

// appendDoc sends corpus document doc with POST /append and records the
// id the daemon acknowledged it under.
func (r *run) appendDoc(doc int) error {
	id, err := r.cl.Append(r.docs[doc])
	if err != nil {
		return err
	}
	return r.ack(id, doc)
}

// sliceStats collects per-slice results of a phase, calibrated by each
// slice's own speed factor, and beside them what the clock read: for
// the .raw lines and for the per-layer arithmetic, which is all in
// uncalibrated time.
type sliceStats struct {
	rate, p50, tail          []float64
	rawRate, rawP50, rawTail []float64
	n                        int
}

func (s *sliceStats) add(ops int, lat []time.Duration, wall time.Duration, speed float64) {
	us := sortedMicros(lat)
	p50, _ := percentile(us, 0.5)
	_, tail := highestPercentile(us)
	s.rate = append(s.rate, float64(ops)/wall.Seconds()/speed)
	s.p50 = append(s.p50, p50*speed)
	s.tail = append(s.tail, tail*speed)
	s.rawRate = append(s.rawRate, float64(ops)/wall.Seconds())
	s.rawP50 = append(s.rawP50, p50)
	s.rawTail = append(s.rawTail, tail)
	s.n += len(lat)
}

// merge appends o's slices to s.
func (s *sliceStats) merge(o sliceStats) {
	s.rate, s.p50, s.tail = append(s.rate, o.rate...), append(s.p50, o.p50...), append(s.tail, o.tail...)
	s.rawRate, s.rawP50, s.rawTail = append(s.rawRate, o.rawRate...), append(s.rawP50, o.rawP50...), append(s.rawTail, o.rawTail...)
	s.n += o.n
}

// phaseReads runs the three read-side phases interleaved: each cycle
// is GetSlicesPerCycle slices of GET /doc/{id}, one slice of POST /docs
// and, until MixedSlices have run, one slice of the mixed schedule.
// Cycles repeat until the budget is spent, and each metric is the
// median over its slices. Interleaving matters on a shared machine:
// its speed drifts over seconds, and a phase measured in one short
// window inherits that window's luck.
func (r *run) phaseReads(budget time.Duration) error {
	r.startReads()
	var get getPhase
	var batch sliceStats
	var mixed sliceStats
	cpu0 := r.d.cpu()
	st0, err := r.cl.stats()
	if err != nil {
		return err
	}
	r.layer.info = st0.Live
	for start := time.Now(); r.ctx.Err() == nil; {
		for k := 0; k < r.sc.GetSlicesPerCycle; k++ {
			r.getSlice(&get)
		}
		r.batchSlice(&batch)
		if len(mixed.rate) < r.sc.MixedSlices {
			r.mixedSlice(&mixed)
		}
		if time.Since(start) >= budget && len(mixed.rate) == r.sc.MixedSlices {
			break
		}
	}
	// CPU and cache counters cover all three phases; GETs dominate both.
	r.layer.getCPU = r.d.cpu() - cpu0
	r.layer.getOps = get.traced.n + get.plain.n + batch.n*r.sc.BatchIDs + mixed.n
	r.layer.tracedRate, r.layer.untracedRate = get.traced.rate, get.plain.rate
	if st1, err := r.cl.stats(); err == nil {
		hits, misses := st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses
		r.layer.hitPct = 100 * ratio(float64(hits), float64(hits+misses))
		r.layer.decodedPerServed = ratio(float64(st1.BytesDecoded-st0.BytesDecoded), float64(st1.BytesServed-st0.BytesServed))
	}
	s := get.plain
	if r.rec != nil {
		s.merge(get.traced)
	}
	r.setBoth("get_docs_per_s", median(s.rate), median(s.rawRate), s.n)
	r.setBoth("get_p50_us", median(s.p50), median(s.rawP50), s.n)
	r.setBoth("get_p99_us", median(s.tail), median(s.rawTail), s.n)
	r.layer.batchP50us = median(batch.rawP50)
	r.setBoth("batch_docs_per_s", median(batch.rate), median(batch.rawRate), batch.n*r.sc.BatchIDs)
	r.setBoth("mixed_ops_per_s", median(mixed.rate), median(mixed.rawRate), mixed.n)
	return r.ctx.Err()
}

// getPhase holds the GET slices. A traced run records spans on every
// other slice; the difference between the two kinds of slice is the
// tracing overhead.
type getPhase struct {
	traced, plain sliceStats
	slices        int
}

// getSlice is GetSliceOps of GET /doc/{id}, closed loop.
func (r *run) getSlice(g *getPhase) {
	ids := r.nextIDs(r.sc.GetSliceOps)
	rec, into := (*recorder)(nil), &g.plain
	if r.rec != nil && g.slices%2 == 0 {
		rec, into = r.rec, &g.traced
	}
	g.slices++
	lat, wall, speed := r.closedLoop(rec, "http.get", r.clients, len(ids), func(c, i int) error {
		return r.getChecked(c, ids[i])
	})
	into.add(len(ids), lat, wall, speed)
}

// batchSlice is BatchSliceReqs of POST /docs with BatchIDs ids each.
func (r *run) batchSlice(s *sliceStats) {
	reqs := r.sc.BatchSliceReqs
	ids := r.nextIDs(reqs * r.sc.BatchIDs)
	var wire, docBytes int64
	var mu sync.Mutex
	lat, wall, speed := r.closedLoop(r.rec, "http.batch", r.clients, reqs, func(c, i int) error {
		batch := ids[i*r.sc.BatchIDs : (i+1)*r.sc.BatchIDs]
		docs, w, err := r.cl.getBatch(batch)
		if err != nil {
			return err
		}
		n := 0
		for j, d := range docs {
			if d.Error != "" || d.ID != batch[j] {
				return fmt.Errorf("POST /docs: id %d answered as %d %q", batch[j], d.ID, d.Error)
			}
			if err := r.check(d.ID, d.Data); err != nil {
				return err
			}
			n += len(d.Data)
		}
		mu.Lock()
		wire += int64(w)
		docBytes += int64(n)
		mu.Unlock()
		return nil
	})
	s.add(len(ids), lat, wall, speed)
	r.layer.batchWire += wire
	r.layer.batchDocBytes += docBytes
}

// mixedOp is one step of the mixed schedule.
type mixedOp struct {
	Append bool
	Recent bool // read one of the last acknowledged ids (the open segment)
	ID     int  // Append: pool document; Recent: steps back; else the id to read
}

// mixedSchedule lays out n operations: one in ten appends the next pool
// document, the rest read — four in five an id from ids, one in five a
// recently acknowledged id. Deterministic in seed.
func mixedSchedule(n int, ids []int, firstPoolDoc int, seed int64) []mixedOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]mixedOp, n)
	next, doc := 0, firstPoolDoc
	for i := range ops {
		switch {
		case rng.Intn(10) == 0:
			ops[i] = mixedOp{Append: true, ID: doc}
			doc++
		case rng.Intn(5) == 0:
			ops[i] = mixedOp{Recent: true, ID: rng.Intn(1 << 16)}
		default:
			ops[i] = mixedOp{ID: ids[next%len(ids)]}
			next++
		}
	}
	return ops
}

// mixedSlice runs the next slice of the 90/10 read/append schedule. The
// slice count is fixed, so the bytes appended repeat from run to run.
func (r *run) mixedSlice(s *sliceStats) {
	n := r.sc.MixedSliceOps
	ops := mixedSchedule(n, r.nextIDs(n), r.pool, r.seed+int64(len(s.rate)))
	for _, op := range ops {
		if op.Append {
			r.pool++
		}
	}
	lat, wall, speed := r.closedLoop(r.rec, "http.mixed", r.clients, n, func(c, i int) error {
		op := ops[i]
		switch {
		case op.Append:
			return r.appendDoc(op.ID)
		case op.Recent:
			if id, ok := r.recentID(op.ID); ok {
				return r.getChecked(c, id)
			}
			// Nothing acknowledged yet: read a base id instead.
			return r.getChecked(c, op.ID%r.pop)
		}
		return r.getChecked(c, op.ID)
	})
	s.add(n, lat, wall, speed)
}

// phaseWrites runs the ingest rounds: slices of single appends, slices
// of batched appends, then one synchronous compaction, Rounds times
// over. Every count is fixed, so the bytes stored repeat.
func (r *run) phaseWrites() error {
	var singles, batches sliceStats
	var appendLat []time.Duration
	var drained int64
	var compactWall, compactRaw time.Duration
	per := r.sc.AppendBatch
	for round := 0; round < r.sc.Rounds && r.ctx.Err() == nil; round++ {
		cpu0 := r.d.cpu()
		for k := 0; k < r.sc.AppendSlices; k++ {
			first, n := r.pool, r.sc.AppendSliceOps
			lat, wall, speed := r.closedLoop(r.rec, "http.append", r.clients, n, func(c, i int) error {
				return r.appendDoc(first + i)
			})
			r.pool += n
			singles.add(n, lat, wall, speed)
			appendLat = append(appendLat, lat...)
		}
		r.layer.appendCPU += r.d.cpu() - cpu0
		for k := 0; k < r.sc.AppendBatchSlices; k++ {
			first, n := r.pool, r.sc.AppendBatchSliceReqs
			lat, wall, speed := r.closedLoop(r.rec, "http.append_batch", r.clients, n, func(c, i int) error {
				lo := first + i*per
				ids, err := r.cl.appendBatch(r.docs[lo : lo+per])
				if err != nil {
					return err
				}
				for j, id := range ids {
					if err := r.ack(id, lo+j); err != nil {
						return err
					}
				}
				return nil
			})
			r.pool += n * per
			batches.add(n*per, lat, wall, speed)
		}

		// A traced run reads beside the last compaction to see how far
		// background work stalls the foreground.
		stop := make(chan struct{})
		var beside sync.WaitGroup
		if r.rec != nil && round == r.sc.Rounds-1 {
			beside.Add(1)
			go func() {
				defer beside.Done()
				r.readBeside(stop)
			}()
		}
		pending := r.pending
		cpu0 = r.d.cpu()
		g := r.gauge(r.clients)
		t0 := time.Now()
		res, err := r.cl.compact()
		end := time.Now()
		speed := g.stop()
		close(stop)
		beside.Wait()
		r.count(err)
		if err != nil {
			return fmt.Errorf("POST /compact: %w", err)
		}
		r.rec.add(r.rec.newOp(), "http.compact", 0, t0, end, 1)
		r.layer.compactCPU += r.d.cpu() - cpu0
		if res.Compacted == 0 {
			r.count(fmt.Errorf("POST /compact drained nothing with %d bytes pending", pending))
		}
		compactWall += time.Duration(float64(end.Sub(t0)) * speed)
		compactRaw += end.Sub(t0)
		drained += pending
		r.mu.Lock()
		r.pending = 0
		r.mu.Unlock()
	}
	r.layer.appendOps = singles.n
	r.setBoth("append_docs_per_s", median(singles.rate), median(singles.rawRate), singles.n)
	r.setBoth("append_p50_us", median(singles.p50), median(singles.rawP50), singles.n)
	r.setBoth("append_batch_docs_per_s", median(batches.rate), median(batches.rawRate), batches.n*per)
	r.setBoth("compact_mb_per_s", float64(drained)/1e6/compactWall.Seconds(), float64(drained)/1e6/compactRaw.Seconds(), r.sc.Rounds)
	// Not an end-to-end metric: a WAL checkpoint stalls just under one
	// append in a hundred, so p99 sits on the edge of that cliff and no
	// bound holds it (README.md). Taken over every round's samples.
	_, tail := highestPercentile(sortedMicros(appendLat))
	r.set("append_p99_us", tail, singles.n)

	size, err := dirBytes(r.colDir)
	if err != nil {
		return err
	}
	r.set("stored_pct", 100*float64(size)/float64(r.ackedSize), 1)
	return nil
}

// readBeside reads acknowledged documents on one connection until stop
// closes, keeping the latencies. Nothing else reads meanwhile, so it
// borrows client 0's buffer.
func (r *run) readBeside(stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(r.seed))
	for {
		select {
		case <-stop:
			return
		default:
		}
		r.mu.Lock()
		id := rng.Intn(r.acked)
		r.mu.Unlock()
		t := time.Now()
		err := r.getChecked(0, id)
		r.layer.duringCompact = append(r.layer.duringCompact, time.Since(t))
		r.count(err)
	}
}

// phaseSolo is the traced run's single-connection work: round-trip
// medians with no client-side contention, the open-loop diagnostic, and
// a tail of appends left uncompacted so the reopen replays the WAL.
func (r *run) phaseSolo() {
	n := r.sc.SoloOps
	ids := r.nextIDs(n)
	lat, _, _ := r.closedLoop(r.rec, "http.get.solo", 1, n, func(c, i int) error { return r.getChecked(c, ids[i]) })
	r.set("rlzd.get_us", medianNanos(lat)/1e3, n)

	r.openLoop()

	first := r.pool
	r.pool += n
	lat, _, _ = r.closedLoop(r.rec, "http.append.solo", 1, n, func(c, i int) error { return r.appendDoc(first + i) })
	r.set("rlzd.append_us", medianNanos(lat)/1e3, n)
}

// openLoop sends GETs at a fixed rate on r.clients connections whether
// or not earlier ones have answered, timing each from the moment it was
// due. On a shared two-core sandbox this mostly measures timer wake-ups
// (README.md), so its numbers are diagnostics.
func (r *run) openLoop() {
	n := r.sc.OpenLoopOps
	ids := r.nextIDs(n)
	gap := time.Second / time.Duration(r.sc.OpenRate)
	lat := make([]time.Duration, n)
	late := make([]time.Duration, r.clients)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n && r.ctx.Err() == nil; i += r.clients {
				due := start.Add(time.Duration(i) * gap)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				if l := time.Since(due); l > late[c] {
					late[c] = l
				}
				err := r.getChecked(c, ids[i])
				end := time.Now()
				lat[i] = end.Sub(due)
				r.count(err)
				r.rec.add(r.rec.newOp(), "http.get.open", 0, due, end, 1)
			}
		}(c)
	}
	wg.Wait()
	us := sortedMicros(lat)
	p50, _ := percentile(us, 0.5)
	_, tail := highestPercentile(us)
	maxLate := time.Duration(0)
	for _, l := range late {
		maxLate = max(maxLate, l)
	}
	r.set("rlzd.open_p50_us", p50, n)
	r.set("rlzd.open_p99_us", tail, n)
	r.set("loadgen.open_max_late_us", float64(maxLate.Nanoseconds())/1e3, n)
}
