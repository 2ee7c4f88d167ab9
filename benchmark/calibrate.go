package main

import (
	"sync"
	"time"
)

// The sandbox this benchmark runs in is a small virtual machine on a
// shared host, and how fast it runs memory-bound code moves by a third
// over seconds to minutes as its neighbours come and go (README.md,
// "Calibration"). A run cannot average that away, so every timed
// section is bracketed by a fixed reference loop, and the section's
// time is scaled by how fast the host ran the loop just then: reported
// times and rates are those of a host that runs the loop at refNominal.
// The loop is the benchmark's own and never changes with the product,
// so a product change moves the metric by exactly its own share.

// refNominal is the reference loop's speed, in iterations per second
// and thread, at which a calibrated value equals the measured one: what
// this sandbox reaches while its neighbours are quiet.
const refNominal = 80e6

// readingFresh is how long a reading stands in for the next one, so
// that back-to-back slices share the reading between them.
const readingFresh = 5 * time.Millisecond

// refTable is what the reference loop copies from: 1 MiB, larger than a
// first-level cache and read at pseudo-random offsets, the access
// pattern of an RLZ decode against its dictionary.
var refTable = func() []byte {
	t := make([]byte, 1<<20)
	x := uint64(1)
	for i := range t {
		x = x*6364136223846793005 + 1442695040888963407
		t[i] = byte(x >> 56)
	}
	return t
}()

// refLoop copies n short runs (8-39 bytes) from pseudo-random offsets
// of refTable into out and returns the time taken.
func refLoop(out []byte, n int) time.Duration {
	x := uint64(12345)
	o := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		off := int(x>>40) & (len(refTable) - 64)
		l := 8 + int(x>>34)&31
		if o+l > len(out) {
			o = 0
		}
		copy(out[o:o+l], refTable[off:off+l])
		o += l
	}
	return time.Since(start)
}

var refOut = [2][]byte{make([]byte, 64<<10), make([]byte, 64<<10)}

// hostSpeed runs the reference loop on threads goroutines at once (1 or
// 2: as many as the section it brackets keeps busy) and returns their
// mean speed relative to refNominal.
func hostSpeed(threads, iters int) float64 {
	var took [2]time.Duration
	if threads == 1 {
		took[0] = refLoop(refOut[0], iters)
	} else {
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				took[t] = refLoop(refOut[t], iters)
			}(t)
		}
		wg.Wait()
	}
	sum := 0.0
	for t := 0; t < threads; t++ {
		sum += float64(iters) / took[t].Seconds() / refNominal
	}
	return sum / float64(threads)
}

// reading is one measurement of the host's speed.
type reading struct {
	at      time.Time
	threads int
	speed   float64
}

// readSpeed measures the host's speed on threads goroutines, or returns
// the reading taken a moment ago.
func (r *run) readSpeed(threads int) float64 {
	if l := r.lastReading; l.threads == threads && time.Since(l.at) < readingFresh {
		return l.speed
	}
	v := hostSpeed(threads, r.sc.CalIters)
	r.lastReading = reading{time.Now(), threads, v}
	return v
}

// gauge brackets one timed section with two readings of the host's
// speed. Sections are bracketed from the run's own goroutine only.
type gauge struct {
	r       *run
	threads int
	before  float64
}

func (r *run) gauge(threads int) gauge {
	threads = min(threads, 2)
	return gauge{r, threads, r.readSpeed(threads)}
}

// stop takes the closing reading and returns the section's speed
// factor: multiply a measured time by it, divide a measured rate.
func (g gauge) stop() float64 {
	speed := (g.before + g.r.readSpeed(g.threads)) / 2
	g.r.speeds = append(g.r.speeds, speed)
	return speed
}
