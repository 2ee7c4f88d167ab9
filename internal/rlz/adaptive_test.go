package rlz

import (
	"bytes"
	"math/rand"
	"testing"
)

// adaptiveRun feeds stream through a fresh AdaptiveSampler in the given
// chunk sizes and returns the resulting dictionary bytes.
func adaptiveRun(prev []byte, heat *RegionHeat, stream []byte, opts AdaptiveOptions, chunks []int) []byte {
	s := NewAdaptiveSampler(prev, heat, int64(len(stream)), opts)
	rest := stream
	for _, n := range chunks {
		if n > len(rest) {
			n = len(rest)
		}
		s.Write(rest[:n])
		rest = rest[n:]
	}
	if len(rest) > 0 {
		s.Write(rest)
	}
	return s.Bytes()
}

func makeHeat(dictLen, regionSize int, hot []int) *RegionHeat {
	h := NewRegionHeat(dictLen, regionSize)
	for _, r := range hot {
		h.Observe([]Factor{{Pos: uint32(r * regionSize), Len: 1}})
	}
	return h
}

// TestAdaptiveSamplerDeterministic is the differential test the
// determinism contract points at: for a fixed previous dictionary, heat
// profile, options and stream, the output is byte-identical regardless
// of Write chunking.
func TestAdaptiveSamplerDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prev := make([]byte, 8192)
	rng.Read(prev)
	stream := make([]byte, 64<<10)
	rng.Read(stream)
	heat := makeHeat(len(prev), 1024, []int{0, 0, 0, 3, 3, 5, 7})
	opts := AdaptiveOptions{EvictFraction: 0.5}

	whole := adaptiveRun(prev, heat, stream, opts, []int{len(stream)})
	if len(whole) == 0 || len(whole) > len(prev) {
		t.Fatalf("output size %d outside (0, %d]", len(whole), len(prev))
	}
	byteByByte := make([]int, len(stream))
	for i := range byteByByte {
		byteByByte[i] = 1
	}
	if got := adaptiveRun(prev, heat, stream, opts, byteByByte); !bytes.Equal(got, whole) {
		t.Fatalf("byte-by-byte chunking diverges from whole-stream write")
	}
	for trial := 0; trial < 5; trial++ {
		var chunks []int
		left := len(stream)
		for left > 0 {
			n := 1 + rng.Intn(7000)
			if n > left {
				n = left
			}
			chunks = append(chunks, n)
			left -= n
		}
		if got := adaptiveRun(prev, heat, stream, opts, chunks); !bytes.Equal(got, whole) {
			t.Fatalf("random chunking %v diverges from whole-stream write", chunks[:min(len(chunks), 8)])
		}
	}
	// Same inputs again from scratch: identical (no hidden state).
	heat2 := makeHeat(len(prev), 1024, []int{0, 0, 0, 3, 3, 5, 7})
	if got := adaptiveRun(prev, heat2, stream, opts, []int{1000, 300000}); !bytes.Equal(got, whole) {
		t.Fatalf("rebuilt identical heat profile gives different output")
	}
}

// TestAdaptiveSamplerKeepsHotEvictsCold pins the actual adaptation: hot
// regions survive verbatim in dictionary order, cold ones are replaced
// by bytes sampled from the stream.
func TestAdaptiveSamplerKeepsHotEvictsCold(t *testing.T) {
	const rs = 1024
	prev := make([]byte, 4*rs)
	for r := 0; r < 4; r++ {
		for i := 0; i < rs; i++ {
			prev[r*rs+i] = byte('A' + r)
		}
	}
	// Regions 0 and 2 hot, 1 and 3 cold.
	heat := makeHeat(len(prev), rs, []int{0, 2})
	stream := bytes.Repeat([]byte{'z'}, 32<<10)
	out := adaptiveRun(prev, heat, stream, AdaptiveOptions{EvictFraction: 0.5}, []int{len(stream)})
	if len(out) != len(prev) {
		t.Fatalf("output size %d, want %d", len(out), len(prev))
	}
	wantKept := append(bytes.Repeat([]byte{'A'}, rs), bytes.Repeat([]byte{'C'}, rs)...)
	if !bytes.Equal(out[:2*rs], wantKept) {
		t.Errorf("hot regions not kept in dictionary order")
	}
	if !bytes.Equal(out[2*rs:], bytes.Repeat([]byte{'z'}, 2*rs)) {
		t.Errorf("evicted budget not refilled from the stream")
	}
}

// TestAdaptiveSamplerFallsBackToSampleEven: with no usable usage signal
// the sampler must produce exactly SampleEven's output at the previous
// dictionary's budget.
func TestAdaptiveSamplerFallsBackToSampleEven(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prev := make([]byte, 6000)
	rng.Read(prev)
	stream := make([]byte, 50<<10)
	rng.Read(stream)
	want := SampleEven(stream, len(prev), 0)

	cases := map[string]*RegionHeat{
		"nil heat":        nil,
		"zero copies":     NewRegionHeat(len(prev), 1024),
		"length mismatch": makeHeat(len(prev)+1, 1024, []int{0}),
	}
	for name, heat := range cases {
		got := adaptiveRun(prev, heat, stream, AdaptiveOptions{}, []int{997, 4096, len(stream)})
		if !bytes.Equal(got, want) {
			t.Errorf("%s: fallback output differs from SampleEven", name)
		}
	}
}

func TestAdaptiveSamplerEvictionEdges(t *testing.T) {
	const rs = 1024
	prev := make([]byte, 8*rs)
	for i := range prev {
		prev[i] = byte(i)
	}
	stream := bytes.Repeat([]byte{'s'}, 64<<10)
	heat := makeHeat(len(prev), rs, []int{0, 1, 2, 3, 4, 5, 6, 7})

	// EvictFraction 1.0: full resample, nothing kept.
	out := adaptiveRun(prev, heat, stream, AdaptiveOptions{EvictFraction: 1}, []int{len(stream)})
	if !bytes.Equal(out, bytes.Repeat([]byte{'s'}, len(prev))) {
		t.Errorf("EvictFraction=1 should resample the whole dictionary")
	}

	// Tiny negative-clamped fraction still evicts at least one region:
	// an adaptive pass that evicts nothing would learn nothing.
	out = adaptiveRun(prev, heat, stream, AdaptiveOptions{EvictFraction: -5}, []int{len(stream)})
	if bytes.Equal(out, prev) {
		t.Errorf("clamped fraction evicted nothing")
	}
	if len(out) != len(prev) {
		t.Errorf("output size %d, want %d", len(out), len(prev))
	}

	// Zero fraction selects the default quarter: with all counts equal,
	// ties evict the two front regions, keeping regions 2..7 verbatim
	// and refilling a quarter of the budget from the stream.
	out = adaptiveRun(prev, heat, stream, AdaptiveOptions{}, []int{len(stream)})
	if !bytes.Equal(out[:6*rs], prev[2*rs:]) {
		t.Errorf("default fraction should keep regions 2..7 in order")
	}
	if !bytes.Equal(out[6*rs:], bytes.Repeat([]byte{'s'}, 2*rs)) {
		t.Errorf("default fraction should refill a quarter from the stream")
	}
}

// TestAdaptiveSamplerShortStream: when the recent stream cannot fill the
// replacement budget the output shrinks instead of padding.
func TestAdaptiveSamplerShortStream(t *testing.T) {
	const rs = 1024
	prev := make([]byte, 4*rs)
	heat := makeHeat(len(prev), rs, []int{0, 1})
	stream := []byte("tiny")
	out := adaptiveRun(prev, heat, stream, AdaptiveOptions{EvictFraction: 0.5}, []int{len(stream)})
	if len(out) != 2*rs+len(stream) {
		t.Fatalf("output size %d, want kept %d + stream %d", len(out), 2*rs, len(stream))
	}
}
