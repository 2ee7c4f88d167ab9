package rlz

import (
	"sync"
	"testing"
)

func TestRegionHeatCounts(t *testing.T) {
	h := NewRegionHeat(4096, 1024)
	if h.Regions() != 4 {
		t.Fatalf("Regions() = %d, want 4", h.Regions())
	}
	h.Observe([]Factor{
		{Pos: 0, Len: 10},      // region 0
		{Pos: 1020, Len: 10},   // spans regions 0 and 1
		{Pos: 3000, Len: 1000}, // spans regions 2 and 3
		{Pos: 'x', Len: 0},     // literal: no region
	})
	want := []int64{2, 1, 1, 1}
	for r, w := range want {
		if got := h.Count(r); got != w {
			t.Errorf("region %d count = %d, want %d", r, got, w)
		}
	}
	if h.Copies() != 3 || h.Literals() != 1 {
		t.Errorf("Copies/Literals = %d/%d, want 3/1", h.Copies(), h.Literals())
	}
}

func TestRegionHeatRoundsUpRegions(t *testing.T) {
	h := NewRegionHeat(1025, 1024)
	if h.Regions() != 2 {
		t.Fatalf("Regions() = %d, want 2 (trailing partial region)", h.Regions())
	}
	// A factor reaching past the dictionary length clips instead of
	// panicking (defensive: factors come from the trusted factorizer,
	// but heat should never be the thing that crashes a compaction).
	h.Observe([]Factor{{Pos: 1024, Len: 5000}})
	if h.Count(1) != 1 {
		t.Errorf("clipped factor not counted in last region")
	}
}

func TestRegionHeatUnusedPercent(t *testing.T) {
	h := NewRegionHeat(4096, 1024)
	if got := h.UnusedPercent(); got != 100 {
		t.Fatalf("fresh heat UnusedPercent = %v, want 100", got)
	}
	h.Observe([]Factor{{Pos: 0, Len: 1}, {Pos: 2048, Len: 1}})
	if got := h.UnusedPercent(); got != 50 {
		t.Fatalf("UnusedPercent = %v, want 50", got)
	}
}

func TestRegionHeatColdestRegionsDeterministic(t *testing.T) {
	h := NewRegionHeat(8192, 1024) // 8 regions
	h.Observe([]Factor{
		{Pos: 0, Len: 1}, {Pos: 0, Len: 1}, {Pos: 0, Len: 1}, // region 0: 3
		{Pos: 1024, Len: 1},                      // region 1: 1
		{Pos: 3072, Len: 1},                      // region 3: 1
		{Pos: 5120, Len: 1}, {Pos: 5120, Len: 1}, // region 5: 2
	})
	// Counts: [3,1,0,1,0,2,0,0]. Coldest 5 by (count, index):
	// 2,4,6,7 (zeros, index order) then 1 (count 1, lowest index).
	got := h.ColdestRegions(5)
	want := []int{2, 4, 6, 7, 1}
	if len(got) != len(want) {
		t.Fatalf("ColdestRegions(5) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ColdestRegions(5) = %v, want %v", got, want)
		}
	}
	if n := len(h.ColdestRegions(100)); n != 8 {
		t.Errorf("ColdestRegions clamps to region count, got %d", n)
	}
	if h.ColdestRegions(0) != nil {
		t.Errorf("ColdestRegions(0) should be nil")
	}
}

// TestRegionHeatConcurrentObserve pins that parallel build workers can
// share one accumulator: four goroutines observing known factor lists
// (copies spanning one to three regions, literals, many factors per call)
// must leave both totals and every region count exactly where one
// goroutine observing the same lists leaves them.
func TestRegionHeatConcurrentObserve(t *testing.T) {
	const workers, calls, perCall = 4, 300, 40
	lists := make([][][]Factor, workers)
	for w := range lists {
		lists[w] = make([][]Factor, calls)
		for c := range lists[w] {
			fs := make([]Factor, perCall)
			for i := range fs {
				n := (w*calls+c)*perCall + i
				if n%5 == 0 {
					fs[i] = Factor{Pos: uint32('a' + n%26), Len: 0}
				} else {
					fs[i] = Factor{Pos: uint32(n*37) % (15 << 10), Len: uint32(1 + n%2500)}
				}
			}
			lists[w][c] = fs
		}
	}
	want := NewRegionHeat(16<<10, 1024)
	for _, l := range lists {
		for _, fs := range l {
			want.Observe(fs)
		}
	}

	h := NewRegionHeat(16<<10, 1024)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, fs := range lists[w] {
				h.Observe(fs)
			}
		}(w)
	}
	wg.Wait()
	if total := int64(workers * calls * perCall); h.Copies()+h.Literals() != total || h.Literals() != total/5 {
		t.Errorf("Copies/Literals = %d/%d over %d factors, a fifth of them literals", h.Copies(), h.Literals(), total)
	}
	if h.Copies() != want.Copies() || h.Literals() != want.Literals() {
		t.Errorf("Copies/Literals = %d/%d, sequential %d/%d", h.Copies(), h.Literals(), want.Copies(), want.Literals())
	}
	for r := 0; r < h.Regions(); r++ {
		if h.Count(r) != want.Count(r) {
			t.Errorf("region %d count = %d, sequential %d", r, h.Count(r), want.Count(r))
		}
	}
}
