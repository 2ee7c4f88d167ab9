package collection

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"rlz/internal/faultfs"
)

// driftedDocs builds a phase's document set: every phase shares some
// boilerplate (so any dictionary helps) but carries phase-specific
// vocabulary (so an adapted dictionary helps more). The drift is what
// the adaptive sampler exists to chase.
func driftedDocs(phase, n int) [][]byte {
	vocab := []string{
		"alpha beaver cricket dormouse egret ferret gibbon heron ibex jackal",
		"kelvin lumen maxwell newton ohm pascal quark roentgen sievert tesla",
		"anchovy baguette couscous dumpling empanada falafel gnocchi hummus injera jambalaya",
	}[phase%3]
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = []byte(fmt.Sprintf(
			"<doc phase=%d id=%d>shared header boilerplate; %s; %s; trailing footer %d</doc>",
			phase, i, vocab, vocab, i*7))
	}
	return docs
}

// appendAll appends docs and asserts the ids continue from base.
func appendAll(t *testing.T, c *Collection, base int, docs [][]byte) {
	t.Helper()
	for i, d := range docs {
		id, err := c.Append(d)
		if err != nil {
			t.Fatalf("append %d: %v", base+i, err)
		}
		if id != base+i {
			t.Fatalf("append returned id %d, want %d", id, base+i)
		}
	}
}

// TestAdaptiveLifecycleMixedGenerations is the acceptance test of the
// dictionary-versioning tentpole: a collection accumulates segments
// built against two dictionary generations — the first compaction's
// sampled dictionary and an adaptively re-learned successor — and every
// document stays byte-identical across both, under concurrent readers
// (go test -race exercises the swap), and across a reopen.
func TestAdaptiveLifecycleMixedGenerations(t *testing.T) {
	phaseA := driftedDocs(0, 40)
	phaseB := driftedDocs(1, 40)
	c, dir := newCollection(t, phaseA)

	res1, err := c.Compact(CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Relearned || res1.Dict != 1 {
		t.Fatalf("first compaction: dict=%d relearned=%v, want a fresh generation 1", res1.Dict, res1.Relearned)
	}

	// Drifted phase arrives; readers hammer generation-1 documents while
	// the adaptive compaction swaps the dictionary under them.
	appendAll(t, c, 40, phaseB)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := seed; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := i % 40
				got, err := c.Get(id)
				if err != nil {
					t.Errorf("read %d under adaptive compaction: %v", id, err)
					return
				}
				if !bytes.Equal(got, phaseA[id]) {
					t.Errorf("read %d under adaptive compaction: wrong bytes", id)
					return
				}
			}
		}(w * 11)
	}
	res2, err := c.Compact(CompactOptions{Adapt: true, MinRatioGain: -1000})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Relearned || res2.Dict != 2 {
		t.Fatalf("adaptive compaction: dict=%d relearned=%v, want adopted generation 2", res2.Dict, res2.Relearned)
	}

	// The manifest now attributes segments to both generations, and both
	// dictionary files exist.
	man, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Dicts) != 2 || man.Dicts[0].ID != 1 || man.Dicts[1].ID != 2 {
		t.Fatalf("manifest dicts = %+v, want generations 1 and 2", man.Dicts)
	}
	byDict := map[uint64]int{}
	for _, s := range man.Segments {
		byDict[s.Dict]++
		if s.Raw <= 0 {
			t.Errorf("segment %s records raw=%d, want > 0", s.Path, s.Raw)
		}
	}
	if byDict[1] == 0 || byDict[2] == 0 {
		t.Fatalf("segment attribution %v, want live segments under both generations", byDict)
	}
	for _, d := range man.Dicts {
		if st, err := os.Stat(filepath.Join(dir, d.Path)); err != nil || st.Size() == 0 {
			t.Fatalf("dictionary file %s: %v", d.Path, err)
		}
	}

	// Info surfaces the same split with per-generation ratios.
	info := c.Info()
	if len(info.Dicts) != 2 {
		t.Fatalf("Info dicts = %d, want 2", len(info.Dicts))
	}
	for _, di := range info.Dicts {
		if di.Segments == 0 || di.RatioPercent <= 0 {
			t.Errorf("generation %d: %+v, want live segments and a ratio", di.ID, di)
		}
	}

	all := append(append([][]byte{}, phaseA...), phaseB...)
	checkDocs(t, c, all, nil)

	// Reopen: the mixed-generation manifest recovers and every document
	// in both generations is still byte-identical.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	checkDocs(t, c2, all, nil)
	if got := len(c2.Info().Dicts); got != 2 {
		t.Fatalf("reopened collection sees %d dictionary generations, want 2", got)
	}
}

// TestCompactFaultMatrixDictPublish drives a compaction into scripted
// faults at each step of the dictionary-publish protocol (tmp write
// fsync, rename, the manifest publish that would reference it) and
// asserts the contract: acknowledged documents survive byte-identical,
// the manifest never names a missing dictionary, orphan dictionary
// files are gc'd, and a retried compaction completes the adoption.
func TestCompactFaultMatrixDictPublish(t *testing.T) {
	cases := []struct {
		name   string
		seal   bool // seal before installing the script
		script []faultfs.Fault
		kill   bool // the fault is a power cut: crash and recover
		// grow runs a small first compaction before the script, so the
		// faulted compaction publishes a grown generation 2 over it.
		grow bool
	}{
		{
			name:   "fail dict tmp fsync",
			script: []faultfs.Fault{{Op: faultfs.OpSync, Path: "dict-"}},
		},
		{
			name:   "dropped dict rename",
			script: []faultfs.Fault{{Op: faultfs.OpRename, Path: "dict-"}},
		},
		{
			name:   "kill at dict tmp fsync",
			script: []faultfs.Fault{{Op: faultfs.OpSync, Path: "dict-", Kill: true}},
			kill:   true,
		},
		{
			name:   "kill at dict rename",
			script: []faultfs.Fault{{Op: faultfs.OpRename, Path: "dict-", Kill: true}},
			kill:   true,
		},
		{
			// The dictionary file lands durably, the manifest that would
			// reference it never does: recovery must serve the raw
			// segments and gc the orphan dictionary.
			name:   "kill at manifest publish after dict publish",
			seal:   true,
			script: []faultfs.Fault{{Op: faultfs.OpRename, Path: ManifestName, Kill: true}},
			kill:   true,
		},
		{
			// The grown dictionary lands durably, the manifest that would
			// adopt it never does: recovery must keep serving generation
			// 1 and gc the orphan generation 2.
			name:   "kill at manifest publish after grown dict publish",
			seal:   true,
			script: []faultfs.Fault{{Op: faultfs.OpRename, Path: ManifestName, Kill: true}},
			kill:   true,
			grow:   true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := faultfs.NewSim()
			c, dir := faultOpen(t, sim, Options{})
			docs := driftedDocs(0, 20)
			appendAll(t, c, 0, docs)
			if tc.grow {
				if res, err := c.Compact(CompactOptions{}); err != nil || res.Dict != 1 {
					t.Fatalf("first compaction %+v: %v, want generation 1", res, err)
				}
				bulk := grownDocs(1, 64, 16<<10)
				appendAll(t, c, len(docs), bulk)
				docs = append(docs, bulk...)
			}
			if tc.seal {
				if err := c.Seal(); err != nil {
					t.Fatal(err)
				}
			}
			sim.SetScript(tc.script...)

			if _, err := c.Compact(CompactOptions{}); err == nil {
				t.Fatal("compaction succeeded across an injected dict-publish fault")
			}

			if tc.kill {
				_ = c.Close()
				if err := sim.Crash(sim.JournalLen()); err != nil {
					t.Fatalf("crash: %v", err)
				}
			} else {
				// The process lives on: the spent script must not leave the
				// collection poisoned for a retry below.
			}

			// Recover (or continue) on the real filesystem and verify the
			// contract.
			c2 := c
			if tc.kill {
				var err error
				c2, err = Open(dir, Options{})
				if err != nil {
					t.Fatalf("recovery open: %v", err)
				}
				defer c2.Close()
			}
			checkDocs(t, c2, docs, nil)
			man, err := ReadManifest(filepath.Join(dir, ManifestName))
			if err == nil {
				for _, d := range man.Dicts {
					if _, err := os.Stat(filepath.Join(dir, d.Path)); err != nil {
						t.Fatalf("manifest names missing dictionary %s: %v", d.Path, err)
					}
				}
			}
			removed, err := c2.GC()
			if err != nil {
				t.Fatalf("GC: %v", err)
			}
			if tc.grow {
				if man == nil || len(man.Dicts) != 1 || man.Dicts[0].ID != 1 {
					t.Fatalf("recovered manifest dicts %+v, want generation 1 still serving", man.Dicts)
				}
				if !slices.Contains(removed, dictFileName(2)) {
					t.Fatalf("gc removed %v, want the orphan %s", removed, dictFileName(2))
				}
			}

			// The retried compaction completes the interrupted adoption.
			res, err := c2.Compact(CompactOptions{})
			if err != nil {
				t.Fatalf("retried compaction: %v", err)
			}
			if res.Compacted == 0 || !res.Relearned || res.Dict == 0 {
				t.Fatalf("retried compaction %+v, want a published dictionary generation", res)
			}
			if tc.grow && res.Dict != 2 {
				t.Fatalf("retried compaction adopted generation %d, want the grown generation 2", res.Dict)
			}
			checkDocs(t, c2, docs, nil)

			// No orphan dictionary artifacts survive the retry + gc.
			if _, err := c2.GC(); err != nil {
				t.Fatal(err)
			}
			man, err = ReadManifest(filepath.Join(dir, ManifestName))
			if err != nil {
				t.Fatal(err)
			}
			keep := map[string]bool{}
			for _, d := range man.Dicts {
				keep[d.Path] = true
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				name := e.Name()
				if strings.HasSuffix(name, ".tmp") {
					t.Errorf("stale tmp file %s survived gc", name)
				}
				if strings.HasPrefix(name, "dict-") && !strings.HasSuffix(name, ".tmp") && !keep[name] {
					t.Errorf("orphan dictionary %s survived gc (manifest keeps %v)", name, keep)
				}
			}
		})
	}
}

// TestPreparedDictCacheReleased is the regression test for the
// satellite leak fix: before dictionary versioning, the one prepared
// dictionary lived for the process lifetime; with generations the cache
// must shrink as generations retire, or a long-running daemon pins
// every suffix array it ever built. Each round appends equal-sized
// drifted documents and forces adoption of a new generation; from the
// third round on, the same compaction converges the segment left stale
// by the adoption two rounds back (its raw bytes cover that segment's),
// retiring that generation. The cache holds only the newest dictionary
// throughout, the manifest the two newest generations, and a final
// UpgradeStale pass leaves one.
func TestPreparedDictCacheReleased(t *testing.T) {
	c, dir := newCollection(t, nil)
	var all [][]byte
	const rounds = 4
	for round := 0; round < rounds; round++ {
		docs := grownDocs(round, 20, 512)
		appendAll(t, c, len(all), docs)
		all = append(all, docs...)
		res, err := c.Compact(CompactOptions{Adapt: true, MinRatioGain: -1000})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !res.Relearned || res.Dict != uint64(round+1) {
			t.Fatalf("round %d: dict=%d relearned=%v, want adopted generation %d",
				round, res.Dict, res.Relearned, round+1)
		}
		// Staleness is judged as the compaction starts: round r finds
		// only round r-2's segment on an older generation than the
		// newest (round r-1's).
		if want := min(1, max(round-1, 0)); res.Upgraded != want {
			t.Fatalf("round %d: %d segments upgraded, want %d", round, res.Upgraded, want)
		}
		// Only the newest generation is a factorization target: adopting
		// one releases its predecessor's prepared state at once, and
		// retiring one releases nothing that was still prepared.
		if n := c.preparedDictCount(); n > 1 {
			t.Fatalf("round %d: %d prepared dictionaries cached, want 1", round, n)
		}
		want := []uint64{uint64(round), uint64(round + 1)}
		if round == 0 {
			want = want[1:]
		}
		if got := manifestDictIDs(t, dir); !slices.Equal(got, want) {
			t.Fatalf("round %d: manifest dicts %v, want %v", round, got, want)
		}
		checkDocs(t, c, all, nil)
	}
	// With nothing raw left, UpgradeStale converges the two segments
	// still on the generation before the newest (the last round's
	// predecessor and the segment converged onto it) and retires it.
	up, err := c.Compact(CompactOptions{UpgradeStale: true})
	if err != nil {
		t.Fatal(err)
	}
	if up.Upgraded != 2 || up.Relearned {
		t.Fatalf("upgrade pass %+v, want the two stale segments rebuilt without a new generation", up)
	}
	if n := c.preparedDictCount(); n > 1 {
		t.Fatalf("%d prepared dictionaries cached after the upgrade pass, want 1", n)
	}
	if got := manifestDictIDs(t, dir); !slices.Equal(got, []uint64{rounds}) {
		t.Fatalf("manifest dicts after the upgrade pass %v, want only generation %d", got, rounds)
	}
	checkDocs(t, c, all, nil)
	// Retired generations' files are gone from disk too.
	if got := dictFiles(t, dir); !slices.Equal(got, []string{dictFileName(rounds)}) {
		t.Errorf("dictionary files %v, want only %s", got, dictFileName(rounds))
	}
}
