package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"rlz/internal/faultfs"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
		ok   bool
	}{
		{0.5, 500, true},
		{0.99, 990, true},   // exactly ten samples beyond
		{0.999, 999, false}, // one beyond
		{1.0, 1000, false},  // none beyond
		{0.0001, 1, true},   // rank clamps to 1
	} {
		got, ok := percentile(vals, c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..1000, %v) = %v, %v; want %v, %v", c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(vals[:999], 0.99); ok {
		t.Error("p99 of 999 samples has nine beyond it and must not qualify")
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("percentile(nil) = %v, %v", v, ok)
	}
}

func TestHighestPercentileFallsBack(t *testing.T) {
	mk := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n int
		q float64
	}{{1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.5}, {1, 0.5}} {
		if q, _ := highestPercentile(mk(c.n)); q != c.q {
			t.Errorf("highestPercentile of %d samples picked q=%v, want %v", c.n, q, c.q)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "store.get", Start: 0, End: 100},
		{ID: 2, Name: "mmapio.read", Parent: 1, Start: 100, End: 130},
		{ID: 3, Name: "rlz.pair_decode", Parent: 1, Start: 130, End: 150},
		{ID: 4, Name: "store.get", Start: 200, End: 210},
		{ID: 5, Name: "rlz.pair_decode", Parent: 4, Start: 210, End: 240}, // replay outlasts its parent
		{ID: 6, Name: "docmap.extent", Start: 300, End: 300 + 2048, N: 1024},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 30, 3: 20, 4: 0, 5: 30, 6: 2048}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	if d := durations(spans, "docmap.extent"); len(d) != 1 || d[0] != 2 {
		t.Errorf("batched span: per-call durations %v, want [2ns]", d)
	}
	if d := durations(spans, "store.get"); !reflect.DeepEqual(d, []time.Duration{100, 10}) {
		t.Errorf("durations(store.get) = %v", d)
	}
}

func TestRecorderWritesJSONLines(t *testing.T) {
	rec := newRecorder()
	op := rec.newOp()
	parent := rec.add(op, "store.get", 0, rec.t0, rec.t0.Add(time.Microsecond), 1)
	rec.add(op, "mmapio.read", parent, rec.t0, rec.t0.Add(time.Nanosecond), 1)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	var s span
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Name != "mmapio.read" || s.Parent != parent || s.Op != op || s.End-s.Start != 1 {
		t.Errorf("second span read back as %+v", s)
	}
	// A nil recorder is the untraced run.
	var none *recorder
	if none.newOp() != 0 || none.add(1, "x", 0, time.Now(), time.Now(), 1) != 0 {
		t.Error("nil recorder must record nothing")
	}
}

func TestCountingFSScriptedSequence(t *testing.T) {
	dir := t.TempDir()
	fs := newCountingFS(faultfs.OS)
	open := func(name string) faultfs.File {
		f, err := fs.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	seg, lens, log := open("seg-00000001"), open("seg-00000001.lens"), open("WAL")
	if seg.Sys() == nil {
		t.Error("Sys must pass through so the open segment can be mapped")
	}
	_, err := seg.Write(make([]byte, 10))
	must(err)
	_, err = seg.Write(make([]byte, 5))
	must(err)
	_, err = lens.Write(make([]byte, 2))
	must(err)
	_, err = log.Write(make([]byte, 20))
	must(err)
	must(log.Sync())
	must(seg.Sync())
	must(lens.Sync())
	must(fs.WriteFile(filepath.Join(dir, "MANIFEST.tmp"), make([]byte, 7), 0o644))
	must(fs.Rename(filepath.Join(dir, "MANIFEST.tmp"), filepath.Join(dir, "MANIFEST")))
	must(fs.SyncDir(dir))
	tmp := open("seg-00000002.tmp") // a compaction's output counts as segment data
	_, err = tmp.Write(make([]byte, 3))
	must(err)
	must(tmp.Close())
	must(fs.Remove(filepath.Join(dir, "seg-00000002.tmp")))
	dict := open("dict-00000001")
	_, err = dict.Write(make([]byte, 4))
	must(err)
	for _, f := range []faultfs.File{seg, lens, log, dict} {
		must(f.Close())
	}

	c := fs.snapshot()
	type row struct {
		writes, syncs int
		bytes         int64
	}
	want := map[fileClass]row{
		classSeg: {3, 1, 18}, classLens: {1, 1, 2}, classWAL: {1, 1, 20},
		classManifest: {1, 0, 7}, classOther: {1, 0, 4},
	}
	for class, w := range want {
		k := c.Class[class]
		if k.Writes != w.writes || k.Syncs != w.syncs || k.Bytes != w.bytes {
			t.Errorf("%s: %d writes, %d syncs, %d bytes; want %+v", classNames[class], k.Writes, k.Syncs, k.Bytes, w)
		}
		if len(k.writeLat) != k.Writes || len(k.syncLat) != k.Syncs {
			t.Errorf("%s: %d write and %d sync samples", classNames[class], len(k.writeLat), len(k.syncLat))
		}
	}
	if c.Renames != 1 || c.SyncDirs != 1 || c.Removes != 1 {
		t.Errorf("renames %d, syncdirs %d, removes %d; want 1 each", c.Renames, c.SyncDirs, c.Removes)
	}
	if n, b := c.writes(); n != 7 || b != 51 {
		t.Errorf("writes() = %d, %d; want 7, 51", n, b)
	}
	if c.syncs() != 4 {
		t.Errorf("syncs() = %d, want 4 (three files and the directory)", c.syncs())
	}
	if n, _ := fs.snapshot().writes(); n != 0 {
		t.Error("snapshot must reset the counts")
	}
}

func TestSchedulesDeterministicInSeed(t *testing.T) {
	ids := []int{5, 6, 7, 8, 9}
	a := mixedSchedule(2000, ids, 100, 42)
	if !reflect.DeepEqual(a, mixedSchedule(2000, ids, 100, 42)) {
		t.Error("same seed, different schedule")
	}
	if reflect.DeepEqual(a, mixedSchedule(2000, ids, 100, 43)) {
		t.Error("different seeds, same schedule")
	}
	appends, recent, nextDoc := 0, 0, 100
	for _, op := range a {
		switch {
		case op.Append:
			if op.ID != nextDoc {
				t.Fatalf("append takes pool document %d, want %d", op.ID, nextDoc)
			}
			nextDoc++
			appends++
		case op.Recent:
			recent++
		}
	}
	if appends < 150 || appends > 250 {
		t.Errorf("%d appends in 2000 operations, want about one in ten", appends)
	}
	if recent < 280 || recent > 440 {
		t.Errorf("%d recent-id reads in 2000 operations, want about one read in five", recent)
	}

	draw := func(seed int64, zipf bool) []int {
		r := &run{seed: seed, sc: scales["tiny"], acked: 50, w: workloadSpec{zipf: zipf}}
		r.startReads()
		return r.nextIDs(300)
	}
	for _, zipf := range []bool{false, true} {
		if !reflect.DeepEqual(draw(7, zipf), draw(7, zipf)) {
			t.Errorf("zipf=%v: same seed, different ids", zipf)
		}
		if reflect.DeepEqual(draw(7, zipf), draw(8, zipf)) {
			t.Errorf("zipf=%v: different seeds, same ids", zipf)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps the root BENCHMARK.json equal to
// what spec.go renders (go run ./benchmark -print-spec > BENCHMARK.json)
// and the tables inside the driver's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := append(benchmarkJSON(), '\n'); !bytes.Equal(data, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with -print-spec.\nhave:\n%s\nwant:\n%s", data, want)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, m := range endToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q malformed", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range perLayer {
		use(m.Name)
	}
	if defaultSeconds < 1 || defaultSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", defaultSeconds)
	}
}

// TestCalibrationScalesTimesAndRates pins the arithmetic every
// end-to-end metric goes through: on a host reading half the nominal
// speed a measured rate doubles and a measured latency halves, and a
// reading is shared by the two slices it lies between.
func TestCalibrationScalesTimesAndRates(t *testing.T) {
	var s sliceStats
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Microsecond
	}
	s.add(100, lat, time.Second, 0.5)
	if s.rate[0] != 200 || s.rawRate[0] != 100 {
		t.Errorf("rate %v raw %v, want 200 and 100", s.rate[0], s.rawRate[0])
	}
	if s.p50[0] != 25 || s.rawP50[0] != 50 {
		t.Errorf("p50 %v raw %v, want 25 and 50", s.p50[0], s.rawP50[0])
	}

	r := &run{sc: scales["tiny"]}
	g := r.gauge(2)
	first := r.lastReading
	if g.before <= 0 || first.threads != 2 {
		t.Fatalf("reading %+v, gauge %+v", first, g)
	}
	if again := r.gauge(2); again.before != g.before || r.lastReading != first {
		t.Error("a gauge started within readingFresh took a new reading")
	}
	r.lastReading.at = time.Now().Add(-2 * readingFresh)
	if speed := g.stop(); speed <= 0 || r.lastReading == first || len(r.speeds) != 1 {
		t.Errorf("stop returned %v with %d factors recorded; stale reading reused: %v", speed, len(r.speeds), r.lastReading == first)
	}
	if one := r.gauge(1); r.lastReading.threads != 1 || one.threads != 1 {
		t.Error("a reading on two threads stood in for one on one thread")
	}
}

// TestSmokeTiny runs every workload traced and one untraced at a scale
// where nothing is large enough to measure: all phases, the SIGKILL and
// reopen check, every layer replay and the span file.
func TestSmokeTiny(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rlzd, err := buildRlzd(ctx, root, dir)
	if err != nil {
		t.Fatal(err)
	}
	lastLine := func(args ...string) result {
		t.Helper()
		var out bytes.Buffer
		args = append([]string{"--scale", "tiny", "--seconds", "0.3", "--rlzd", rlzd, "--dir", dir}, args...)
		if code := realMain(args, &out); code != 0 {
			t.Fatalf("benchmark %v exited %d\n%s", args, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("benchmark %v: %d of %d operations failed", args, res.Failed, res.Attempted)
		}
		return res
	}
	for _, w := range workloads {
		res := lastLine("--workload", w.Name, "--seed", "3", "--trace", "1")
		for _, m := range perLayer {
			if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s traced: metric %s missing or in unit %q", w.Name, m.Name, v.Unit)
			}
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, want %d", w.Name, len(res.Metrics), len(perLayer))
		}
		st, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+"-3.jsonl"))
		if err != nil || st.Size() == 0 {
			t.Errorf("%s: span file missing or empty: %v", w.Name, err)
		}
	}
	res := lastLine("--workload", "live-mixed", "--seed", "4", "--trace", "0")
	for _, m := range endToEnd {
		if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 {
			t.Errorf("live-mixed: end-to-end metric %s missing or not positive (%v)", m.Name, v.Value)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("untraced run printed %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	// Every run removes its data; only the daemon binary and the span
	// files stay.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("run directory %s left behind", e.Name())
		}
	}
}
