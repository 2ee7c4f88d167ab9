package experiment

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// runQuick runs an experiment at Quick scale and sanity-checks the table
// shape.
func runQuick(t *testing.T, r Runner) *Table {
	t.Helper()
	tab, err := r.Run(Quick)
	if err != nil {
		t.Fatalf("%s: %v", r.ID, err)
	}
	if tab.ID != r.ID {
		t.Errorf("table ID = %q, want %q", tab.ID, r.ID)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", r.ID)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Errorf("%s row %d has %d cells, header has %d", r.ID, i, len(row), len(tab.Header))
		}
	}
	return tab
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestTable2Shape(t *testing.T) {
	tab := runQuick(t, Runner{"Table 2", Table2})
	if want := len(Quick.DictSizes) * len(Quick.SampleSizes); len(tab.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), want)
	}
	for _, row := range tab.Rows {
		avg := cellFloat(t, row[2])
		unused := cellFloat(t, row[3])
		if avg <= 1 {
			t.Errorf("avg factor length %v implausibly small", avg)
		}
		if unused < 0 || unused > 100 {
			t.Errorf("unused%% %v out of range", unused)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	runQuick(t, Runner{"Table 3", Table3})
}

func TestFigure3Shape(t *testing.T) {
	tab := runQuick(t, Runner{"Figure 3", Figure3})
	if len(tab.Rows) != len(Quick.SamplePeriods) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(Quick.SamplePeriods))
	}
	// The bulk of length values must sit in the small bins (the paper's
	// central observation about Figure 3).
	for _, row := range tab.Rows {
		small := cellFloat(t, row[1]) + cellFloat(t, row[2])
		var total float64
		for _, c := range row[1:] {
			total += cellFloat(t, c)
		}
		if total == 0 || small/total < 0.5 {
			t.Errorf("sample %s: small bins hold %.0f of %.0f values", row[0], small, total)
		}
	}
}

func TestTable4ShapeAndOrderings(t *testing.T) {
	tab := runQuick(t, Runner{"Table 4", Table4})
	if want := len(Quick.DictSizes) * 4; len(tab.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), want)
	}
	enc := map[string]float64{}
	for _, row := range tab.Rows {
		key := row[0] + "/" + row[1]
		enc[key] = cellFloat(t, row[2])
		if enc[key] <= 0 || enc[key] >= 100 {
			t.Errorf("%s: Enc%% = %v", key, enc[key])
		}
		if cellFloat(t, row[3]) <= 0 || cellFloat(t, row[4]) <= 0 {
			t.Errorf("%s: non-positive rate", key)
		}
	}
	// Within one dictionary size, ZZ must encode no larger than UV
	// (the paper's consistent ordering: zlib on both streams is the
	// smallest, u32+vbyte the largest).
	big := dictLabel(Quick.DictSizes[0])
	if enc[big+"/ZZ"] > enc[big+"/UV"] {
		t.Errorf("ZZ (%v) larger than UV (%v)", enc[big+"/ZZ"], enc[big+"/UV"])
	}
	// Larger dictionaries compress at least roughly as well: allow a
	// small tolerance because at Quick scale the dictionary bytes charged
	// to the archive partially offset payload savings.
	small := dictLabel(Quick.DictSizes[len(Quick.DictSizes)-1])
	if enc[big+"/ZZ"] > enc[small+"/ZZ"]+3 {
		t.Errorf("bigger dictionary much worse: %v vs %v", enc[big+"/ZZ"], enc[small+"/ZZ"])
	}
}

func TestTable6ShapeAndOrderings(t *testing.T) {
	tab := runQuick(t, Runner{"Table 6", Table6})
	if want := 1 + 2*len(Quick.BlockSizes); len(tab.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), want)
	}
	if tab.Rows[0][0] != "ascii" || cellFloat(t, tab.Rows[0][2]) != 100 {
		t.Errorf("first row should be ascii at 100%%: %v", tab.Rows[0])
	}
	// For each algorithm, bigger blocks must not compress worse.
	encByAlg := map[string][]float64{}
	for _, row := range tab.Rows[1:] {
		encByAlg[row[0]] = append(encByAlg[row[0]], cellFloat(t, row[2]))
	}
	for alg, encs := range encByAlg {
		for i := 1; i < len(encs); i++ {
			if encs[i] > encs[i-1]+1 { // small tolerance for tiny corpora
				t.Errorf("%s: block size up, Enc%% worsened %v -> %v", alg, encs[i-1], encs[i])
			}
		}
	}
}

func TestTable10PrefixDegradation(t *testing.T) {
	tab := runQuick(t, Runner{"Table 10", Table10})
	if len(tab.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(tab.Rows))
	}
	full := cellFloat(t, tab.Rows[0][1])
	one := cellFloat(t, tab.Rows[len(tab.Rows)-1][1])
	if one < full {
		t.Errorf("1%% prefix dictionary (%v) compresses better than full (%v)", one, full)
	}
}

func TestRemainingTablesRun(t *testing.T) {
	for _, id := range []string{"Table 5", "Table 7", "Table 8", "Table 9"} {
		r, ok := ByID(id)
		if !ok {
			t.Fatalf("missing runner %q", id)
		}
		runQuick(t, r)
	}
}

func TestExtensionsShape(t *testing.T) {
	tab := runQuick(t, Runner{"Extensions", Extensions})
	// 4 paper codecs + 5 extension codecs + 1 refined dictionary row.
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(tab.Rows))
	}
	enc := map[string]float64{}
	for _, row := range tab.Rows {
		enc[row[0]] = cellFloat(t, row[1])
		if v := cellFloat(t, row[4]); v < 0 || v > 100 {
			t.Errorf("%s: unused%% = %v", row[0], v)
		}
	}
	// Simple9 lengths should land close to vbyte lengths (within a couple
	// of points either way at this scale).
	if diff := enc["even/US (simple9)"] - enc["even/UV"]; diff > 2 || diff < -5 {
		t.Errorf("US (%.2f) far from UV (%.2f)", enc["even/US (simple9)"], enc["even/UV"])
	}
}

func TestGenomesShape(t *testing.T) {
	tab := runQuick(t, Runner{"Genomes", GenomesTable})
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	enc := map[string]float64{}
	for _, row := range tab.Rows {
		enc[row[0]] = cellFloat(t, row[1])
	}
	// The reference-dictionary RLZ must crush the block baselines on
	// near-identical documents.
	if enc["rlz-ref/ZZ"] >= enc["zlib/"+byteLabel(Quick.BlockSizes[len(Quick.BlockSizes)-1])] {
		t.Errorf("rlz-ref/ZZ (%.2f) not better than blocked zlib", enc["rlz-ref/ZZ"])
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("Table 4"); !ok {
		t.Error("Table 4 missing")
	}
	if _, ok := ByID("Table 11"); ok {
		t.Error("nonexistent table found")
	}
}

func TestTablePrint(t *testing.T) {
	tab := &Table{ID: "Table X", Title: "demo", Header: []string{"A", "LongHeader"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "Table X: demo") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "LongHeader") || !strings.Contains(out, "333") {
		t.Errorf("missing cells: %q", out)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab := &Table{ID: "Table X", Title: "demo, with comma", Header: []string{"A", "B"}}
	tab.AddRow("1", "two words")
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"# Table X", "\"demo, with comma\"", "A,B", "1,two words"} {
		if !strings.Contains(out, frag) {
			t.Errorf("CSV missing %q:\n%s", frag, out)
		}
	}
}

func TestByteLabel(t *testing.T) {
	cases := map[int]string{
		100:       "100B",
		1 << 10:   "1KB",
		1536:      "1.5KB",
		1 << 20:   "1MB",
		3 << 19:   "1.5MB",
		512 << 10: "512KB",
	}
	for n, want := range cases {
		if got := byteLabel(n); got != want {
			t.Errorf("byteLabel(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestTableWriteJSON(t *testing.T) {
	tab := &Table{
		ID:     "Table X",
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
	}
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		ID     string              `json:"id"`
		Title  string              `json:"title"`
		Header []string            `json:"header"`
		Rows   []map[string]string `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if got.ID != "Table X" || got.Title != "demo" || len(got.Rows) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Rows[1]["b"] != "4" {
		t.Errorf(`rows[1]["b"] = %q, want "4"`, got.Rows[1]["b"])
	}
}
