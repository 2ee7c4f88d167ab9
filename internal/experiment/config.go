// Package experiment reproduces every table and figure of the paper's
// evaluation (§4–§5) on synthetic collections. Each exported function
// regenerates one artifact and returns it as a Table ready for printing
// ("Reproducing the paper" in the README says how to run them).
//
// Scaling: the paper ran 426 GB (GOV2) and 256 GB (Wikipedia) collections
// against 0.5–2 GB dictionaries. This harness defaults to tens of
// megabytes with proportionally scaled dictionaries and request counts.
// Absolute numbers therefore differ from the paper's; the comparisons the
// paper draws (who wins, how trends move with each parameter) are what
// these tables reproduce.
package experiment

import "rlz/internal/corpus"

// Config sets the scale of every experiment.
type Config struct {
	// GovBytes and WikiBytes are the synthetic collection sizes standing
	// in for the 426 GB GOV2 crawl and 256 GB Wikipedia snapshot.
	GovBytes  int
	WikiBytes int
	// DictSizes are the dictionary sizes standing in for the paper's
	// {2.0, 1.0, 0.5} GB, largest first as in the tables.
	DictSizes []int
	// SampleSize is the default dictionary sample length (the paper uses
	// 1 KB samples unless stated otherwise).
	SampleSize int
	// SampleSizes is the sample-length sweep of Tables 2 and 3, standing
	// in for the paper's {0.5, 1, 2, 5} KB.
	SampleSizes []int
	// SamplePeriods is Figure 3's sample-length sweep, standing in for
	// {512 B, 1 KB, 2 KB, 5 KB, 10 KB}.
	SamplePeriods []int
	// BlockSizes is the baseline block-size sweep standing in for the
	// paper's {1 doc, 0.1, 0.2, 0.5, 1.0} MB; 0 means one doc per block.
	BlockSizes []int
	// SeqRequests and QlogRequests stand in for the paper's 100,000-entry
	// access lists.
	SeqRequests  int
	QlogRequests int
	// Seed makes every run reproducible.
	Seed int64
}

// Default is the scale used by cmd/rlzbench and the bench_test.go
// benchmarks: large enough for the paper's effects to be visible, small
// enough to run on a laptop in minutes.
var Default = Config{
	GovBytes:      24 << 20,
	WikiBytes:     16 << 20,
	DictSizes:     []int{512 << 10, 256 << 10, 128 << 10},
	SampleSize:    1 << 10,
	SampleSizes:   []int{512, 1 << 10, 2 << 10, 5 << 10},
	SamplePeriods: []int{512, 1 << 10, 2 << 10, 5 << 10, 10 << 10},
	BlockSizes:    []int{0, 128 << 10, 256 << 10, 512 << 10, 1 << 20},
	SeqRequests:   5000,
	QlogRequests:  1000,
	Seed:          1,
}

// Quick is a miniature configuration for tests: every experiment still
// runs end to end, just on a tiny collection.
var Quick = Config{
	GovBytes:      1 << 20,
	WikiBytes:     1 << 20,
	DictSizes:     []int{64 << 10, 32 << 10},
	SampleSize:    512,
	SampleSizes:   []int{256, 512},
	SamplePeriods: []int{256, 512},
	BlockSizes:    []int{0, 16 << 10},
	SeqRequests:   500,
	QlogRequests:  100,
	Seed:          1,
}

// dictLabel renders a dictionary size the way the paper's tables label
// theirs (in "GB" at their scale; here we print real units).
func dictLabel(n int) string {
	return byteLabel(n)
}

// gov generates the GOV2 stand-in collection in crawl order.
func (c Config) gov() *corpus.Collection {
	return corpus.Generate(corpus.Gov, c.GovBytes, c.Seed)
}

// wiki generates the Wikipedia stand-in collection in crawl order.
func (c Config) wiki() *corpus.Collection {
	return corpus.Generate(corpus.Wiki, c.WikiBytes, c.Seed+100)
}
