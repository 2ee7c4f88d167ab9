package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rlz/internal/archive"
	"rlz/internal/collection"
	"rlz/internal/rlz"
	"rlz/internal/units"
)

// cmdAppend appends documents to a live collection, creating the
// collection on first use. Appended documents are readable immediately —
// rlz get/cat/grep and a running rlzd see them without any rebuild —
// and get compressed later by `rlz compact` (or rlzd's auto-compactor).
func cmdAppend(args []string) error {
	fs := flag.NewFlagSet("append", flag.ExitOnError)
	dir := fs.String("a", "", "collection directory (required; created if absent)")
	srcDir := fs.String("dir", "", "treat every regular file under this directory as a document")
	warcPath := fs.String("warc", "", "read documents from a warc collection file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("append: -a is required")
	}

	var src archive.DocSource
	switch {
	case *warcPath != "":
		var err error
		if src, err = archive.FromWARC(*warcPath); err != nil {
			return err
		}
	default:
		paths := fs.Args()
		if *srcDir != "" {
			var err error
			if paths, err = collectFiles(*srcDir); err != nil {
				return err
			}
		}
		if len(paths) == 0 {
			return fmt.Errorf("append: no input documents")
		}
		src = archive.FromFiles(paths)
	}
	defer func() {
		if c, ok := src.(io.Closer); ok {
			_ = c.Close()
		}
	}()

	if _, err := os.Stat(filepath.Join(*dir, collection.ManifestName)); err != nil {
		if err := collection.Init(*dir); err != nil {
			return err
		}
		fmt.Printf("%s: initialized empty collection\n", *dir)
	}
	col, err := collection.Open(*dir, collection.Options{})
	if err != nil {
		return err
	}
	defer col.Close()

	first, count := -1, 0
	var bytes int64
	for {
		d, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		id, err := col.Append(d.Body)
		if err != nil {
			if d.Name != "" {
				return fmt.Errorf("appending %s: %w", d.Name, err)
			}
			return fmt.Errorf("appending document %d: %w", count, err)
		}
		if first < 0 {
			first = id
		}
		count++
		bytes += int64(len(d.Body))
	}
	if count == 0 {
		return fmt.Errorf("append: no input documents")
	}
	fmt.Printf("%s: appended %d docs (%d bytes), ids %d..%d, generation %d\n",
		*dir, count, bytes, first, first+count-1, col.Generation())
	return nil
}

// cmdCompact seals the open segment and drains every raw segment into
// RLZ archives built against the collection's shared dictionary, sampling
// a larger one first when the drained bytes' -dict budget is at least
// twice the newest dictionary. -adapt lets the pass learn a new
// dictionary generation (-evict and -gain tune what it evicts and when
// it adopts). Each pass also re-encodes RLZ segments built against older
// generations, oldest first, up to the raw bytes it drains;
// -upgrade-stale lifts that cap and re-encodes all of them.
func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	dir := fs.String("a", "", "collection directory (required)")
	codecName := fs.String("codec", rlz.DefaultCodec.String(), "rlz pair codec for compacted segments")
	dictSize := fs.String("dict", "0", "dictionary budget (0 means 1% of the compacted bytes): the size of a new sample, taken on the first compaction and whenever the newest dictionary holds at most half the budget")
	sampleSize := fs.String("sample", "1KB", "dictionary sample length when sampling a new one")
	workers := fs.Int("workers", 0, "build concurrency; 0 means GOMAXPROCS")
	adapt := fs.Bool("adapt", false, "learn: evict cold dictionary regions and re-sample from the drained documents, adopting the result when the trial gain clears -gain")
	evict := fs.Float64("evict", 0, "fraction of dictionary regions an adaptive re-sample evicts, coldest first (0 means 0.25)")
	gain := fs.Float64("gain", 0, "relative encoded-byte saving required to adopt an adaptive dictionary (0 means 0.02; negative adopts always)")
	upgradeStale := fs.Bool("upgrade-stale", false, "rewrite every RLZ segment built against an older dictionary generation, not only as many as the drained raw bytes cover, retiring those generations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("compact: -a is required")
	}
	codec, err := rlz.CodecByName(*codecName)
	if err != nil {
		return err
	}
	ds, err := units.ParseSize(*dictSize)
	if err != nil {
		return err
	}
	ss, err := units.ParseSize(*sampleSize)
	if err != nil {
		return err
	}

	col, err := collection.Open(*dir, collection.Options{})
	if err != nil {
		return err
	}
	defer col.Close()
	res, err := col.Compact(collection.CompactOptions{
		Codec:         codec,
		DictSize:      ds,
		SampleSize:    ss,
		Adapt:         *adapt,
		EvictFraction: *evict,
		MinRatioGain:  *gain,
		UpgradeStale:  *upgradeStale,
		Workers:       *workers,
	})
	if err != nil {
		return err
	}
	if res.Compacted == 0 {
		fmt.Printf("%s: nothing to compact (generation %d)\n", *dir, col.Generation())
		return nil
	}
	ratio := 0.0
	if res.BytesBefore > 0 {
		ratio = 100 * float64(res.BytesAfter) / float64(res.BytesBefore)
	}
	dictNote := ""
	if res.Relearned {
		dictNote = fmt.Sprintf(", adopted dictionary %d", res.Dict)
	} else if res.Dict != 0 {
		dictNote = fmt.Sprintf(", dictionary %d", res.Dict)
	}
	fmt.Printf("%s: compacted %d segments into %d (%d docs, %d -> %d bytes, %.2f%%%s%s), generation %d\n",
		*dir, res.Compacted, len(res.NewSegments), res.Docs, res.BytesBefore, res.BytesAfter, ratio, dictNote, upgradeNote(res), res.Generation)
	return nil
}

// upgradeNote reports the stale-generation segments a compaction
// re-encoded, or nothing when it re-encoded none.
func upgradeNote(res collection.CompactResult) string {
	if res.Upgraded == 0 {
		return ""
	}
	return fmt.Sprintf(", %d segments (%d document bytes) moved to dictionary %d", res.Upgraded, res.BytesUpgraded, res.Dict)
}

// cmdGC removes files in the collection directory superseded by the
// current generation: old segments replaced by compaction, stale .tmp
// leftovers from crashes, length sidecars left by older releases.
func cmdGC(args []string) error {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	dir := fs.String("a", "", "collection directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("gc: -a is required")
	}
	col, err := collection.Open(*dir, collection.Options{})
	if err != nil {
		return err
	}
	defer col.Close()
	removed, err := col.GC()
	if err != nil {
		return err
	}
	for _, name := range removed {
		fmt.Printf("removed %s\n", name)
	}
	fmt.Printf("%s: %d files removed (generation %d)\n", *dir, len(removed), col.Generation())
	return nil
}
