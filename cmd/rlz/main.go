// Command rlz builds and queries document archives: RLZ-compressed
// collections per Hoobin, Puglisi & Zobel (VLDB 2011), the paper's
// block-compressed baselines, and the uncompressed ascii baseline — all
// through one backend-neutral archive layer.
//
// Usage:
//
//	rlz build -o archive.rlz [-backend rlz|block|raw] [-codec PV] [-dict 1MB] [-sample 1KB] FILE...
//	rlz build -o archive.blk -backend block [-block 256KB] [-alg zlib|flate|lzma|lzr] -dir ./crawl
//	rlz build -o crawl.d -shards 16 -warc crawl.warc
//	rlz get -a archive.rlz -id 3
//	rlz cat -a archive.rlz
//	rlz stats -a archive.rlz
//	rlz verify -a archive.rlz
//	rlz grep -a archive.rlz [-n LIMIT] [-c RADIUS] PATTERN
//	rlz append -a livedir/ newdoc.html
//	rlz compact -a livedir/ [-adapt [-evict 0.25] [-gain 0.02]] [-upgrade-stale]
//	rlz gc -a livedir/
//
// Each input file is one document; -dir walks a directory tree in
// lexical order, taking every regular file as a document; -warc streams
// a warc collection file. Reading commands auto-detect the backend from
// the archive's magic, so none of them need to be told which scheme
// built the file. -shards N (N > 1) partitions the build across N
// segments built in parallel and writes them as a collection directory:
// reading commands open the directory (or its MANIFEST file) like any
// single archive, and append, compact, gc and rlzd's write API work on it
// — the build doubles as a collection's bulk loader. It refuses a
// directory that already holds a MANIFEST. grep decodes each document
// once and scans it, on any archive or collection; the context it prints
// is read back with a range decode.
//
// append, compact and gc operate on live collections
// (internal/collection): generational archive sets that grow online.
// append lands documents in an open raw segment (readable immediately,
// ids stable forever); compact drains raw segments into RLZ archives
// against a shared sampled dictionary (-adapt re-samples that
// dictionary's cold regions and adopts the result when a trial gains
// enough; -upgrade-stale also rewrites segments built against older
// dictionary generations); gc removes superseded files.
// Reading commands open a collection directory like any archive.
//
// To serve an archive hot over HTTP, see cmd/rlzd.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"

	"rlz/internal/archive"
	"rlz/internal/blockstore"
	"rlz/internal/codec"
	"rlz/internal/collection"
	"rlz/internal/lz77"
	"rlz/internal/rlz"
	"rlz/internal/shard"
	"rlz/internal/units"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = cmdBuild(os.Args[2:])
	case "get":
		err = cmdGet(os.Args[2:])
	case "cat":
		err = cmdCat(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "grep":
		err = cmdGrep(os.Args[2:])
	case "append":
		err = cmdAppend(os.Args[2:])
	case "compact":
		err = cmdCompact(os.Args[2:])
	case "gc":
		err = cmdGC(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "rlz: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rlz:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rlz build  -o ARCHIVE [-backend rlz|block|raw] [-workers N] [-shards N] FILE... | -dir DIR | -warc FILE
             rlz backend:   [-codec ZZ|ZV|UZ|UV|ZS|US|ZH|UH|PV] [-dict SIZE] [-sample SIZE]
             block backend: [-block SIZE] [-alg zlib|flate|lzma|lzr]
             -shards N > 1 writes a collection directory of N segments built in
             parallel (refused if it already holds one); every command takes -a DIR
             profiling:     [-cpuprofile FILE] [-memprofile FILE]
  rlz get    -a ARCHIVE -id N
  rlz cat    -a ARCHIVE
  rlz stats  -a ARCHIVE
  rlz verify -a ARCHIVE [-workers N]
  rlz grep   -a ARCHIVE [-n LIMIT] [-c RADIUS] PATTERN
             decodes each document once and scans it; any archive or collection
  rlz append -a DIR FILE... | -dir DIR | -warc FILE
             appends to a live collection, creating it if absent;
             documents are readable (rlzd, get, grep) immediately
  rlz compact -a DIR [-codec PV] [-dict SIZE] [-sample SIZE] [-workers N]
             [-adapt [-evict FRACTION] [-gain FRACTION]] [-upgrade-stale]
             seals the open segment and rewrites raw segments as RLZ; -adapt
             re-samples the dictionary's cold regions from the drained documents
             and adopts the result when a trial saves -gain of the encoded bytes;
             -upgrade-stale also rewrites RLZ segments of older dictionaries
  rlz gc     -a DIR
             removes files superseded by the current generation`)
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	out := fs.String("o", "", "output archive path (required)")
	backendName := fs.String("backend", "rlz", "storage backend: rlz, block or raw")
	codecName := fs.String("codec", rlz.DefaultCodec.String(), "rlz pair codec: ZZ, ZV, UZ, UV (paper) or ZS, US, ZH, UH, PV (extensions)")
	dictSize := fs.String("dict", "0", "rlz dictionary size (e.g. 1MB); 0 means 1% of the collection")
	sampleSize := fs.String("sample", "1KB", "rlz dictionary sample length")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the build to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the build to this file")
	blockSize := fs.String("block", "256KB", "block backend: uncompressed block capacity; 0 means one doc per block")
	algName := fs.String("alg", "zlib", "block backend compressor: zlib, flate, lzma or lzr")
	workers := fs.Int("workers", 0, "build concurrency; 0 means GOMAXPROCS (output is identical at any count)")
	shards := fs.Int("shards", 1, "build N segments in parallel into a collection (-o becomes a directory)")
	dir := fs.String("dir", "", "treat every regular file under this directory as a document")
	warcPath := fs.String("warc", "", "read documents from a warc collection file (see cmd/rlzgen)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("build: -o is required")
	}
	backend, err := archive.ParseBackend(*backendName)
	if err != nil {
		return err
	}

	// Profiling hooks so hot-path work on the build starts from a profile
	// instead of a guess: -cpuprofile covers the whole build (sampling
	// pass, factorization pipeline, commit), -memprofile snapshots the
	// heap after it finishes.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			if err := dumpHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rlz: heap profile:", err)
			}
		}()
	}

	// The document source is re-openable: RLZ dictionary sampling makes
	// two streaming passes before the build pass, so documents are never
	// all resident at once.
	var openSrc func() (archive.DocSource, error)
	switch {
	case *warcPath != "":
		openSrc = func() (archive.DocSource, error) { return archive.FromWARC(*warcPath) }
	default:
		paths := fs.Args()
		if *dir != "" {
			paths, err = collectFiles(*dir)
			if err != nil {
				return err
			}
		}
		if len(paths) == 0 {
			return fmt.Errorf("build: no input documents")
		}
		openSrc = func() (archive.DocSource, error) { return archive.FromFiles(paths), nil }
	}

	opts := archive.Options{Backend: backend, Workers: *workers}
	switch backend {
	case archive.RLZ:
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
		dict, total, err := archive.SampleDict(openSrc, ds, ss)
		if err != nil {
			return err
		}
		if total == 0 {
			return fmt.Errorf("build: no input documents")
		}
		opts.Dict = dict
		opts.Codec = codec
	case archive.Block:
		bs, err := units.ParseSize(*blockSize)
		if err != nil {
			return err
		}
		opts.BlockSize = bs
		// Resolve against the codec registry, so every registered codec is
		// buildable by name and an unknown one fails here — before any
		// input is read — with the full codec list.
		cdc, err := codec.ByName(*algName)
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		opts.Algorithm = blockstore.Algorithm(cdc.ID())
		if opts.Algorithm == blockstore.LZ77 || opts.Algorithm == blockstore.LZR {
			opts.LZ77 = lz77.Options{WindowSize: 4 << 20, MaxChain: 32}
		}
	}

	src, err := openSrc()
	if err != nil {
		return err
	}
	var res archive.BuildResult
	if *shards > 1 {
		// -o names a directory, which becomes a collection of one sealed
		// segment per shard.
		res, err = shard.Create(*out, src, shard.Options{Shards: *shards, Archive: opts})
	} else {
		res, err = archive.Create(*out, src, opts)
	}
	if err != nil {
		return err
	}
	if res.Docs == 0 {
		if *shards > 1 {
			return fmt.Errorf("build: no input documents (%s now holds an empty collection)", *out)
		}
		_ = os.Remove(*out)
		return fmt.Errorf("build: no input documents")
	}
	r, err := archive.Open(*out)
	if err != nil {
		return err
	}
	size := r.Size()
	if err := r.Close(); err != nil {
		return err
	}
	fmt.Printf("%s: backend %s, %d docs, %d -> %d bytes (%.2f%%)",
		*out, backend, res.Docs, res.RawBytes, size,
		100*float64(size)/float64(res.RawBytes))
	if backend == archive.RLZ {
		fmt.Printf(", dict %d bytes, codec %s", len(opts.Dict), opts.Codec)
	}
	if *shards > 1 {
		fmt.Printf(", %d shards", *shards)
	}
	fmt.Println()
	return nil
}

// dumpHeapProfile settles the heap, writes the profile to f, and closes
// it. The Close error is part of the result: the final flush is where a
// full disk surfaces, and a silently truncated profile parses as valid
// right up until pprof rejects it.
func dumpHeapProfile(f *os.File) error {
	runtime.GC() // settle the heap so the profile shows retained memory
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing %s: %w", f.Name(), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", f.Name(), err)
	}
	return nil
}

func collectFiles(root string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	return paths, err
}

func cmdGet(args []string) error {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	arc := fs.String("a", "", "archive path (required)")
	id := fs.Int("id", -1, "document ID (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *arc == "" || *id < 0 {
		return fmt.Errorf("get: -a and -id are required")
	}
	r, err := archive.Open(*arc)
	if err != nil {
		return err
	}
	defer r.Close()
	doc, err := r.Get(*id)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(doc)
	return err
}

func cmdCat(args []string) error {
	fs := flag.NewFlagSet("cat", flag.ExitOnError)
	arc := fs.String("a", "", "archive path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *arc == "" {
		return fmt.Errorf("cat: -a is required")
	}
	r, err := archive.Open(*arc)
	if err != nil {
		return err
	}
	defer r.Close()
	var buf []byte
	for id := 0; id < r.NumDocs(); id++ {
		buf, err = r.GetAppend(buf[:0], id)
		if err != nil {
			// A live collection's tombstoned ids are verified absences,
			// not failures; cat emits the surviving documents.
			if errors.Is(err, collection.ErrDeleted) {
				continue
			}
			return err
		}
		if _, err := os.Stdout.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	arc := fs.String("a", "", "archive path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *arc == "" {
		return fmt.Errorf("stats: -a is required")
	}
	r, err := archive.Open(*arc)
	if err != nil {
		return err
	}
	defer r.Close()
	var raw int64
	var buf []byte
	for id := 0; id < r.NumDocs(); id++ {
		buf, err = r.GetAppend(buf[:0], id)
		if err != nil {
			if errors.Is(err, collection.ErrDeleted) {
				continue
			}
			return err
		}
		raw += int64(len(buf))
	}
	st := r.Stats()
	fmt.Printf("backend:     %s\n", st.Backend)
	fmt.Printf("documents:   %d\n", st.NumDocs)
	switch st.Backend {
	case archive.RLZ:
		fmt.Printf("codec:       %s\n", st.Codec)
		fmt.Printf("dictionary:  %d bytes\n", st.DictLen)
	case archive.Block:
		fmt.Printf("algorithm:   %s\n", st.Algorithm)
		fmt.Printf("blocks:      %d\n", st.NumBlocks)
	}
	fmt.Printf("archive:     %d bytes\n", st.Size)
	fmt.Printf("decoded:     %d bytes\n", raw)
	if raw > 0 {
		fmt.Printf("ratio:       %.2f%%\n", 100*float64(st.Size)/float64(raw))
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	arc := fs.String("a", "", "archive path (required)")
	workers := fs.Int("workers", 0, "decode concurrency; 0 means GOMAXPROCS")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *arc == "" {
		return fmt.Errorf("verify: -a is required")
	}
	r, err := archive.Open(*arc)
	if err != nil {
		return err
	}
	defer r.Close()
	br, ok := archive.As[archive.BatchReader](r)
	if !ok {
		br = archive.NewSet(r.Stats().Backend, []archive.Reader{r}, nil)
	}
	n := *workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	// Workers take sequential id chunks, several each so the cores stay
	// busy to the end; a block archive decodes each block once per chunk
	// it spans. Chunks are taken in id order, so once a bad id is known
	// only the chunks below it still need checking: the report is the
	// lowest bad id, as from a sequential scan.
	var (
		numDocs = r.NumDocs()
		chunk   = max(1, numDocs/(8*n))
		next    atomic.Int64
		mu      sync.Mutex
		deleted int64
		badID   = -1
		badErr  error
		wg      sync.WaitGroup
	)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]int, 0, chunk)
			for {
				base := int(next.Add(int64(chunk))) - chunk
				mu.Lock()
				done := base >= numDocs || (badID >= 0 && base > badID)
				mu.Unlock()
				if done {
					return
				}
				ids = ids[:0]
				for id := base; id < min(base+chunk, numDocs); id++ {
					ids = append(ids, id)
				}
				br.GetBatch(ids, 1, func(i int, _ []byte, err error) {
					if err == nil {
						return
					}
					mu.Lock()
					defer mu.Unlock()
					switch {
					case errors.Is(err, collection.ErrDeleted):
						// A tombstoned id is a verified absence, not a
						// decode failure.
						deleted++
					case badID < 0 || ids[i] < badID:
						badID, badErr = ids[i], err
					}
				})
			}
		}()
	}
	wg.Wait()
	if badErr != nil {
		return fmt.Errorf("document %d: %w", badID, badErr)
	}
	if deleted > 0 {
		fmt.Printf("%s: %d documents decode cleanly, %d tombstoned (%s backend)\n", *arc, int64(numDocs)-deleted, deleted, r.Stats().Backend)
		return nil
	}
	fmt.Printf("%s: %d documents decode cleanly (%s backend)\n", *arc, numDocs, r.Stats().Backend)
	return nil
}
