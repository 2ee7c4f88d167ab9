package archive

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"rlz/internal/blockstore"
	"rlz/internal/lz77"
	"rlz/internal/pipeline"
	"rlz/internal/rawstore"
	"rlz/internal/rlz"
	"rlz/internal/store"
)

// Options selects and configures a backend for building. Fields outside
// the chosen backend's section are ignored.
type Options struct {
	// Backend selects the storage scheme; the zero value means RLZ.
	Backend Backend

	// RLZ: the sampled dictionary (required; see SampleDict) and the
	// position-length pair codec (zero value means rlz.DefaultCodec, PV:
	// the paper's ZV with positions bit-packed wherever that is no longer
	// than their zlib stream).
	Dict  []byte
	Codec rlz.PairCodec
	// PreparedDict optionally supplies an already-indexed dictionary to
	// reuse, taking precedence over Dict. Several writers sharing one
	// PreparedDict pay its O(m) suffix-array construction once (rlz
	// factorization through a shared Dictionary is concurrency-safe);
	// internal/shard sets this so N shards do not index the same global
	// dictionary N times.
	PreparedDict *rlz.Dictionary
	// Heat optionally accumulates dictionary-region usage from every
	// factorization this build performs (sequential and parallel paths
	// alike; Observe is atomic, so all workers share the accumulator).
	// Compaction feeds this into adaptive re-sampling to rank hot/cold
	// dictionary regions. It does not change the archive bytes.
	Heat *rlz.RegionHeat

	// Block: uncompressed block capacity (0 = one document per block),
	// compressor, and LZ77 tuning for the lzma stand-in.
	BlockSize int
	Algorithm blockstore.Algorithm
	LZ77      lz77.Options

	// Workers bounds build concurrency for every backend: 0 means
	// GOMAXPROCS, 1 forces a fully sequential build. Archives are
	// byte-identical at any worker count — RLZ parallelizes per
	// document, Block per block, and commits stay ordered.
	Workers int
}

// ResolvedBackend returns the backend the options select, normalizing
// the zero value to its documented default (RLZ) — the single source of
// truth for callers (e.g. internal/shard) that must agree with NewWriter
// on what an empty Backend means.
func (o Options) ResolvedBackend() Backend {
	if o.Backend == "" {
		return RLZ
	}
	return o.Backend
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// NewWriter starts an archive of the chosen backend on w. Block-backend
// writers compress blocks on opts.Workers goroutines internally; RLZ
// writers returned here append sequentially (Build adds the per-document
// parallel pipeline on top).
func NewWriter(w io.Writer, opts Options) (Writer, error) {
	switch opts.ResolvedBackend() {
	case RLZ:
		codec := opts.Codec
		if codec == (rlz.PairCodec{}) {
			codec = rlz.DefaultCodec
		}
		var sw *store.Writer
		var err error
		if opts.PreparedDict != nil {
			sw, err = store.NewWriterFromDictionary(w, opts.PreparedDict, codec)
		} else {
			sw, err = store.NewWriter(w, opts.Dict, codec)
		}
		if err != nil {
			return nil, err
		}
		sw.CollectHeat(opts.Heat)
		return rlzWriter{sw}, nil
	case Block:
		bw, err := blockstore.NewWriter(w, blockstore.Options{
			BlockSize: opts.BlockSize,
			Algorithm: opts.Algorithm,
			LZ77:      opts.LZ77,
			Workers:   opts.workers(),
		})
		if err != nil {
			return nil, err
		}
		return blockWriter{bw}, nil
	case Raw:
		rw, err := rawstore.NewWriter(w)
		if err != nil {
			return nil, err
		}
		return rawWriter{rw}, nil
	}
	return nil, fmt.Errorf("archive: unknown backend %q", opts.Backend)
}

// BuildResult summarizes a finished build.
type BuildResult struct {
	Docs     int   // documents written
	RawBytes int64 // uncompressed bytes consumed
}

// Build streams src into a complete archive on w. This is the one build
// pipeline all backends share: documents are never materialized as a
// whole, and the expensive per-unit work (RLZ factorization, block
// compression) runs on opts.Workers goroutines with commits in document
// order, so the output is byte-for-byte identical to a sequential build
// — the compression-side scalability §3.2 advertises.
func Build(w io.Writer, src DocSource, opts Options) (BuildResult, error) {
	aw, err := NewWriter(w, opts)
	if err != nil {
		return BuildResult{}, err
	}
	res, err := build(aw, src, opts)
	if err != nil {
		// Failed builds still close the writer so backend pipelines
		// drain their goroutines; the archive bytes are garbage either
		// way (Create deletes the file).
		_ = aw.Close()
		if c, ok := src.(io.Closer); ok {
			_ = c.Close()
		}
		return res, err
	}
	if c, ok := src.(io.Closer); ok {
		if cerr := c.Close(); cerr != nil {
			return res, cerr
		}
	}
	return res, nil
}

// rlzWorker is what one parallel-build worker keeps between documents:
// its engine, the factor slice and the buffer a record is assembled in.
type rlzWorker struct {
	fz      *rlz.Factorizer
	factors []rlz.Factor
	rec     []byte
}

func build(aw Writer, src DocSource, opts Options) (BuildResult, error) {
	var res BuildResult

	if rw, ok := aw.(rlzWriter); ok && opts.workers() > 1 {
		// RLZ fast path: the dictionary is immutable during the build, so
		// factorize+encode parallelizes per document. Each pipeline worker
		// runs its own rlzWorker (drawn from a pool, since the ordered
		// pipeline shares one work closure) over the shared dictionary
		// index and k-gram ladder.
		dict, codec := rw.Dictionary(), rw.Codec()
		pool := sync.Pool{New: func() any { return &rlzWorker{fz: rlz.NewFactorizer(dict, rlz.FactorizerOptions{})} }}
		pipe := pipeline.NewOrdered(opts.workers(),
			func(doc []byte) ([]byte, error) {
				w := pool.Get().(*rlzWorker)
				w.factors = w.fz.Factorize(doc, w.factors[:0])
				if opts.Heat != nil {
					opts.Heat.Observe(w.factors)
				}
				// The record outlives this call (it waits its turn to be
				// committed), so it is the one thing allocated per document.
				w.rec = codec.Encode(w.rec[:0], w.factors)
				rec := bytes.Clone(w.rec)
				pool.Put(w)
				return rec, nil
			},
			func(rec []byte) error {
				_, err := rw.AppendEncoded(rec)
				return err
			})
		var srcErr error
		for {
			d, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				srcErr = err
				break
			}
			res.Docs++
			res.RawBytes += int64(len(d.Body))
			if pipe.Submit(d.Body) != nil {
				break // pipeline failed; Close reports the first error
			}
		}
		if err := pipe.Close(); err != nil {
			return res, err
		}
		if srcErr != nil {
			return res, srcErr
		}
		return res, aw.Close()
	}

	for {
		d, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
		if _, err := aw.Append(d.Body); err != nil {
			if d.Name != "" {
				return res, fmt.Errorf("appending %s: %w", d.Name, err)
			}
			return res, fmt.Errorf("appending document %d: %w", res.Docs, err)
		}
		res.Docs++
		res.RawBytes += int64(len(d.Body))
	}
	return res, aw.Close()
}

// Create builds an archive file from src, replacing any existing file at
// path.
func Create(path string, src DocSource, opts Options) (BuildResult, error) {
	f, err := os.Create(path)
	if err != nil {
		return BuildResult{}, err
	}
	res, err := Build(f, src, opts)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(path)
		return res, err
	}
	return res, nil
}
