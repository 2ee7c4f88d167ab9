package archive

import (
	"io"

	"rlz/internal/blockstore"
	"rlz/internal/rawstore"
	"rlz/internal/store"
)

// The built-in backends register by their header magic. The magics are
// owned by the backend packages' formats; they are mirrored here because
// dispatch must happen before any backend parses the file.
func init() {
	RegisterFormat("RLZA", RLZ, func(r io.ReaderAt, size int64) (Reader, error) {
		rd, err := store.Open(r, size)
		if err != nil {
			return nil, err
		}
		return rlzReader{rd}, nil
	})
	RegisterFormat("BLKS", Block, func(r io.ReaderAt, size int64) (Reader, error) {
		rd, err := blockstore.Open(r, size)
		if err != nil {
			return nil, err
		}
		return blockReader{rd}, nil
	})
	RegisterFormat("RAWS", Raw, func(r io.ReaderAt, size int64) (Reader, error) {
		rd, err := rawstore.Open(r, size)
		if err != nil {
			return nil, err
		}
		return rawReader{rd}, nil
	})
}

// rlzReader adapts *store.Reader; the embedded methods already match the
// Reader interface (and GetRange the Set's range probe), so only Stats is
// added.
type rlzReader struct{ *store.Reader }

func (r rlzReader) Stats() Stats {
	return Stats{
		Backend: RLZ,
		NumDocs: r.NumDocs(),
		Size:    r.Size(),
		DictLen: r.DictLen(),
		Codec:   r.Codec().String(),
	}
}

type blockReader struct{ *blockstore.Reader }

func (r blockReader) Stats() Stats {
	return Stats{
		Backend:   Block,
		NumDocs:   r.NumDocs(),
		Size:      r.Size(),
		Algorithm: r.Algorithm().String(),
		NumBlocks: r.NumBlocks(),
	}
}

type rawReader struct{ *rawstore.Reader }

func (r rawReader) Stats() Stats {
	return Stats{Backend: Raw, NumDocs: r.NumDocs(), Size: r.Size()}
}

// rlzWriter adapts *store.Writer. Append's signature already matches.
type rlzWriter struct{ *store.Writer }

type blockWriter struct{ *blockstore.Writer }

type rawWriter struct{ *rawstore.Writer }
