package archive

import (
	"rlz/internal/blockstore"
	"rlz/internal/rawstore"
	"rlz/internal/store"
)

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
