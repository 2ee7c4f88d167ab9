package archive

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"rlz/internal/blockstore"
	"rlz/internal/coding"
	"rlz/internal/container"
	"rlz/internal/docmap"
	"rlz/internal/rawstore"
	"rlz/internal/store"
)

// corruptArchiveErr maps each backend to its package's sentinel, so these
// tests also pin that the adapter layer preserves error identity.
var corruptArchiveErr = map[Backend]error{
	RLZ:   store.ErrCorruptArchive,
	Block: blockstore.ErrCorruptArchive,
	Raw:   rawstore.ErrCorruptArchive,
}

func validArchives(t *testing.T) map[Backend][]byte {
	t.Helper()
	docs := makeDocs(15, 42)
	out := map[Backend][]byte{}
	for backend, opts := range optionsFor(t, docs) {
		var buf bytes.Buffer
		if _, err := Build(&buf, FromBodies(docs), opts); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		out[backend] = buf.Bytes()
	}
	return out
}

func TestOpenTruncatedFooter(t *testing.T) {
	for backend, data := range validArchives(t) {
		for _, cut := range []int{1, 6, 12, len(data) / 2} {
			trunc := data[:len(data)-cut]
			r, err := OpenBytes(trunc)
			if err == nil {
				r.Close()
				t.Errorf("%s: archive truncated by %d bytes opened cleanly", backend, cut)
				continue
			}
			if !errors.Is(err, corruptArchiveErr[backend]) {
				t.Errorf("%s: truncated by %d: error %v does not wrap the backend's ErrCorruptArchive", backend, cut, err)
			}
		}
	}
}

func TestOpenWrongMagic(t *testing.T) {
	for backend, data := range validArchives(t) {
		bad := bytes.Clone(data)
		bad[0] ^= 0xFF
		if _, err := OpenBytes(bad); !errors.Is(err, ErrUnknownFormat) {
			t.Errorf("%s: corrupted magic: got %v, want ErrUnknownFormat", backend, err)
		}
	}
	// Shorter than any magic.
	if _, err := OpenBytes([]byte("RL")); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("tiny input: got %v, want ErrUnknownFormat", err)
	}
	if _, err := OpenBytes(nil); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("empty input: got %v, want ErrUnknownFormat", err)
	}
}

func TestOpenVersionMismatch(t *testing.T) {
	// All three formats place a one-byte version right after the 4-byte
	// magic; a future version must be rejected, not misparsed.
	for backend, data := range validArchives(t) {
		bad := bytes.Clone(data)
		bad[4] = 99
		_, err := OpenBytes(bad)
		if err == nil {
			t.Errorf("%s: version 99 accepted", backend)
			continue
		}
		if !errors.Is(err, corruptArchiveErr[backend]) {
			t.Errorf("%s: version mismatch: error %v does not wrap the backend's ErrCorruptArchive", backend, err)
		}
	}
}

func TestOpenGarbageBody(t *testing.T) {
	// A plausible magic followed by garbage must error, not panic.
	for _, magic := range []string{"RLZA", "BLKS", "RAWS"} {
		data := append([]byte(magic), bytes.Repeat([]byte{0xAB}, 64)...)
		if r, err := OpenBytes(data); err == nil {
			r.Close()
			t.Errorf("%s + garbage opened cleanly", magic)
		}
	}
}

// WrapDocmap rewrites the first map in a sealed segment's tail — the
// document map, or a block archive's block map — to the deltas 2^64−5,
// total+5, 0, …: the running offset wraps uint64 and comes back to the
// same total, so the map still covers the payload exactly while its first
// entry claims 2^64−5 bytes. The map must hold at least two entries.
// FuzzArchiveOpenBytes seeds with it too.
func WrapDocmap(seg []byte) []byte {
	foot := len(seg) - container.FooterSize
	mapOff, _ := coding.U64(seg[foot:])
	m, used, err := docmap.Unmarshal(seg[mapOff:foot])
	if err != nil || m.Len() < 2 {
		panic("WrapDocmap: no map of two entries to wrap")
	}
	out := coding.PutUvarint64(bytes.Clone(seg[:mapOff]), uint64(m.Len()))
	out = coding.PutUvarint64(out, math.MaxUint64-4)
	out = coding.PutUvarint64(out, m.Total()+5)
	for i := 2; i < m.Len(); i++ {
		out = coding.PutUvarint64(out, 0)
	}
	out = append(out, seg[int(mapOff)+used:foot]...)
	return append(coding.PutU64(out, mapOff), seg[foot+8:]...)
}

// A document map whose running offset wraps must not open: before the
// wrap was rejected, every backend opened it and then panicked on Get
// over a plain ReaderAt, sizing a buffer by a negative length.
func TestOpenWrappedDocmap(t *testing.T) {
	for backend, data := range validArchives(t) {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: wrapped map panicked: %v", backend, p)
				}
			}()
			r, err := OpenBytes(WrapDocmap(data))
			if err != nil {
				if !errors.Is(err, corruptArchiveErr[backend]) {
					t.Errorf("%s: error %v does not wrap the backend's ErrCorruptArchive", backend, err)
				}
				return
			}
			defer r.Close()
			for id := 0; id < r.NumDocs(); id++ {
				if _, err := r.Get(id); err == nil {
					t.Errorf("%s: wrapped map opened and Get(%d) succeeded", backend, id)
				}
			}
		}()
	}
}
