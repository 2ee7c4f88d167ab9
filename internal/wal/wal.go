// Package wal implements a group-commit write-ahead log for the
// collection's open segment.
//
// Appenders enqueue CRC-framed records and then wait for them to be
// durable; the waiting appenders commit the log themselves. The first
// waiter that finds no commit in flight takes everything queued so far,
// writes and flushes it, and wakes its batch; appends that arrive while
// that flush is in flight queue into the next batch, and one of their
// waiters leads it the moment the flush returns. One disk flush thus
// amortizes over every append that arrived during the previous one, with
// no goroutine hand-off between an appender and its flush.
//
// The log keeps its blocks. The file is zero-filled a fixed step ahead
// of the tail, so a steady-state commit overwrites blocks that already
// exist and its flush has no size or extent change to journal. The log
// is a redo log only: once the open segment has absorbed and fsynced the
// records (checkpoint) the log rewinds — a new cycle salt goes into the
// header and the tail returns to the first frame — and the blocks are
// given back only by Trim (the collection calls it when it seals the
// segment the log protects) and by Close.
//
// Every frame's CRC is seeded with its cycle's salt, so the frames an
// earlier cycle left past the tail can never be read as records, not
// even when a document embeds a well-formed frame and the new tail lands
// exactly on it. A torn tail — the crash landing mid-frame — fails the
// same CRC and is discarded on open.
package wal

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"rlz/internal/faultfs"
)

// FileName is the log's file name inside the collection directory.
const FileName = "WAL"

var (
	// ErrBackpressure is returned when the log's in-flight byte budget
	// is exhausted: the caller should back off and retry rather than
	// queue unboundedly. rlzd maps it to HTTP 429.
	ErrBackpressure = errors.New("wal: backpressure: in-flight byte budget exhausted")

	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: closed")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	headerSize = 12 // magic "RLZWAL" + u16 version + u32 cycle salt
	walVersion = 2
	// A version 1 log (written before the log rewound in place) has no
	// salt field: its frames start here and carry an unseeded CRC, which
	// is salt 0. It is replayed as such and becomes version 2 at its
	// first checkpoint.
	v1HeaderSize = 8
	// frame: u32 payload length + u32 CRC32-C(payload), seeded with the
	// cycle salt + payload (uvarint sequence number, document)
	frameHeader = 8
	// maxRecord bounds a single frame's payload so a corrupt length
	// field cannot trigger a giant allocation during recovery.
	maxRecord = 1 << 30
	// fillStep is how far past the tail the file is zero-filled each
	// time a commit reaches the end of the blocks written so far.
	// Reserving the blocks (fallocate) would not do: a flush over
	// unwritten extents still journals their conversion.
	fillStep = 1 << 20
)

var (
	headerMagic = [6]byte{'R', 'L', 'Z', 'W', 'A', 'L'}
	zeros       [fillStep]byte
)

// Record is one logged append: the document's global id and its bytes.
type Record struct {
	Seq uint64
	Doc []byte
}

// Options configures Open.
type Options struct {
	// FS is the filesystem to operate on; nil means faultfs.OS.
	FS faultfs.FS
	// MaxPending bounds the bytes enqueued but not yet fsynced; an
	// append that would exceed it fails with ErrBackpressure (a single
	// record is always admitted on an empty queue, however large).
	// Zero means 8 MiB.
	MaxPending int64
}

// batch accumulates the frames enqueued since the last commit was
// taken. All its waiters share one outcome.
type batch struct {
	buf  []byte
	done bool
	err  error
}

// Log is a group-commit write-ahead log. Safe for concurrent use.
type Log struct {
	fs         faultfs.FS
	path       string
	maxPending int64

	mu sync.Mutex
	// flushed is signalled whenever busy falls: the finished batch's
	// waiters return and one waiter of the next batch leads it.
	flushed sync.Cond
	cur     *batch // guarded by mu; nil when nothing is queued
	spare   []byte // guarded by mu; the last finished batch's buffer, for the next batch
	salt    uint32 // guarded by mu; seeds the CRC of every frame of this cycle
	busy    bool   // guarded by mu; the holder owns f and filled until it clears it
	pending int64  // guarded by mu; bytes enqueued, not yet flushed (or discarded)
	poison  error  // guarded by mu; sticky: set on first failed write/fsync
	closed  bool   // guarded by mu

	f      faultfs.File
	filled int64 // bytes of the file written at least once: header, frames, zero fill

	// size is atomic: Size is polled on every append (the checkpoint
	// trigger) and must not wait behind the commit in flight.
	size atomic.Int64 // the tail: header plus the frames committed this cycle
}

// Open opens (creating if absent) the log at path and replays its
// surviving records: the complete, CRC-verified frames of the current
// cycle, in append order. Everything past them — a torn tail, an earlier
// cycle's frames, zero fill — is cut off. The caller replays the records
// into the open segment before accepting new appends.
func Open(path string, opts Options) (*Log, []Record, error) {
	fs := opts.FS
	if fs == nil {
		fs = faultfs.OS
	}
	maxPending := opts.MaxPending
	if maxPending <= 0 {
		maxPending = 8 << 20
	}

	data, err := fs.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	created := err != nil
	// A file too short for a header was torn while being created; no
	// frame fits in it either, so it starts over like an absent one.
	fresh := len(data) < headerSize

	var recs []Record
	salt, valid := uint32(0), int64(headerSize)
	if fresh {
		salt = newSalt(0)
	} else if recs, salt, valid, err = parse(data); err != nil {
		return nil, nil, err
	}

	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{fs: fs, path: path, maxPending: maxPending, salt: salt, f: f, filled: valid}
	l.flushed.L = &l.mu
	l.size.Store(valid)
	switch {
	case fresh:
		if err = l.rewind(salt); err == nil && created {
			// Make the log's existence durable alongside its header.
			err = fs.SyncDir(filepath.Dir(path))
		}
	case valid < int64(len(data)):
		if err = l.trim(); err == nil {
			err = f.Sync()
		}
	}
	if err == nil {
		_, err = f.Seek(valid, io.SeekStart)
	}
	if err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("wal: init %s: %w", path, err)
	}
	return l, recs, nil
}

// newSalt draws a cycle salt that differs from prev and from 0, the salt
// of version 1 frames. It is random so that a document cannot carry a
// frame made for a cycle yet to come.
func newSalt(prev uint32) uint32 {
	for {
		var b [4]byte
		_, _ = rand.Read(b[:]) // crypto/rand.Read does not fail
		if s := binary.LittleEndian.Uint32(b[:]); s != 0 && s != prev {
			return s
		}
	}
}

// parse scans a log image of at least headerSize bytes, returning the
// current cycle's complete records, its salt, and the byte offset of the
// last valid frame's end. A bad header is an error; a bad or short frame
// just ends the scan (torn tail, or what an earlier cycle left behind).
func parse(data []byte) (recs []Record, salt uint32, off int64, err error) {
	if [6]byte(data[:6]) != headerMagic {
		return nil, 0, 0, fmt.Errorf("wal: bad magic %q", data[:6])
	}
	switch v := binary.LittleEndian.Uint16(data[6:8]); v {
	case 1:
		off = v1HeaderSize
	case walVersion:
		salt, off = binary.LittleEndian.Uint32(data[8:]), headerSize
	default:
		return nil, 0, 0, fmt.Errorf("wal: unsupported version %d", v)
	}
	for {
		rest := data[off:]
		if len(rest) < frameHeader {
			break
		}
		n := int64(binary.LittleEndian.Uint32(rest))
		crc := binary.LittleEndian.Uint32(rest[4:])
		if n > maxRecord || int64(len(rest)) < frameHeader+n {
			break
		}
		payload := rest[frameHeader : frameHeader+n]
		if crc32.Update(salt, castagnoli, payload) != crc {
			break
		}
		seq, sn := binary.Uvarint(payload)
		if sn <= 0 {
			break
		}
		doc := make([]byte, len(payload)-sn)
		copy(doc, payload[sn:])
		recs = append(recs, Record{Seq: seq, Doc: doc})
		off += frameHeader + n
	}
	return recs, salt, off, nil
}

// frame encodes one record of the cycle salted salt, appending to dst.
func frame(dst []byte, salt uint32, seq uint64, doc []byte) []byte {
	var seqBuf [binary.MaxVarintLen64]byte
	sn := binary.PutUvarint(seqBuf[:], seq)
	n := sn + len(doc)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(n))
	crc := crc32.Update(salt, castagnoli, seqBuf[:sn])
	crc = crc32.Update(crc, castagnoli, doc)
	binary.LittleEndian.PutUint32(hdr[4:], crc)
	dst = append(dst, hdr[:]...)
	dst = append(dst, seqBuf[:sn]...)
	return append(dst, doc...)
}

// Enqueue adds one record to the current batch and returns a wait
// function that blocks until the batch is durable (or failed),
// committing it itself when no other waiter is. The record is NOT
// durable until wait returns nil; a record whose wait is never called is
// flushed by a later batch's leader, a checkpoint, or Close.
//
// Enqueue itself never blocks on I/O: when the in-flight budget is
// exhausted it fails fast with ErrBackpressure instead.
func (l *Log) Enqueue(seq uint64, doc []byte) (func() error, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.admitLocked(int64(len(doc))); err != nil {
		return nil, err
	}
	if l.cur == nil {
		l.cur = &batch{buf: l.spare}
		l.spare = nil
	}
	b := l.cur
	before := len(b.buf)
	b.buf = frame(b.buf, l.salt, seq, doc)
	l.pending += int64(len(b.buf) - before)
	return func() error { return l.wait(b) }, nil
}

// wait returns b's outcome. A batch that is not done while nothing is
// in flight is the current one: its first waiter to see that leads it.
func (l *Log) wait(b *batch) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !b.done {
		if l.busy {
			l.flushed.Wait()
		} else {
			l.commitLocked()
		}
	}
	return b.err
}

// Admit reports whether a record with an n-byte payload could enqueue
// right now: ErrBackpressure when the in-flight budget is exhausted,
// the sticky poison error after a failed commit, nil otherwise. Callers
// use it to fail fast before doing work whose record the log would then
// refuse.
func (l *Log) Admit(n int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.admitLocked(n)
}

// admitLocked is Admit. Called with mu held.
func (l *Log) admitLocked(n int64) error {
	if l.closed {
		return ErrClosed
	}
	if l.poison != nil {
		return l.poison
	}
	need := int64(frameHeader+binary.MaxVarintLen64) + n
	if l.pending > 0 && l.pending+need > l.maxPending {
		return fmt.Errorf("%w (%d bytes in flight)", ErrBackpressure, l.pending)
	}
	return nil
}

// Pending returns the bytes enqueued but not yet flushed.
func (l *Log) Pending() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pending
}

// Size returns the log's tail: the header plus the frames committed
// since the last checkpoint — the collection checkpoints once this
// passes its threshold. Lock-free, so the append path can poll it
// without waiting on an in-flight commit.
func (l *Log) Size() int64 {
	return l.size.Load()
}

// Err returns the sticky poison error, if any: after a failed write or
// fsync the kernel may have dropped dirty pages, so the log refuses all
// further work rather than retry-and-lie.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.poison
}

// commitLocked takes the current batch, makes it durable and completes
// it. Called with mu held and busy false; mu is released for the I/O.
func (l *Log) commitLocked() {
	b := l.cur
	l.cur = nil
	err := l.poison
	if err == nil {
		err = l.ownFileLocked("commit", func() error { return l.write(b.buf) })
	}
	l.completeLocked(b, err)
}

// completeLocked hands b's outcome to its waiters and keeps its buffer
// for the next batch. Called with mu held.
func (l *Log) completeLocked(b *batch, err error) {
	l.pending -= int64(len(b.buf))
	l.spare, b.buf = b.buf[:0], nil
	b.err, b.done = err, true
	l.flushed.Broadcast()
}

// ownFileLocked runs op with the file to itself and mu released; a
// failure poisons the log. Called with mu held and busy false.
func (l *Log) ownFileLocked(what string, op func() error) error {
	l.busy = true
	l.mu.Unlock()
	err := op()
	l.mu.Lock()
	l.busy = false
	if err != nil && l.poison == nil {
		l.poison = fmt.Errorf("wal: poisoned by failed %s: %w", what, err)
	}
	l.flushed.Broadcast()
	return err
}

// idleLocked waits out the commit in flight and reports why the log can
// take no more work, if it cannot. Called with mu held.
func (l *Log) idleLocked() error {
	for l.busy {
		l.flushed.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	return l.poison
}

// write makes buf durable at the tail. In the steady state that is one
// write over blocks that already exist and one flush; a write that runs
// past them also zero-fills the file up to the next step, so that the
// flushes which follow find nothing but data to write. Called by busy's
// holder.
func (l *Log) write(buf []byte) error {
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	end := l.size.Load() + int64(len(buf))
	if end > l.filled {
		fill := end - end%fillStep + fillStep
		if _, err := l.f.Write(zeros[:fill-end]); err != nil {
			return err
		}
		if _, err := l.f.Seek(end, io.SeekStart); err != nil {
			return err
		}
		l.filled = fill
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.size.Store(end)
	return nil
}

// rewind starts the cycle salted salt: once the header carrying it is
// durable no frame written before it can be read again, and the tail is
// back at the first frame with every block still in place. Called by
// busy's holder.
func (l *Log) rewind(salt uint32) error {
	var hdr [headerSize]byte
	copy(hdr[:], headerMagic[:])
	binary.LittleEndian.PutUint16(hdr[6:], walVersion)
	binary.LittleEndian.PutUint32(hdr[8:], salt)
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := l.f.Write(hdr[:]); err != nil { // leaves the offset at the first frame
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.size.Store(headerSize)
	return nil
}

// trim cuts the file off at the tail. Called by busy's holder.
func (l *Log) trim() error {
	l.filled = l.size.Load()
	return l.f.Truncate(l.filled)
}

// Checkpoint rewinds the log to its header. The caller must already
// have made every logged record durable elsewhere (the open segment
// fsynced) — including records still waiting in the current batch, whose
// waiters are completed successfully without touching disk since their
// bytes are durable via the segment.
func (l *Log) Checkpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.idleLocked(); err != nil {
		return err
	}
	if b := l.cur; b != nil {
		l.cur = nil
		l.completeLocked(b, nil)
	}
	// Frames enqueued from here on belong to the new cycle.
	salt := newSalt(l.salt)
	l.salt = salt
	return l.ownFileLocked("checkpoint", func() error { return l.rewind(salt) })
}

// Trim gives the blocks past the tail back to the filesystem, so that a
// log with nothing to protect occupies only what it holds: right after
// a checkpoint, its header. The blocks come back, zero-filled a step at
// a time, as appends resume.
func (l *Log) Trim() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.idleLocked(); err != nil {
		return err
	}
	return l.ownFileLocked("trim", l.trim)
}

// Close flushes any queued batch, trims the file to its tail, and
// closes it. Records that were enqueued but never flushed get the
// flush's error through their wait functions.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	for l.busy || l.cur != nil {
		if l.busy {
			l.flushed.Wait()
		} else {
			l.commitLocked()
		}
	}
	// Nothing can take the file from here: the log refuses all work.
	if l.poison == nil {
		_ = l.trim() // the space is all a failure here would cost
	}
	return l.f.Close()
}

// Remove deletes the log file; used when a collection is switched to a
// mode that does not use the WAL. Call only after Close.
func (l *Log) Remove() error {
	err := l.fs.Remove(l.path)
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}
