// Package faultfs abstracts the filesystem operations of the durable
// write path — file creation, writes, fsync, rename, directory fsync —
// behind an interface with two implementations: OS, a passthrough to the
// real filesystem, and Sim, a fault-injecting shadow that can fail the
// Nth fsync, tear a write at a byte offset, drop a rename, or "kill the
// process" at a scripted step and then materialize exactly the bytes a
// real crash would have preserved.
//
// internal/collection routes every durability decision through an FS, so the crash-recovery code that normally only runs
// after a power failure is exercised deterministically in tests: a
// scripted Sim drives the write path into a specific failure, Crash
// rolls the directory back to its durable image, and reopening proves
// the recovery invariants (acknowledged appends survive, torn tails are
// invisible).
package faultfs

import (
	"io"
	"os"
	"path/filepath"
)

// FS is the slice of filesystem surface the durable write path uses.
// Implementations must be safe for concurrent use.
type FS interface {
	// OpenFile is os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename is os.Rename.
	Rename(oldpath, newpath string) error
	// Remove is os.Remove.
	Remove(name string) error
	// RemoveAll is os.RemoveAll.
	RemoveAll(path string) error
	// Truncate is os.Truncate.
	Truncate(name string, size int64) error
	// ReadFile is os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// WriteFile is os.WriteFile.
	WriteFile(name string, data []byte, perm os.FileMode) error
	// Stat is os.Stat.
	Stat(name string) (os.FileInfo, error)
	// ReadDir is os.ReadDir.
	ReadDir(name string) ([]os.DirEntry, error)
	// SyncDir fsyncs directory dir so renames and creates inside it
	// survive a crash. On platforms where directory fsync is expected to
	// work (unix) errors are returned to the caller, except for an
	// explicit unsupported-filesystem allowlist (EINVAL, ENOTSUP,
	// ENOTTY) where the sync is silently best-effort.
	SyncDir(dir string) error
}

// File is one open handle of an FS.
type File interface {
	io.Writer
	io.ReaderAt
	io.Seeker
	io.Closer
	// Sync makes every byte written so far durable before it returns
	// without error. Timestamps may lag: OS files flush with fdatasync
	// where the platform has it (Linux), fsync elsewhere.
	Sync() error
	// Truncate is os.File.Truncate.
	Truncate(size int64) error
	// Stat is os.File.Stat.
	Stat() (os.FileInfo, error)
	// Name returns the path the file was opened with.
	Name() string
	// Sys returns the underlying *os.File for capabilities that need a
	// real descriptor (memory mapping), or nil when the handle is
	// intercepted and has no stable OS-level identity. Callers must
	// treat nil as "capability unavailable", never as an error.
	Sys() *os.File
}

// WriteFileAtomic publishes data at path via tmp+fsync+rename+dir-fsync
// — what every manifest and dictionary file in the repository goes
// through: a crash at any point leaves either the previous file or the
// new one, never a torn one.
func WriteFileAtomic(fs FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = fs.Remove(tmp)
		return err
	}
	return Publish(fs, f, path)
}

// Publish makes the completely written temporary file f appear at path,
// durably: fsync, close, rename, directory fsync — the repository's one
// publish sequence. f is closed on every path and removed when it did not
// become path. A directory-fsync failure propagates (the rename may not
// be durable); only FS implementations downgrade a genuinely unsupported
// dir fsync to best-effort.
//
//rlz:publishes
func Publish(fs FS, f File, path string) error {
	tmp := f.Name()
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// OS is the passthrough FS over the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) RemoveAll(path string) error          { return os.RemoveAll(path) }
func (osFS) Truncate(name string, size int64) error {
	return os.Truncate(name, size)
}
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) Stat(name string) (os.FileInfo, error)      { return os.Stat(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// SyncDir fsyncs a directory so a just-renamed file survives a crash.
// A directory fsync failing is a real durability loss on platforms where
// it is expected to work: the error is returned, and only the explicit
// unsupported allowlist (EINVAL and friends on filesystems that reject
// directory fsync, or platforms without the concept) downgrades to
// best-effort.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && dirSyncUnsupported(err) {
		return nil
	}
	return err
}

type osFile struct {
	f *os.File
	syncer
}

func (o *osFile) Write(p []byte) (int, error)             { return o.f.Write(p) }
func (o *osFile) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }
func (o *osFile) Seek(off int64, whence int) (int64, error) {
	return o.f.Seek(off, whence)
}
func (o *osFile) Close() error               { return o.f.Close() }
func (o *osFile) Sync() error                { return o.sync(o.f) }
func (o *osFile) Truncate(size int64) error  { return o.f.Truncate(size) }
func (o *osFile) Stat() (os.FileInfo, error) { return o.f.Stat() }
func (o *osFile) Name() string               { return o.f.Name() }
func (o *osFile) Sys() *os.File              { return o.f }
