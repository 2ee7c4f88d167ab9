package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rlz/internal/faultfs"
)

// fileClass groups the write path's files by role.
type fileClass int

const (
	classSeg      fileClass = iota // seg-NNNNNNNN data (open, sealed or compacted)
	classLens                      // seg-NNNNNNNN.lens length sidecar
	classWAL                       // WAL
	classManifest                  // MANIFEST and its .tmp
	classOther                     // dictionary files and anything else
	numClasses
)

var classNames = [numClasses]string{"seg", "lens", "wal", "manifest", "other"}

// classify maps a path inside a collection directory to its class.
func classify(path string) fileClass {
	name := strings.TrimSuffix(filepath.Base(path), ".tmp")
	switch {
	case name == "WAL":
		return classWAL
	case name == "MANIFEST":
		return classManifest
	case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".lens"):
		return classLens
	case strings.HasPrefix(name, "seg-"):
		return classSeg
	}
	return classOther
}

// classCounts is what one file class did, with the duration of every
// call.
type classCounts struct {
	Writes, Syncs int
	Bytes         int64
	writeLat      []time.Duration
	syncLat       []time.Duration
}

// fsCounts is a snapshot of a countingFS.
type fsCounts struct {
	Class             [numClasses]classCounts
	Renames, SyncDirs int
	Removes           int
	MetaTime          time.Duration // Rename + SyncDir + Remove
}

func (c fsCounts) writes() (n int, bytes int64) {
	for _, k := range c.Class {
		n += k.Writes
		bytes += k.Bytes
	}
	return n, bytes
}

func (c fsCounts) syncs() int {
	n := c.SyncDirs
	for _, k := range c.Class {
		n += k.Syncs
	}
	return n
}

// ioTime is the wall time spent inside the filesystem calls counted.
func (c fsCounts) ioTime() time.Duration {
	t := c.MetaTime
	for _, k := range c.Class {
		for _, d := range k.writeLat {
			t += d
		}
		for _, d := range k.syncLat {
			t += d
		}
	}
	return t
}

// countingFS wraps a faultfs.FS and counts and times Write, Sync,
// Rename, Remove and SyncDir per file class. File.Sys passes through,
// so the open segment is still memory-mapped as in production.
type countingFS struct {
	faultfs.FS
	mu sync.Mutex
	c  fsCounts
}

func newCountingFS(inner faultfs.FS) *countingFS { return &countingFS{FS: inner} }

// snapshot returns the counts so far and resets them.
func (fs *countingFS) snapshot() fsCounts {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	c := fs.c
	fs.c = fsCounts{}
	return c
}

func (fs *countingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: fs, class: classify(name)}, nil
}

func (fs *countingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	t := time.Now()
	err := fs.FS.WriteFile(name, data, perm)
	fs.wrote(classify(name), len(data), time.Since(t))
	return err
}

func (fs *countingFS) meta(counter *int, op func() error) error {
	t := time.Now()
	err := op()
	d := time.Since(t)
	fs.mu.Lock()
	*counter++
	fs.c.MetaTime += d
	fs.mu.Unlock()
	return err
}

func (fs *countingFS) Rename(oldpath, newpath string) error {
	return fs.meta(&fs.c.Renames, func() error { return fs.FS.Rename(oldpath, newpath) })
}

func (fs *countingFS) Remove(name string) error {
	return fs.meta(&fs.c.Removes, func() error { return fs.FS.Remove(name) })
}

func (fs *countingFS) SyncDir(dir string) error {
	return fs.meta(&fs.c.SyncDirs, func() error { return fs.FS.SyncDir(dir) })
}

func (fs *countingFS) wrote(class fileClass, n int, d time.Duration) {
	fs.mu.Lock()
	k := &fs.c.Class[class]
	k.Writes++
	k.Bytes += int64(n)
	k.writeLat = append(k.writeLat, d)
	fs.mu.Unlock()
}

type countingFile struct {
	faultfs.File
	fs    *countingFS
	class fileClass
}

func (f *countingFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	f.fs.wrote(f.class, n, time.Since(t))
	return n, err
}

func (f *countingFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	d := time.Since(t)
	f.fs.mu.Lock()
	k := &f.fs.c.Class[f.class]
	k.Syncs++
	k.syncLat = append(k.syncLat, d)
	f.fs.mu.Unlock()
	return err
}
