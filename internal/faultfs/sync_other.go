//go:build !linux

package faultfs

import "os"

// syncer flushes a file with fsync: fdatasync is not portable, and fsync
// makes durable everything fdatasync does.
type syncer struct{}

func (*syncer) sync(f *os.File) error { return f.Sync() }
