//go:build !linux

package faultfs

import "os"

// syncFile flushes f with fsync: fdatasync is not portable, and fsync
// makes durable everything fdatasync does.
func syncFile(f *os.File) error { return f.Sync() }
