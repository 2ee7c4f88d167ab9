package faultfs

import (
	"os"
	"syscall"
)

// syncFile flushes f with fdatasync(2): the file's data, and its
// metadata only where reading the data back depends on it (the size and
// the block map, not the timestamps). That is File.Sync's contract —
// every byte written so far is durable — at a lower price for a file
// whose blocks already exist, where a flush then has nothing to journal.
func syncFile(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		for {
			if serr = syscall.Fdatasync(int(fd)); serr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return err
	}
	if serr != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: serr}
	}
	return nil
}
