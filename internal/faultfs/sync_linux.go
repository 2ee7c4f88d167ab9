package faultfs

import (
	"os"
	"sync"
	"syscall"
)

// syncer flushes one file with fdatasync(2): the file's data, and its
// metadata only where reading the data back depends on it (the size and
// the block map, not the timestamps). That is File.Sync's contract —
// every byte written so far is durable — at a lower price for a file
// whose blocks already exist, where a flush then has nothing to journal.
//
// The descriptor is reached through the file's RawConn, which holds it
// open for the call, and the function handed to it is bound once: a
// flush allocates nothing. Flushes of one handle take turns.
type syncer struct {
	mu  sync.Mutex
	rc  syscall.RawConn  // guarded by mu; set by the first flush
	fn  func(fd uintptr) // guarded by mu; s.datasync, bound once
	err error            // guarded by mu; fn's result
}

func (s *syncer) sync(f *os.File) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rc == nil {
		rc, err := f.SyscallConn()
		if err != nil {
			return err
		}
		s.rc, s.fn = rc, s.datasync
	}
	if err := s.rc.Control(s.fn); err != nil {
		return err
	}
	if s.err != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: s.err}
	}
	return nil
}

// datasync runs fdatasync on fd, retrying on EINTR. Called with mu held.
func (s *syncer) datasync(fd uintptr) {
	for {
		if s.err = syscall.Fdatasync(int(fd)); s.err != syscall.EINTR {
			return
		}
	}
}
