package durable

import (
	"os"
	"syscall"
)

// preallocate extends f to size bytes of allocated, zero-reading blocks.
// (FALLOC_FL_KEEP_SIZE would leave i_size to grow with every append and
// the barrier journalling it: measured, it buys nothing.)
func preallocate(f *os.File, size int64) error {
	for {
		err := syscall.Fallocate(int(f.Fd()), 0, 0, size)
		if err != syscall.EINTR {
			return err
		}
	}
}

// datasync is the commit barrier's flush: the records, plus only the
// metadata needed to read them back — none, in a preallocated segment.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return err
		}
	}
}
