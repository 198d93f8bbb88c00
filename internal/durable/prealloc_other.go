//go:build !linux

package durable

import (
	"errors"
	"os"
)

// preallocate is Linux-only; elsewhere the WAL appends to a growing file.
func preallocate(*os.File, int64) error { return errors.ErrUnsupported }

func datasync(f *os.File) error { return f.Sync() }
