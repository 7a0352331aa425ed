// Package wal is the errnowrap fixture for the spill tier: WAL I/O
// failures surface to clients through descdb deferred errors and fsync
// replies, so every error built on those paths must wrap EIO (or a wal
// typed root) with %w — otherwise toErrno and errors.Is degrade it to an
// unclassifiable failure.
package wal

import (
	"errors"
	"fmt"
)

// Errno mimics core's wire error code type.
type Errno uint16

func (e Errno) Error() string { return "errno" }

// EIO mimics core.EIO, the classification WAL I/O errors must carry.
const EIO Errno = 5

// ErrTorn is a typed root: package-level errors.New is the declaration
// pattern, not a wire path, and is not flagged.
var ErrTorn = errors.New("wal: torn frame")

func appendFrame(err error) error {
	if err != nil {
		return fmt.Errorf("%w: wal append: %v", EIO, err) // classifiable: fine
	}
	return nil
}

func scanTail(off int64) error {
	return fmt.Errorf("%w at offset %d", ErrTorn, off) // wraps a typed root: fine
}

func badSegmentName(name string) error {
	return errors.New("unparseable segment " + name) // want "errors.New on a core error path"
}

func crcMismatch(got, want uint32) error {
	return fmt.Errorf("crc mismatch: got %#x want %#x", got, want) // want "fmt.Errorf without %w on a core error path"
}

func drainFailed(err error) error {
	return fmt.Errorf("replay to backend: %v", err) // want "fmt.Errorf without %w on a core error path"
}
