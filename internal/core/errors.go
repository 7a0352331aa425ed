package core

import (
	"errors"
	"fmt"
)

// Errno is the compact error code carried by the wire protocol.
type Errno uint16

// Wire error codes.
const (
	EOK Errno = iota
	EIO
	EBADF
	ENOENT
	EINVAL
	ENOSPC
	ECLOSED
	EEXIST
)

func (e Errno) Error() string {
	switch e {
	case EOK:
		return "ok"
	case EIO:
		return "I/O error"
	case EBADF:
		return "bad descriptor"
	case ENOENT:
		return "no such file"
	case EINVAL:
		return "invalid argument"
	case ENOSPC:
		return "no space"
	case ECLOSED:
		return "connection closed"
	case EEXIST:
		return "already exists"
	}
	return fmt.Sprintf("errno(%d)", uint16(e))
}

// Typed client-side failure roots. They are wrapped (with the underlying
// cause) into the errors the Client returns, so callers can classify
// failures with errors.Is without string matching.
var (
	// ErrConnectionLost reports that the transport failed while the
	// operation was in flight (or before it could be sent) and the
	// operation was not safely replayable. Whether the server executed it
	// is unknown.
	ErrConnectionLost = errors.New("core: connection lost")
	// ErrClientClosed reports that the Client was closed locally by Close.
	ErrClientClosed = errors.New("core: client closed")
	// ErrOpTimeout reports that a per-operation deadline (ClientConfig.Timeout)
	// expired before the response arrived. The operation may still execute
	// on the server; only idempotent positional operations should be
	// reissued.
	ErrOpTimeout = errors.New("core: operation deadline exceeded")
)

// toErrno maps a backend error onto a wire code.
func toErrno(err error) Errno {
	if err == nil {
		return EOK
	}
	var e Errno
	if errors.As(err, &e) {
		return e
	}
	return EIO
}

// DeferredError reports that a previously staged operation on a descriptor
// failed; it is surfaced by a later operation, exactly as the paper's
// descriptor database does ("Errors are passed to the application on
// subsequent operations on the descriptor").
type DeferredError struct {
	// FD is the descriptor the failed operation was staged on.
	FD uint64
	// Op is the operation counter of the failed staged operation.
	Op uint64
	// Err is the failure.
	Err error
}

func (d *DeferredError) Error() string {
	return fmt.Sprintf("deferred error from staged op %d on fd %d: %v", d.Op, d.FD, d.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (d *DeferredError) Unwrap() error { return d.Err }
