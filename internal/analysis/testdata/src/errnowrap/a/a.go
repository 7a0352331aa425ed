// Package a is the errnowrap fixture: errors built inside functions must
// be Errno-typed or wrap a typed root with %w; package-level typed root
// declarations are the only legitimate errors.New calls.
package a

import (
	"errors"
	"fmt"
)

// Errno mimics the wire error code type.
type Errno uint16

func (e Errno) Error() string { return "errno" }

// EIO mimics a wire code.
const EIO Errno = 1

// ErrRoot is a typed root: package-level errors.New is the declaration
// pattern, not a wire path, and is not flagged.
var ErrRoot = errors.New("a: typed root")

func wrapped(err error) error {
	if err != nil {
		return fmt.Errorf("%w: backend failed: %v", EIO, err) // classifiable: fine
	}
	return fmt.Errorf("%w: gave up", ErrRoot) // wraps a typed root: fine
}

func naked() error {
	return errors.New("ad hoc failure") // want "errors.New on a core error path"
}

func cutChain(n int) error {
	return fmt.Errorf("oversized frame %d", n) // want "fmt.Errorf without %w on a core error path"
}

func swallowed(err error) error {
	return fmt.Errorf("backend said: %v", err) // want "fmt.Errorf without %w on a core error path"
}

func allowed(n int) error {
	//lint:allow errnowrap config parse error, reported to the operator and never encoded onto the wire
	return fmt.Errorf("bad spec element %d", n)
}
