package core

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/telemetry"
)

// ClientConfig is the validated, context-aware configuration for a Client,
// and the only way to construct one: build a config, Validate it (or let
// Dial/Client do it), and every tunable is a named field. The zero value is
// the plain client: no deadline, no failover, no in-flight cap.
//
//	cfg := core.ClientConfig{
//		Timeout:           2 * time.Second,
//		ReconnectAttempts: 8,
//		Window:            core.WindowConfig{Max: 64},
//		Coalesce:          core.CoalesceConfig{MaxBytes: 1 << 20},
//	}
//	c, err := cfg.Dial(ctx, "tcp", addr)
type ClientConfig struct {
	// Timeout bounds every operation end to end, including reconnect
	// waits. It composes with the caller's context: the op
	// fails when either expires. 0 disables the per-op deadline.
	Timeout time.Duration

	// RetryBase and RetryMax shape the jittered exponential backoff between
	// reconnect attempts, and nothing else (base doubling per attempt,
	// capped at RetryMax). Zero values take the defaults (5ms / 250ms).
	RetryBase time.Duration
	RetryMax  time.Duration

	// ReconnectAttempts enables transport failover: up to this many redial
	// attempts per outage, re-opening descriptors and replaying idempotent
	// in-flight operations. 0 disables failover.
	ReconnectAttempts int
	// Redial obtains a replacement connection after a transport failure.
	// Dial installs one to the original address automatically; Client (from
	// an established conn) needs an explicit Redial for failover to work.
	Redial func() (net.Conn, error)

	// Seed fixes the jitter RNG of the reconnect backoff, so chaos runs
	// replay the same schedule. 0 takes the default seed 1.
	Seed int64

	// Metrics, when non-nil, registers the client's counters
	// (iofwd_reconnects_total, ...) on reg, plus iofwd_coalesced_writes_total
	// when Window.Max is set.
	Metrics *telemetry.Registry

	// Window caps the operations in flight; the zero value leaves admission
	// unbounded.
	Window WindowConfig

	// Coalesce configures client-side write coalescing; the zero value
	// disables it. Coalescing requires Window.Max > 0: merging keys off the
	// cap being full.
	Coalesce CoalesceConfig
}

// WindowConfig caps the client's in-flight operations. An operation takes a
// slot before it is sent and returns it when its response or deadline
// arrives; a caller that finds every slot taken waits, first come first
// served. The cap is fixed: the server's back-pressure (a reply that waits
// for the backend or for staging memory) does the admission control.
type WindowConfig struct {
	// Max is the number of operations that may be in flight at once.
	// 0 disables the cap.
	Max int
}

// CoalesceConfig tunes client-side write coalescing: while the in-flight
// cap is full, adjacent same-descriptor positional writes are merged into
// one wire operation — the client-side half of the paper's §IV aggregation
// argument. Each merged frame occupies one slot and one round trip;
// completion is split back onto the constituent writes on ack.
type CoalesceConfig struct {
	// MaxBytes caps a merged frame's payload. 0 disables coalescing;
	// values above MaxPayload are invalid.
	MaxBytes int
	// MaxOps caps how many writes merge into one frame. 0 takes the
	// default 16.
	MaxOps int
	// Linger is how long an open buffer waits for adjacent writes to pile
	// on before it is sealed and sent. 0 takes the default 500µs; it must
	// stay under a second — a linger is a pipeline pause, not a deadline.
	Linger time.Duration
}

// Defaults applied by normalized(); exported so callers can reference the
// same numbers.
const (
	DefaultRetryBase      = 5 * time.Millisecond
	DefaultRetryMax       = 250 * time.Millisecond
	DefaultCoalesceOps    = 16
	DefaultCoalesceLinger = 500 * time.Microsecond
)

// Validate checks the configuration and returns an EINVAL-wrapped error
// describing the first problem found. Dial and Client call it; callers
// constructing configs from external input should call it directly for
// early, classifiable failures.
func (cfg *ClientConfig) Validate() error {
	if cfg.Timeout < 0 {
		return fmt.Errorf("%w: ClientConfig.Timeout %v is negative", EINVAL, cfg.Timeout)
	}
	if cfg.RetryBase < 0 || cfg.RetryMax < 0 {
		return fmt.Errorf("%w: ClientConfig retry backoff (%v, %v) is negative", EINVAL, cfg.RetryBase, cfg.RetryMax)
	}
	if cfg.RetryBase > 0 && cfg.RetryMax > 0 && cfg.RetryMax < cfg.RetryBase {
		return fmt.Errorf("%w: ClientConfig.RetryMax %v is below RetryBase %v", EINVAL, cfg.RetryMax, cfg.RetryBase)
	}
	if cfg.ReconnectAttempts < 0 {
		return fmt.Errorf("%w: ClientConfig.ReconnectAttempts %d is negative", EINVAL, cfg.ReconnectAttempts)
	}
	if cfg.Window.Max < 0 {
		return fmt.Errorf("%w: WindowConfig.Max %d is negative", EINVAL, cfg.Window.Max)
	}
	if cfg.Coalesce.MaxBytes < 0 {
		return fmt.Errorf("%w: CoalesceConfig.MaxBytes %d is negative", EINVAL, cfg.Coalesce.MaxBytes)
	}
	if cfg.Coalesce.MaxBytes > MaxPayload {
		return fmt.Errorf("%w: CoalesceConfig.MaxBytes %d exceeds MaxPayload %d", EINVAL, cfg.Coalesce.MaxBytes, MaxPayload)
	}
	if cfg.Coalesce.MaxBytes > 0 && cfg.Window.Max == 0 {
		return fmt.Errorf("%w: CoalesceConfig.MaxBytes set without WindowConfig.Max; coalescing keys off the in-flight cap being full", EINVAL)
	}
	if cfg.Coalesce.MaxOps < 0 {
		return fmt.Errorf("%w: CoalesceConfig.MaxOps %d is negative", EINVAL, cfg.Coalesce.MaxOps)
	}
	if cfg.Coalesce.Linger < 0 || cfg.Coalesce.Linger >= time.Second {
		return fmt.Errorf("%w: CoalesceConfig.Linger %v is outside [0, 1s)", EINVAL, cfg.Coalesce.Linger)
	}
	return nil
}

// normalized returns a copy with defaults applied. Validation has already
// accepted the config.
func (cfg ClientConfig) normalized() ClientConfig {
	if cfg.RetryBase == 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = DefaultRetryMax
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Redial != nil && cfg.ReconnectAttempts <= 0 {
		cfg.ReconnectAttempts = 8
	}
	if cfg.Coalesce.MaxBytes > 0 {
		if cfg.Coalesce.MaxOps == 0 {
			cfg.Coalesce.MaxOps = DefaultCoalesceOps
		}
		if cfg.Coalesce.Linger == 0 {
			cfg.Coalesce.Linger = DefaultCoalesceLinger
		}
	}
	return cfg
}

// Dial validates the config, connects to a forwarding server (honoring
// ctx for the dial itself), and returns the configured Client. When
// ReconnectAttempts > 0 and no Redial is supplied, a redialer to the same
// address is installed automatically.
func (cfg ClientConfig) Dial(ctx context.Context, network, addr string) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var d net.Dialer
	nc, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	if cfg.ReconnectAttempts > 0 && cfg.Redial == nil {
		cfg.Redial = func() (net.Conn, error) {
			return net.Dial(network, addr)
		}
	}
	return cfg.newClient(nc), nil
}

// Client validates the config and wraps an established connection (TCP,
// Unix socket, or one end of a net.Pipe).
func (cfg ClientConfig) Client(nc net.Conn) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg.newClient(nc), nil
}
