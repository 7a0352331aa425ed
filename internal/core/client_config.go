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
// the original non-resilient, non-adaptive client exactly.
//
//	cfg := core.ClientConfig{
//		Timeout:           2 * time.Second,
//		MaxRetries:        8,
//		ReconnectAttempts: 8,
//		Window:            core.WindowConfig{Max: 64},
//		Coalesce:          core.CoalesceConfig{MaxBytes: 1 << 20},
//	}
//	c, err := cfg.Dial(ctx, "tcp", addr)
type ClientConfig struct {
	// Timeout bounds every operation end to end, including EAGAIN retries
	// and reconnect waits. It composes with the caller's context: the op
	// fails when either expires. 0 disables the per-op deadline.
	Timeout time.Duration

	// MaxRetries is how many times an EAGAIN-shed retryable operation is
	// reissued before the shed is surfaced to the caller.
	MaxRetries int
	// RetryBase and RetryMax shape the jittered exponential backoff between
	// EAGAIN retries and reconnect attempts (base doubling per attempt,
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

	// Seed fixes the jitter RNG so chaos runs replay the same backoff
	// schedule. 0 takes the default seed 1.
	Seed int64

	// Metrics, when non-nil, registers the client's counters
	// (iofwd_retries_total, ...) and — with the window enabled — the
	// congestion metrics (iofwd_client_cwnd, iofwd_client_rtt_ns,
	// iofwd_cwnd_decreases_total, iofwd_coalesced_writes_total) on reg.
	Metrics *telemetry.Registry

	// Window configures the adaptive in-flight congestion window; the zero
	// value disables congestion control (legacy unbounded admission).
	Window WindowConfig

	// Coalesce configures client-side write coalescing; the zero value
	// disables it. Coalescing requires Window.Max > 0: merging keys off the
	// window being full.
	Coalesce CoalesceConfig
}

// WindowConfig tunes the AIMD in-flight window that gates operation
// admission. The window grows by one slot per clean RTT (slow start below
// ssthresh, then additive increase) and shrinks multiplicatively by Beta on
// a congestion signal — an EAGAIN shed or an op timeout — at most once per
// round trip, so one burst of sheds costs one decrease, not a collapse.
type WindowConfig struct {
	// Max is the window ceiling in concurrent in-flight operations.
	// 0 disables congestion control entirely.
	Max int
	// Initial is the starting window. 0 takes the default of 1 (slow start
	// reaches capacity within log2(capacity) round trips).
	Initial int
	// Beta is the multiplicative decrease factor in (0, 1). 0 takes the
	// default 0.5.
	Beta float64
}

// CoalesceConfig tunes client-side write coalescing: when the congestion
// window is full, adjacent same-descriptor positional writes are merged
// into one wire operation — the client-side half of the paper's §IV
// aggregation argument. Each merged frame occupies one window slot and one
// round trip; completion is split back onto the constituent writes on ack.
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
	DefaultWindowBeta     = 0.5
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
	if cfg.MaxRetries < 0 {
		return fmt.Errorf("%w: ClientConfig.MaxRetries %d is negative", EINVAL, cfg.MaxRetries)
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
	if cfg.Window.Initial < 0 {
		return fmt.Errorf("%w: WindowConfig.Initial %d is negative", EINVAL, cfg.Window.Initial)
	}
	if cfg.Window.Initial > cfg.Window.Max {
		return fmt.Errorf("%w: WindowConfig.Initial %d exceeds Max %d", EINVAL, cfg.Window.Initial, cfg.Window.Max)
	}
	if cfg.Window.Beta != 0 && (cfg.Window.Beta <= 0 || cfg.Window.Beta >= 1) {
		return fmt.Errorf("%w: WindowConfig.Beta %v is outside (0, 1)", EINVAL, cfg.Window.Beta)
	}
	if cfg.Coalesce.MaxBytes < 0 {
		return fmt.Errorf("%w: CoalesceConfig.MaxBytes %d is negative", EINVAL, cfg.Coalesce.MaxBytes)
	}
	if cfg.Coalesce.MaxBytes > MaxPayload {
		return fmt.Errorf("%w: CoalesceConfig.MaxBytes %d exceeds MaxPayload %d", EINVAL, cfg.Coalesce.MaxBytes, MaxPayload)
	}
	if cfg.Coalesce.MaxBytes > 0 && cfg.Window.Max == 0 {
		return fmt.Errorf("%w: CoalesceConfig.MaxBytes set without WindowConfig.Max; coalescing keys off the congestion window being full", EINVAL)
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
	if cfg.Window.Max > 0 {
		if cfg.Window.Initial == 0 {
			cfg.Window.Initial = 1
		}
		if cfg.Window.Beta == 0 {
			cfg.Window.Beta = DefaultWindowBeta
		}
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
