// Package fault wraps a core.Backend with deterministic, seeded fault
// injection — the failure-testing layer DESIGN.md §8 calls for. It can
// inject transient I/O errors, added latency, long stalls, short
// reads/writes, and worker panics, with per-kind probabilities drawn from a
// single seeded schedule so chaos runs are reproducible.
//
// The injected failures model what the paper's hardware hid: a GPFS mount
// hiccuping under load, a congested external link, a wedged file server,
// and plain software bugs in the backend.
package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Config selects what to inject. All rates are probabilities in [0, 1]
// evaluated independently per data operation, drawn in a fixed order from
// one seeded RNG, so a given (Seed, op sequence) pair always yields the
// same fault schedule.
type Config struct {
	// Seed fixes the injection schedule; 0 means seed 1.
	Seed int64
	// ErrRate is the probability a data op fails with EIO.
	ErrRate float64
	// LatencyRate is the probability Latency is added to a data op.
	LatencyRate float64
	// Latency is the added delay for latency faults.
	Latency time.Duration
	// StallRate is the probability a data op hangs for Stall.
	StallRate float64
	// Stall is the hang duration for stall faults.
	Stall time.Duration
	// ShortRate is the probability a data op moves only half its bytes
	// (short writes also fail with EIO after the partial transfer, per the
	// WriteAt contract).
	ShortRate float64
	// PanicEvery makes every Nth data op panic (0 disables) — the worker
	// panic-recovery drill.
	PanicEvery uint64
	// OpenErrRate is the probability Open fails with EIO.
	OpenErrRate float64
	// From arms the faults only once the 0-based data-op index reaches it.
	// The rates are still drawn for every op, so the schedule stays a pure
	// function of (Seed, op index) regardless of the window.
	From uint64
	// Until disarms the faults once the op index reaches it; 0 means no
	// upper bound. Together with From this scripts a deterministic outage
	// window ("ops 10..40 fail") with no wall clock involved.
	Until uint64
}

// Stats counts injected faults by kind.
type Stats struct {
	Ops       uint64
	Errors    uint64
	Latencies uint64
	Stalls    uint64
	Shorts    uint64
	Panics    uint64
	OpenErrs  uint64
}

// Backend wraps an inner core.Backend with fault injection.
type Backend struct {
	inner core.Backend
	cfg   Config

	mu  sync.Mutex
	rng *rand.Rand
	ops uint64

	errs      telemetry.Counter
	latencies telemetry.Counter
	stalls    telemetry.Counter
	shorts    telemetry.Counter
	panics    telemetry.Counter
	openErrs  telemetry.Counter
	opCount   telemetry.Counter
}

// New wraps inner with the given fault configuration.
func New(inner core.Backend, cfg Config) *Backend {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Backend{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Stats returns a snapshot of the injection counters.
func (b *Backend) Stats() Stats {
	return Stats{
		Ops:       b.opCount.Value(),
		Errors:    b.errs.Value(),
		Latencies: b.latencies.Value(),
		Stalls:    b.stalls.Value(),
		Shorts:    b.shorts.Value(),
		Panics:    b.panics.Value(),
		OpenErrs:  b.openErrs.Value(),
	}
}

// Register exports the injection counters on reg as
// iofwd_fault_injected_total{kind=...}. Extra labels distinguish multiple
// chaos backends on one registry (e.g. one per stripe member:
// telemetry.L("member", "2")).
func (b *Backend) Register(reg *telemetry.Registry, extra ...telemetry.Label) {
	k := func(kind string, c *telemetry.Counter) {
		labels := append([]telemetry.Label{telemetry.L("kind", kind)}, extra...)
		reg.MustRegister("iofwd_fault_injected_total",
			"Faults injected by the chaos backend, by kind.", c, labels...)
	}
	k("error", &b.errs)
	k("latency", &b.latencies)
	k("stall", &b.stalls)
	k("short", &b.shorts)
	k("panic", &b.panics)
	k("open_error", &b.openErrs)
	reg.MustRegister("iofwd_fault_ops_total",
		"Data operations that passed through the chaos backend.", &b.opCount, extra...)
}

// verdict is one op's drawn fault plan.
type verdict struct {
	err     bool
	latency bool
	stall   bool
	short   bool
	panicy  bool
}

// decide draws the fault plan for the next data op. Every rate is drawn
// even when zero (and even outside the From/Until window) so the schedule
// depends only on (Seed, op index), not on which faults are enabled.
func (b *Backend) decide() verdict {
	b.mu.Lock()
	defer b.mu.Unlock()
	idx := b.ops // 0-based index of the op being decided
	b.ops++
	v := verdict{
		err:     b.rng.Float64() < b.cfg.ErrRate,
		latency: b.rng.Float64() < b.cfg.LatencyRate,
		stall:   b.rng.Float64() < b.cfg.StallRate,
		short:   b.rng.Float64() < b.cfg.ShortRate,
	}
	if b.cfg.PanicEvery > 0 && b.ops%b.cfg.PanicEvery == 0 {
		v.panicy = true
	}
	if !b.armedLocked(idx) {
		return verdict{}
	}
	return v
}

// armedLocked reports whether faults apply at the given 0-based op index.
func (b *Backend) armedLocked(idx uint64) bool {
	if idx < b.cfg.From {
		return false
	}
	if b.cfg.Until > 0 && idx >= b.cfg.Until {
		return false
	}
	return true
}

// Open implements core.Backend.
func (b *Backend) Open(name string, create bool) (core.Handle, error) {
	if b.cfg.OpenErrRate > 0 {
		b.mu.Lock()
		fail := b.rng.Float64() < b.cfg.OpenErrRate
		fail = fail && b.armedLocked(b.ops)
		b.mu.Unlock()
		if fail {
			b.openErrs.Inc()
			return nil, fmt.Errorf("%w: injected open fault", core.EIO)
		}
	}
	h, err := b.inner.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &handle{b: b, inner: h}, nil
}

type handle struct {
	b     *Backend
	inner core.Handle
}

// before applies the drawn plan's delays and panic, returning the plan for
// the data-path decision.
func (h *handle) before() verdict {
	b := h.b
	b.opCount.Inc()
	v := b.decide()
	if v.latency && b.cfg.Latency > 0 {
		b.latencies.Inc()
		//lint:allow simclock injecting real wall-clock latency into the real server path is this backend's purpose; the *schedule* stays a pure function of (seed, op index)
		time.Sleep(b.cfg.Latency)
	}
	if v.stall && b.cfg.Stall > 0 {
		b.stalls.Inc()
		//lint:allow simclock injecting a real wall-clock stall into the real server path is this backend's purpose; the *schedule* stays a pure function of (seed, op index)
		time.Sleep(b.cfg.Stall)
	}
	if v.panicy {
		b.panics.Inc()
		panic(fmt.Sprintf("fault: injected backend panic (op %d)", b.ops))
	}
	return v
}

func (h *handle) WriteAt(p []byte, off int64) (int, error) {
	v := h.before()
	if v.err {
		h.b.errs.Inc()
		return 0, fmt.Errorf("%w: injected write fault", core.EIO)
	}
	if v.short && len(p) > 1 {
		h.b.shorts.Inc()
		n, err := h.inner.WriteAt(p[:len(p)/2], off)
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: injected short write (%d of %d bytes)", core.EIO, n, len(p))
	}
	return h.inner.WriteAt(p, off)
}

func (h *handle) ReadAt(p []byte, off int64) (int, error) {
	v := h.before()
	if v.err {
		h.b.errs.Inc()
		return 0, fmt.Errorf("%w: injected read fault", core.EIO)
	}
	if v.short && len(p) > 1 {
		h.b.shorts.Inc()
		return h.inner.ReadAt(p[:len(p)/2], off)
	}
	return h.inner.ReadAt(p, off)
}

func (h *handle) Sync() error          { return h.inner.Sync() }
func (h *handle) Size() (int64, error) { return h.inner.Size() }
func (h *handle) Close() error         { return h.inner.Close() }

// Parse builds a Config from a compact flag spec, e.g.
//
//	err=0.01,lat=0.05:5ms,stall=0.001:250ms,short=0.005,panic=1000,openerr=0.01,seed=42
//
// Each field is optional; rates are floats in [0,1], durations use Go
// syntax, panic is an every-Nth count, seed is an integer.
func Parse(spec string) (Config, error) {
	var cfg Config
	if spec == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, fmt.Errorf("fault: bad spec element %q (want key=value)", part)
		}
		rate := func(s string) (float64, error) {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil || !(f >= 0 && f <= 1) { // NaN fails both comparisons
				return 0, fmt.Errorf("fault: %s wants a rate in [0,1], got %q", key, s)
			}
			return f, nil
		}
		var err error
		switch key {
		case "err", "eio":
			cfg.ErrRate, err = rate(val)
		case "lat":
			cfg.LatencyRate, cfg.Latency, err = rateDuration(key, val, 2*time.Millisecond)
		case "stall":
			cfg.StallRate, cfg.Stall, err = rateDuration(key, val, 250*time.Millisecond)
		case "short":
			cfg.ShortRate, err = rate(val)
		case "openerr":
			cfg.OpenErrRate, err = rate(val)
		case "panic":
			cfg.PanicEvery, err = strconv.ParseUint(val, 10, 64)
		case "from":
			cfg.From, err = strconv.ParseUint(val, 10, 64)
		case "until":
			cfg.Until, err = strconv.ParseUint(val, 10, 64)
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			return cfg, fmt.Errorf("fault: unknown spec key %q", key)
		}
		if err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// ParseMulti builds a base Config plus per-member overrides from a
// ';'-separated spec, e.g.
//
//	seed=7;member=2:eio=0.05,from=10,until=40
//
// Sections without a "member=N:" prefix accumulate into the base config
// (and, via Parse's last-wins key handling, may be split across sections).
// A member section starts from the accumulated base and overlays its own
// fields, so "seed=7" above seeds every member's schedule. Unless a member
// section sets its own seed, each member's RNG is seeded with
// DeriveSeed(base seed, member), so members draw independent schedules
// that are still pure functions of (seed, member, op index).
func ParseMulti(spec string) (Config, map[int]Config, error) {
	var baseParts []string
	type memberPart struct {
		member int
		spec   string
	}
	var memberParts []memberPart
	for _, sec := range strings.Split(spec, ";") {
		sec = strings.TrimSpace(sec)
		if sec == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(sec, "member="); ok {
			ms, body, ok := strings.Cut(rest, ":")
			if !ok {
				return Config{}, nil, fmt.Errorf("fault: member section %q wants member=N:spec", sec)
			}
			m, err := strconv.Atoi(ms)
			if err != nil || m < 0 {
				return Config{}, nil, fmt.Errorf("fault: bad member index %q", ms)
			}
			memberParts = append(memberParts, memberPart{m, body})
			continue
		}
		baseParts = append(baseParts, sec)
	}
	baseSpec := strings.Join(baseParts, ",")
	base, err := Parse(baseSpec)
	if err != nil {
		return Config{}, nil, err
	}
	members := make(map[int]Config)
	for _, mp := range memberParts {
		combined := mp.spec
		if baseSpec != "" {
			combined = baseSpec + "," + mp.spec
		}
		cfg, err := Parse(combined)
		if err != nil {
			return Config{}, nil, fmt.Errorf("fault: member %d: %w", mp.member, err)
		}
		// A member that inherited the base seed gets a derived one, so two
		// members under the same global seed do not mirror each other's
		// schedules. An explicit per-member seed wins.
		memberOwn, err := Parse(mp.spec)
		if err != nil {
			return Config{}, nil, fmt.Errorf("fault: member %d: %w", mp.member, err)
		}
		if memberOwn.Seed == 0 {
			cfg.Seed = DeriveSeed(base.Seed, mp.member)
		}
		if _, dup := members[mp.member]; dup {
			return Config{}, nil, fmt.Errorf("fault: member %d configured twice", mp.member)
		}
		members[mp.member] = cfg
	}
	return base, members, nil
}

// DeriveSeed mixes a base seed with a member index into an independent
// per-member seed (splitmix64 finalizer — a pure function, so a chaos run
// is reproducible from the base seed alone).
func DeriveSeed(seed int64, member int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(member+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z)
	if s == 0 {
		s = 1
	}
	return s
}

// rateDuration parses "rate" or "rate:duration" with a default duration.
func rateDuration(key, val string, def time.Duration) (float64, time.Duration, error) {
	rs, ds, hasDur := strings.Cut(val, ":")
	f, err := strconv.ParseFloat(rs, 64)
	if err != nil || !(f >= 0 && f <= 1) { // NaN fails both comparisons
		return 0, 0, fmt.Errorf("fault: %s wants rate[:duration], got %q", key, val)
	}
	d := def
	if hasDur {
		d, err = time.ParseDuration(ds)
		if err != nil {
			return 0, 0, fmt.Errorf("fault: %s duration: %v", key, err)
		}
	}
	return f, d, nil
}
