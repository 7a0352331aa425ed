package stripetier

import (
	"math"
	"sync"
	"sync/atomic"
)

// State is one member's position in the ejection state machine.
type State int32

// Member states. The exported values double as the value of the
// iofwd_stripe_member_state gauge.
const (
	// StateHealthy members receive normal traffic.
	StateHealthy State = iota
	// StateHalfOpen members receive one probe operation at a time; enough
	// consecutive successes re-admit them, any failure re-ejects them with a
	// doubled backoff.
	StateHalfOpen
	// StateEjected members receive no traffic until their backoff (measured
	// in observed operations, not wall time) elapses.
	StateEjected
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateHalfOpen:
		return "half_open"
	case StateEjected:
		return "ejected"
	}
	return "unknown"
}

// HealthConfig tunes the per-member ejection state machine. Every duration
// in it is a count of observed operation results (the tier's logical
// clock), never wall time: a tier that stops receiving traffic stops
// aging, which keeps chaos tests deterministic and replayable.
type HealthConfig struct {
	// MaxConsecutiveErrs ejects a member after this many back-to-back
	// failures (default 5).
	MaxConsecutiveErrs int
	// WindowOps is the sliding window (in results) for the error-rate
	// trip, capped at 256 (default 64).
	WindowOps int
	// MaxErrorRate ejects a member whose windowed error rate reaches this
	// fraction (default 0.5).
	MaxErrorRate float64
	// MinWindowSamples is the minimum window population before the rate
	// trip can fire, so one early error cannot eject a member (default 16).
	MinWindowSamples int
	// ProbeBackoffOps is the logical delay (observed results, tier-wide)
	// before an ejected member becomes half-open (default 256). Each
	// re-ejection doubles the member's current backoff up to
	// MaxProbeBackoffOps.
	ProbeBackoffOps int64
	// MaxProbeBackoffOps caps the doubled backoff (default 8192).
	MaxProbeBackoffOps int64
	// ProbeSuccesses is how many consecutive successful probes re-admit a
	// half-open member (default 3).
	ProbeSuccesses int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.MaxConsecutiveErrs <= 0 {
		c.MaxConsecutiveErrs = 5
	}
	if c.WindowOps <= 0 {
		c.WindowOps = 64
	}
	if c.WindowOps > 256 {
		c.WindowOps = 256
	}
	if c.MaxErrorRate <= 0 {
		c.MaxErrorRate = 0.5
	}
	if c.MinWindowSamples <= 0 {
		c.MinWindowSamples = 16
	}
	if c.ProbeBackoffOps <= 0 {
		c.ProbeBackoffOps = 256
	}
	if c.MaxProbeBackoffOps <= 0 {
		c.MaxProbeBackoffOps = 8192
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 3
	}
	return c
}

// transition is an observable state-machine event, reported to the tier so
// it can update gauges and kick the repair loop.
type transition int

const (
	transNone transition = iota
	transEjected
	transHalfOpen
	transReadmitted
)

// memberHealth is one member's tracker state, guarded by its own mutex so
// members never contend with each other.
type memberHealth struct {
	mu     sync.Mutex
	state  State
	consec int
	// window is a ring of recent results (true = error).
	window  []bool
	winIdx  int
	winLen  int
	winErrs int
	// reopenAt is the logical tick at which an ejected member turns
	// half-open; backoff is the delay the next ejection will use.
	reopenAt int64
	backoff  int64
	probeOK  int
	probing  bool
	// probeSeq numbers granted probe slots. record only treats a result as
	// the probe's when its token matches, so stragglers — results of ops
	// admitted earlier, while the member was still healthy — can neither
	// release the probe slot nor re-eject a half-open member.
	probeSeq uint64
}

// health tracks every member's state on a shared logical clock.
type health struct {
	cfg HealthConfig
	// tick advances once per observed operation result, across all
	// members: the logical clock every backoff is measured on.
	tick    atomic.Int64
	members []memberHealth
	// due is the earliest armed wake-up on the logical clock not yet
	// reported to onDue (math.MaxInt64 when none): an ejected member's
	// reopenAt, or a tick armed by wakeAt. One atomic load tells record
	// whether the clock just reached it.
	due atomic.Int64
	// onTransition, when non-nil, is called (outside the member lock) for
	// every state change.
	onTransition func(member int, s State, t transition)
	// onDue, when non-nil, is called (outside any member lock) once the
	// clock reaches due.
	onDue func()
}

func newHealth(n int, cfg HealthConfig) *health {
	h := &health{cfg: cfg.withDefaults(), members: make([]memberHealth, n)}
	for i := range h.members {
		h.members[i].window = make([]bool, h.cfg.WindowOps)
		h.members[i].backoff = h.cfg.ProbeBackoffOps
	}
	h.due.Store(math.MaxInt64)
	return h
}

// state returns member m's current state.
func (h *health) state(m int) State {
	mh := &h.members[m]
	mh.mu.Lock()
	defer mh.mu.Unlock()
	return mh.state
}

// allowed reports whether an operation may be routed to member m right
// now, plus a probe token: nonzero when this call was granted the member's
// single half-open probe slot. A true return must be paired with exactly
// one record call carrying the same token — the probe slot is only
// released by the probe's own result, never by a straggling result of an
// op admitted earlier (while the member was still healthy).
func (h *health) allowed(m int) (ok bool, probe uint64) {
	mh := &h.members[m]
	mh.mu.Lock()
	var tr transition
	switch mh.state {
	case StateHealthy:
		ok = true
	case StateEjected:
		if h.tick.Load() >= mh.reopenAt {
			mh.state = StateHalfOpen
			mh.probeOK = 0
			mh.probing = true
			mh.probeSeq++
			probe = mh.probeSeq
			tr = transHalfOpen
			ok = true
		}
	case StateHalfOpen:
		if !mh.probing {
			mh.probing = true
			mh.probeSeq++
			probe = mh.probeSeq
			ok = true
		}
	}
	mh.mu.Unlock()
	if tr != transNone && h.onTransition != nil {
		h.onTransition(m, StateHalfOpen, tr)
	}
	return ok, probe
}

// record feeds one observed operation result for member m into the state
// machine and advances the logical clock. probe is the token allowed
// returned for this op (zero for ops admitted outside a probe slot). It
// returns the transition the result caused, if any.
func (h *health) record(m int, opOK bool, probe uint64) transition {
	now := h.tick.Add(1)
	mh := &h.members[m]
	mh.mu.Lock()
	// Only the outstanding probe's own result drives the half-open state:
	// stragglers update the window but cannot release the probe slot,
	// count toward probe successes, or re-eject the member.
	isProbe := probe != 0 && mh.probing && probe == mh.probeSeq
	if isProbe {
		mh.probing = false
	}
	// Slide the window.
	if mh.winLen == len(mh.window) {
		if mh.window[mh.winIdx] {
			mh.winErrs--
		}
	} else {
		mh.winLen++
	}
	mh.window[mh.winIdx] = !opOK
	if !opOK {
		mh.winErrs++
	}
	mh.winIdx = (mh.winIdx + 1) % len(mh.window)

	tr := transNone
	var newState State
	if opOK {
		mh.consec = 0
		if mh.state == StateHalfOpen && isProbe {
			mh.probeOK++
			if mh.probeOK >= h.cfg.ProbeSuccesses {
				mh.state = StateHealthy
				mh.backoff = h.cfg.ProbeBackoffOps
				mh.resetWindow()
				tr, newState = transReadmitted, StateHealthy
			}
		}
	} else {
		mh.consec++
		switch mh.state {
		case StateHalfOpen:
			// A failed probe re-ejects immediately with a doubled backoff.
			// A straggler failure is not the probe failing: leave the probe
			// in flight and let its own result decide.
			if isProbe {
				h.ejectLocked(mh)
				tr, newState = transEjected, StateEjected
			}
		case StateHealthy:
			rateTripped := mh.winLen >= h.cfg.MinWindowSamples &&
				float64(mh.winErrs) >= h.cfg.MaxErrorRate*float64(mh.winLen)
			if mh.consec >= h.cfg.MaxConsecutiveErrs || rateTripped {
				h.ejectLocked(mh)
				tr, newState = transEjected, StateEjected
			}
		}
	}
	mh.mu.Unlock()
	if tr != transNone && h.onTransition != nil {
		h.onTransition(m, newState, tr)
	}
	if now >= h.due.Load() && h.takeDue(now) && h.onDue != nil {
		h.onDue()
	}
	return tr
}

// takeDue claims the wake-up that came due at now — one caller wins per
// crossing — and re-arms due for the ejected members whose reopenAt is
// still ahead (a wakeAt tick is armed again by whoever needs it). Its
// member scan runs once per wake-up, never per op.
func (h *health) takeDue(now int64) bool {
	for {
		d := h.due.Load()
		if now < d {
			return false
		}
		if h.due.CompareAndSwap(d, math.MaxInt64) {
			break
		}
	}
	for i := range h.members {
		mh := &h.members[i]
		mh.mu.Lock()
		if mh.state == StateEjected && mh.reopenAt > now {
			h.wakeAt(mh.reopenAt)
		}
		mh.mu.Unlock()
	}
	return true
}

// wakeAt arms onDue for logical tick at, unless an earlier wake-up is
// already armed.
func (h *health) wakeAt(at int64) {
	for {
		d := h.due.Load()
		if at >= d || h.due.CompareAndSwap(d, at) {
			return
		}
	}
}

// ejectLocked moves mh to StateEjected and schedules its next probe on the
// logical clock. Caller holds mh.mu.
func (h *health) ejectLocked(mh *memberHealth) {
	mh.state = StateEjected
	mh.reopenAt = h.tick.Load() + mh.backoff
	h.wakeAt(mh.reopenAt)
	if next := mh.backoff * 2; next <= h.cfg.MaxProbeBackoffOps {
		mh.backoff = next
	} else {
		mh.backoff = h.cfg.MaxProbeBackoffOps
	}
	mh.consec = 0
	mh.resetWindow()
}

// resetWindow clears the sliding window so a fresh state does not inherit
// stale samples. Caller holds mh.mu.
func (mh *memberHealth) resetWindow() {
	mh.winIdx, mh.winLen, mh.winErrs = 0, 0, 0
	for i := range mh.window {
		mh.window[i] = false
	}
}
