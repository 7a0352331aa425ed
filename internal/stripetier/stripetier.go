package stripetier

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
)

// Config tunes the tier. The zero value gets 64 KiB stripes and a
// replication factor of 2 (capped at the member count).
type Config struct {
	// StripeSize is the block-aligned striping unit in bytes (default
	// 64 KiB). Writes are split on stripe boundaries; each stripe lives on
	// Replicas members.
	StripeSize int64
	// Replicas is how many members hold each stripe (default 2, capped at
	// the member count). 1 means pure striping with no redundancy.
	Replicas int
	// Health tunes the per-member ejection state machine.
	Health HealthConfig
	// PendingJournal, when non-empty, persists the repair pending set to
	// this file (WAL frame codec, see persist.go) so replica-staleness
	// markers survive a daemon restart. Empty keeps the set in memory only.
	PendingJournal string
}

// Tier is a striped, replicated composite over N child backends. It
// implements core.Backend, so a Server drives it exactly like a single
// target — the degraded-mode behaviour (ejection, failover, repair) is
// invisible to the protocol.
type Tier struct {
	members []core.Backend
	cfg     Config
	health  *health
	metrics *tierMetrics
	repair  *repairer
}

// Stats is a snapshot of the tier's counters, for tests and status lines.
type Stats struct {
	ReadFailovers  uint64
	Repairs        uint64
	RepairFailures uint64
	DegradedWrites uint64
	Ejections      uint64
	Readmissions   uint64
	PendingRepairs int64
	MemberStates   []State
}

// New builds a tier over members and starts its repair loop. Call Close to
// stop it.
func New(members []core.Backend, cfg Config) (*Tier, error) {
	t, err := newTier(members, cfg)
	if err != nil {
		return nil, err
	}
	t.start()
	return t, nil
}

// newTier builds the tier without starting its repair loop. Kicks buffer
// until start runs the loop, so a test can hold the loop parked while it
// stages the state the loop will find.
func newTier(members []core.Backend, cfg Config) (*Tier, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("stripetier: no members")
	}
	if cfg.StripeSize <= 0 {
		cfg.StripeSize = 64 << 10
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(members) {
		cfg.Replicas = len(members)
	}
	t := &Tier{
		members: members,
		cfg:     cfg,
		health:  newHealth(len(members), cfg.Health),
		metrics: newTierMetrics(len(members)),
	}
	t.health.onTransition = t.onTransition
	t.health.onDue = t.onDue
	r, err := newRepairer(t, cfg.PendingJournal)
	if err != nil {
		return nil, err
	}
	t.repair = r
	return t, nil
}

// start runs the repair loop.
func (t *Tier) start() {
	go t.repair.loop()
	if t.repair.pendingCount() > 0 {
		// Entries reloaded from the journal: start draining immediately
		// instead of waiting for the first degraded write.
		t.repair.kickNow()
	}
}

// Close stops the background repair loop. With PendingJournal set, queued
// repairs persist and a restart resumes them; otherwise they are dropped.
func (t *Tier) Close() error {
	t.repair.close()
	return nil
}

// Members returns the member count.
func (t *Tier) Members() int { return len(t.members) }

// MemberState returns member m's current health state.
func (t *Tier) MemberState(m int) State { return t.health.state(m) }

// Stats returns a snapshot of the tier counters.
func (t *Tier) Stats() Stats {
	s := Stats{
		ReadFailovers:  t.metrics.readFailovers.Value(),
		Repairs:        t.metrics.repairs.Value(),
		RepairFailures: t.metrics.repairErrs.Value(),
		DegradedWrites: t.metrics.degraded.Value(),
		Ejections:      t.metrics.ejections.Value(),
		Readmissions:   t.metrics.readmissions.Value(),
		PendingRepairs: t.repair.pendingCount(),
		MemberStates:   make([]State, len(t.members)),
	}
	for i := range t.members {
		s.MemberStates[i] = t.health.state(i)
	}
	return s
}

// Open implements core.Backend. With create set it succeeds immediately
// (member objects are created lazily on first write); without it, the
// object must be readable on at least one reachable member.
func (t *Tier) Open(name string, create bool) (core.Handle, error) {
	h := &tierHandle{t: t, name: name, create: create, handles: make([]core.Handle, len(t.members))}
	if create {
		return h, nil
	}
	var lastErr error
	found := false
	for m := range t.members {
		ok, probe := t.health.allowed(m)
		if !ok {
			continue
		}
		mh, err := t.members[m].Open(name, false)
		t.recordOp(m, probe, ignoreNotFound(err))
		if err != nil {
			if !isNotFound(err) {
				lastErr = err
			}
			continue
		}
		h.handles[m] = mh
		found = true
	}
	if !found {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, core.ENOENT
	}
	return h, nil
}

// tierHandle is one open object across the membership. Member handles open
// lazily, so a member ejected at Open time is simply absent until traffic
// (or repair) reaches it again.
type tierHandle struct {
	t      *Tier
	name   string
	create bool

	mu      sync.RWMutex
	handles []core.Handle
}

// member returns the (lazily opened) handle on member m. The fast path is a
// read lock only — every data op of every stripe passes through here, so a
// write lock would serialize the whole tier on one cache line. The open
// itself happens outside the lock — a stalling member must not serialize
// the other replicas — and a racing duplicate open is closed.
func (h *tierHandle) member(m int, forWrite bool) (core.Handle, error) {
	h.mu.RLock()
	mh := h.handles[m]
	h.mu.RUnlock()
	if mh != nil {
		return mh, nil
	}
	mh, err := h.t.members[m].Open(h.name, h.create || forWrite)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	if cur := h.handles[m]; cur != nil {
		h.mu.Unlock()
		_ = mh.Close()
		return cur, nil
	}
	h.handles[m] = mh
	h.mu.Unlock()
	return mh, nil
}

// WriteAt stripes b across the membership: each stripe-aligned piece goes
// to its rotated replica chain. A piece succeeds when at least one replica
// accepts it; missed replicas (ejected members, failed writes) are queued
// for repair and the write is acknowledged degraded. Only when every
// replica of some piece fails does the write error.
func (h *tierHandle) WriteAt(b []byte, off int64) (int, error) {
	if off < 0 {
		return 0, core.EINVAL
	}
	t := h.t
	written := 0
	for _, sp := range spans(off, len(b), t.cfg.StripeSize) {
		chain := replicaChain(sp.stripe, len(t.members), t.cfg.Replicas)
		okCount := 0
		// Missed replicas are queued only once the whole chain has been
		// written: a repair started earlier could copy a survivor that does
		// not hold this piece yet, then mark the missed replica clean.
		var missed []int
		for _, m := range chain {
			ok, probe := t.health.allowed(m)
			if !ok {
				missed = append(missed, m)
				continue
			}
			mh, err := h.member(m, true)
			if err == nil {
				// Bump the member's pending version (if queued for repair)
				// before the bytes land: an in-flight repair holding an
				// older survivor snapshot must see the bump and keep the
				// entry, instead of overwriting this write and marking the
				// member clean — see repairer.touch.
				t.repair.touch(h.name, sp.stripe, m)
				piece := b[sp.bufLo:sp.bufHi]
				var n int
				n, err = mh.WriteAt(piece, sp.off)
				if err == nil && n < len(piece) {
					err = fmt.Errorf("%w: short replica write (%d of %d bytes)", core.EIO, n, len(piece))
				}
			}
			t.recordOp(m, probe, err)
			if err != nil {
				missed = append(missed, m)
				continue
			}
			// A replica already queued for repair stays queued even after
			// this successful write: the new piece may cover only part of
			// the stripe, and repair copies the whole stripe anyway.
			okCount++
		}
		for _, m := range missed {
			t.repair.enqueue(h.name, sp.stripe, m)
		}
		if okCount == 0 {
			return written, fmt.Errorf("%w: stripe %d: no replica accepted the write", core.EIO, sp.stripe)
		}
		if okCount < len(chain) {
			t.metrics.degraded.Inc()
		}
		written = sp.bufHi
	}
	return written, nil
}

// ReadAt recombines b from the stripes holding [off, off+len(b)). Each
// piece is served by the first replica in chain order that is healthy,
// not stale (queued for repair), and actually returns the data; failing
// or skipped replicas fail the read over to the next one. A stripe whose
// chain holds less data than requested is checked against the logical
// object size: below it the gap is a hole (chain members of a sparse
// object that never received a write) and reads as zeros, at or past it
// the read ends short with a nil error — exactly the single-target
// backends' sparse semantics.
func (h *tierHandle) ReadAt(b []byte, off int64) (int, error) {
	if off < 0 {
		return 0, core.EINVAL
	}
	t := h.t
	total := 0
	logSize := int64(-1) // lazily computed, at most once per call
	for _, sp := range spans(off, len(b), t.cfg.StripeSize) {
		chain := replicaChain(sp.stripe, len(t.members), t.cfg.Replicas)
		got := -1
		skipped := 0
		sawEmpty := false
		var lastErr error
		for _, m := range chain {
			// The staleness check comes before the health gate: allowed()
			// hands out the half-open probe slot, which must not be taken
			// for a replica we would skip anyway. Skipping a stale replica
			// also kicks the repair loop: read-only traffic must be able
			// to drain the pending set too.
			if t.repair.isPending(h.name, sp.stripe, m) {
				skipped++
				t.repair.kickNow()
				continue
			}
			ok, probe := t.health.allowed(m)
			if !ok {
				skipped++
				continue
			}
			mh, err := h.member(m, false)
			if err != nil {
				t.recordOp(m, probe, ignoreNotFound(err))
				if isNotFound(err) {
					sawEmpty = true
				} else {
					lastErr = err
				}
				skipped++
				continue
			}
			n, err := mh.ReadAt(b[sp.bufLo:sp.bufHi], sp.off)
			t.recordOp(m, probe, err)
			if err != nil {
				lastErr = err
				skipped++
				continue
			}
			got = n
			break
		}
		if got < 0 {
			if lastErr != nil || !sawEmpty {
				// A replica that failed (or was skipped wholesale) may hold
				// the data: this is an I/O failure, not absence.
				return total, fmt.Errorf("%w: stripe %d: no replica readable: %v", core.EIO, sp.stripe, lastErr)
			}
			// Every reachable chain member reports the object absent. With
			// more members than replicas this can be a hole stripe of a
			// sparse object whose later stripes hold data — fall through to
			// the size check with zero bytes read rather than ending early.
			got = 0
		} else if skipped > 0 {
			t.metrics.readFailovers.Inc()
		}
		total += got
		if want := sp.bufHi - sp.bufLo; got < want {
			if logSize < 0 {
				sz, err := h.Size()
				if err != nil {
					return total, err
				}
				logSize = sz
			}
			readEnd := sp.off + int64(got)
			if readEnd >= logSize {
				return total, nil
			}
			// Hole: zero-fill up to the logical size (or the span end) and
			// keep going.
			fillEnd := sp.off + int64(want)
			if logSize < fillEnd {
				fillEnd = logSize
			}
			hole := b[sp.bufLo+got : sp.bufLo+int(fillEnd-sp.off)]
			for i := range hole {
				hole[i] = 0
			}
			total += len(hole)
			if fillEnd < sp.off+int64(want) {
				return total, nil
			}
		}
	}
	return total, nil
}

// Sync flushes every member handle this tier handle has written through.
// It fails only when the failure count reaches the replication factor —
// below that, every stripe still has at least one synced replica.
func (h *tierHandle) Sync() error {
	t := h.t
	h.mu.RLock()
	open := make([]int, 0, len(h.handles))
	for m, mh := range h.handles {
		if mh != nil {
			open = append(open, m)
		}
	}
	h.mu.RUnlock()
	attempts, failures := 0, 0
	var firstErr error
	for _, m := range open {
		ok, probe := t.health.allowed(m)
		if !ok {
			continue
		}
		mh, err := h.member(m, false)
		if err == nil {
			err = mh.Sync()
		}
		t.recordOp(m, probe, err)
		attempts++
		if err != nil {
			failures++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if len(open) > 0 && attempts == 0 {
		// Data went through member handles but no member would take a sync:
		// acknowledging durability here would be a lie.
		return fmt.Errorf("%w: no member reachable to sync (%d member handles open)", core.EIO, len(open))
	}
	if failures > 0 && (failures >= t.cfg.Replicas || failures == attempts) {
		return fmt.Errorf("%w: %d of %d member syncs failed: %v", core.EIO, failures, attempts, firstErr)
	}
	return nil
}

// Size returns the logical object size: the maximum extent over reachable
// members. Members store stripes at their logical offsets (sparse layout),
// so whichever replica holds the final stripe reports the full size.
func (h *tierHandle) Size() (int64, error) {
	t := h.t
	best := int64(-1)
	var lastErr error
	for m := range t.members {
		ok, probe := t.health.allowed(m)
		if !ok {
			continue
		}
		mh, err := h.member(m, false)
		if err != nil {
			t.recordOp(m, probe, ignoreNotFound(err))
			if isNotFound(err) && best < 0 {
				best = 0
			} else if !isNotFound(err) {
				lastErr = err
			}
			continue
		}
		sz, err := mh.Size()
		t.recordOp(m, probe, err)
		if err != nil {
			lastErr = err
			continue
		}
		if sz > best {
			best = sz
		}
	}
	if best < 0 {
		if lastErr != nil {
			return 0, lastErr
		}
		return 0, fmt.Errorf("%w: no member reachable for size", core.EIO)
	}
	return best, nil
}

// Close closes the open member handles. Errors from unhealthy members are
// dropped (their data is already queued for repair); the first error from
// a healthy member is returned.
func (h *tierHandle) Close() error {
	h.mu.Lock()
	handles := make([]core.Handle, len(h.handles))
	copy(handles, h.handles)
	for m := range h.handles {
		h.handles[m] = nil
	}
	h.mu.Unlock()
	var firstErr error
	for m, mh := range handles {
		if mh == nil {
			continue
		}
		if err := mh.Close(); err != nil && firstErr == nil && h.t.health.state(m) == StateHealthy {
			firstErr = err
		}
	}
	return firstErr
}

// isNotFound reports whether err is the backend's object-absent answer.
func isNotFound(err error) bool { return errors.Is(err, core.ENOENT) }

// ignoreNotFound maps ENOENT to success for health accounting: a member
// that does not hold an object is healthy, not failing.
func ignoreNotFound(err error) error {
	if isNotFound(err) {
		return nil
	}
	return err
}
