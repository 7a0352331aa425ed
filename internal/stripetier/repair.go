package stripetier

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/core"
)

// repairKey identifies one missing stripe replica: member never received
// (or failed) the write of stripe on the named object.
type repairKey struct {
	name   string
	stripe int64
	member int
}

// repairer re-replicates stripes whose replica count dropped. Writes that
// skip an ejected member (or observe a replica write fail) enqueue the gap
// here; the background loop copies the stripe from a surviving replica to
// the missing member once that member accepts traffic again. Repair
// attempts go through the same allowed/record gate as client traffic, so
// they double as probes for half-open members.
//
// The pending set also serves reads: a replica queued for repair is stale
// (it would return zeros, not data), so the read path skips it — see
// tierHandle.ReadAt.
//
// Each entry carries a version, bumped on every enqueue and on every
// client write that is about to land on the member (touch). A repair only
// deletes its entry when the version is unchanged across the whole
// copy — otherwise a client write racing with the repair could be
// overwritten by the repair's older survivor snapshot and the member
// still be marked clean (split-brain between replicas).
type repairer struct {
	t *Tier

	mu      sync.Mutex
	pending map[repairKey]uint64
	closed  bool

	// Pending-set journal (see persist.go); nil when persistence is off.
	journal       *os.File
	journalPath   string
	journalWrites int

	// kick wakes the loop; buffered so enqueue never blocks.
	kick chan struct{}
	done chan struct{}
}

// newRepairer builds the repairer, loading the persisted pending set from
// journalPath when one is configured ("" disables persistence).
func newRepairer(t *Tier, journalPath string) (*repairer, error) {
	r := &repairer{
		t:       t,
		pending: make(map[repairKey]uint64),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	if journalPath != "" {
		// openJournal drops entries out of bounds for the configured
		// membership (a journal written under a larger tier) before its
		// compaction rewrite, so they cannot persist on disk either.
		set, f, err := openJournal(journalPath, len(t.members))
		if err != nil {
			return nil, err
		}
		r.pending = set
		r.journal = f
		r.journalPath = journalPath
	}
	return r, nil
}

// enqueue records a missing replica (bumping its version if already
// queued) and wakes the loop. A newly inserted entry is journaled durably
// before enqueue returns: the stale-replica marker must survive a crash
// that happens after the degraded write is acknowledged.
func (r *repairer) enqueue(name string, stripe int64, member int) {
	key := repairKey{name, stripe, member}
	r.mu.Lock()
	if !r.closed {
		_, existed := r.pending[key]
		r.pending[key]++
		if !existed {
			r.journalAppendLocked(journalAdd, key, true)
		}
	}
	r.mu.Unlock()
	r.kickNow()
}

// EnqueueRepair queues every replica of every stripe overlapping
// [off, off+length) of name for repair. It is the drain-into-repair hook:
// when a WAL-spilled record's drain or recovery replay fails against the
// tier, the backend's copies of the affected stripes are in an unknown
// mix of old and new bytes, so all chain members are marked stale. The
// repair loop's stale-replica fallback (see readSurvivor) then converges
// the whole chain onto one consistent copy instead of leaving replicas
// that silently disagree. Degraded-but-successful writes do not need this
// hook — the write path already enqueues exactly the replicas it missed.
// Entries are versioned and journaled like any other enqueue. Returns the
// number of (stripe, member) entries queued or bumped.
func (t *Tier) EnqueueRepair(name string, off, length int64) int {
	if name == "" || length <= 0 || off < 0 {
		return 0
	}
	n := 0
	for _, sp := range spans(off, int(length), t.cfg.StripeSize) {
		for _, m := range replicaChain(sp.stripe, len(t.members), t.cfg.Replicas) {
			t.repair.enqueue(name, sp.stripe, m)
			n++
		}
	}
	return n
}

// touch bumps the version of member's pending entry, if one exists. The
// write path calls it immediately before writing stripe data to the
// member: an in-flight repair that read its survivor snapshot before this
// write must observe the bump and keep the entry queued (re-copying the
// now-fresh survivor on the next pass) instead of marking the member
// clean under the repair's stale bytes.
func (r *repairer) touch(name string, stripe int64, member int) {
	key := repairKey{name, stripe, member}
	r.mu.Lock()
	if _, ok := r.pending[key]; ok {
		r.pending[key]++
	}
	r.mu.Unlock()
}

// version returns the pending entry's current version, if queued.
func (r *repairer) version(k repairKey) (uint64, bool) {
	r.mu.Lock()
	v, ok := r.pending[k]
	r.mu.Unlock()
	return v, ok
}

// isPending reports whether member's copy of stripe is queued for repair
// (and therefore stale for reads).
func (r *repairer) isPending(name string, stripe int64, member int) bool {
	key := repairKey{name, stripe, member}
	r.mu.Lock()
	_, ok := r.pending[key]
	r.mu.Unlock()
	return ok
}

// pendingCount is the repair-queue depth gauge.
func (r *repairer) pendingCount() int64 {
	r.mu.Lock()
	n := len(r.pending)
	r.mu.Unlock()
	return int64(n)
}

// kickNow nudges the loop without blocking.
func (r *repairer) kickNow() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// close stops the loop, waits for it to exit, and releases the journal.
// Pending entries stay in the journal: a restart reloads and drains them.
func (r *repairer) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.kickNow()
	<-r.done
	r.mu.Lock()
	r.closeJournalLocked()
	r.mu.Unlock()
}

// loop drains the pending set whenever kicked. Entries whose member is
// still ejected, or whose copy failed, stay queued for the next kick: an
// enqueue, a readmission, a read that skips a stale replica, or the
// logical clock (see Tier.onDue). The loop owns no timer: like the health
// tracker it is driven purely by observed events.
func (r *repairer) loop() {
	defer close(r.done)
	for range r.kick {
		if !r.pass() {
			return
		}
	}
}

// pass makes one attempt at every pending entry. It reports false, having
// done nothing, once the repairer is closed.
func (r *repairer) pass() bool {
	r.mu.Lock()
	closed := r.closed
	keys := make([]repairKey, 0, len(r.pending))
	for k := range r.pending {
		keys = append(keys, k)
	}
	r.mu.Unlock()
	if closed {
		return false
	}
	// Deterministic order: name, then stripe, then member.
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.name != b.name {
			return a.name < b.name
		}
		if a.stripe != b.stripe {
			return a.stripe < b.stripe
		}
		return a.member < b.member
	})
	for _, k := range keys {
		r.repairOne(k)
	}
	// Entries left queued get another pass ProbeBackoffOps ticks on: a
	// failed copy behind a healthy primary is skipped by no read, so no
	// read would kick the loop for it.
	if h := r.t.health; r.pendingCount() > 0 {
		h.wakeAt(h.tick.Load() + h.cfg.ProbeBackoffOps)
	}
	return true
}

// repairOne copies stripe k.stripe from a surviving replica onto k.member
// and, when the copy lands without a client write racing it (pending
// version unchanged end to end), removes the entry from the pending set.
func (r *repairer) repairOne(k repairKey) {
	t := r.t
	// Capture the entry's version before reading the survivor: a client
	// write bumps it (touch/enqueue) before touching the member's bytes,
	// so an unchanged version below proves the snapshot is still current.
	startVer, live := r.version(k)
	if !live {
		return
	}
	ok, probe := t.health.allowed(k.member)
	if !ok {
		return
	}
	// The member accepted the probe slot: from here every outcome must be
	// recorded exactly once.
	data, n, ok := r.readSurvivor(k)
	if !ok {
		// No surviving replica is readable right now; release the probe
		// slot with a neutral success (the target member did nothing
		// wrong) and keep the entry queued.
		t.recordOp(k.member, probe, nil)
		t.metrics.repairErrs.Inc()
		return
	}
	if n == 0 {
		// The stripe was never durably written anywhere (the write that
		// enqueued this entry failed everywhere, or it is beyond EOF).
		// There is nothing to copy and nothing missing.
		t.recordOp(k.member, probe, nil)
	} else {
		h, err := t.members[k.member].Open(k.name, true)
		if err != nil {
			t.recordOp(k.member, probe, err)
			t.metrics.repairErrs.Inc()
			return
		}
		defer h.Close()
		wn, err := h.WriteAt(data[:n], k.stripe*t.cfg.StripeSize)
		if err == nil && wn < n {
			err = fmt.Errorf("%w: short repair write (%d of %d bytes)", core.EIO, wn, n)
		}
		t.recordOp(k.member, probe, err)
		if err != nil {
			t.metrics.repairErrs.Inc()
			return
		}
	}
	// Mark the member clean only if no client write raced the copy.
	r.mu.Lock()
	if cur, queued := r.pending[k]; queued && cur == startVer {
		delete(r.pending, k)
		// Unsynced del: losing it only re-repairs a whole replica.
		r.journalAppendLocked(journalDel, k, false)
		r.mu.Unlock()
		t.metrics.repairs.Inc()
		return
	}
	r.mu.Unlock()
	// The version moved: the stripe changed under the repair, so the copy
	// may hold stale bytes. Keep the entry and retry promptly with a fresh
	// survivor snapshot.
	r.kickNow()
}

// readSurvivor reads stripe k.stripe from the first healthy, non-stale
// replica. It reports ok=false when no survivor could be read. When every
// reachable survivor reports ENOENT the stripe was never durably written
// anywhere, which readSurvivor reports as (nil, 0, true): whole by vacancy.
//
// When every other chain member is itself queued for repair, no fresh copy
// of the stripe exists anywhere (e.g. a write failed on all replicas
// during an outage); readSurvivor then falls back to the stale replicas so
// the set converges on one copy and drains, instead of deadlocking with
// the stripe unreadable forever. A member with no other chain members at
// all (replication factor 1) is whole by definition: its own bytes are the
// only copy there is.
func (r *repairer) readSurvivor(k repairKey) (data []byte, n int, ok bool) {
	t := r.t
	fresh := make([]int, 0, t.cfg.Replicas)
	stale := make([]int, 0, t.cfg.Replicas)
	for _, m := range replicaChain(k.stripe, len(t.members), t.cfg.Replicas) {
		if m == k.member {
			continue
		}
		if r.isPending(k.name, k.stripe, m) {
			stale = append(stale, m)
		} else {
			fresh = append(fresh, m)
		}
	}
	candidates := fresh
	if len(fresh) == 0 {
		if len(stale) == 0 {
			return nil, 0, true
		}
		candidates = stale
	}
	buf := make([]byte, t.cfg.StripeSize)
	off := k.stripe * t.cfg.StripeSize
	attempted, notFound := 0, 0
	for _, m := range candidates {
		ok, probe := t.health.allowed(m)
		if !ok {
			continue
		}
		attempted++
		h, err := t.members[m].Open(k.name, false)
		if err != nil {
			// ENOENT means this member legitimately holds no data for the
			// object (a healthy answer, not an I/O failure).
			t.recordOp(m, probe, ignoreNotFound(err))
			if isNotFound(err) {
				notFound++
			}
			continue
		}
		rn, err := h.ReadAt(buf, off)
		_ = h.Close()
		t.recordOp(m, probe, err)
		if err != nil {
			continue
		}
		return buf, rn, true
	}
	if attempted > 0 && notFound == attempted {
		return nil, 0, true
	}
	return nil, 0, false
}
