package core

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/policy"
)

// descSeq hands out global descriptor sequence ids. The scheduler hashes
// tasks to shards by sid, so a fresh ticket per open — rather than the
// per-connection fd, which restarts at 3 on every connection — spreads
// descriptors round-robin across shards.
var descSeq atomic.Uint64

// descriptor is one open descriptor in the server's database (paper Section
// IV): it tracks the backing handle, a cursor for sequential operations, an
// operation counter, the set of in-progress staged operations, and the first
// unreported deferred error.
//
// Ordering contract: all of a descriptor's queued operations live on one
// scheduler shard (hashed by sid) and the scheduler never runs two of them
// concurrently, so staged operations execute in opNum order. Offsets are
// still reserved at staging time, and the deferred-error bookkeeping in
// complete() remains exactly-once regardless of execution interleaving. Where
// two writes overlap, the order is what leaves the later one's bytes in
// place, so a degraded write, which runs on the handler outside the shard,
// first waits for the in-flight ops it may overlap (drainOverlap).
//
// The spill tier is a second executor outside the shard, so it carries its
// own serialization: while any of the descriptor's spilled records are
// still live in the WAL (spillLive > 0 — appended but not yet released by
// segment truncation), every subsequent write on the descriptor routes
// through the WAL too, whose per-name FIFO preserves order both live and
// across a crash replay. Only when the WAL refuses does the server wait
// for the live records to be released (waitSpillReleased) before letting
// the write reach the backend by the shard or sync path.
type descriptor struct {
	fd     uint64
	sid    uint64 // scheduler shard ticket, from descSeq
	handle Handle
	name   string
	// met, when non-nil, receives in-flight and deferred-error telemetry
	// (shared with the owning server; see internal/core/metrics.go).
	met *serverMetrics
	// fast records whether the last backend call on the descriptor took
	// less than inlineMaxCall; false until the first call returns.
	fast atomic.Bool

	mu        sync.Mutex
	cursor    int64
	opCounter uint64
	inFlight  int
	// lo and hi bound every byte the in-flight ops write; they are reset
	// by the first start after the descriptor goes idle.
	lo, hi    int64
	spillLive int // spilled records whose durable WAL copy is still live
	completed uint64
	deferred  policy.Deferred
	closed    bool
	idle      *sync.Cond // broadcast when inFlight or spillLive drops to zero
}

func newDescriptor(fd uint64, name string, h Handle) *descriptor {
	d := &descriptor{fd: fd, sid: descSeq.Add(1), name: name, handle: h}
	d.idle = sync.NewCond(&d.mu)
	return d
}

// nextOffset reserves n bytes at the sequential cursor and returns the
// operation's offset and counter. Reserving at staging time keeps cursor
// writes correct even when workers complete them out of order.
func (d *descriptor) nextOffset(n int64) (off int64, op uint64) {
	d.mu.Lock()
	off = d.cursor
	d.cursor += n
	d.opCounter++
	op = d.opCounter
	d.mu.Unlock()
	return off, op
}

// at reserves an operation counter for a positional operation.
func (d *descriptor) at() uint64 {
	d.mu.Lock()
	d.opCounter++
	op := d.opCounter
	d.mu.Unlock()
	return op
}

// start records a staged operation that writes [off, end) beginning. The
// gauge moves before the operation is visible anywhere else.
func (d *descriptor) start(off, end int64) {
	if d.met != nil {
		d.met.inflightStaged.Inc()
	}
	d.mu.Lock()
	if d.inFlight == 0 {
		d.lo, d.hi = off, end
	} else {
		d.lo, d.hi = min(d.lo, off), max(d.hi, end)
	}
	d.inFlight++
	d.mu.Unlock()
}

// complete records a staged operation finishing with err. Telemetry moves
// before the idle broadcast so a drain-then-snapshot sequence observes the
// drained state.
func (d *descriptor) complete(op uint64, err error) {
	if d.met != nil {
		d.met.inflightStaged.Dec()
		if err != nil {
			d.met.deferredErrors.Inc()
		}
	}
	d.mu.Lock()
	d.inFlight--
	d.completed++
	d.deferred.Record(op, err)
	if d.inFlight == 0 {
		d.idle.Broadcast()
	}
	d.mu.Unlock()
}

// quiescent reports whether no staged or spilled operation is in flight.
func (d *descriptor) quiescent() bool {
	d.mu.Lock()
	q := d.inFlight == 0
	d.mu.Unlock()
	return q
}

// drain blocks until no staged operations are in flight.
func (d *descriptor) drain() { d.drainOverlap(math.MinInt64, math.MaxInt64) }

// drainOverlap blocks while an in-flight staged operation may write a byte
// of [off, end): an op that bypasses the shard must not overtake one it
// overlaps, but need not wait for the rest.
func (d *descriptor) drainOverlap(off, end int64) {
	d.mu.Lock()
	for d.inFlight > 0 && off < d.hi && d.lo < end {
		d.idle.Wait()
	}
	d.mu.Unlock()
}

// spillStart records one record entering the spill tier; it stays counted
// until the WAL releases its durable copy (spillRelease). Incremented
// before Append so a release can never be observed before its start.
func (d *descriptor) spillStart() {
	d.mu.Lock()
	d.spillLive++
	d.mu.Unlock()
}

// spillRelease is the WAL's released callback (also used to undo a
// spillStart when Append refuses the record).
func (d *descriptor) spillRelease() {
	d.mu.Lock()
	d.spillLive--
	if d.spillLive == 0 {
		d.idle.Broadcast()
	}
	d.mu.Unlock()
}

// spillPending reports whether any of the descriptor's spilled records are
// still live in the WAL — replayable by a crash recovery, so subsequent
// writes must not reach the backend by another executor.
func (d *descriptor) spillPending() bool {
	d.mu.Lock()
	p := d.spillLive > 0
	d.mu.Unlock()
	return p
}

// waitSpillReleased blocks until the WAL has released every one of the
// descriptor's spilled records (applied, backend-flushed, and their
// segments truncated).
func (d *descriptor) waitSpillReleased() {
	d.mu.Lock()
	for d.spillLive > 0 {
		d.idle.Wait()
	}
	d.mu.Unlock()
}

// takeError returns and clears the deferred error, if any.
func (d *descriptor) takeError() error {
	d.mu.Lock()
	op, err := d.deferred.Take()
	d.mu.Unlock()
	if err == nil {
		return nil
	}
	return &DeferredError{FD: d.fd, Op: op, Err: err}
}

// descDB is the per-connection descriptor table.
type descDB struct {
	mu     sync.Mutex
	nextFD uint64
	byFD   map[uint64]*descriptor
	// met, when non-nil, tracks the server-wide open-descriptor gauge and
	// is inherited by every descriptor the table opens.
	met *serverMetrics
}

func newDescDB(met *serverMetrics) *descDB {
	return &descDB{nextFD: 3, byFD: make(map[uint64]*descriptor), met: met}
}

func (db *descDB) open(name string, h Handle) *descriptor {
	db.mu.Lock()
	defer db.mu.Unlock()
	d := newDescriptor(db.nextFD, name, h)
	d.met = db.met
	db.nextFD++
	db.byFD[d.fd] = d
	if db.met != nil {
		db.met.openDescs.Inc()
	}
	return d
}

func (db *descDB) lookup(fd uint64) (*descriptor, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	d, ok := db.byFD[fd]
	if !ok || d.closed {
		return nil, false
	}
	return d, true
}

// remove drops the descriptor from the table; the caller drains it first.
func (db *descDB) remove(fd uint64) {
	db.mu.Lock()
	d, ok := db.byFD[fd]
	if ok {
		d.closed = true
		delete(db.byFD, fd)
	}
	db.mu.Unlock()
	if ok && db.met != nil {
		db.met.openDescs.Dec()
	}
}

// all returns a snapshot of open descriptors.
func (db *descDB) all() []*descriptor {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*descriptor, 0, len(db.byFD))
	for _, d := range db.byFD {
		out = append(out, d)
	}
	return out
}
