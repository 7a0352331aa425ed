package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/policy"
	"repro/internal/telemetry"
)

// BML is the buffer management layer (paper Section IV): a capacity-bounded
// pool of power-of-2-sized staging buffers. Get blocks while the pool is
// exhausted — the paper's back-pressure rule for asynchronous staging — and
// Put returns a buffer for reuse. A server without a spill tier bounds its
// own admission wait (Config.BMLTimeout) so it can degrade to the
// synchronous path instead of blocking forever on exhaustion; a server with
// one never waits (tryGet) and spills instead.
type BML struct {
	capacity int64

	mu      sync.Mutex
	used    int64
	free    map[int64][][]byte // class size -> stack of free buffers
	waiters int
	// waitc is closed (and replaced) on every Put while waiters exist; it
	// is the broadcast that replaces sync.Cond so admission waits can be
	// combined with a timeout in a select.
	waitc chan struct{}

	// Counters are telemetry atomics so snapshot reads are race-free and
	// the registry exports the same values BMLStats reports (one source of
	// truth; see internal/core/metrics.go for the registered names).
	allocs    telemetry.Counter
	fresh     telemetry.Counter
	stalls    telemetry.Counter
	timeouts  telemetry.Counter
	peak      telemetry.MaxGauge
	stallWait telemetry.Histogram
}

// BMLStats reports pool behaviour.
type BMLStats struct {
	// Allocs is the number of Get calls satisfied.
	Allocs uint64
	// Fresh is how many of those required a new allocation (the rest were
	// recycled).
	Fresh uint64
	// Stalls counts Gets that had to wait for capacity.
	Stalls uint64
	// Timeouts counts bounded admissions that gave up waiting.
	Timeouts uint64
	// Peak is the high-water mark of reserved bytes.
	Peak int64
}

// NewBML returns a pool with the given capacity in bytes.
func NewBML(capacity int64) *BML {
	if capacity < policy.MinClass {
		panic(fmt.Sprintf("core: BML capacity %d below minimum class", capacity))
	}
	return &BML{
		capacity: capacity,
		free:     make(map[int64][][]byte),
		waitc:    make(chan struct{}),
	}
}

// Capacity returns the configured pool size.
func (b *BML) Capacity() int64 { return b.capacity }

// Used returns the bytes currently reserved.
func (b *BML) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Waiters returns the number of Gets currently blocked on admission — the
// instantaneous back-pressure depth (exported as iofwd_bml_waiters).
func (b *BML) Waiters() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int64(b.waiters)
}

// Stats returns a snapshot of the pool counters.
func (b *BML) Stats() BMLStats {
	return BMLStats{
		Allocs:   b.allocs.Value(),
		Fresh:    b.fresh.Value(),
		Stalls:   b.stalls.Value(),
		Timeouts: b.timeouts.Value(),
		Peak:     b.peak.Value(),
	}
}

// Get returns a buffer whose capacity is the power-of-2 class holding n,
// sliced to length n. It blocks while the pool is at capacity.
func (b *BML) Get(n int) []byte {
	buf, _ := b.getTimeout(n, 0)
	return buf
}

// getTimeout is Get with a bounded admission wait: if the pool cannot admit
// the request within d it returns (nil, false) and the caller must degrade
// (the server falls back to an unpooled buffer and the synchronous write
// path). d == 0 waits forever, matching Get; d < 0 does not wait at all
// (tryGet). The wait is the server's own, bounded by Config.BMLTimeout;
// client contexts end at the wire, so it takes none.
func (b *BML) getTimeout(n int, d time.Duration) ([]byte, bool) {
	c := policy.Class(int64(n))
	if c > b.capacity {
		panic(fmt.Sprintf("core: buffer class %d exceeds BML capacity %d", c, b.capacity))
	}
	b.mu.Lock()
	if b.used+c > b.capacity {
		if d < 0 {
			b.mu.Unlock()
			return nil, false // not a stall: nothing waited
		}
		// Allocation stall: the paper's back-pressure rule. Time the wait
		// so the stall distribution is visible next to the stall count.
		t0 := time.Now()
		var deadline <-chan time.Time
		if d > 0 {
			timer := time.NewTimer(d)
			defer timer.Stop()
			deadline = timer.C
		}
		for b.used+c > b.capacity {
			ch := b.waitc
			b.waiters++
			b.mu.Unlock()
			select {
			case <-ch:
				b.mu.Lock()
				b.waiters--
			case <-deadline:
				b.mu.Lock()
				b.waiters--
				b.mu.Unlock()
				b.timeouts.Inc()
				b.stalls.Inc()
				b.stallWait.Observe(time.Since(t0).Nanoseconds())
				return nil, false
			}
		}
		b.stalls.Inc()
		b.stallWait.Observe(time.Since(t0).Nanoseconds())
	}
	b.used += c
	b.peak.Observe(b.used)
	b.allocs.Inc()
	var buf []byte
	if stack := b.free[c]; len(stack) > 0 {
		buf = stack[len(stack)-1]
		stack[len(stack)-1] = nil
		b.free[c] = stack[:len(stack)-1]
	} else {
		b.fresh.Inc()
	}
	b.mu.Unlock()
	if buf == nil {
		buf = make([]byte, c)
	}
	return buf[:n], true
}

// tryGet is the non-blocking admission: a buffer if the pool can admit n
// right now, else (nil, false) at once. The server of a spill tier admits
// writes this way, so a full pool sends a write to the spill tier rather
// than making it wait.
func (b *BML) tryGet(n int) ([]byte, bool) { return b.getTimeout(n, -1) }

// Lease returns a reply-frame buffer: headerSize bytes of header room
// followed by n payload bytes, all in one pooled allocation. Backends read
// directly into frame[headerSize:headerSize+n], the connection writer
// encodes the response header into frame[:headerSize] and writes the whole
// frame with a single conn write, then returns it with Put — the zero-copy
// reply path (no scratch-buffer copy, no separate header write). Lease
// blocks under the capacity cap exactly like Get; the caller owns the full
// frame and must Put it exactly once.
func (b *BML) Lease(n int) []byte {
	return b.Get(headerSize + n)
}

// LeaseFits reports whether a Lease for n payload bytes can ever be
// admitted: the padded power-of-2 class must not exceed the pool capacity.
// Callers reject oversized reads up front instead of panicking in Get.
func (b *BML) LeaseFits(n int) bool {
	return policy.Class(int64(headerSize+n)) <= b.capacity
}

// Put returns a buffer obtained from Get. The buffer must not be used after
// Put.
func (b *BML) Put(buf []byte) {
	c := int64(cap(buf))
	if c == 0 {
		return
	}
	if c&(c-1) != 0 || c < policy.MinClass {
		panic(fmt.Sprintf("core: Put of non-pool buffer (cap %d)", c))
	}
	b.mu.Lock()
	if b.used < c {
		b.mu.Unlock()
		panic("core: BML Put without matching Get")
	}
	b.used -= c
	b.free[c] = append(b.free[c], buf[:c])
	if b.waiters > 0 {
		close(b.waitc)
		b.waitc = make(chan struct{})
	}
	b.mu.Unlock()
}
