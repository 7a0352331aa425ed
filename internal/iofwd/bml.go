package iofwd

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/sim"
)

// BML is the buffer management layer of the asynchronous staging design
// (paper Section IV, Figure 8): a capacity-bounded pool from which the
// forwarder allocates staging buffers in power-of-2 size classes. When the
// pool cannot satisfy an allocation, the forwarded operation blocks until
// enough queued operations complete and return their buffers — the paper's
// back-pressure rule ("If there is insufficient memory to stage the data,
// the I/O operation is blocked until a number of queued I/O operations
// complete and sufficient memory is available").
type BML struct {
	mem *sim.Resource

	allocated int64
	peak      int64
	stall     sim.Time
	allocs    uint64
}

// NewBML returns a buffer pool with the given total capacity in bytes
// ("The total memory managed by BML can be controlled by an environment
// variable during the application launch").
func NewBML(e *sim.Engine, capacity int64) *BML {
	if capacity < policy.MinClass {
		panic(fmt.Sprintf("iofwd: BML capacity %d below minimum class", capacity))
	}
	return &BML{mem: sim.NewResource(e, capacity)}
}

// Capacity returns the configured pool size.
func (b *BML) Capacity() int64 { return b.mem.Capacity() }

// Allocated returns the bytes currently held by staged operations.
func (b *BML) Allocated() int64 { return b.allocated }

// Peak returns the allocation high-water mark.
func (b *BML) Peak() int64 { return b.peak }

// StallTime returns cumulative time allocations spent blocked on the cap.
func (b *BML) StallTime() sim.Time { return b.stall }

// Allocs returns the number of successful allocations.
func (b *BML) Allocs() uint64 { return b.allocs }

// Get allocates a buffer for n payload bytes, blocking p until the rounded
// class size fits under the capacity. It returns the class size actually
// reserved, which the caller must pass back to Put.
func (b *BML) Get(p *sim.Proc, n int64) int64 {
	c := policy.Class(n)
	if c > b.mem.Capacity() {
		panic(fmt.Sprintf("iofwd: buffer class %d exceeds BML capacity %d", c, b.mem.Capacity()))
	}
	before := p.Now()
	b.mem.Acquire(p, c)
	b.stall += p.Now() - before
	b.allocated += c
	b.allocs++
	if b.allocated > b.peak {
		b.peak = b.allocated
	}
	return c
}

// TryGet allocates without blocking; it returns (class, true) on success.
func (b *BML) TryGet(n int64) (int64, bool) {
	c := policy.Class(n)
	if !b.mem.TryAcquire(c) {
		return 0, false
	}
	b.allocated += c
	b.allocs++
	if b.allocated > b.peak {
		b.peak = b.allocated
	}
	return c, true
}

// Put returns a buffer of the given class size to the pool ("On completion
// of the I/O operation, the worker thread returns the memory buffer to the
// buffer pool").
func (b *BML) Put(class int64) {
	if class <= 0 || class > b.allocated {
		panic(fmt.Sprintf("iofwd: BML Put(%d) with %d allocated", class, b.allocated))
	}
	b.allocated -= class
	b.mem.Release(class)
}
