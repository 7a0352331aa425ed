package iofwd

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/sim"
)

// Descriptor is one open I/O descriptor in the forwarder's database. The
// paper (Section IV): "we maintain a database of open I/O descriptors; for
// each, we keep a list of completed and in-progress operations and their
// associated status, including errors. We distinguish the various I/O
// operations performed on a particular descriptor via a counter. Errors are
// passed to the application on subsequent operations on the descriptor."
type Descriptor struct {
	FD   int
	Sink Sink

	// OpCounter distinguishes operations issued on this descriptor.
	OpCounter uint64
	// InFlight is the number of staged operations not yet completed.
	InFlight int
	// Completed counts finished operations.
	Completed uint64

	// deferred is the first unreported error from a completed staged
	// operation; the next operation returns and clears it.
	deferred policy.Deferred

	waiters []*sim.Proc // procs blocked in Close/drain on this descriptor
	closed  bool
}

// DescriptorDB tracks open descriptors and global in-flight staged work.
type DescriptorDB struct {
	eng    *sim.Engine
	byFD   map[int]*Descriptor
	nextFD int

	inFlight     int
	drainWaiters []*sim.Proc
}

// NewDescriptorDB returns an empty database.
func NewDescriptorDB(e *sim.Engine) *DescriptorDB {
	return &DescriptorDB{eng: e, byFD: make(map[int]*Descriptor), nextFD: 3}
}

// Open allocates a descriptor bound to sink.
func (db *DescriptorDB) Open(sink Sink) *Descriptor {
	d := &Descriptor{FD: db.nextFD, Sink: sink}
	db.nextFD++
	db.byFD[d.FD] = d
	return d
}

// Lookup resolves fd; it returns an error for unknown or closed descriptors.
func (db *DescriptorDB) Lookup(fd int) (*Descriptor, error) {
	d, ok := db.byFD[fd]
	if !ok || d.closed {
		return nil, fmt.Errorf("iofwd: bad descriptor %d", fd)
	}
	return d, nil
}

// Len returns the number of open descriptors.
func (db *DescriptorDB) Len() int { return len(db.byFD) }

// TakeError returns and clears the deferred error on d, tagged with the
// operation counter it belongs to.
func (d *Descriptor) TakeError() error {
	op, err := d.deferred.Take()
	if err == nil {
		return nil
	}
	return fmt.Errorf("iofwd: deferred error from op %d on fd %d: %w", op, d.FD, err)
}

// Start records the submission of a staged operation and returns its op
// counter.
func (db *DescriptorDB) Start(d *Descriptor) uint64 {
	d.OpCounter++
	d.InFlight++
	db.inFlight++
	return d.OpCounter
}

// Complete records the completion of staged operation op with its result
// and wakes anyone draining this descriptor or the whole database.
func (db *DescriptorDB) Complete(d *Descriptor, op uint64, err error) {
	if d.InFlight <= 0 {
		panic(fmt.Sprintf("iofwd: completion with no in-flight ops on fd %d", d.FD))
	}
	d.InFlight--
	d.Completed++
	d.deferred.Record(op, err)
	if d.InFlight == 0 {
		for _, p := range d.waiters {
			db.eng.Ready(p)
		}
		d.waiters = nil
	}
	db.inFlight--
	if db.inFlight == 0 {
		for _, p := range db.drainWaiters {
			db.eng.Ready(p)
		}
		db.drainWaiters = nil
	}
}

// WaitDescriptor blocks p until d has no in-flight operations.
func (db *DescriptorDB) WaitDescriptor(p *sim.Proc, d *Descriptor) {
	for d.InFlight > 0 {
		d.waiters = append(d.waiters, p)
		p.Suspend()
	}
}

// WaitAll blocks p until the database has no in-flight operations at all.
func (db *DescriptorDB) WaitAll(p *sim.Proc) {
	for db.inFlight > 0 {
		db.drainWaiters = append(db.drainWaiters, p)
		p.Suspend()
	}
}

// Close drains d, removes it, and returns any unreported deferred error.
func (db *DescriptorDB) Close(p *sim.Proc, d *Descriptor) error {
	db.WaitDescriptor(p, d)
	d.closed = true
	delete(db.byFD, d.FD)
	return d.TakeError()
}
