package sim

// Queue is a blocking FIFO of simulated work items with optional capacity.
// It is the simulation analogue of a buffered channel and is the substrate
// for the paper's shared work queue (Section IV, Figure 7).
type Queue[T any] struct {
	eng     *Engine
	items   []T
	cap     int // 0 means unbounded
	getters []*Proc
	putters []*Proc
}

// NewQueue returns a FIFO with the given capacity; capacity 0 is unbounded.
func NewQueue[T any](e *Engine, capacity int) *Queue[T] {
	return &Queue[T]{eng: e, cap: capacity}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Put appends v, blocking the calling process while the queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	for q.cap > 0 && len(q.items) >= q.cap {
		q.putters = append(q.putters, p)
		p.Suspend()
	}
	q.items = append(q.items, v)
	q.wakeOneGetter()
}

// TryPut appends v without blocking; it reports whether the item was queued.
func (q *Queue[T]) TryPut(v T) bool {
	if q.cap > 0 && len(q.items) >= q.cap {
		return false
	}
	q.items = append(q.items, v)
	q.wakeOneGetter()
	return true
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for len(q.items) == 0 {
		q.getters = append(q.getters, p)
		p.Suspend()
	}
	v := q.pop()
	q.wakeOnePutter()
	return v
}

// GetBatch removes up to max items, blocking only while the queue is empty.
// It models the paper's per-thread I/O multiplexing: a worker dequeues
// multiple I/O requests and executes them in an event loop.
func (q *Queue[T]) GetBatch(p *Proc, max int) []T {
	for len(q.items) == 0 {
		q.getters = append(q.getters, p)
		p.Suspend()
	}
	n := min(max, len(q.items))
	batch := make([]T, n)
	copy(batch, q.items[:n])
	q.items = append(q.items[:0], q.items[n:]...)
	for i := 0; i < n; i++ {
		q.wakeOnePutter()
	}
	return batch
}

// TryGet removes the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	v := q.pop()
	q.wakeOnePutter()
	return v, true
}

func (q *Queue[T]) pop() T {
	v := q.items[0]
	var zero T
	q.items[0] = zero
	q.items = q.items[1:]
	return v
}

func (q *Queue[T]) wakeOneGetter() {
	if len(q.getters) > 0 {
		p := q.getters[0]
		q.getters = q.getters[1:]
		q.eng.Ready(p)
	}
}

func (q *Queue[T]) wakeOnePutter() {
	if len(q.putters) > 0 {
		p := q.putters[0]
		q.putters = q.putters[1:]
		q.eng.Ready(p)
	}
}
