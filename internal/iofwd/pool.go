package iofwd

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/simcpu"
)

// TaskKind distinguishes queued I/O work.
type TaskKind int

// Task kinds.
const (
	TaskWrite TaskKind = iota
	TaskRead
)

// Task is one I/O operation enqueued on the work queue (paper Figure 7:
// "Instead of executing the I/O operation, the ZOID thread now enqueues the
// I/O task into the work queue").
type Task struct {
	Kind  TaskKind
	Desc  *Descriptor
	Op    uint64
	Bytes int64
	// Done is invoked in the worker's context with the operation result:
	// it wakes the blocked application (synchronous scheduling) or releases
	// the staging buffer and records status (asynchronous staging).
	Done func(err error)
}

// Discipline selects how tasks are distributed to workers.
type Discipline int

const (
	// SharedFIFO is the paper's design: one shared first-in first-out work
	// queue drained by all workers.
	SharedFIFO Discipline = iota
	// Sharded runs internal/core's scheduler decisions (internal/policy) on
	// the sim clock: each worker owns a queue, tasks home to a queue by
	// descriptor FD, a batch takes a runnable prefix of each descriptor's
	// tasks (so one descriptor's operations never run concurrently or out of
	// order), and an idle worker steals from the deepest sibling before
	// parking.
	Sharded
)

// PoolConfig configures a WorkerPool.
type PoolConfig struct {
	// Workers is the number of worker processes ("launched at job startup,
	// and the number of worker threads can be controlled via an environment
	// variable"). The paper finds 4 optimal on the 4-core ION (fig 11).
	Workers int
	// Batch is the maximum number of tasks a worker dequeues per wakeup and
	// executes in its event loop ("To facilitate I/O multiplexing per
	// thread, a worker thread dequeues multiple I/O requests and executes
	// them in an event loop").
	Batch int
	// DispatchCPU is the fixed ION CPU cost per task dispatched from the
	// event loop.
	DispatchCPU float64
	// Discipline selects the queueing discipline (default SharedFIFO).
	Discipline Discipline
}

// WorkerPool executes queued I/O tasks on a fixed set of worker processes,
// decoupling the number of I/O-executing threads from the number of compute
// clients — the paper's I/O scheduling mechanism.
type WorkerPool struct {
	eng   *sim.Engine
	cpu   *simcpu.CPU
	cfg   PoolConfig
	queue *sim.Queue[*Task] // SharedFIFO

	// Sharded state: one FIFO per worker, per-FD in-execution counts (the
	// ordering guard), parked workers awaiting a poke, and the steal count.
	shards    [][]*Task
	executing map[int]int
	idle      []*sim.Proc
	steals    uint64

	executed uint64
	batches  uint64
	stopped  bool
}

// NewWorkerPool starts the worker processes on e, charging their CPU use to
// cpu.
func NewWorkerPool(e *sim.Engine, cpu *simcpu.CPU, cfg PoolConfig) *WorkerPool {
	if cfg.Workers <= 0 {
		panic(fmt.Sprintf("iofwd: %d workers", cfg.Workers))
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	wp := &WorkerPool{eng: e, cpu: cpu, cfg: cfg}
	if cfg.Discipline == Sharded {
		wp.shards = make([][]*Task, cfg.Workers)
		wp.executing = make(map[int]int)
	} else {
		wp.queue = sim.NewQueue[*Task](e, 0)
	}
	for w := 0; w < cfg.Workers; w++ {
		w := w
		if cfg.Discipline == Sharded {
			e.SpawnDaemon(fmt.Sprintf("worker%d", w), func(p *sim.Proc) { wp.runSharded(p, w) })
		} else {
			e.SpawnDaemon(fmt.Sprintf("worker%d", w), func(p *sim.Proc) { wp.run(p) })
		}
	}
	return wp
}

// Submit enqueues a task. The queues are unbounded, so Submit never blocks;
// back-pressure comes from the BML capacity under staging and from the
// blocked application under synchronous scheduling.
func (wp *WorkerPool) Submit(t *Task) {
	if wp.stopped {
		panic("iofwd: submit on stopped pool")
	}
	if wp.queue != nil {
		wp.queue.TryPut(t)
		return
	}
	h := policy.Home(uint64(t.Desc.FD), len(wp.shards))
	wp.shards[h] = append(wp.shards[h], t)
	wp.wakeIdle(1)
}

// wakeIdle readies the n longest-parked sharded workers.
func (wp *WorkerPool) wakeIdle(n int) {
	n = min(n, len(wp.idle))
	for _, p := range wp.idle[:n] {
		wp.eng.Ready(p)
	}
	wp.idle = wp.idle[n:]
}

// QueueDepth returns the total number of queued, unexecuted tasks.
func (wp *WorkerPool) QueueDepth() int {
	if wp.queue != nil {
		return wp.queue.Len()
	}
	n := 0
	for _, q := range wp.shards {
		n += len(q)
	}
	return n
}

// Executed returns the number of completed tasks.
func (wp *WorkerPool) Executed() uint64 { return wp.executed }

// Batches returns the number of worker wakeups, for measuring multiplexing.
func (wp *WorkerPool) Batches() uint64 { return wp.batches }

// Steals returns the number of batches idle workers stole from sibling
// shards (Sharded discipline only).
func (wp *WorkerPool) Steals() uint64 { return wp.steals }

// Shutdown stops the workers once every task already queued has executed:
// SharedFIFO queues one poison per worker behind them, and Sharded workers
// drain every shard (stealing whole queues) before they exit.
func (wp *WorkerPool) Shutdown() {
	if wp.stopped {
		return
	}
	wp.stopped = true
	if wp.queue == nil {
		wp.wakeIdle(len(wp.idle))
		return
	}
	for w := 0; w < wp.cfg.Workers; w++ {
		wp.queue.TryPut(nil)
	}
}

// run is the worker event loop: dequeue up to Batch tasks per wakeup and
// execute them back to back — the paper's "a worker thread dequeues multiple
// I/O requests and executes them in an event loop". Serial execution within
// a worker is deliberate: it is what bounds the number of concurrently
// I/O-executing threads to the pool size, the core of the scheduling win.
func (wp *WorkerPool) run(p *sim.Proc) {
	for {
		batch := wp.queue.GetBatch(p, wp.cfg.Batch)
		wp.batches++
		for _, t := range batch {
			if t == nil {
				return // poison: shut down
			}
			wp.exec(p, t)
		}
	}
}

// runSharded is the Sharded-discipline worker loop, core's scheduler on the
// sim clock: take a batch from the worker's own shard, else steal from the
// deepest sibling, else park on the pool's idle list until a Submit (or,
// after Shutdown, a finishing batch) readies it.
func (wp *WorkerPool) runSharded(p *sim.Proc, id int) {
	for {
		batch := wp.take(id, wp.cfg.Batch)
		if len(batch) == 0 {
			if v := policy.Victim(wp.shards, id, queueLen); v >= 0 {
				if batch = wp.take(v, policy.StealCount(len(wp.shards[v]), wp.cfg.Batch, wp.stopped)); len(batch) > 0 {
					wp.steals++
				}
			}
		}
		if len(batch) == 0 {
			if wp.stopped && wp.QueueDepth() == 0 {
				return
			}
			wp.idle = append(wp.idle, p)
			p.Suspend()
			continue
		}
		wp.batches++
		for _, t := range batch {
			wp.exec(p, t)
		}
		policy.Finish(batch, taskFD, wp.executing)
		if wp.stopped {
			// Tasks this batch blocked may be all that is left; parked
			// siblings must rescan so they can drain them or exit.
			wp.wakeIdle(len(wp.idle))
		}
	}
}

// take removes up to limit runnable tasks from shard i (policy.Take).
func (wp *WorkerPool) take(i, limit int) []*Task {
	var batch []*Task
	wp.shards[i], batch = policy.Take(wp.shards[i], nil, limit, taskFD, wp.executing)
	return batch
}

func taskFD(t *Task) int { return t.Desc.FD }

func queueLen(q []*Task) int { return len(q) }

// ConfirmedWriter is implemented by sinks that can report when written data
// has actually left the node, not merely entered a buffer. Workers prefer
// it so each worker fully drives one stream at a time.
type ConfirmedWriter interface {
	WriteConfirm(p *sim.Proc, n int64) error
}

// exec dispatches and executes one task, delivering its result.
func (wp *WorkerPool) exec(p *sim.Proc, t *Task) {
	wp.cpu.Compute(p, wp.cfg.DispatchCPU)
	var err error
	switch t.Kind {
	case TaskWrite:
		if cw, ok := t.Desc.Sink.(ConfirmedWriter); ok {
			err = cw.WriteConfirm(p, t.Bytes)
		} else {
			err = t.Desc.Sink.Write(p, t.Bytes)
		}
	case TaskRead:
		err = t.Desc.Sink.Read(p, t.Bytes)
	default:
		panic(fmt.Sprintf("iofwd: bad task kind %d", t.Kind))
	}
	wp.executed++
	t.Done(err)
}
