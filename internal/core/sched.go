package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
	"repro/internal/telemetry"
)

// task is one unit of queued I/O work (paper figure 7: the ZOID thread
// enqueues the I/O task into the work queue).
type task struct {
	d     *descriptor
	op    Op // OpWrite or OpRead
	buf   []byte
	off   int64
	opNum uint64
	// done, when non-nil, receives the result for the handler waiting on
	// it, which also returns the buffer. When nil the task is staged
	// (asynchronous staging): the worker returns its buffer to the pool and
	// its result goes to the descriptor database.
	done chan error
	// n is set to the byte count actually moved (reads).
	n int
	// enq is when the submitter stamped the task; the worker observes the
	// queue-wait stage from it.
	enq time.Time
}

// shard is one per-worker task queue. The paper's single shared FIFO made
// every producer and every worker serialize on one lock — the very ION
// contention the work queue was introduced to remove, relocated into the
// scheduler. Sharding gives each worker a private FIFO: producers hash by
// descriptor so one descriptor's operations stay in one FIFO (preserving
// per-descriptor opNum order), and contention drops to one producer set and
// (mostly) one consumer per lock.
type shard struct {
	mu   sync.Mutex
	cond *sync.Cond
	// items is the FIFO of queued tasks. Tasks of one descriptor only ever
	// appear in that descriptor's home shard, in submission (opNum) order.
	items []*task
	// executing counts, per descriptor sequence id, tasks dequeued from this
	// shard and not yet finished. A dequeue (owner batch or steal) takes a
	// descriptor's tasks only while this count is zero (policy.Take), so a
	// descriptor's operations never run concurrently or out of order, even
	// across steals.
	executing map[uint64]int
	// poked is set by wakeIdle to tell a parked worker that a sibling shard
	// has surplus work worth stealing.
	poked bool
	// depth mirrors len(items) for lock-free victim selection and the
	// per-shard depth gauge.
	depth atomic.Int64
}

// scheduler is the sharded work-stealing task queue. put hashes tasks to
// their descriptor's home shard; each worker drains its own shard and steals
// half-batches from the busiest sibling before parking, so a skewed hash
// cannot strand idle workers while one shard backs up.
type scheduler struct {
	shards []*shard
	// aggDepth is the aggregate queued-task count, maintained atomically so
	// the peak gauge, /statz snapshots and the drain check never touch a
	// shard lock.
	aggDepth atomic.Int64
	closed   atomic.Bool
	peak     telemetry.MaxGauge
	steals   *telemetry.Counter

	// idle is a stack of parked worker ids; idleCount mirrors its size so
	// the put hot path can skip the idle lock when nobody is parked.
	idleMu    sync.Mutex
	idle      []int
	idleCount atomic.Int32

	// inline counts ops running on their handlers under claimInline; at
	// most inlineMax (the worker count) run at once.
	inline    atomic.Int32
	inlineMax int32

	// unwaited counts park returns that did not wait, for tests: a worker
	// that keeps returning unwaited is spinning.
	unwaited atomic.Int64
}

// inlineMaxCall is the backend call time below which an idle descriptor's
// next op may run on its handler: about one scheduler hand-off. The
// put → Signal → park round trip (stage_queue_us) measures 26–41 µs at
// depth 1 on 2 vCPUs, so a call faster than this costs less than the wait
// to hand it to a worker.
const inlineMaxCall = 20 * time.Microsecond

// defaultShards picks the shard count: one queue per worker, capped at
// GOMAXPROCS — more shards than runnable threads just spreads the same
// contention thinner without adding parallelism.
func defaultShards(workers int) int {
	n := workers
	if p := runtime.GOMAXPROCS(0); n > p {
		n = p
	}
	if n < 1 {
		n = 1
	}
	return n
}

func newScheduler(nshards, workers int) *scheduler {
	s := &scheduler{shards: make([]*shard, nshards), inlineMax: int32(workers)}
	for i := range s.shards {
		sh := &shard{executing: make(map[uint64]int)}
		sh.cond = sync.NewCond(&sh.mu)
		s.shards[i] = sh
	}
	return s
}

// homeShard returns the shard owning d's tasks. The descriptor sequence id
// is a global round-robin ticket, so descriptors spread evenly regardless of
// per-connection fd reuse.
func (s *scheduler) homeShard(d *descriptor) *shard {
	return s.shards[policy.Home(d.sid, len(s.shards))]
}

// ownShard returns the shard worker id drains first. With fewer shards than
// workers, owners share shards; the shard lock serializes them.
func (s *scheduler) ownShard(id int) *shard {
	return s.shards[id%len(s.shards)]
}

// put enqueues one task on its descriptor's home shard. It returns ECLOSED
// (instead of panicking) when the scheduler has been closed, so a connection
// racing server shutdown gets a clean wire error rather than crashing the
// process. The signal goes to the owning shard's cond only — waking every
// worker for one task is the thundering herd the shards exist to avoid.
func (s *scheduler) put(t *task) error {
	sh := s.homeShard(t.d)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return ECLOSED
	}
	sh.items = append(sh.items, t)
	qlen := len(sh.items)
	sh.depth.Store(int64(qlen))
	s.peak.Observe(s.aggDepth.Add(1))
	sh.mu.Unlock()
	sh.cond.Signal()
	// Backlog forming behind a busy owner: nominate a parked sibling to come
	// steal. The atomic gate keeps the fully-loaded hot path lock-free here.
	if qlen > 1 && s.idleCount.Load() > 0 {
		s.wakeIdle()
	}
	return nil
}

// claimInline reports whether the next data op on d may run on its handler
// instead of queueing, and if so takes one of the inline tokens, which the
// caller returns with releaseInline once the op has run. It holds when the
// scheduler is open, d's last backend call was faster than a hand-off (a
// descriptor with no history counts as slow), d has nothing staged or
// spilled in flight, d's home shard is empty, and an inline token is free.
//
// Only d's handler starts ops on d, and it waits out every op it does not
// stage, so a quiescent d has nothing queued or executing anywhere and the
// inline op keeps its place in d's FIFO. A backend that is slow from the
// start never runs inline, so BML admission and spill see the
// queue they did. One that stalls after fast calls catches a single op
// inline: its handler, and the connection's later frames, wait out the
// stall (at most Workers connections at once), and the slow call then
// sends d's later ops to the pool.
func (s *scheduler) claimInline(d *descriptor) bool {
	if s.closed.Load() || !d.fast.Load() || !d.quiescent() || s.homeShard(d).depth.Load() != 0 {
		return false
	}
	if s.inline.Add(1) > s.inlineMax {
		s.inline.Add(-1)
		return false
	}
	return true
}

// releaseInline returns the token claimInline took.
func (s *scheduler) releaseInline() { s.inline.Add(-1) }

// close marks the scheduler closed and wakes every worker so they drain the
// remaining tasks and exit.
func (s *scheduler) close() {
	s.closed.Store(true)
	// The empty lock cycle serializes against workers evaluating their park
	// predicate: a worker either observes closed before Waiting, or is
	// already parked when the Broadcast lands — never in between.
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.mu.Unlock()
		sh.cond.Broadcast()
	}
}

// take removes up to limit runnable tasks from sh under policy.Take's
// prefix rule and marks their descriptors executing.
func (sh *shard) take(s *scheduler, limit int, out []*task) []*task {
	sh.mu.Lock()
	sh.items, out = policy.Take(sh.items, out, limit, taskSID, sh.executing)
	sh.depth.Store(int64(len(sh.items)))
	sh.mu.Unlock()
	if n := len(out); n > 0 {
		s.aggDepth.Add(-int64(n))
	}
	return out
}

func taskSID(t *task) uint64 { return t.d.sid }

func shardDepth(sh *shard) int { return int(sh.depth.Load()) }

// steal takes a policy.StealCount share of the policy.Victim shard's queue
// for the idle worker owning shard own, under take's prefix rule, and
// returns the shard it took from. drain is set at shutdown. The depth reads
// are racy by design — a stale victim choice costs one wasted lock, never
// correctness.
func (s *scheduler) steal(own, limit int, drain bool, out []*task) (*shard, []*task) {
	v := policy.Victim(s.shards, own, shardDepth)
	if v < 0 {
		return nil, out[:0]
	}
	victim := s.shards[v]
	batch := victim.take(s, policy.StealCount(shardDepth(victim), limit, drain), out)
	if len(batch) > 0 && s.steals != nil {
		s.steals.Inc()
	}
	return victim, batch
}

// next returns the worker's next batch and the shard it was taken from, or
// (nil, nil) when the scheduler is closed and fully drained. Order of
// preference: the worker's own shard, then a steal from the busiest sibling.
// Workers park on their own shard's cond when nothing is runnable anywhere.
func (s *scheduler) next(id, max int, out []*task) (*shard, []*task) {
	own := s.ownShard(id)
	for {
		if batch := own.take(s, max, out); len(batch) > 0 {
			return own, batch
		}
		closed := s.closed.Load()
		if victim, batch := s.steal(id%len(s.shards), max, closed, out); len(batch) > 0 {
			return victim, batch
		}
		if closed {
			if s.aggDepth.Load() == 0 {
				// Tasks still marked executing belong to live workers, which
				// re-enter next() after finishing and drain what they block.
				return nil, nil
			}
			// Queued tasks remain but none are runnable by us right now
			// (their descriptors are mid-execution elsewhere, or a racing put
			// landed on a shard we already scanned). Yield and rescan; this
			// only spins during shutdown drain.
			runtime.Gosched()
			continue
		}
		s.park(id, own)
	}
}

// park blocks the worker on its own shard's cond until a task there is
// runnable, a producer pokes it to steal, or the scheduler closes. Queued
// tasks whose descriptor is executing elsewhere do not count: put signals
// the cond for a new task and finish for a batch that unblocks some. The
// worker registers as idle first so put's wakeIdle can find it; the poked
// flag is set under the shard lock, so the nomination is never lost between
// the worker's last scan and its Wait.
func (s *scheduler) park(id int, own *shard) {
	s.idleMu.Lock()
	s.idle = append(s.idle, id)
	s.idleMu.Unlock()
	s.idleCount.Add(1)
	own.mu.Lock()
	waited := false
	for !policy.Runnable(own.items, taskSID, own.executing) && !own.poked && !s.closed.Load() {
		own.cond.Wait()
		waited = true
	}
	own.poked = false
	own.mu.Unlock()
	if !waited {
		s.unwaited.Add(1)
	}
	s.idleCount.Add(-1)
	s.idleMu.Lock()
	for i, w := range s.idle {
		if w == id {
			s.idle = append(s.idle[:i], s.idle[i+1:]...)
			break
		}
	}
	s.idleMu.Unlock()
}

// wakeIdle pops one parked worker and pokes it toward the backlog. Popping
// under idleMu and setting poked under the target's shard lock makes the
// handoff race-free: either the worker has not started waiting yet and sees
// the flag, or it is waiting and the signal lands.
func (s *scheduler) wakeIdle() {
	s.idleMu.Lock()
	if len(s.idle) == 0 {
		s.idleMu.Unlock()
		return
	}
	id := s.idle[len(s.idle)-1]
	s.idle = s.idle[:len(s.idle)-1]
	s.idleMu.Unlock()
	sh := s.ownShard(id)
	sh.mu.Lock()
	sh.poked = true
	sh.mu.Unlock()
	sh.cond.Signal()
}

// finish unmarks batch's descriptors on the shard the batch was taken from
// and wakes the shard's owner if tasks were left waiting (they may have been
// blocked on exactly these descriptors).
func (s *scheduler) finish(sh *shard, batch []*task) {
	sh.mu.Lock()
	policy.Finish(batch, taskSID, sh.executing)
	notify := len(sh.items) > 0
	sh.mu.Unlock()
	if notify {
		sh.cond.Signal()
	}
}

// worker is one pool thread: it drains its own shard (stealing from the
// busiest sibling when idle), dequeues multiple I/O requests per wakeup and
// executes them in its event loop (paper Section IV).
func (s *Server) worker(id int) {
	defer s.workerWG.Done()
	m := s.metrics
	var batch []*task
	for {
		src, b := s.sched.next(id, s.cfg.Batch, batch)
		if b == nil {
			return
		}
		batch = b
		m.batches.Inc()
		m.batchSize.Observe(int64(len(batch)))
		// Timestamps chain through the batch: each task's service start is
		// the previous task's completion, so queue wait covers the full
		// time until service begins and backend covers exactly the
		// execution.
		now := time.Now()
		for _, t := range batch {
			if !t.enq.IsZero() {
				m.stageQueue.Observe(now.Sub(t.enq).Nanoseconds())
			}
			now = s.execute(t, now, m.workerPanics)
		}
		s.sched.finish(src, batch)
	}
}

// exec runs t to completion for a handler that replies afterwards and
// returns the bytes t moved and its backend result. t runs on the handler
// when the server has no pool, inline is set, or claimInline admits it, and
// otherwise on a worker while the handler waits. qerr is non-nil only when
// the scheduler refused the task (shutdown): nothing ran. The caller
// returns t's buffer either way.
func (s *Server) exec(t task, inline bool) (n int, err, qerr error) {
	if s.sched == nil || inline {
		_, err = s.runTask(&t, t.enq, s.metrics.connPanics)
		return t.n, err, nil
	}
	if s.sched.claimInline(t.d) {
		_, err = s.runTask(&t, t.enq, s.metrics.connPanics)
		s.sched.releaseInline()
		return t.n, err, nil
	}
	// Only a queued task outlives this frame, so only it is copied to the
	// heap.
	q := new(task)
	*q = t
	q.done = make(chan error, 1)
	if qerr = s.sched.put(q); qerr != nil {
		s.metrics.queueRejects.Inc()
		return 0, nil, qerr
	}
	err = <-q.done
	return q.n, err, nil
}

// runTask is the one place a data op reaches the backend. It observes the
// backend stage from start, records on the descriptor whether the call beat
// inlineMaxCall, and returns the completion time. It converts a backend
// panic into an EIO failure of that op alone, counted on panics — the conn
// scope on the handler, the worker scope in the pool — so a buggy or
// fault-injected backend can take down neither.
func (s *Server) runTask(t *task, start time.Time, panics *telemetry.Counter) (end time.Time, err error) {
	defer func() {
		if r := recover(); r != nil {
			panics.Inc()
			err = fmt.Errorf("%w: recovered backend panic: %v", EIO, r)
		}
		end = time.Now()
		took := end.Sub(start)
		t.d.fast.Store(took < inlineMaxCall)
		s.metrics.stageBackend.Observe(took.Nanoseconds())
	}()
	switch t.op {
	case OpWrite:
		_, err = t.d.handle.WriteAt(t.buf, t.off)
	case OpRead:
		t.n, err = t.d.handle.ReadAt(t.buf, t.off)
	}
	return // end is set by the deferred observation
}

// execute runs one dequeued or inline staged task and routes its result,
// counting a panic on panics. The backend stage is observed before the
// result is published so a snapshot taken after a drain sees every
// completed task. It returns the completion timestamp for the worker's
// chained batch timing.
func (s *Server) execute(t *task, start time.Time, panics *telemetry.Counter) time.Time {
	end, err := s.runTask(t, start, panics)
	if t.done != nil {
		t.done <- err
		return end
	}
	// Staged: the buffer is the worker's to return, and the outcome goes to
	// the descriptor database; the error (if any) surfaces on a later
	// operation on this descriptor.
	s.bml.Put(t.buf)
	t.d.complete(t.opNum, err)
	return end
}
