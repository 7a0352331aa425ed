// Package policy holds the forwarding decisions that the real server
// (internal/core) and the simulator (internal/iofwd) must make identically:
// BML class rounding, the home-shard hash, the runnable-prefix batch take
// and the runnable test, the steal victim and count, and the deferred-error
// rule. It has no clock,
// no locks and no goroutines; each caller brings its own synchronization and
// its own time.
package policy

import "math/bits"

// MinClass is the smallest BML buffer class: tiny operations still take a
// 4 KiB buffer, as a slab allocator's would.
const MinClass = 4 * 1024

// Class returns the power-of-2 BML buffer class that holds n bytes ("the
// buffer management allocates buffers that are powers of 2 bytes").
func Class(n int64) int64 {
	if n <= MinClass {
		return MinClass
	}
	return 1 << bits.Len64(uint64(n-1))
}

// Home returns which of n queues owns every task of the descriptor with the
// given key, so one descriptor's tasks share one FIFO.
func Home(key uint64, n int) int { return int(key % uint64(n)) }

// Take moves up to limit runnable tasks of queue, in FIFO order, into out[:0]
// and counts them in executing under their descriptor's key. It returns the
// tasks left queued, in order and in queue's backing array, and the batch. A
// task is runnable when none of its descriptor's tasks is executing. Take
// counts the batch only after its scan, so it may take several of one idle
// descriptor's tasks: a batch holds a prefix of each descriptor's queued
// tasks and runs it serially, and per-descriptor order survives batching and
// stealing. Take allocates nothing while out has room.
func Take[T any, K comparable](queue, out []T, limit int, key func(T) K, executing map[K]int) (rest, batch []T) {
	out = out[:0]
	kept := 0
	for _, t := range queue {
		if len(out) < limit && executing[key(t)] == 0 {
			out = append(out, t)
		} else {
			queue[kept] = t
			kept++
		}
	}
	clear(queue[kept:])
	for _, t := range out {
		executing[key(t)]++
	}
	return queue[:kept], out
}

// Runnable reports whether queue holds a task Take would return: one whose
// descriptor has no task executing. A worker whose queue holds only blocked
// tasks has nothing to do until a Finish unblocks one.
func Runnable[T any, K comparable](queue []T, key func(T) K, executing map[K]int) bool {
	for _, t := range queue {
		if executing[key(t)] == 0 {
			return true
		}
	}
	return false
}

// Finish uncounts a batch that Take returned, once the batch has run.
func Finish[T any, K comparable](batch []T, key func(T) K, executing map[K]int) {
	for _, t := range batch {
		k := key(t)
		if executing[k]--; executing[k] <= 0 {
			delete(executing, k)
		}
	}
}

// Victim returns the index of the deepest of queues other than own, or -1
// when all of them are empty; ties go to the lowest index. An idle worker
// steals from the victim alone, so a victim whose tasks are all blocked
// yields nothing until the worker running them finishes.
func Victim[Q any](queues []Q, own int, depth func(Q) int) int {
	v, max := -1, 0
	for i, q := range queues {
		if d := depth(q); i != own && d > max {
			v, max = i, d
		}
	}
	return v
}

// StealCount returns how many tasks an idle worker takes from a victim with
// depth tasks queued, at most limit: half of them, rounded up, so owner and
// thief both keep work, or all of them in drain mode (shutdown), so the last
// workers empty every queue.
func StealCount(depth, limit int, drain bool) int {
	if !drain {
		depth = (depth + 1) / 2
	}
	return min(depth, limit)
}

// Deferred is a descriptor's deferred error. A staged operation completes
// after its reply has left, so its failure is reported on a later operation
// on the descriptor: the first failure wins, and it is reported once.
type Deferred struct {
	err error
	op  uint64
}

// Record notes that operation op finished with err.
func (d *Deferred) Record(op uint64, err error) {
	if err != nil && d.err == nil {
		d.err, d.op = err, op
	}
}

// Take returns the pending error and the operation it came from, and clears
// it; err is nil when nothing is pending.
func (d *Deferred) Take() (op uint64, err error) {
	op, err = d.op, d.err
	*d = Deferred{}
	return op, err
}
