package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// orderHandle records the opNum encoded in each written payload, in
// execution order.
type orderHandle struct {
	mu   sync.Mutex
	seen []uint64
}

func (h *orderHandle) WriteAt(b []byte, off int64) (int, error) {
	h.mu.Lock()
	h.seen = append(h.seen, binary.BigEndian.Uint64(b))
	h.mu.Unlock()
	return len(b), nil
}
func (h *orderHandle) ReadAt(b []byte, off int64) (int, error) { return len(b), nil }
func (h *orderHandle) Sync() error                             { return nil }
func (h *orderHandle) Size() (int64, error)                    { return 0, nil }
func (h *orderHandle) Close() error                            { return nil }

// TestShardOrderingPerDescriptor floods one descriptor with staged writes
// while sibling descriptors keep every other shard busy: the hot
// descriptor's operations must execute in opNum order even though idle
// workers are stealing around it.
func TestShardOrderingPerDescriptor(t *testing.T) {
	srv := newServer(Config{Mode: ModeAsync, Workers: 4, Batch: 4}, 4)
	defer srv.Close()

	hot := newDescriptor(3, "hot", &orderHandle{})
	const ops = 200
	for i := 1; i <= ops; i++ {
		buf := srv.bml.Get(8)
		binary.BigEndian.PutUint64(buf, uint64(i))
		hot.start(0, 0)
		if err := srv.sched.put(&task{d: hot, op: OpWrite, buf: buf, off: 0, opNum: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		// Interleave noise on other descriptors so steals actually happen.
		if i%4 == 0 {
			noise := newDescriptor(uint64(100+i), "noise", &orderHandle{})
			nb := srv.bml.Get(8)
			done := make(chan error, 1)
			if err := srv.sched.put(&task{d: noise, op: OpWrite, buf: nb, off: 0, done: done}); err != nil {
				t.Fatal(err)
			}
			go func() { <-done; srv.bml.Put(nb) }() // the waiter returns a synchronous task's buffer
		}
	}
	hot.drain()
	h := hot.handle.(*orderHandle)
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.seen) != ops {
		t.Fatalf("executed %d of %d staged writes", len(h.seen), ops)
	}
	for i, op := range h.seen {
		if op != uint64(i+1) {
			t.Fatalf("write %d executed out of order: got opNum %d, want %d (full: %v...)",
				i, op, i+1, h.seen[:i+1])
		}
	}
}

// slowCountHandle sleeps per write and records which descriptor ran.
type slowCountHandle struct {
	delay time.Duration
	runs  *atomic.Int64
}

func (h *slowCountHandle) WriteAt(b []byte, off int64) (int, error) {
	time.Sleep(h.delay)
	h.runs.Add(1)
	return len(b), nil
}
func (h *slowCountHandle) ReadAt(b []byte, off int64) (int, error) { return len(b), nil }
func (h *slowCountHandle) Sync() error                             { return nil }
func (h *slowCountHandle) Size() (int64, error)                    { return 0, nil }
func (h *slowCountHandle) Close() error                            { return nil }

// TestWorkStealingDrainsHotShard pins every descriptor to shard 0: the
// other three workers have empty shards and must drain the backlog via
// steals, which the steal counter records.
func TestWorkStealingDrainsHotShard(t *testing.T) {
	srv := newServer(Config{Mode: ModeWorkQueue, Workers: 4, Batch: 2}, 4)
	defer srv.Close()

	var runs atomic.Int64
	const descs = 8
	const perDesc = 6
	var wg sync.WaitGroup
	for i := 0; i < descs; i++ {
		d := newDescriptor(uint64(10+i), fmt.Sprintf("d%d", i), &slowCountHandle{delay: 2 * time.Millisecond, runs: &runs})
		d.sid = uint64(i) * uint64(len(srv.sched.shards)) // all home to shard 0
		for j := 0; j < perDesc; j++ {
			buf := srv.bml.Get(8)
			done := make(chan error, 1)
			if err := srv.sched.put(&task{d: d, op: OpWrite, buf: buf, off: 0, done: done}); err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() { defer wg.Done(); <-done; srv.bml.Put(buf) }()
		}
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("hot shard did not drain: %d/%d tasks ran", runs.Load(), descs*perDesc)
	}
	if got := runs.Load(); got != descs*perDesc {
		t.Fatalf("ran %d tasks, want %d", got, descs*perDesc)
	}
	if srv.sched.steals == nil || srv.sched.steals.Value() == 0 {
		t.Fatal("hot shard drained without a single steal; idle workers never helped")
	}
}

// TestPutDuringCloseReturnsECLOSED hammers put from many producers while
// the scheduler closes mid-stream: every put must return nil (task will be
// drained) or ECLOSED — never panic, never strand a synchronous waiter.
// Run under -race this also checks the close/put publication ordering.
func TestPutDuringCloseReturnsECLOSED(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		srv := newServer(Config{Mode: ModeWorkQueue, Workers: 2}, 2)
		var wg sync.WaitGroup
		var rejected atomic.Int64
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				d := newDescriptor(uint64(3+p), "x", &orderHandle{})
				for i := 0; i < 100; i++ {
					buf := srv.bml.Get(8)
					done := make(chan error, 1)
					err := srv.sched.put(&task{d: d, op: OpWrite, buf: buf, off: 0, done: done})
					if err != nil {
						if !errors.Is(err, ECLOSED) {
							t.Errorf("put during close: %v", err)
						}
						srv.bml.Put(buf)
						rejected.Add(1)
						return
					}
					// Accepted: the worker pool must complete it even if
					// close raced in right after.
					select {
					case <-done:
						srv.bml.Put(buf)
					case <-time.After(10 * time.Second):
						t.Error("accepted task never completed across close")
						return
					}
				}
			}(p)
		}
		time.Sleep(time.Duration(trial%5) * 100 * time.Microsecond)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// TestSchedulerAtomicDepth checks the aggregate queue depth: aggDepth must
// track puts and dequeues without touching shard locks (it is one atomic),
// and must settle to zero after a drain.
func TestSchedulerAtomicDepth(t *testing.T) {
	srv := newServer(Config{Mode: ModeAsync, Workers: 2}, 2)
	defer srv.Close()
	if got := srv.sched.aggDepth.Load(); got != 0 {
		t.Fatalf("fresh scheduler depth %d", got)
	}
	d := newDescriptor(3, "gate", &slowCountHandle{delay: 5 * time.Millisecond, runs: new(atomic.Int64)})
	for i := 0; i < 16; i++ {
		buf := srv.bml.Get(8)
		d.start(0, 0)
		if err := srv.sched.put(&task{d: d, op: OpWrite, buf: buf, opNum: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// One descriptor executes serially, so most of the backlog is queued.
	if got := srv.sched.aggDepth.Load(); got == 0 {
		t.Fatal("depth 0 with a queued backlog")
	}
	d.drain()
	deadline := time.Now().Add(5 * time.Second)
	for srv.sched.aggDepth.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("depth stuck at %d after drain", srv.sched.aggDepth.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestZeroCopyReadE2E drives real reads over a connection in every mode and
// asserts the zero-copy reply invariants: correct data, the zero-copy
// counter moving, and the staging pool fully returned (a double Put would
// panic; a missed Put leaves Used > 0).
func TestZeroCopyReadE2E(t *testing.T) {
	for _, mode := range []Mode{ModeDirect, ModeWorkQueue, ModeAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			srv := newServer(Config{Mode: mode, Workers: 2}, 2)
			defer srv.Close()
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = srv.Serve(l) }()
			c, err := ClientConfig{}.Dial(context.Background(), "tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			f, err := c.Open(context.Background(), "zc")
			if err != nil {
				t.Fatal(err)
			}
			want := bytes.Repeat([]byte{0xA5}, 64<<10)
			if _, err := f.Write(want); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			for i := 0; i < 8; i++ {
				n, err := f.ReadAt(got, 0)
				if err != nil || n != len(want) {
					t.Fatalf("read %d: n=%d err=%v", i, n, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("read %d corrupted", i)
				}
			}
			if got := srv.metrics.zeroCopyReplies.Value(); got < 8 {
				t.Fatalf("zero-copy replies counted %d, want >= 8", got)
			}
			// Every leased frame must be back in the pool: a double Put
			// panics in BML, a leak shows up as non-zero usage.
			deadline := time.Now().Add(5 * time.Second)
			for srv.bml.Used() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("BML leak after reads: %d bytes still reserved", srv.bml.Used())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestShardMetricsRegistered pins the new metric families: per-shard depth
// gauges (one per shard), the steal counter, and the zero-copy counter must
// all be exported.
func TestShardMetricsRegistered(t *testing.T) {
	srv := newServer(Config{Mode: ModeAsync, Workers: 4}, 3)
	defer srv.Close()
	var buf bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`iofwd_shard_depth{shard="0"}`,
		`iofwd_shard_depth{shard="1"}`,
		`iofwd_shard_depth{shard="2"}`,
		"iofwd_steals_total",
		"iofwd_zero_copy_replies_total",
		"iofwd_queue_depth",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	_ = out
}

// TestDefaultShards pins the shard-count default: one per worker, capped at
// GOMAXPROCS, never below one.
func TestDefaultShards(t *testing.T) {
	if got := defaultShards(0); got != 1 {
		t.Fatalf("defaultShards(0) = %d", got)
	}
	if got := defaultShards(1); got != 1 {
		t.Fatalf("defaultShards(1) = %d", got)
	}
	big := defaultShards(1 << 20)
	if big < 1 || big > 1<<20 {
		t.Fatalf("defaultShards(huge) = %d", big)
	}
}

// TestParkWaitsWhileShardBlocked: a thief holds the stolen prefix of a
// descriptor's tasks, so the owner's shard holds only tasks blocked behind
// it. The owner must wait for the thief's finish, not spin take → steal →
// park until it comes.
func TestParkWaitsWhileShardBlocked(t *testing.T) {
	s := newScheduler(2, 2)
	d := newDescriptor(3, "blocked", nil)
	for s.homeShard(d) != s.shards[0] {
		d = newDescriptor(3, "blocked", nil)
	}
	for i := 1; i <= 6; i++ {
		if err := s.put(&task{d: d, op: OpWrite, opNum: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Worker 1 steals half of shard 0: d's first three tasks.
	victim, stolen := s.steal(1, 8, false, nil)
	if victim != s.shards[0] || len(stolen) != 3 {
		t.Fatalf("steal took %d tasks, want d's first 3 from shard 0", len(stolen))
	}
	got := make(chan []*task, 1)
	go func() {
		_, batch := s.next(0, 8, nil)
		got <- batch
	}()
	time.Sleep(10 * time.Millisecond) // worker 1 runs its batch
	s.finish(victim, stolen)
	select {
	case batch := <-got:
		if len(batch) != 3 || batch[0].opNum != 4 || batch[2].opNum != 6 {
			t.Fatalf("owner took %d tasks after the thief finished, want opNums 4–6", len(batch))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("owner never woke after the thief finished")
	}
	if n := s.unwaited.Load(); n > 5 {
		t.Fatalf("park returned %d times without waiting while the shard held only blocked tasks", n)
	}
}
