package core

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// everyOtherSlowBackend sleeps on every second write (the 2nd, 4th, ...) so
// a test can steer claimInline: the op after a slow call always queues.
type everyOtherSlowBackend struct {
	Backend
	writes atomic.Int64
}

func (b *everyOtherSlowBackend) Open(name string, create bool) (Handle, error) {
	h, err := b.Backend.Open(name, create)
	if err != nil {
		return nil, err
	}
	return everyOtherSlowHandle{h, b}, nil
}

type everyOtherSlowHandle struct {
	Handle
	b *everyOtherSlowBackend
}

func (h everyOtherSlowHandle) WriteAt(p []byte, off int64) (int, error) {
	if h.b.writes.Add(1)%2 == 0 {
		time.Sleep(10 * inlineMaxCall)
	}
	return h.Handle.WriteAt(p, off)
}

// stallBackend's writes are fast until stall is called; the next write then
// closes entered and blocks until release is closed.
type stallBackend struct {
	Backend
	armed            atomic.Bool
	entered, release chan struct{}
}

func (b *stallBackend) stall() {
	b.entered, b.release = make(chan struct{}), make(chan struct{})
	b.armed.Store(true)
}

func (b *stallBackend) Open(name string, create bool) (Handle, error) {
	h, err := b.Backend.Open(name, create)
	if err != nil {
		return nil, err
	}
	return stallHandle{h, b}, nil
}

type stallHandle struct {
	Handle
	b *stallBackend
}

func (h stallHandle) WriteAt(p []byte, off int64) (int, error) {
	if h.b.armed.CompareAndSwap(true, false) {
		close(h.b.entered)
		<-h.b.release
	}
	return h.Handle.WriteAt(p, off)
}

// TestInlineWhenIdle pins the inline-when-idle rule: an op on an idle
// descriptor whose last backend call beat a hand-off runs on its handler,
// and every other op queues as before.
func TestInlineWhenIdle(t *testing.T) {
	const rec = 512
	fill := func(gen int) []byte { return bytes.Repeat([]byte{byte(gen)}, rec) }

	// On a mem backend, once the descriptor has a fast call behind it,
	// staged writes run on the handler: the queue stage stops counting them
	// while their replies still carry FlagStaged. The client waits for each
	// write to finish before the next, like one slower than a hand-off; a
	// client that outruns the pool keeps finding its last write in flight,
	// and queueing behind it is the rule.
	t.Run("mem", func(t *testing.T) {
		const writes = 64
		s := NewServer(Config{Mode: ModeAsync, Workers: 2})
		t.Cleanup(func() { _ = s.Close() })
		w := newWireConn(t, s)
		fd := w.open("inline")
		m := s.metrics
		// The first write sizes the object, so no later one grows it. Then
		// write until one runs inline: the first write queues (no history)
		// and a call slower than a hand-off sends the next one to the pool.
		w.call(header{op: OpPwrite, fd: fd, offset: writes * rec, length: rec}, fill(writes))
		w.call(header{op: OpFlush})
		for i := 0; ; i++ {
			q := m.stageQueue.Count()
			w.call(header{op: OpPwrite, fd: fd, length: rec}, fill(0))
			w.call(header{op: OpFlush})
			if m.stageQueue.Count() == q {
				break
			}
			if i == 10 {
				t.Fatal("no write ran inline in 10 tries")
			}
		}
		warm := m.stageQueue.Count()
		for i := 0; i < writes; i++ {
			for m.inflightStaged.Value() != 0 {
				time.Sleep(10 * time.Microsecond)
			}
			r, _ := w.call(header{op: OpPwrite, fd: fd, offset: uint64(i * rec), length: rec}, fill(i))
			if r.flags != FlagStaged || Errno(r.pathLen) != EOK || r.offset != rec {
				t.Fatalf("write %d: flags %#x errno %v value %d, want staged", i, r.flags, Errno(r.pathLen), r.offset)
			}
		}
		w.call(header{op: OpFlush})
		// A rare call slower than a hand-off (a preempted copy) sends the
		// next write to the pool; more than a few means the rule is broken.
		if got := m.stageQueue.Count() - warm; got > writes/8 {
			t.Fatalf("queue stage observed %d of %d writes", got, writes)
		}
		r, data := w.call(header{op: OpPread, fd: fd, length: (writes + 1) * rec})
		if Errno(r.pathLen) != EOK {
			t.Fatalf("read back: errno %v", Errno(r.pathLen))
		}
		for i := 0; i <= writes; i++ {
			if !bytes.Equal(data[i*rec:(i+1)*rec], fill(i)) {
				t.Fatalf("record %d read back wrong", i)
			}
		}
	})

	// Same-offset overwrites alternate inline and queued: every second call
	// is slow, so a write after a fast call runs inline and makes the next
	// one queue. Each round's read must see the round's last writer.
	t.Run("mixed", func(t *testing.T) {
		const rounds = 16
		s := NewServer(Config{Mode: ModeAsync, Workers: 2, Backend: &everyOtherSlowBackend{Backend: NewMemBackend()}})
		t.Cleanup(func() { _ = s.Close() })
		w := newWireConn(t, s)
		fd := w.open("mixed")
		w.call(header{op: OpPwrite, fd: fd, length: rec}, fill(0)) // no history: queues, fast
		w.call(header{op: OpFlush})
		gen := 0
		for i := 0; i < rounds; i++ {
			for j := 0; j < 2; j++ { // inline (slow call), then queued (fast call)
				gen++
				if r, _ := w.call(header{op: OpPwrite, fd: fd, length: rec}, fill(gen)); r.flags != FlagStaged || Errno(r.pathLen) != EOK {
					t.Fatalf("write %d: flags %#x errno %v, want staged", gen, r.flags, Errno(r.pathLen))
				}
			}
			r, data := w.call(header{op: OpPread, fd: fd, length: rec})
			if Errno(r.pathLen) != EOK || !bytes.Equal(data, fill(gen)) {
				t.Fatalf("round %d: read back errno %v, last writer %d lost", i, Errno(r.pathLen), gen)
			}
		}
		// The first write and every write after a slow call queued; the
		// others (and the reads) may run inline. Allow a few hiccups.
		got := int(s.metrics.stageQueue.Count())
		if got < 1+rounds || got > 1+rounds+rounds/2 {
			t.Fatalf("queue stage observed %d ops, want %d..%d", got, 1+rounds, 1+rounds+rounds/2)
		}
	})

	// On a 2 ms backend every op stays on the pool, and a panic there counts
	// under the worker scope.
	t.Run("slow", func(t *testing.T) {
		const writes, panicOff = 5, 1 << 20
		s := NewServer(Config{
			Mode: ModeAsync, Workers: 2,
			Backend: panicAtBackend{&slowBackend{inner: NewMemBackend(), delay: 2 * time.Millisecond}, panicOff},
		})
		t.Cleanup(func() { _ = s.Close() })
		w := newWireConn(t, s)
		fd := w.open("slow")
		for i := 0; i < writes; i++ {
			off := uint64(i * rec)
			if i == writes-1 {
				off = panicOff
			}
			w.call(header{op: OpPwrite, fd: fd, offset: off, length: rec}, fill(i))
			w.call(header{op: OpFlush})
		}
		m := s.metrics
		if got := m.stageQueue.Count(); got != writes {
			t.Fatalf("queue stage observed %d of %d writes", got, writes)
		}
		if wp, cp := m.workerPanics.Value(), m.connPanics.Value(); wp != 1 || cp != 0 {
			t.Fatalf("panics worker=%d conn=%d, want 1/0", wp, cp)
		}
		if r, _ := w.call(header{op: OpFsync, fd: fd}); r.flags != FlagDeferredErr || Errno(r.pathLen) != EIO {
			t.Fatalf("fsync: flags %#x errno %v, want deferred EIO", r.flags, Errno(r.pathLen))
		}
	})

	// A backend that stalls after fast calls catches one op inline: the
	// staged write is acknowledged, then its handler blocks in the backend,
	// and the connection's next frame, on another descriptor, waits for the
	// stall to end. The stalled call marks the descriptor slow, so its next
	// write queues.
	t.Run("stall", func(t *testing.T) {
		for try := 0; ; try++ {
			if try == 10 {
				t.Fatal("the stalled write never ran inline in 10 tries")
			}
			b := &stallBackend{Backend: NewMemBackend()}
			s := NewServer(Config{Mode: ModeAsync, Workers: 2, Backend: b})
			w := newWireConn(t, s)
			fd, other := w.open("stall"), w.open("other")
			m := s.metrics
			for i := 0; ; i++ { // until a write runs inline
				q := m.stageQueue.Count()
				w.call(header{op: OpPwrite, fd: fd, length: rec}, fill(1))
				w.call(header{op: OpFlush})
				if m.stageQueue.Count() == q {
					break
				}
				if i == 10 {
					t.Fatal("no write ran inline in 10 tries")
				}
			}
			b.stall()
			q := m.stageQueue.Count()
			if r, _ := w.call(header{op: OpPwrite, fd: fd, length: rec}, fill(2)); r.flags != FlagStaged {
				t.Fatalf("stalled write: flags %#x, want staged", r.flags)
			}
			<-b.entered
			if m.stageQueue.Count() != q {
				// The warm-up's last call was slower than a hand-off, so the
				// stalled write went to a worker; try again.
				close(b.release)
				_ = s.Close()
				continue
			}
			w.req++
			h := header{op: OpPwrite, reqID: w.req, fd: other, length: rec}
			replied := make(chan error, 1)
			go func() {
				var hb [headerSize]byte
				if err := writeFrame(w.nc, hb[:], &h, "", fill(3)); err != nil {
					replied <- err
					return
				}
				var r header
				err := readHeader(w.nc, &hb, &r)
				if err == nil && (r.reqID != h.reqID || r.flags != FlagStaged) {
					err = fmt.Errorf("reply id %d flags %#x, want %d staged", r.reqID, r.flags, h.reqID)
				}
				replied <- err
			}()
			select {
			case err := <-replied:
				t.Fatalf("write on a second descriptor answered during the stall: %v", err)
			case <-time.After(50 * time.Millisecond):
			}
			close(b.release)
			select {
			case err := <-replied:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("write on a second descriptor still waiting after the stall ended")
			}
			w.call(header{op: OpFlush})
			q = m.stageQueue.Count()
			w.call(header{op: OpPwrite, fd: fd, length: rec}, fill(4))
			w.call(header{op: OpFlush})
			if m.stageQueue.Count() != q+1 {
				t.Fatal("the write after a stalled call did not queue")
			}
			r, data := w.call(header{op: OpPread, fd: fd, length: rec})
			if Errno(r.pathLen) != EOK || !bytes.Equal(data, fill(4)) {
				t.Fatalf("read back errno %v, last writer lost", Errno(r.pathLen))
			}
			_ = s.Close()
			return
		}
	})

	// At most Workers ops run inline at once, none beside a queued task on
	// the home shard or an op of the descriptor in flight, and none once
	// the scheduler has closed.
	t.Run("tokens", func(t *testing.T) {
		s := NewServer(Config{Mode: ModeWorkQueue, Workers: 2})
		d := newDescriptor(3, "tokens", nil)
		if s.sched.claimInline(d) {
			t.Fatal("a descriptor with no history claimed inline")
		}
		d.fast.Store(true)
		if !s.sched.claimInline(d) || !s.sched.claimInline(d) {
			t.Fatal("an idle fast descriptor was refused a free token")
		}
		if s.sched.claimInline(d) {
			t.Fatal("claimed a third token with Workers=2")
		}
		s.sched.releaseInline()
		home := s.sched.homeShard(d)
		home.depth.Store(1) // as if a sibling descriptor's task were queued there
		if s.sched.claimInline(d) {
			t.Fatal("claimed inline beside a non-empty home shard")
		}
		home.depth.Store(0)
		d.start(0, 0)
		if s.sched.claimInline(d) {
			t.Fatal("a descriptor with a staged op in flight claimed inline")
		}
		d.complete(1, nil)
		if !s.sched.claimInline(d) {
			t.Fatal("released token not reusable")
		}
		s.sched.releaseInline()
		s.sched.releaseInline()
		_ = s.Close()
		if s.sched.claimInline(d) {
			t.Fatal("claimed inline on a closed scheduler")
		}
	})
}
