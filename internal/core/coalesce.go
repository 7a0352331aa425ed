package core

import (
	"context"
	"sync"
	"time"
)

// coalescer merges adjacent same-descriptor positional writes into one wire
// operation — the client-side half of the paper's §IV argument that request
// aggregation, not link speed, sets delivered bandwidth. Merging only
// happens when the in-flight cap (WindowConfig.Max) is full: while a slot is
// free a write goes straight out (no added latency), but once every slot is
// taken, writes that would otherwise park on the cap instead pile into a
// per-descriptor buffer. The first parked writer becomes the buffer's owner;
// a background sender lingers briefly for neighbors, seals the buffer, sends
// it as a single Pwrite through the ordinary call path (one slot, one RTT,
// replayed like any idempotent op), and splits the acknowledgement back
// onto the constituent writes in order.
//
// The cap must be smaller than the number of writers for it to fill: each
// writer holds at most one slot, so a cap at or above the writer count never
// fills and never merges. BenchmarkClientAdmission measures cap 2 with 8
// writers per client against a server that acks after the backend call.
//
// Only OpPwrite frames are merged: positional writes are idempotent, so a
// merged frame caught in flight by a connection failure is replayed
// verbatim on the new transport. Cursor writes (OpWrite) never coalesce —
// they are non-idempotent and fail fast on failover, merged or not.
type coalescer struct {
	c        *Client
	maxBytes int
	maxOps   int
	linger   time.Duration

	mu   sync.Mutex
	bufs map[uint64]*coalBuf
}

// coalBuf is one open merge buffer: a contiguous run of sub-writes starting
// at off on descriptor fd.
type coalBuf struct {
	fd     uint64
	off    uint64
	data   []byte
	subs   []*coalSub
	sealed bool
	full   chan struct{} // closed when the buffer fills before linger
}

// coalSub is one caller's share of a merged frame.
type coalSub struct {
	n    int
	done chan coalResult // cap 1: exactly one result per sub
}

type coalResult struct {
	n   int
	err error
}

func newCoalescer(c *Client, cfg CoalesceConfig) *coalescer {
	return &coalescer{
		c:        c,
		maxBytes: cfg.MaxBytes,
		maxOps:   cfg.MaxOps,
		linger:   cfg.Linger,
		bufs:     make(map[uint64]*coalBuf),
	}
}

func (b *coalBuf) end() uint64 { return b.off + uint64(len(b.data)) }

// writeAt is the coalescing write path. It returns handled=false when the
// write should take the ordinary single-op path: the cap has a free slot
// and there is no open buffer this write extends.
func (co *coalescer) writeAt(ctx context.Context, fd uint64, b []byte, off int64) (n int, err error, handled bool) {
	if len(b) == 0 || len(b) > co.maxBytes {
		return 0, nil, false
	}
	co.mu.Lock()
	if buf := co.bufs[fd]; buf != nil && !buf.sealed {
		if buf.end() == uint64(off) &&
			len(buf.data)+len(b) <= co.maxBytes && len(buf.subs) < co.maxOps {
			// Join the open buffer as a follower.
			sub := &coalSub{n: len(b), done: make(chan coalResult, 1)}
			buf.data = append(buf.data, b...)
			buf.subs = append(buf.subs, sub)
			co.c.met.coalesced.Inc()
			if len(buf.data) >= co.maxBytes || len(buf.subs) >= co.maxOps {
				buf.sealed = true
				delete(co.bufs, fd)
				close(buf.full) // wake the sender early: the buffer is full
			}
			co.mu.Unlock()
			return co.await(ctx, sub)
		}
		// An open chain exists but this write does not extend it. Take the
		// ordinary path and leave the chain lingering: usurping the map slot
		// here would orphan the chain mid-linger, so one out-of-order
		// arrival (descriptor offsets race their writers) would break every
		// in-order merge behind it.
		co.mu.Unlock()
		return 0, nil, false
	}
	if co.c.adm.hasRoom() {
		// A free slot: no reason to add linger latency; take the ordinary
		// single-op path, which acquires its own slot.
		co.mu.Unlock()
		return 0, nil, false
	}
	// Cap full and nothing to extend: open a buffer and own it. The
	// sender goroutine lingers for neighbors, then drives the merged frame;
	// it is joined by Client.Close via coalWG.
	sub := &coalSub{n: len(b), done: make(chan coalResult, 1)}
	buf := &coalBuf{
		fd:   fd,
		off:  uint64(off),
		data: append([]byte(nil), b...),
		subs: []*coalSub{sub},
		full: make(chan struct{}),
	}
	co.bufs[fd] = buf
	co.c.coalWG.Add(1)
	go co.send(buf)
	co.mu.Unlock()
	return co.await(ctx, sub)
}

// send lingers for followers, seals the buffer, drives the merged frame
// through the ordinary call path, and splits the result across the
// sub-writes. It runs on its own goroutine so a caller whose context ends
// mid-merge can return immediately without abandoning its neighbors.
func (co *coalescer) send(buf *coalBuf) {
	defer co.c.coalWG.Done()
	if co.linger > 0 {
		t := time.NewTimer(co.linger)
		select {
		case <-t.C:
		case <-buf.full:
			t.Stop()
		}
	}
	co.mu.Lock()
	if !buf.sealed {
		buf.sealed = true
		if co.bufs[buf.fd] == buf {
			delete(co.bufs, buf.fd)
		}
	}
	data, subs := buf.data, buf.subs
	co.mu.Unlock()
	// The merged frame uses its own context: the constituent writers wait
	// with their callers' contexts, and an individual cancellation must not
	// cancel neighbors' bytes. ClientConfig.Timeout still bounds the op
	// inside call, and Client.Close fails it fast.
	r, err := co.c.call(context.Background(), OpPwrite, buf.fd, buf.off, uint32(len(data)), "", data, nil)
	if err != nil {
		for _, s := range subs {
			s.done <- coalResult{0, err}
		}
		return
	}
	opErr := respErr(buf.fd, r)
	remaining := r.value
	for _, s := range subs {
		n := int64(s.n)
		if n > remaining {
			n = remaining
		}
		remaining -= n
		sErr := opErr
		if int(n) < s.n && sErr == nil {
			sErr = EIO // short merged write with a clean errno: surface it
		}
		s.done <- coalResult{int(n), sErr}
	}
}

// await waits for the caller's share of a merged frame. A context that ends
// first abandons only this sub-write's result — the merged frame still
// completes (or fails) for its neighbors, and the buffered result channel
// absorbs the late delivery.
func (co *coalescer) await(ctx context.Context, sub *coalSub) (int, error, bool) {
	select {
	case r := <-sub.done:
		return r.n, r.err, true
	case <-ctx.Done():
		return 0, co.c.ctxErr(ctx, OpPwrite, "waiting on a coalesced write"), true
	}
}
