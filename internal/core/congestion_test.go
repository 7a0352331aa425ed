package core

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or d elapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// patternAt is the deterministic byte expected at file offset off in the
// coalescing tests, so replays and merges can be byte-verified.
func patternAt(off int64) byte { return byte(off%251) ^ byte(off>>10) }

func patternChunk(off, n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = patternAt(off + int64(i))
	}
	return b
}

// parkedAcquirers counts goroutines parked in admission.acquire. The cap
// keeps no waiter list (the channel's own queue is the list), so a test
// reads the parked callers from a dump of every goroutine's stack.
func parkedAcquirers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	parked := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[select") && strings.Contains(g, "(*admission).acquire") {
			parked++
		}
	}
	return parked
}

// TestCongestionSlotTransfer checks the cap's accounting: a release hands
// its slot to the oldest parked caller, a caller whose context ends while
// parked takes no slot, and close wakes a parked caller with the terminal
// error and fails every later acquire.
func TestCongestionSlotTransfer(t *testing.T) {
	a := newAdmission(1)
	ctx := context.Background()
	base := parkedAcquirers()
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if a.hasRoom() {
		t.Fatal("hasRoom with the only slot taken")
	}
	park := func(ctx context.Context, parked int) chan error {
		ch := make(chan error, 1)
		go func() { ch <- a.acquire(ctx) }()
		waitFor(t, time.Second, "acquirer to park", func() bool { return parkedAcquirers() == base+parked })
		return ch
	}
	result := func(ch chan error, who string) error {
		select {
		case err := <-ch:
			return err
		case <-time.After(2 * time.Second):
			t.Fatalf("%s never returned", who)
			return nil
		}
	}

	first := park(ctx, 1)
	cctx, cancel := context.WithCancel(ctx)
	canceled := park(cctx, 2)
	second := park(ctx, 3)
	cancel()
	if err := result(canceled, "canceled waiter"); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
	}

	a.release()
	if err := result(first, "oldest waiter"); err != nil {
		t.Fatalf("oldest waiter returned %v", err)
	}
	select {
	case err := <-second:
		t.Fatalf("younger waiter took the released slot (%v)", err)
	default:
	}
	a.release()
	if err := result(second, "second waiter"); err != nil {
		t.Fatalf("second waiter returned %v", err)
	}
	if _, _, inflight := a.snapshot(); inflight != 1 {
		t.Fatalf("inflight after two slot transfers = %d, want 1", inflight)
	}

	terminal := errors.New("terminal")
	closed := park(ctx, 1)
	a.close(terminal)
	if err := result(closed, "closed waiter"); !errors.Is(err, terminal) {
		t.Fatalf("closed waiter returned %v, want %v", err, terminal)
	}
	a.release()
	if err := a.acquire(ctx); !errors.Is(err, terminal) {
		t.Fatalf("acquire after close returned %v, want %v", err, terminal)
	}
	if _, _, inflight := a.snapshot(); inflight != 0 {
		t.Fatalf("inflight after the last release = %d, want 0", inflight)
	}
}

// TestClientConfigValidate exercises the EINVAL classification of the new
// construction surface.
func TestClientConfigValidate(t *testing.T) {
	good := []ClientConfig{
		{},
		{Timeout: time.Second, MaxRetries: 8, Window: WindowConfig{Max: 64},
			Coalesce: CoalesceConfig{MaxBytes: 1 << 20, MaxOps: 4, Linger: time.Millisecond}},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := map[string]ClientConfig{
		"negative timeout":       {Timeout: -time.Second},
		"negative retries":       {MaxRetries: -1},
		"inverted backoff":       {RetryBase: time.Second, RetryMax: time.Millisecond},
		"negative cap":           {Window: WindowConfig{Max: -1}},
		"coalesce sans window":   {Coalesce: CoalesceConfig{MaxBytes: 4096}},
		"linger a second":        {Window: WindowConfig{Max: 8}, Coalesce: CoalesceConfig{MaxBytes: 4096, Linger: time.Second}},
		"oversized merged frame": {Window: WindowConfig{Max: 8}, Coalesce: CoalesceConfig{MaxBytes: MaxPayload + 1}},
	}
	for name, cfg := range bad {
		if err := cfg.Validate(); !errors.Is(err, EINVAL) {
			t.Errorf("%s: Validate() = %v, want EINVAL", name, err)
		}
	}
}

// countingBackend counts terminal WriteAt calls so a test can assert how
// many wire writes actually reached the backend.
type countingBackend struct {
	inner  Backend
	writes atomic.Int64
}

func (b *countingBackend) Open(name string, create bool) (Handle, error) {
	h, err := b.inner.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &countingHandle{b: b, inner: h}, nil
}

type countingHandle struct {
	b     *countingBackend
	inner Handle
}

func (h *countingHandle) WriteAt(p []byte, off int64) (int, error) {
	h.b.writes.Add(1)
	return h.inner.WriteAt(p, off)
}
func (h *countingHandle) ReadAt(p []byte, off int64) (int, error) { return h.inner.ReadAt(p, off) }
func (h *countingHandle) Sync() error                             { return h.inner.Sync() }
func (h *countingHandle) Size() (int64, error)                    { return h.inner.Size() }
func (h *countingHandle) Close() error                            { return h.inner.Close() }

// TestCoalesceMergesAdjacentWrites pins the merge mechanics: with the
// window full (one gated write holding the single slot), three adjacent
// writes from three goroutines must ride one wire operation — two follower
// joins, one leader — and come back with their exact per-sub counts.
func TestCoalesceMergesAdjacentWrites(t *testing.T) {
	const chunk = 4096
	mem := NewMemBackend()
	counting := &countingBackend{inner: mem}
	gate := &gateBackend{inner: counting, release: make(chan struct{})}
	srv := NewServer(Config{Backend: gate})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	defer l.Close()

	ctx := context.Background()
	cfg := ClientConfig{
		Timeout: 10 * time.Second,
		Window:  WindowConfig{Max: 1},
		// MaxOps 3 seals the buffer the moment the third sub joins, so the
		// merged frame goes out on a deterministic trigger, not the linger
		// timer; the long linger only backstops scheduler stalls.
		Coalesce: CoalesceConfig{MaxBytes: 1 << 20, MaxOps: 3, Linger: 800 * time.Millisecond},
	}
	c, err := cfg.Dial(ctx, "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open(ctx, "merge")
	if err != nil {
		t.Fatal(err)
	}

	write := func(i int64) chan error {
		ch := make(chan error, 1)
		go func() {
			n, err := f.WriteAt(patternChunk(i*chunk, chunk), i*chunk)
			if err == nil && n != chunk {
				err = errors.New("short write")
			}
			ch <- err
		}()
		return ch
	}

	// w0 takes the only window slot and parks on the backend gate.
	w0 := write(0)
	waitFor(t, 2*time.Second, "gated write to hold the window slot", func() bool {
		return c.Stats().Inflight == 1
	})
	// w1 finds the window full and nothing to extend: it opens the buffer.
	w1 := write(1)
	time.Sleep(30 * time.Millisecond)
	// w2 and w3 extend it; each join ticks the coalesced counter.
	w2 := write(2)
	waitFor(t, 2*time.Second, "second write to join the merge buffer", func() bool {
		return c.Stats().CoalescedWrites >= 1
	})
	w3 := write(3)
	waitFor(t, 2*time.Second, "third write to join the merge buffer", func() bool {
		return c.Stats().CoalescedWrites >= 2
	})

	close(gate.release)
	for i, ch := range []chan error{w0, w1, w2, w3} {
		if err := <-ch; err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	if got := counting.writes.Load(); got != 2 {
		t.Errorf("backend saw %d writes, want 2 (the gated write plus one merged frame)", got)
	}
	if got := c.Stats().CoalescedWrites; got != 2 {
		t.Errorf("CoalescedWrites = %d, want 2 (followers only; the leader is not a merge)", got)
	}
	got, ok := mem.Bytes("merge")
	if !ok || len(got) != 4*chunk {
		t.Fatalf("backend object length %d, want %d", len(got), 4*chunk)
	}
	if want := patternChunk(0, 4*chunk); !bytes.Equal(got, want) {
		t.Error("merged write corrupted the byte pattern")
	}
	// Read back through the client too: the coalescer must be invisible to
	// the read path.
	rb := make([]byte, 4*chunk)
	if _, err := f.ReadAtCtx(ctx, rb, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb, patternChunk(0, 4*chunk)) {
		t.Error("readback mismatch after merge")
	}
}

// TestCoalesceEngagesAtFixedCap: against a server whose replies wait for
// the backend (ModeWorkQueue), a cap of 2 under 8 writers stays full, so
// adjacent writes park and merge. A cap at or above the writer count never
// fills and never merges, which is what an AIMD window growing to a Max of
// 32 did here. The gate holds the first write so the cap is full from the
// start; every byte must read back exactly.
func TestCoalesceEngagesAtFixedCap(t *testing.T) {
	const (
		chunk   = int64(4096)
		chunks  = 256
		writers = 8
	)
	mem := NewMemBackend()
	gate := &gateBackend{inner: &slowBackend{inner: mem, delay: 200 * time.Microsecond}, release: make(chan struct{})}
	srv := NewServer(Config{Mode: ModeWorkQueue, Backend: gate})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	defer l.Close()

	ctx := context.Background()
	cfg := ClientConfig{
		Timeout:  10 * time.Second,
		Window:   WindowConfig{Max: 2},
		Coalesce: CoalesceConfig{MaxBytes: 64 << 10},
	}
	c, err := cfg.Dial(ctx, "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open(ctx, "capped")
	if err != nil {
		t.Fatal(err)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= chunks {
					return
				}
				off := i * chunk
				if n, err := f.WriteAt(patternChunk(off, chunk), off); err != nil || int64(n) != chunk {
					t.Errorf("chunk %d: n=%d err=%v", i, n, err)
					return
				}
			}
		}()
	}
	waitFor(t, 2*time.Second, "the gated write to fill the cap", func() bool {
		return c.Stats().Inflight == 2
	})
	close(gate.release)
	wg.Wait()

	st := c.Stats()
	t.Logf("coalesced=%d of %d writes, cwnd=%.0f srtt=%v", st.CoalescedWrites, chunks, st.Cwnd, st.SRTT)
	if st.CoalescedWrites == 0 {
		t.Error("no merges with 8 adjacent writers under a full cap of 2")
	}
	if st.Cwnd != 2 || st.SRTT <= 0 {
		t.Errorf("Stats reports cwnd %v srtt %v, want the cap 2 and a positive srtt", st.Cwnd, st.SRTT)
	}
	want := patternChunk(0, chunks*chunk)
	rb := make([]byte, len(want))
	if n, err := f.ReadAtCtx(ctx, rb, 0); err != nil || n != len(want) {
		t.Fatalf("read back: n=%d err=%v", n, err)
	}
	if !bytes.Equal(rb, want) {
		t.Error("read back differs from the written pattern")
	}
}

// TestCoalescedWritesSurviveConnectionDrops is the chaos half of the
// coalescing contract: under a full window, concurrent writers allocating
// adjacent offsets merge opportunistically, the transport is killed after
// every dropEvery-th completed chunk, and every byte must still land exactly
// once — merged frames are plain idempotent Pwrites, replayed verbatim
// across reconnects. The drop schedule is op-indexed, not wall-clock: a
// ticker's first tick could come after a fast machine had finished writing.
func TestCoalescedWritesSurviveConnectionDrops(t *testing.T) {
	const (
		chunk     = int64(1024)
		chunks    = 768
		writers   = 8
		dropEvery = 48
	)
	mem := NewMemBackend()
	srv := NewServer(Config{
		Mode: ModeAsync, Workers: 2, Batch: 4,
		Backend: &slowBackend{inner: mem, delay: 100 * time.Microsecond},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	defer l.Close()

	ctx := context.Background()
	cfg := ClientConfig{
		Timeout:           10 * time.Second,
		MaxRetries:        64,
		RetryBase:         time.Millisecond,
		RetryMax:          10 * time.Millisecond,
		ReconnectAttempts: 64,
		Seed:              23,
		Window:            WindowConfig{Max: 2},
		Coalesce:          CoalesceConfig{MaxBytes: 32 << 10, MaxOps: 8, Linger: 2 * time.Millisecond},
	}
	c, err := cfg.Dial(ctx, "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open(ctx, "drop")
	if err != nil {
		t.Fatal(err)
	}

	var next, completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= chunks {
					return
				}
				off := i * chunk
				n, err := f.WriteAt(patternChunk(off, chunk), off)
				if err != nil {
					t.Errorf("chunk %d: %v", i, err)
					return
				}
				if int64(n) != chunk {
					t.Errorf("chunk %d: short write %d", i, n)
					return
				}
				// No drop after the last chunk: the Flush below is not
				// idempotent and would fail if it went out on the dropped
				// connection before the client noticed the drop.
				if n := completed.Add(1); n%dropEvery == 0 && n < chunks {
					c.DropConnection()
				}
			}
		}()
	}
	wg.Wait()

	if err := c.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Writes staged on connections the dropper killed drain as those
	// connections are torn down server-side; give that teardown a moment.
	want := patternChunk(0, chunks*chunk)
	waitFor(t, 5*time.Second, "every chunk to land in the backend", func() bool {
		got, ok := mem.Bytes("drop")
		return ok && len(got) == len(want) && bytes.Equal(got, want)
	})

	st := c.Stats()
	t.Logf("reconnects=%d replays=%d coalesced=%d retries=%d cwnd=%.1f",
		st.Reconnects, st.Replays, st.CoalescedWrites, st.Retries, st.Cwnd)
	if st.Reconnects == 0 {
		t.Errorf("%d drops but the client never reconnected", chunks/dropEvery-1)
	}
	if st.CoalescedWrites == 0 {
		t.Error("no merges under a full window with adjacent concurrent writers")
	}
}

// TestCursorWriteFailsFastWithCoalescing: coalescing and the window must
// not change the non-idempotent contract — an in-flight cursor write caught
// by a connection failure fails with ErrConnectionLost instead of being
// replayed, while the descriptor itself survives the reconnect.
func TestCursorWriteFailsFastWithCoalescing(t *testing.T) {
	mem := NewMemBackend()
	gate := &gateBackend{inner: mem, release: make(chan struct{})}
	srv := NewServer(Config{Backend: gate})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	defer l.Close()

	ctx := context.Background()
	cfg := ClientConfig{
		Timeout:           10 * time.Second,
		ReconnectAttempts: 8,
		Window:            WindowConfig{Max: 4},
		Coalesce:          CoalesceConfig{MaxBytes: 1 << 20, MaxOps: 8, Linger: time.Millisecond},
	}
	c, err := cfg.Dial(ctx, "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open(ctx, "cursor")
	if err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 1)
	go func() {
		_, err := f.Write(make([]byte, 512))
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the cursor write reach the gate
	c.DropConnection()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrConnectionLost) {
			t.Fatalf("cursor write returned %v, want ErrConnectionLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cursor write did not fail fast after the drop")
	}

	close(gate.release)
	// The reconnect re-opened the descriptor: positional writes work again.
	if _, err := f.WriteAt(patternChunk(0, 512), 0); err != nil {
		t.Fatalf("positional write after reconnect: %v", err)
	}
}

// TestCtxCancelInFlightOp: canceling the caller's context while the
// operation is parked at the server returns context.Canceled promptly,
// the client stays usable, and nothing leaks.
func TestCtxCancelInFlightOp(t *testing.T) {
	before := runtime.NumGoroutine()
	mem := NewMemBackend()
	gate := &gateBackend{inner: mem, release: make(chan struct{})}
	srv := NewServer(Config{Backend: gate})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()

	c, err := ClientConfig{}.Dial(context.Background(), "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Open(context.Background(), "cancel")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := f.WriteAtCtx(ctx, make([]byte, 256), 0)
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond) // the write is at the server, parked on the gate
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled op returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled op did not return")
	}

	// The abandoned response is dropped on arrival; the client keeps going.
	close(gate.release)
	if _, err := f.WriteAt(make([]byte, 256), 4096); err != nil {
		t.Fatalf("write after cancellation: %v", err)
	}

	_ = c.Close()
	srv.Close()
	_ = l.Close()
	waitFor(t, 2*time.Second, "goroutines to drain after close", func() bool {
		return runtime.NumGoroutine() <= before+2
	})
}

// TestCtxCancelWindowWait: a caller parked on window admission can be
// canceled (or time out via ErrOpTimeout) without corrupting the slot
// accounting — the slot the canceled caller never got still flows to later
// operations.
func TestCtxCancelWindowWait(t *testing.T) {
	const chunk = 512
	mem := NewMemBackend()
	gate := &gateBackend{inner: mem, release: make(chan struct{})}
	srv := NewServer(Config{Backend: gate})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	defer l.Close()

	ctx := context.Background()
	cfg := ClientConfig{Window: WindowConfig{Max: 1}}
	c, err := cfg.Dial(ctx, "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open(ctx, "slot")
	if err != nil {
		t.Fatal(err)
	}

	w0 := make(chan error, 1)
	go func() {
		_, err := f.WriteAt(make([]byte, chunk), 0)
		w0 <- err
	}()
	waitFor(t, 2*time.Second, "gated write to hold the window slot", func() bool {
		return c.Stats().Inflight == 1
	})

	base := parkedAcquirers()
	cancelCtx, cancel := context.WithCancel(ctx)
	w1 := make(chan error, 1)
	go func() {
		_, err := f.WriteAtCtx(cancelCtx, make([]byte, chunk), chunk)
		w1 <- err
	}()
	waitFor(t, 2*time.Second, "second write to park on admission", func() bool {
		return parkedAcquirers() == base+1
	})
	cancel()
	if err := <-w1; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled admission wait returned %v, want context.Canceled", err)
	}

	// Deadline flavor: the wait maps to ErrOpTimeout and DeadlineExceeded.
	dlCtx, dlCancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer dlCancel()
	_, err = f.WriteAtCtx(dlCtx, make([]byte, chunk), 2*chunk)
	if !errors.Is(err, ErrOpTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline on admission wait returned %v, want ErrOpTimeout wrapping DeadlineExceeded", err)
	}

	close(gate.release)
	if err := <-w0; err != nil {
		t.Fatalf("gated write: %v", err)
	}
	// Slot accounting survived both abandoned waits: a leaked slot would
	// park this write until its deadline.
	wCtx, wCancel := context.WithTimeout(ctx, 5*time.Second)
	defer wCancel()
	if _, err := f.WriteAtCtx(wCtx, make([]byte, chunk), 3*chunk); err != nil {
		t.Fatalf("write after abandoned waits: %v", err)
	}
	waitFor(t, 2*time.Second, "inflight to drain", func() bool {
		return c.Stats().Inflight == 0
	})
}
