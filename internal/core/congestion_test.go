package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
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

// TestCongestionAIMDUnit drives the controller directly — no server, no
// clocks to race — and pins down the exact AIMD and RFC 6298 arithmetic.
func TestCongestionAIMDUnit(t *testing.T) {
	cg := newCongestion(WindowConfig{Max: 32, Initial: 1, Beta: 0.5}, &clientMetrics{})

	// Slow start: +1 per ack while cwnd < ssthresh (= Max initially).
	for i := 0; i < 7; i++ {
		cg.onAck(time.Millisecond, true)
	}
	if cwnd, _, _, _ := cg.snapshot(); cwnd != 8 {
		t.Fatalf("after 7 slow-start acks cwnd = %v, want 8", cwnd)
	}

	// Multiplicative decrease, once per epoch: a second signal from an op
	// sent before the decrease is an echo, not new information.
	sent := time.Now()
	cg.onCongestion(sent)
	if cwnd, _, _, _ := cg.snapshot(); cwnd != 4 {
		t.Fatalf("after decrease cwnd = %v, want 4", cwnd)
	}
	cg.onCongestion(sent) // same epoch: filtered
	if cwnd, _, _, _ := cg.snapshot(); cwnd != 4 {
		t.Fatalf("same-epoch signal moved cwnd to %v, want 4", cwnd)
	}
	if got := cg.met.cwndDecreases.Value(); got != 1 {
		t.Fatalf("cwndDecreases = %d, want 1", got)
	}

	// Congestion avoidance past ssthresh: +1/cwnd per ack.
	cg.onAck(time.Millisecond, true)
	if cwnd, _, _, _ := cg.snapshot(); cwnd != 4.25 {
		t.Fatalf("CA ack moved cwnd to %v, want 4.25", cwnd)
	}

	// Floor: repeated decreases in fresh epochs never go below 1.
	for i := 1; i <= 8; i++ {
		cg.onCongestion(time.Now().Add(time.Duration(i) * time.Minute))
	}
	if cwnd, _, _, _ := cg.snapshot(); cwnd != 1 {
		t.Fatalf("floored cwnd = %v, want 1", cwnd)
	}
	cg.mu.Lock()
	if a := cg.allowanceLocked(); a != 1 {
		t.Fatalf("allowance at floor = %d, want 1", a)
	}
	cg.mu.Unlock()
}

// TestCongestionRTTEstimator checks the RFC 6298 EWMA arithmetic exactly,
// including the Karn exclusion of replayed samples.
func TestCongestionRTTEstimator(t *testing.T) {
	cg := newCongestion(WindowConfig{Max: 8, Initial: 1, Beta: 0.5}, &clientMetrics{})

	cg.onAck(10*time.Millisecond, true)
	if _, srtt, rttvar, _ := cg.snapshot(); srtt != 10*time.Millisecond || rttvar != 5*time.Millisecond {
		t.Fatalf("first sample srtt=%v rttvar=%v, want 10ms/5ms", srtt, rttvar)
	}

	// Karn: a replayed op's timestamp straddles a reconnect; no sample.
	cg.onAck(90*time.Millisecond, false)
	if _, srtt, _, _ := cg.snapshot(); srtt != 10*time.Millisecond {
		t.Fatalf("replayed ack moved srtt to %v, want 10ms", srtt)
	}

	// srtt = (7*10 + 18)/8 = 11ms, rttvar = (3*5 + |10-18|)/4 = 5.75ms.
	cg.onAck(18*time.Millisecond, true)
	if _, srtt, rttvar, _ := cg.snapshot(); srtt != 11*time.Millisecond || rttvar != 5750*time.Microsecond {
		t.Fatalf("second sample srtt=%v rttvar=%v, want 11ms/5.75ms", srtt, rttvar)
	}
}

// TestCongestionSlotTransfer checks the acquire/release accounting: a
// release hands the slot to the oldest waiter, and close wakes the parked
// acquirer with the terminal error.
func TestCongestionSlotTransfer(t *testing.T) {
	cg := newCongestion(WindowConfig{Max: 1, Initial: 1, Beta: 0.5}, &clientMetrics{})
	if err := cg.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	got := make(chan error, 1)
	go func() { got <- cg.acquire(context.Background()) }()
	waitFor(t, time.Second, "acquirer to park", func() bool {
		cg.mu.Lock()
		defer cg.mu.Unlock()
		return len(cg.waiters) == 1
	})
	cg.release()
	if err := <-got; err != nil {
		t.Fatalf("granted waiter returned %v", err)
	}
	if _, _, _, inflight := cg.snapshot(); inflight != 1 {
		t.Fatalf("inflight after slot transfer = %d, want 1", inflight)
	}

	terminal := errors.New("terminal")
	go func() { got <- cg.acquire(context.Background()) }()
	waitFor(t, time.Second, "second acquirer to park", func() bool {
		cg.mu.Lock()
		defer cg.mu.Unlock()
		return len(cg.waiters) == 1
	})
	cg.close(terminal)
	if err := <-got; !errors.Is(err, terminal) {
		t.Fatalf("closed waiter returned %v, want %v", err, terminal)
	}
	if err := cg.acquire(context.Background()); !errors.Is(err, terminal) {
		t.Fatalf("acquire after close returned %v, want %v", err, terminal)
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
		"beta out of range":      {Window: WindowConfig{Max: 8, Beta: 1.5}},
		"initial above max":      {Window: WindowConfig{Max: 4, Initial: 8}},
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

// capacityServer speaks just enough of the wire protocol to act as a
// fixed-capacity service: OpOpen hands out a descriptor, OpPwrite takes one
// of `capacity` service slots for `service` and acks, or is shed with
// EAGAIN the instant all slots are busy. It is the deterministic congestion
// source for the AIMD convergence test: the knee is exactly `capacity`
// concurrent operations, with none of the real server's queueing slack.
type capacityServer struct {
	l        net.Listener
	slots    chan struct{}
	service  time.Duration
	sheds    atomic.Int64
	served   atomic.Int64
	shutdown atomic.Bool
}

func (s *capacityServer) run() {
	for {
		nc, err := s.l.Accept()
		if err != nil {
			return
		}
		go s.serve(nc)
	}
}

func (s *capacityServer) serve(nc net.Conn) {
	defer nc.Close()
	var wmu sync.Mutex
	var whb, rhb [headerSize]byte
	reply := func(op Op, reqID uint64, errno Errno, value uint64) {
		h := header{op: op, reqID: reqID, offset: value, pathLen: uint16(errno)}
		wmu.Lock()
		_ = writeFrame(nc, whb[:], &h, "", nil)
		wmu.Unlock()
	}
	var h header
	for {
		if err := readHeader(nc, &rhb, &h); err != nil {
			return
		}
		if h.pathLen > 0 {
			if _, err := io.CopyN(io.Discard, nc, int64(h.pathLen)); err != nil {
				return
			}
		}
		if (h.op == OpWrite || h.op == OpPwrite) && h.length > 0 {
			if _, err := io.CopyN(io.Discard, nc, int64(h.length)); err != nil {
				return
			}
		}
		switch h.op {
		case OpOpen:
			reply(h.op, h.reqID, EOK, 1)
		case OpPwrite:
			select {
			case s.slots <- struct{}{}:
				go func(op Op, reqID uint64, length uint32) {
					time.Sleep(s.service)
					<-s.slots
					s.served.Add(1)
					reply(op, reqID, EOK, uint64(length))
				}(h.op, h.reqID, h.length)
			default:
				s.sheds.Add(1)
				reply(h.op, h.reqID, EAGAIN, 0)
			}
		default:
			reply(h.op, h.reqID, EOK, 0)
		}
	}
}

// TestAIMDConvergence runs the adaptive client against a fixed-capacity
// server and checks that the window settles onto the service capacity: the
// late-phase sawtooth peaks at the shed knee (capacity + 1, the first
// admission the server cannot hold) instead of climbing to Window.Max, and
// the steady state is not an EAGAIN storm.
func TestAIMDConvergence(t *testing.T) {
	const (
		capacity = 8
		service  = time.Millisecond
		workers  = 24
		runFor   = 800 * time.Millisecond
	)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fs := &capacityServer{l: l, slots: make(chan struct{}, capacity), service: service}
	go fs.run()

	ctx := context.Background()
	cfg := ClientConfig{
		Timeout:    10 * time.Second,
		MaxRetries: 10000,
		RetryBase:  500 * time.Microsecond,
		RetryMax:   4 * time.Millisecond,
		Seed:       42,
		Window:     WindowConfig{Max: 64},
	}
	c, err := cfg.Dial(ctx, "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open(ctx, "conv")
	if err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 512)
			off := int64(w) << 20
			for !done.Load() {
				if _, err := f.WriteAt(buf, off); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				completed.Add(1)
			}
		}(w)
	}

	type sample struct {
		cwnd    float64
		retries uint64
		ops     int64
	}
	var samples []sample
	tick := time.NewTicker(2 * time.Millisecond)
	deadline := time.Now().Add(runFor)
	for time.Now().Before(deadline) {
		<-tick.C
		s := c.Stats()
		samples = append(samples, sample{s.Cwnd, s.Retries, completed.Load()})
	}
	tick.Stop()
	done.Store(true)
	wg.Wait()

	late := samples[len(samples)/2:]
	var maxLate, sumLate float64
	for _, s := range late {
		if s.cwnd > maxLate {
			maxLate = s.cwnd
		}
		sumLate += s.cwnd
	}
	avgLate := sumLate / float64(len(late))
	lateOps := late[len(late)-1].ops - late[0].ops
	lateRetries := late[len(late)-1].retries - late[0].retries
	st := c.Stats()
	t.Logf("completed=%d served=%d sheds=%d decreases=%d lateMax=%.1f lateAvg=%.1f lateSheds=%d/%d srtt=%v",
		completed.Load(), fs.served.Load(), fs.sheds.Load(), st.CwndDecreases,
		maxLate, avgLate, lateRetries, lateOps, st.SRTT)

	// The sawtooth peak is the shed knee: capacity+1 admissions, give or
	// take the op already acked but not yet released. Far below Window.Max.
	if int(maxLate) < capacity-1 || int(maxLate) > capacity+4 {
		t.Errorf("late-phase peak cwnd %.1f outside [%d, %d]; window did not settle on capacity %d",
			maxLate, capacity-1, capacity+4, capacity)
	}
	// The trough after a Beta=0.5 decrease from the knee is ~capacity/2;
	// the average must sit between trough and knee, not at 1 or at Max.
	if avgLate < float64(capacity)/2-1 || avgLate > float64(capacity)+2 {
		t.Errorf("late-phase mean cwnd %.1f outside [%.1f, %d]", avgLate, float64(capacity)/2-1, capacity+2)
	}
	// Steady state probes the knee roughly once per sawtooth cycle: a few
	// percent of operations, not the shed-majority of fixed backoff.
	if lateOps > 0 && float64(lateRetries) > 0.2*float64(lateOps) {
		t.Errorf("late-phase shed rate %d/%d above 20%%: still an EAGAIN storm", lateRetries, lateOps)
	}
	if st.CwndDecreases == 0 {
		t.Error("no multiplicative decreases recorded; the controller never found the knee")
	}
	if st.SRTT <= 0 || st.SRTT > 250*time.Millisecond {
		t.Errorf("srtt %v implausible for a %v service time", st.SRTT, service)
	}
	if completed.Load() < 1000 {
		t.Errorf("only %d ops completed; expected thousands at capacity %d / service %v",
			completed.Load(), capacity, service)
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
				if completed.Add(1)%dropEvery == 0 {
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
		t.Errorf("%d drops but the client never reconnected", chunks/dropEvery)
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

	cancelCtx, cancel := context.WithCancel(ctx)
	w1 := make(chan error, 1)
	go func() {
		_, err := f.WriteAtCtx(cancelCtx, make([]byte, chunk), chunk)
		w1 <- err
	}()
	waitFor(t, 2*time.Second, "second write to park on admission", func() bool {
		c.cg.mu.Lock()
		defer c.cg.mu.Unlock()
		return len(c.cg.waiters) == 1
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
	// Slot accounting survived both abandoned waits.
	if _, err := f.WriteAt(make([]byte, chunk), 3*chunk); err != nil {
		t.Fatalf("write after abandoned waits: %v", err)
	}
	waitFor(t, 2*time.Second, "inflight to drain", func() bool {
		return c.Stats().Inflight == 0
	})
}
