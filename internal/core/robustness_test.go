package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestGarbageInputRejected feeds random bytes to a server connection: the
// handler must reject the stream with an error, never panic or hang.
func TestGarbageInputRejected(t *testing.T) {
	srv := NewServer(Config{Mode: ModeAsync, Workers: 1})
	defer srv.Close()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 32; trial++ {
		cc, sc := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- srv.ServeConn(sc) }()
		junk := make([]byte, 8+rng.Intn(256))
		rng.Read(junk)
		_ = cc.SetWriteDeadline(time.Now().Add(time.Second))
		_, _ = cc.Write(junk)
		_ = cc.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("trial %d: server hung on garbage input", trial)
		}
	}
}

// TestTruncatedFrame: a header promising more payload than arrives must
// terminate the connection cleanly and still drain prior staged work.
func TestTruncatedFrame(t *testing.T) {
	backend := NewMemBackend()
	srv := NewServer(Config{Mode: ModeAsync, Workers: 1, Backend: backend})
	defer srv.Close()
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() { _ = srv.ServeConn(sc); close(done) }()

	c := pipeClient(t, ClientConfig{}, cc)
	f, err := c.Open(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	// Handcraft a write header announcing 1 MiB, then send only 10 bytes
	// and slam the connection.
	h := header{op: OpWrite, reqID: 99, fd: f.fd, length: 1 << 20}
	var hb [headerSize]byte
	h.encode(&hb)
	_, _ = cc.Write(hb[:])
	_, _ = cc.Write(make([]byte, 10))
	_ = cc.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on truncated frame")
	}
	// The earlier staged write must have been executed during teardown.
	if data, ok := backend.Bytes("t"); !ok || len(data) != 8192 {
		t.Fatalf("staged write lost: %d bytes", len(data))
	}
}

// TestClientFailsPendingCallsOnDisconnect: when the server side vanishes,
// every in-flight and subsequent call errors out instead of hanging.
func TestClientFailsPendingCallsOnDisconnect(t *testing.T) {
	cc, sc := net.Pipe()
	c := pipeClient(t, ClientConfig{}, cc)
	errs := make(chan error, 1)
	go func() {
		_, err := c.Open(context.Background(), "x")
		errs <- err
	}()
	// Consume the request so the client is parked waiting for the reply,
	// then kill the connection.
	var hb [headerSize]byte
	if _, err := io.ReadFull(sc, hb[:]); err != nil {
		t.Fatal(err)
	}
	_ = sc.Close()
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("open succeeded on dead connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call hung")
	}
	if _, err := c.Open(context.Background(), "y"); err == nil {
		t.Fatal("later call succeeded on dead connection")
	}
}

// TestOversizedWriteRejectedClientSide: payloads above MaxPayload never hit
// the wire.
func TestOversizedWriteRejectedClientSide(t *testing.T) {
	cc, _ := net.Pipe()
	c := pipeClient(t, ClientConfig{}, cc)
	defer c.Close()
	f := &File{c: c, fd: 3}
	if _, err := f.Write(make([]byte, MaxPayload+1)); !errors.Is(err, EINVAL) {
		t.Fatalf("oversized write: %v", err)
	}
}

// TestShutdownRaceReturnsECLOSED: a connection racing server shutdown must
// get a clean ECLOSED error from the closed task queue, never a process
// panic (regression test for the old `put on closed task queue` panic).
func TestShutdownRaceReturnsECLOSED(t *testing.T) {
	srv := NewServer(Config{Mode: ModeWorkQueue, Workers: 2})
	cc, sc := net.Pipe()
	go func() { _ = srv.ServeConn(sc) }()
	c := pipeClient(t, ClientConfig{}, cc)
	defer c.Close()
	f, err := c.Open(context.Background(), "race")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := f.WriteAt(buf, 0); err != nil {
				errCh <- err
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ECLOSED) {
			t.Fatalf("want ECLOSED after shutdown, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer hung across server shutdown")
	}
	if got := srv.metrics.queueRejects.Value(); got == 0 {
		t.Fatal("queue reject not counted")
	}
}

// TestClientErrorsAreTyped: failures must wrap the typed roots so callers
// can classify them with errors.Is.
func TestClientErrorsAreTyped(t *testing.T) {
	// Transport failure -> ErrConnectionLost, carrying the cause.
	cc, sc := net.Pipe()
	c := pipeClient(t, ClientConfig{}, cc)
	_ = sc.Close()
	if _, err := c.Open(context.Background(), "x"); !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("after transport failure: want ErrConnectionLost wrap, got %v", err)
	}
	// ...and it is sticky for later calls.
	if _, err := c.Open(context.Background(), "y"); !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("subsequent call: want ErrConnectionLost wrap, got %v", err)
	}

	// Local Close -> ErrClientClosed.
	cc2, _ := net.Pipe()
	c2 := pipeClient(t, ClientConfig{}, cc2)
	_ = c2.Close()
	if _, err := c2.Open(context.Background(), "z"); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("after Close: want ErrClientClosed wrap, got %v", err)
	}
}

// TestOpDeadline: a server that goes silent must not hang a client with a
// Timeout; the error wraps ErrOpTimeout.
func TestOpDeadline(t *testing.T) {
	cc, sc := net.Pipe()
	c := pipeClient(t, ClientConfig{Timeout: 100 * time.Millisecond}, cc)
	defer c.Close()
	go func() {
		var hb [headerSize]byte
		var h header
		if err := readHeader(sc, &hb, &h); err != nil {
			return
		}
		_, _ = io.CopyN(io.Discard, sc, int64(h.pathLen))
		// Read the request, then never reply.
	}()
	start := time.Now()
	_, err := c.Open(context.Background(), "silent")
	if !errors.Is(err, ErrOpTimeout) {
		t.Fatalf("want ErrOpTimeout wrap, got %v", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("deadline did not bound the call")
	}
	if c.Stats().Timeouts == 0 {
		t.Fatal("timeout not counted")
	}
}

// slowHandle delays every write so the work queue backs up on demand.
type slowBackend struct {
	inner Backend
	delay time.Duration
}

func (b *slowBackend) Open(name string, create bool) (Handle, error) {
	h, err := b.inner.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &slowHandle{inner: h, delay: b.delay}, nil
}

type slowHandle struct {
	inner Handle
	delay time.Duration
}

func (h *slowHandle) WriteAt(b []byte, off int64) (int, error) {
	time.Sleep(h.delay)
	return h.inner.WriteAt(b, off)
}
func (h *slowHandle) ReadAt(b []byte, off int64) (int, error) { return h.inner.ReadAt(b, off) }
func (h *slowHandle) Sync() error                             { return h.inner.Sync() }
func (h *slowHandle) Size() (int64, error)                    { return h.inner.Size() }
func (h *slowHandle) Close() error                            { return h.inner.Close() }

// nameGate routes one file through gate and every other file straight to
// the embedded backend, so a single descriptor's backend can be held shut.
type nameGate struct {
	Backend
	name string
	gate *gateBackend
}

func (b nameGate) Open(name string, create bool) (Handle, error) {
	if name == b.name {
		return b.gate.Open(name, create)
	}
	return b.Backend.Open(name, create)
}

// TestOverloadBackPressure: ModeAsync has one overload rule, BML
// back-pressure. While one descriptor's backend is held shut, its staged
// writes fill the pool and every other write waits for a buffer (or, with
// BMLTimeout, degrades to the synchronous path); no write fails, staging
// memory stays within its cap, the queue stays bounded by what the pool and
// the connection handlers can hold, and ops that never take a staging
// buffer still complete. Once the backend opens, every acked write reads
// back byte-exact.
func TestOverloadBackPressure(t *testing.T) {
	const (
		conns = 8
		size  = 64 << 10
		slots = 16 // per-file offsets a writer cycles through
		bml   = 1 << 20
	)
	for _, tc := range []struct {
		name    string
		timeout time.Duration
	}{{"block", 0}, {"timeout", 50 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			gate := &gateBackend{inner: NewMemBackend(), release: make(chan struct{})}
			srv := NewServer(Config{
				Mode: ModeAsync, Workers: 4, BMLBytes: bml, BMLTimeout: tc.timeout,
				Backend: nameGate{Backend: gate.inner, name: "f0", gate: gate}, Metrics: reg,
			})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = srv.Serve(l) }()
			defer srv.Close()
			dial := func(cfg ClientConfig) *Client {
				c, err := cfg.Dial(context.Background(), "tcp", l.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = c.Close() })
				return c
			}

			// Writer w cycles over slots offsets of file fw; last[w][k] is the
			// fill byte of the last acked write to slot k (0: none yet).
			files := make([]*File, conns)
			var last [conns][slots]byte
			var errs atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := range files {
				f, err := dial(ClientConfig{}).Open(context.Background(), fmt.Sprintf("f%d", w))
				if err != nil {
					t.Fatal(err)
				}
				files[w] = f
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]byte, size)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						fill := byte(i%255 + 1)
						for j := range buf {
							buf[j] = fill
						}
						if _, err := f.WriteAt(buf, int64(i%slots)*size); err != nil {
							errs.Add(1)
							t.Errorf("writer %d: %v", w, err)
							return
						}
						last[w][i%slots] = fill
					}
				}()
			}

			// The stall has taken hold once the pool is full and every
			// handler waits on it (or, with the timeout, writes degrade).
			stalled := func() bool {
				if tc.timeout > 0 {
					return srv.Stats().Degraded >= conns
				}
				return srv.bml.Waiters() == conns
			}
			deadline := time.Now().Add(10 * time.Second)
			for !stalled() {
				if used := srv.bml.Used(); used > srv.bml.Capacity() {
					t.Fatalf("BML used %d exceeds capacity %d", used, srv.bml.Capacity())
				}
				if time.Now().After(deadline) {
					t.Fatalf("no stall: BML used %d, waiters %d, degraded %d",
						srv.bml.Used(), srv.bml.Waiters(), srv.Stats().Degraded)
				}
				time.Sleep(time.Millisecond)
			}

			// Ops that take no staging buffer still run on a fresh connection.
			probe, err := dial(ClientConfig{Timeout: 5 * time.Second}).Open(context.Background(), "probe")
			if err != nil {
				t.Fatalf("open during stall: %v", err)
			}
			if _, err := probe.Stat(); err != nil {
				t.Fatalf("stat during stall: %v", err)
			}
			if used := srv.bml.Used(); used > srv.bml.Capacity() {
				t.Fatalf("BML used %d exceeds capacity %d", used, srv.bml.Capacity())
			}
			peak := *telemetry.Find(reg.Snapshot(), "iofwd_queue_peak_depth").Series[0].Value
			if limit := int64(bml/size + conns); peak > limit {
				t.Fatalf("queue peak depth %d exceeds %d", peak, limit)
			}
			if tc.timeout > 0 && srv.Stats().Degraded == 0 {
				t.Fatal("BMLTimeout set but no write degraded")
			}
			if errs.Load() != 0 {
				t.Fatal("a write failed during the stall")
			}

			close(stop)
			close(gate.release)
			wg.Wait()
			got := make([]byte, size)
			for w, f := range files {
				for k, fill := range last[w] {
					if fill == 0 {
						continue
					}
					if _, err := f.ReadAt(got, int64(k)*size); err != nil {
						t.Fatalf("read back f%d slot %d: %v", w, k, err)
					}
					if !bytes.Equal(got, bytes.Repeat([]byte{fill}, size)) {
						t.Fatalf("f%d slot %d does not hold its last acked write (fill %d)", w, k, fill)
					}
				}
			}
		})
	}
}

// panicNthBackend panics on the Nth data operation, once.
type panicNthBackend struct {
	inner Backend
	n     int64
	ops   atomic.Int64
}

func (b *panicNthBackend) Open(name string, create bool) (Handle, error) {
	h, err := b.inner.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &panicNthHandle{b: b, inner: h}, nil
}

type panicNthHandle struct {
	b     *panicNthBackend
	inner Handle
}

func (h *panicNthHandle) WriteAt(p []byte, off int64) (int, error) {
	if h.b.ops.Add(1) == h.b.n {
		panic("injected backend panic")
	}
	return h.inner.WriteAt(p, off)
}
func (h *panicNthHandle) ReadAt(p []byte, off int64) (int, error) { return h.inner.ReadAt(p, off) }
func (h *panicNthHandle) Sync() error                             { return h.inner.Sync() }
func (h *panicNthHandle) Size() (int64, error)                    { return h.inner.Size() }
func (h *panicNthHandle) Close() error                            { return h.inner.Close() }

// TestWorkerPanicRecovery: a panicking backend task must fail exactly that
// op with EIO while the pool keeps serving. The panic counts where the op
// ran: under the conn scope when it ran inline — it follows a write on an
// idle descriptor, so it does unless that write was slower than a hand-off
// — and under the worker scope when it queued.
func TestWorkerPanicRecovery(t *testing.T) {
	srv := NewServer(Config{
		Mode: ModeWorkQueue, Workers: 2,
		Backend: &panicNthBackend{inner: NewMemBackend(), n: 2},
	})
	cc, sc := net.Pipe()
	go func() { _ = srv.ServeConn(sc) }()
	c := pipeClient(t, ClientConfig{}, cc)
	defer c.Close()
	f, err := c.Open(context.Background(), "p")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if _, err := f.WriteAt(buf, 0); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	if _, err := f.WriteAt(buf, 1024); !errors.Is(err, EIO) {
		t.Fatalf("op 2: want EIO from recovered panic, got %v", err)
	}
	var wantWorker, wantConn uint64 = 0, 1 // op 1 queued, op 2 ran inline
	if srv.metrics.stageQueue.Count() > 1 {
		wantWorker, wantConn = 1, 0
	}
	for i := 0; i < 8; i++ {
		if _, err := f.WriteAt(buf, int64(2+i)*1024); err != nil {
			t.Fatalf("op %d after panic: %v", 3+i, err)
		}
	}
	if wp, cp := srv.Stats().WorkerPanics, srv.metrics.connPanics.Value(); wp != wantWorker || cp != wantConn {
		t.Fatalf("panics counted worker=%d conn=%d, want %d/%d", wp, cp, wantWorker, wantConn)
	}
}

// gateBackend blocks the first write until released, pinning a staging
// buffer to provoke BML exhaustion.
type gateBackend struct {
	inner   Backend
	release chan struct{}
	first   atomic.Bool
}

func (b *gateBackend) Open(name string, create bool) (Handle, error) {
	h, err := b.inner.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &gateHandle{b: b, inner: h}, nil
}

type gateHandle struct {
	b     *gateBackend
	inner Handle
}

func (h *gateHandle) WriteAt(p []byte, off int64) (int, error) {
	if h.b.first.CompareAndSwap(false, true) {
		<-h.b.release
	}
	return h.inner.WriteAt(p, off)
}
func (h *gateHandle) ReadAt(p []byte, off int64) (int, error) { return h.inner.ReadAt(p, off) }
func (h *gateHandle) Sync() error                             { return h.inner.Sync() }
func (h *gateHandle) Size() (int64, error)                    { return h.inner.Size() }
func (h *gateHandle) Close() error                            { return h.inner.Close() }

// TestBMLTimeoutDegradesToSync: when staging memory is exhausted and
// BMLTimeout elapses, a write must degrade to the synchronous path instead
// of blocking forever, and data must still land correctly.
func TestBMLTimeoutDegradesToSync(t *testing.T) {
	mem := NewMemBackend()
	gate := &gateBackend{inner: mem, release: make(chan struct{})}
	srv := NewServer(Config{
		Mode: ModeAsync, Workers: 1, BMLBytes: 4096, BMLTimeout: 25 * time.Millisecond,
		Backend: gate,
	})
	defer srv.Close()
	cc, sc := net.Pipe()
	go func() { _ = srv.ServeConn(sc) }()
	c := pipeClient(t, ClientConfig{}, cc)
	defer c.Close()
	f, err := c.Open(context.Background(), "d")
	if err != nil {
		t.Fatal(err)
	}
	w1 := bytes.Repeat([]byte{1}, 4096)
	w2 := bytes.Repeat([]byte{2}, 4096)
	if _, err := f.Write(w1); err != nil {
		t.Fatal(err) // staged; worker now blocks holding the only buffer
	}
	done := make(chan error, 1)
	go func() {
		_, err := f.Write(w2)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("degraded write: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write blocked on BML exhaustion despite BMLTimeout")
	}
	if got := srv.Stats().Degraded; got != 1 {
		t.Fatalf("degraded writes counted: %d", got)
	}
	close(gate.release)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	data, ok := mem.Bytes("d")
	if !ok || len(data) != 8192 {
		t.Fatalf("want 8192 bytes, got %d", len(data))
	}
	if !bytes.Equal(data[:4096], w1) || !bytes.Equal(data[4096:], w2) {
		t.Fatal("degraded path corrupted data")
	}
}

// blockingWriteBackend delays writes so ops can be caught in flight.
type blockingWriteBackend struct {
	inner Backend
	delay time.Duration
}

func (b *blockingWriteBackend) Open(name string, create bool) (Handle, error) {
	h, err := b.inner.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &slowHandle{inner: h, delay: b.delay}, nil
}

// TestReconnectReplaysIdempotentOps: with failover enabled, a connection
// drop mid-op must be absorbed — the in-flight positional write is replayed
// on a fresh connection and the caller never sees an error.
func TestReconnectReplaysIdempotentOps(t *testing.T) {
	mem := NewMemBackend()
	srv := NewServer(Config{
		Mode: ModeWorkQueue, Workers: 2,
		Backend: &blockingWriteBackend{inner: mem, delay: 150 * time.Millisecond},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	c, err := ClientConfig{ReconnectAttempts: 8, Seed: 3, Timeout: 10 * time.Second}.
		Dial(context.Background(), "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open(context.Background(), "replay")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 4096)
	done := make(chan error, 1)
	go func() {
		_, err := f.WriteAt(payload, 0) // in flight ~150ms
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	c.DropConnection()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("idempotent in-flight op not replayed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replayed op hung")
	}
	// The client works after failover, on the re-opened descriptor.
	if _, err := f.WriteAt(payload, 4096); err != nil {
		t.Fatalf("op after reconnect: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after reconnect: %v", err)
	}
	if st := c.Stats(); st.Reconnects == 0 || st.Replays == 0 {
		t.Fatalf("reconnects=%d replays=%d, want both > 0", st.Reconnects, st.Replays)
	}
	data, _ := mem.Bytes("replay")
	if len(data) != 8192 || !bytes.Equal(data[:4096], payload) || !bytes.Equal(data[4096:], payload) {
		t.Fatalf("data corrupted across reconnect (%d bytes)", len(data))
	}
}

// TestReconnectFailsNonIdempotentFast: a cursor write caught in flight by a
// connection drop must fail with ErrConnectionLost, not be replayed (the
// server-side cursor does not survive failover).
func TestReconnectFailsNonIdempotentFast(t *testing.T) {
	srv := NewServer(Config{
		Mode: ModeWorkQueue, Workers: 2,
		Backend: &blockingWriteBackend{inner: NewMemBackend(), delay: 150 * time.Millisecond},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	c, err := ClientConfig{ReconnectAttempts: 8, Seed: 5, Timeout: 10 * time.Second}.
		Dial(context.Background(), "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open(context.Background(), "cursor")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := f.Write(make([]byte, 4096)) // cursor op: non-idempotent
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	c.DropConnection()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnectionLost) {
			t.Fatalf("want ErrConnectionLost for in-flight cursor write, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("non-idempotent op hung instead of failing fast")
	}
	// After failover completes, new ops succeed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := f.WriteAt(make([]byte, 512), 0); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("client unusable after failover: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkerPoolSurvivesManyConnections cycles connections rapidly to
// shake out leaks in teardown bookkeeping.
func TestWorkerPoolSurvivesManyConnections(t *testing.T) {
	srv := NewServer(Config{Mode: ModeAsync, Workers: 2})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	for i := 0; i < 50; i++ {
		c, err := ClientConfig{}.Dial(context.Background(), "tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.Open(context.Background(), "churn")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		_ = c.Close() // abrupt: leaves the fd open, teardown must cope
	}
	// The pool still works afterwards.
	c, err := ClientConfig{}.Dial(context.Background(), "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open(context.Background(), "after")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
