package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
)

// pipePair wires a client to a server over an in-memory connection.
func pipePair(t *testing.T, cfg Config) (*Client, *Server) {
	t.Helper()
	s := NewServer(cfg)
	cc, sc := net.Pipe()
	go func() { _ = s.ServeConn(sc) }()
	c := pipeClient(t, ClientConfig{}, cc)
	t.Cleanup(func() {
		_ = c.Close()
		_ = s.Close()
	})
	return c, s
}

// pipeClient wraps an established connection in a client configured by cfg.
func pipeClient(t *testing.T, cfg ClientConfig, nc net.Conn) *Client {
	t.Helper()
	c, err := cfg.Client(nc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var allModes = []Mode{ModeDirect, ModeWorkQueue, ModeAsync}

func TestWriteReadRoundTripAllModes(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			c, _ := pipePair(t, Config{Mode: mode, Workers: 2})
			f, err := c.Open(context.Background(), "data/test.bin")
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte("forward!"), 1024)
			if n, err := f.Write(payload); err != nil || n != len(payload) {
				t.Fatalf("write: n=%d err=%v", n, err)
			}
			if n, err := f.Write(payload); err != nil || n != len(payload) {
				t.Fatalf("second write: n=%d err=%v", n, err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			size, err := f.Stat()
			if err != nil || size != int64(2*len(payload)) {
				t.Fatalf("stat: size=%d err=%v", size, err)
			}
			got := make([]byte, len(payload))
			if n, err := f.ReadAt(got, int64(len(payload))); err != nil || n != len(payload) {
				t.Fatalf("read: n=%d err=%v", n, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("read data mismatch")
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSequentialCursorSemantics(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			backend := NewMemBackend()
			c, _ := pipePair(t, Config{Mode: mode, Backend: backend, Workers: 3})
			f, err := c.Open(context.Background(), "seq")
			if err != nil {
				t.Fatal(err)
			}
			// Many small sequential writes must land contiguously in order
			// even when workers complete them out of order.
			var want bytes.Buffer
			for i := 0; i < 64; i++ {
				chunk := bytes.Repeat([]byte{byte(i)}, 100+i)
				want.Write(chunk)
				if _, err := f.Write(chunk); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			got, ok := backend.Bytes("seq")
			if !ok || !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("sequential contents diverge (ok=%v, len %d vs %d)", ok, len(got), want.Len())
			}
			// Sequential reads walk the same cursor from zero on a fresh fd.
			f2, err := c.Open(context.Background(), "seq")
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 150)
			if _, err := f2.Read(buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf[:100], want.Bytes()[:100]) {
				t.Fatal("sequential read mismatch")
			}
			_ = f2.Close()
			_ = f.Close()
		})
	}
}

func TestAsyncDeferredErrorReporting(t *testing.T) {
	backend := &failingBackend{inner: NewMemBackend(), failAfter: 2}
	c, _ := pipePair(t, Config{Mode: ModeAsync, Backend: backend, Workers: 1})
	f, err := c.Open(context.Background(), "doomed")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 4096)
	// First two writes succeed, third fails in the background.
	for i := 0; i < 3; i++ {
		if _, err := f.Write(payload); err != nil {
			t.Fatalf("write %d reported error synchronously: %v", i, err)
		}
	}
	// The failure must surface on a subsequent operation as DeferredError.
	if err := f.Sync(); err == nil {
		t.Fatal("fsync did not report the staged failure")
	} else {
		var de *DeferredError
		if !errors.As(err, &de) {
			t.Fatalf("error %v is not a DeferredError", err)
		}
	}
	// Once consumed, the error is cleared.
	if err := f.PollError(); err != nil {
		t.Fatalf("error not cleared: %v", err)
	}
	_ = f.Close()
}

func TestDeferredErrorOnNextWrite(t *testing.T) {
	backend := &failingBackend{inner: NewMemBackend(), failAfter: 0}
	c, _ := pipePair(t, Config{Mode: ModeAsync, Backend: backend, Workers: 1})
	f, err := c.Open(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 128)); err != nil {
		t.Fatalf("first staged write rejected: %v", err)
	}
	// Drain so the failure is recorded before the next write.
	_ = c.Flush(context.Background())
	_, err = f.Write(make([]byte, 128))
	var de *DeferredError
	if !errors.As(err, &de) {
		t.Fatalf("next write returned %v, want DeferredError", err)
	}
}

func TestCloseReportsDeferredError(t *testing.T) {
	backend := &failingBackend{inner: NewMemBackend(), failAfter: 0}
	c, _ := pipePair(t, Config{Mode: ModeAsync, Backend: backend, Workers: 1})
	f, err := c.Open(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	var de *DeferredError
	if err := f.Close(); !errors.As(err, &de) {
		t.Fatalf("close returned %v, want DeferredError", err)
	}
}

func TestBadDescriptor(t *testing.T) {
	c, _ := pipePair(t, Config{})
	f := &File{c: c, fd: 999}
	if _, err := f.Write([]byte("x")); !errors.Is(err, EBADF) {
		t.Fatalf("write on bad fd: %v", err)
	}
	if _, err := f.ReadAt(make([]byte, 4), 0); !errors.Is(err, EBADF) {
		t.Fatalf("read on bad fd: %v", err)
	}
	if err := f.Close(); !errors.Is(err, EBADF) {
		t.Fatalf("close on bad fd: %v", err)
	}
}

func TestConcurrentClientsOverTCP(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			backend := NewMemBackend()
			s := NewServer(Config{Mode: mode, Backend: backend, Workers: 4})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = s.Serve(l) }()
			defer s.Close()

			const clients, writes = 8, 20
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for i := 0; i < clients; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs <- func() error {
						c, err := ClientConfig{}.Dial(context.Background(), "tcp", l.Addr().String())
						if err != nil {
							return err
						}
						defer c.Close()
						f, err := c.Open(context.Background(), fmt.Sprintf("client%d", i))
						if err != nil {
							return err
						}
						chunk := bytes.Repeat([]byte{byte(i)}, 8192)
						for j := 0; j < writes; j++ {
							if _, err := f.Write(chunk); err != nil {
								return fmt.Errorf("write: %w", err)
							}
						}
						if err := f.Sync(); err != nil {
							return err
						}
						size, err := f.Stat()
						if err != nil {
							return err
						}
						if size != int64(writes*8192) {
							return fmt.Errorf("size %d, want %d", size, writes*8192)
						}
						return f.Close()
					}()
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < clients; i++ {
				data, ok := backend.Bytes(fmt.Sprintf("client%d", i))
				if !ok || len(data) != writes*8192 {
					t.Fatalf("client %d data missing or short: %d", i, len(data))
				}
				for _, b := range data {
					if b != byte(i) {
						t.Fatalf("client %d data corrupted", i)
					}
				}
			}
		})
	}
}

func TestServerTeardownDrainsStagedWrites(t *testing.T) {
	backend := NewMemBackend()
	s := NewServer(Config{Mode: ModeAsync, Backend: backend, Workers: 1})
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() { _ = s.ServeConn(sc); close(done) }()
	c := pipeClient(t, ClientConfig{}, cc)
	f, err := c.Open(context.Background(), "orphan")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64*1024)); err != nil {
		t.Fatal(err)
	}
	// Close the client abruptly without closing the file: the server must
	// still execute the staged write during teardown.
	_ = c.Close()
	<-done
	if data, ok := backend.Bytes("orphan"); !ok || len(data) != 64*1024 {
		t.Fatalf("staged write lost on teardown: %d bytes", len(data))
	}
	_ = s.Close()
}

func TestFlushDrainsAllDescriptors(t *testing.T) {
	backend := NewMemBackend()
	c, srv := pipePair(t, Config{Mode: ModeAsync, Backend: backend, Workers: 1})
	var files []*File
	for i := 0; i < 4; i++ {
		f, err := c.Open(context.Background(), fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, 32*1024)); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range files {
		if data, ok := backend.Bytes(fmt.Sprintf("f%d", i)); !ok || len(data) != 32*1024 {
			t.Fatalf("file %d not flushed", i)
		}
	}
	if srv.Stats().StagedWrites != 4 {
		t.Fatalf("staged count %d", srv.Stats().StagedWrites)
	}
}

func TestStatsAccounting(t *testing.T) {
	c, srv := pipePair(t, Config{Mode: ModeWorkQueue, Workers: 2})
	f, _ := c.Open(context.Background(), "acct")
	payload := make([]byte, 10000)
	_, _ = f.Write(payload)
	buf := make([]byte, 4000)
	_, _ = f.ReadAt(buf, 0)
	_ = f.Close()
	st := srv.Stats()
	if st.BytesWritten != 10000 {
		t.Fatalf("bytes written %d", st.BytesWritten)
	}
	if st.BytesRead != 4000 {
		t.Fatalf("bytes read %d", st.BytesRead)
	}
	if st.Ops < 4 {
		t.Fatalf("ops %d", st.Ops)
	}
}

// wireConn speaks the protocol to a server directly, so a test sees the
// reply flags and values the client folds away.
type wireConn struct {
	t   *testing.T
	nc  net.Conn
	req uint64
}

func newWireConn(t *testing.T, s *Server) *wireConn {
	cc, sc := net.Pipe()
	go func() { _ = s.ServeConn(sc) }()
	t.Cleanup(func() { _ = cc.Close() })
	return &wireConn{t: t, nc: cc}
}

// call sends one request frame and returns the reply header and payload.
func (w *wireConn) call(h header, segments ...[]byte) (header, []byte) {
	w.t.Helper()
	w.req++
	h.reqID = w.req
	var tail []byte
	for _, seg := range segments {
		tail = append(tail, seg...)
	}
	var hb [headerSize]byte
	if err := writeFrame(w.nc, hb[:], &h, "", tail); err != nil {
		w.t.Fatal(err)
	}
	var r header
	if err := readHeader(w.nc, &hb, &r); err != nil {
		w.t.Fatal(err)
	}
	data := make([]byte, r.length)
	if _, err := io.ReadFull(w.nc, data); err != nil {
		w.t.Fatal(err)
	}
	if r.reqID != h.reqID {
		w.t.Fatalf("reply to request %d, want %d", r.reqID, h.reqID)
	}
	return r, data
}

func (w *wireConn) open(name string) uint64 {
	w.t.Helper()
	r, _ := w.call(header{op: OpOpen, pathLen: uint16(len(name))}, []byte(name))
	if Errno(r.pathLen) != EOK {
		w.t.Fatalf("open %s: %v", name, Errno(r.pathLen))
	}
	return r.offset
}

// panicAtBackend panics on every write at offset off.
type panicAtBackend struct {
	Backend
	off int64
}

func (b panicAtBackend) Open(name string, create bool) (Handle, error) {
	h, err := b.Backend.Open(name, create)
	if err != nil {
		return nil, err
	}
	return panicAtHandle{h, b.off}, nil
}

type panicAtHandle struct {
	Handle
	off int64
}

func (h panicAtHandle) WriteAt(p []byte, off int64) (int, error) {
	if off == h.off {
		panic("injected backend panic")
	}
	return h.Handle.WriteAt(p, off)
}

// TestModePolicy pins the two decisions a mode makes on the one request
// pipeline — where a write executes and when its reply leaves — for a
// write that got a staging buffer and one that timed out on admission
// (degraded): the reply flags, whether the write waited in the scheduler
// queue, which panic scope a panicking backend call counts under, and
// that every staging buffer is back in the pool once Fsync returns. In a
// pool mode the descriptor's first write queues (it has no history); the
// second, behind a Flush, runs inline on the handler unless the first call
// was slower than a hand-off, and its panic counts where it ran.
func TestModePolicy(t *testing.T) {
	const n, panicOff = 1024, 1 << 20
	for _, mode := range allModes {
		for _, degraded := range []bool{false, true} {
			name := mode.String() + "/pooled"
			if degraded {
				name = mode.String() + "/degraded"
			}
			t.Run(name, func(t *testing.T) {
				s := NewServer(Config{
					Mode: mode, Workers: 1,
					BMLBytes: 2 * policy.MinClass, BMLTimeout: time.Millisecond,
					Backend: panicAtBackend{NewMemBackend(), panicOff},
				})
				t.Cleanup(func() { _ = s.Close() })
				w := newWireConn(t, s)
				fd := w.open("policy")

				staged := mode == ModeAsync && !degraded
				poolRun := mode != ModeDirect && !degraded
				var wantFlags uint16
				switch {
				case staged:
					wantFlags = FlagStaged
				case degraded:
					wantFlags = FlagDegraded
				}
				var plug []byte
				if degraded {
					plug = s.bml.Get(2 * policy.MinClass) // every write misses admission
				}
				payload := bytes.Repeat([]byte{7}, n)
				for _, off := range []int64{0, panicOff} {
					r, _ := w.call(header{op: OpPwrite, fd: fd, offset: uint64(off), length: n}, payload)
					wantErr := EOK
					if off == panicOff && !staged {
						wantErr = EIO // the recovered panic, answered synchronously
					}
					if r.flags != wantFlags || Errno(r.pathLen) != wantErr || r.offset != n {
						t.Fatalf("write at %d: flags %#x errno %v value %d, want %#x %v %d",
							off, r.flags, Errno(r.pathLen), r.offset, wantFlags, wantErr, n)
					}
					// Settle the staged write so the next one's placement
					// does not race the worker; the deferred error stays.
					if r, _ := w.call(header{op: OpFlush}); Errno(r.pathLen) != EOK {
						t.Fatalf("flush: errno %v", Errno(r.pathLen))
					}
				}
				if degraded {
					s.bml.Put(plug)
				}

				r, _ := w.call(header{op: OpFsync, fd: fd})
				if staged {
					// The staged write's panic surfaces on the next op.
					if r.flags != FlagDeferredErr || Errno(r.pathLen) != EIO {
						t.Fatalf("fsync after staged panic: flags %#x errno %v, want deferred EIO", r.flags, Errno(r.pathLen))
					}
				} else if r.flags != 0 || Errno(r.pathLen) != EOK {
					t.Fatalf("fsync: flags %#x errno %v, want clean", r.flags, Errno(r.pathLen))
				}
				if used := s.bml.Used(); used != 0 {
					t.Fatalf("staging pool holds %d bytes after fsync", used)
				}
				m := s.metrics
				var wantWorker, wantConn uint64 = 0, 1
				queued := uint64(m.stageQueue.Count())
				switch {
				case !poolRun && queued != 0:
					t.Fatalf("queue stage observed %d writes, want 0", queued)
				case poolRun && queued != 1 && queued != 2:
					t.Fatalf("queue stage observed %d writes, want 1 or 2", queued)
				case queued == 2: // the first call was slow: the panicking write queued too
					wantWorker, wantConn = 1, 0
				}
				if wp, cp := m.workerPanics.Value(), m.connPanics.Value(); wp != wantWorker || cp != wantConn {
					t.Fatalf("panics worker=%d conn=%d, want %d/%d", wp, cp, wantWorker, wantConn)
				}

				r, data := w.call(header{op: OpPread, fd: fd, length: n})
				if r.flags != 0 || Errno(r.pathLen) != EOK || !bytes.Equal(data, payload) {
					t.Fatalf("read back: flags %#x errno %v, %d bytes match=%v", r.flags, Errno(r.pathLen), len(data), bytes.Equal(data, payload))
				}
				if m.zeroCopyReplies.Value() != 1 {
					t.Fatalf("zero-copy replies %d, want 1", m.zeroCopyReplies.Value())
				}
				waitPoolDrained(t, s)
			})
		}
	}
}

// TestSchedulerRefusalRepliesUnexecuted: an op the scheduler refuses at
// shutdown never ran. The write replies ECLOSED with value 0, not its
// length; the read replies without a zero-copy frame; neither keeps a
// staging buffer.
func TestSchedulerRefusalRepliesUnexecuted(t *testing.T) {
	for _, mode := range []Mode{ModeWorkQueue, ModeAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			s := NewServer(Config{Mode: mode, Workers: 1})
			t.Cleanup(func() { _ = s.Close() })
			w := newWireConn(t, s)
			fd := w.open("refused")
			s.sched.close() // the pool shuts down under a live connection
			r, _ := w.call(header{op: OpPwrite, fd: fd, length: 1024}, make([]byte, 1024))
			if Errno(r.pathLen) != ECLOSED || r.offset != 0 {
				t.Fatalf("refused write: errno %v value %d, want ECLOSED 0", Errno(r.pathLen), r.offset)
			}
			r, data := w.call(header{op: OpPread, fd: fd, length: 1024})
			if Errno(r.pathLen) != ECLOSED || len(data) != 0 {
				t.Fatalf("refused read: errno %v with %d bytes, want ECLOSED and none", Errno(r.pathLen), len(data))
			}
			m := s.metrics
			if m.zeroCopyReplies.Value() != 0 || m.queueRejects.Value() != 2 {
				t.Fatalf("zero-copy replies %d, queue rejects %d, want 0 and 2", m.zeroCopyReplies.Value(), m.queueRejects.Value())
			}
			if used := s.bml.Used(); used != 0 {
				t.Fatalf("staging pool holds %d bytes after refusals", used)
			}
		})
	}
}

func TestOpenValidation(t *testing.T) {
	c, _ := pipePair(t, Config{})
	if _, err := c.Open(context.Background(), ""); !errors.Is(err, EINVAL) {
		t.Fatalf("empty name: %v", err)
	}
}

// failingBackend fails every write after the first failAfter successes.
type failingBackend struct {
	inner     Backend
	mu        sync.Mutex
	writes    int
	failAfter int
}

func (b *failingBackend) Open(name string, create bool) (Handle, error) {
	h, err := b.inner.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &failingHandle{b: b, inner: h}, nil
}

type failingHandle struct {
	b     *failingBackend
	inner Handle
}

func (h *failingHandle) WriteAt(p []byte, off int64) (int, error) {
	h.b.mu.Lock()
	h.b.writes++
	fail := h.b.writes > h.b.failAfter
	h.b.mu.Unlock()
	if fail {
		return 0, ENOSPC
	}
	return h.inner.WriteAt(p, off)
}

func (h *failingHandle) ReadAt(p []byte, off int64) (int, error) { return h.inner.ReadAt(p, off) }
func (h *failingHandle) Sync() error                             { return h.inner.Sync() }
func (h *failingHandle) Size() (int64, error)                    { return h.inner.Size() }
func (h *failingHandle) Close() error                            { return h.inner.Close() }
