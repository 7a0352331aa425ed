package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
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
