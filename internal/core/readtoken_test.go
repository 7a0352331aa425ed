package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// tokenHeld waits until some caller holds c's reader token.
func tokenHeld(t *testing.T, c *Client) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(c.tok) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no caller took the reader token")
		}
	}
}

// replyFrame encodes a read reply to req carrying payload.
func replyFrame(req header, payload []byte) []byte {
	var hb [headerSize]byte
	h := header{reqID: req.reqID, offset: uint64(len(payload)), length: uint32(len(payload))}
	h.encode(&hb)
	return append(hb[:], payload...)
}

// TestReaderTokenReverseOrder: 16 callers share one client against a server
// that answers in reverse order. Whoever holds the token reads every reply,
// so each caller must get its own, read straight into its own buffer.
func TestReaderTokenReverseOrder(t *testing.T) {
	const callers, size = 16, 4 << 10
	reqs := make(chan header, callers)
	cc, sc := net.Pipe()
	go stubServe(sc, func(nc net.Conn, req header) error {
		reqs <- req
		if len(reqs) < callers {
			return nil
		}
		all := make([]header, 0, callers)
		for len(reqs) > 0 {
			all = append(all, <-reqs)
		}
		for i := len(all) - 1; i >= 0; i-- {
			if _, err := nc.Write(replyFrame(all[i], bytes.Repeat([]byte{byte(all[i].offset)}, size))); err != nil {
				return err
			}
		}
		return nil
	})
	c := pipeClient(t, ClientConfig{}, cc)
	defer c.Close()
	f, err := c.Open(context.Background(), "reverse")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 1; i <= callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := make([]byte, size)
			r, err := c.call(context.Background(), OpPread, f.fd, uint64(i), size, "", nil, b)
			switch {
			case err != nil:
				t.Errorf("caller %d: %v", i, err)
			case len(r.payload) != size || &r.payload[0] != &b[0]:
				t.Errorf("caller %d: reply did not land in its own buffer", i)
			case !bytes.Equal(b, bytes.Repeat([]byte{byte(i)}, size)):
				t.Errorf("caller %d got caller %d's reply", i, b[0])
			}
		}()
	}
	wg.Wait()
}

// TestReaderTokenHolderCancel: the token holder's ctx is cancelled while
// three other calls are in flight. The holder returns its ctx error, the
// others complete, and the stream stays in sync. At a frame boundary the
// cancel interrupts the holder's read with part of the next header already
// buffered; mid-payload the holder first finishes the frame, since it owns
// that reply's buffer.
func TestReaderTokenHolderCancel(t *testing.T) {
	for _, midPayload := range []bool{false, true} {
		name := map[bool]string{false: "between_frames", true: "mid_payload"}[midPayload]
		t.Run(name, func(t *testing.T) {
			const size = 64 << 10
			reqs := make(chan header, 4)
			cc, sc := net.Pipe()
			go stubServe(sc, func(nc net.Conn, req header) error {
				reqs <- req
				return nil
			})
			c := pipeClient(t, ClientConfig{}, cc)
			defer c.Close()
			f, err := c.Open(context.Background(), "cancel")
			if err != nil {
				t.Fatal(err)
			}

			// The holder's call is the only one in flight, so it takes the token.
			ctx, cancel := context.WithCancel(context.Background())
			held := make(chan error, 1)
			go func() {
				_, err := c.call(ctx, OpPread, f.fd, 0, size, "", nil, make([]byte, size))
				held <- err
			}()
			holderReq := <-reqs
			tokenHeld(t, c)

			type result struct {
				i   int
				b   []byte
				err error
			}
			results := make(chan result, 3)
			for i := 1; i <= 3; i++ {
				go func() {
					b := make([]byte, size)
					_, err := f.ReadAtCtx(context.Background(), b, int64(i))
					results <- result{i, b, err}
				}()
			}
			byOff := map[uint64]header{}
			for len(byOff) < 3 {
				req := <-reqs
				byOff[req.offset] = req
			}
			want := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, size) }

			first := replyFrame(byOff[1], want(1))
			cut := 10 // part of the header
			if midPayload {
				cut = headerSize + size/2
			}
			if _, err := sc.Write(first[:cut]); err != nil {
				t.Fatal(err)
			}
			cancel()
			if midPayload {
				select {
				case err := <-held:
					t.Fatalf("holder returned (%v) before finishing the frame it claimed", err)
				case <-time.After(50 * time.Millisecond):
				}
			}
			if _, err := sc.Write(first[cut:]); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-held:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("holder: want context.Canceled, got %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("holder hung after its ctx was cancelled")
			}
			// A late reply to the holder's call is dropped; the rest land.
			for _, frame := range [][]byte{replyFrame(holderReq, want(9)), replyFrame(byOff[3], want(3)), replyFrame(byOff[2], want(2))} {
				if _, err := sc.Write(frame); err != nil {
					t.Fatal(err)
				}
			}
			for range 3 {
				select {
				case r := <-results:
					if r.err != nil || !bytes.Equal(r.b, want(r.i)) {
						t.Fatalf("call %d: %v (bytes equal: %v)", r.i, r.err, bytes.Equal(r.b, want(r.i)))
					}
				case <-time.After(10 * time.Second):
					t.Fatal("a call in flight hung after the holder left")
				}
			}
			// The stream is still in sync: a fresh call gets its own reply.
			go func() {
				req := <-reqs
				_, _ = sc.Write(replyFrame(req, want(5)))
			}()
			b := make([]byte, size)
			if n, err := f.ReadAtCtx(context.Background(), b, 5); err != nil || n != size || !bytes.Equal(b, want(5)) {
				t.Fatalf("read after the cancel: %d, %v", n, err)
			}
		})
	}
}

// tcpStub serves stubServe on every connection accepted by a loopback
// listener, answering each write with its length after consuming its
// payload; conns receives each server-side conn.
func tcpStub(t *testing.T) (addr string, conns chan net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	conns = make(chan net.Conn, 8)
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			conns <- nc
			go stubServe(nc, func(nc net.Conn, req header) error {
				if _, err := io.CopyN(io.Discard, nc, int64(req.length)); err != nil {
					return err
				}
				var hb [headerSize]byte
				return writeFrame(nc, hb[:], &header{reqID: req.reqID, offset: uint64(req.length)}, "", nil)
			})
		}
	}()
	return l.Addr().String(), conns
}

// TestReaderTokenIdleDropFailsOver: DropConnection on an idle client has no
// reader to notice the close, so it fails over itself: the next cursor
// write, which could not be replayed, goes out on the new connection.
func TestReaderTokenIdleDropFailsOver(t *testing.T) {
	addr, conns := tcpStub(t)
	ctx := context.Background()
	c, err := ClientConfig{ReconnectAttempts: 8, RetryBase: time.Millisecond, Timeout: 10 * time.Second}.Dial(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open(ctx, "drop")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	c.DropConnection()
	if n, err := f.Write(make([]byte, 512)); err != nil || n != 512 {
		t.Fatalf("cursor write after an idle drop: %d, %v", n, err)
	}
	// The reconnect counts itself before it opens the gate, so the write
	// that waited on the gate already sees it.
	st := c.Stats()
	if n := len(conns); n != 2 || st.Reconnects != 1 || st.LostOps != 0 {
		t.Fatalf("%d connections, %d reconnects, %d lost ops; want 2, 1 and 0", n, st.Reconnects, st.LostOps)
	}
}

// TestReaderTokenRemoteCloseWhileIdle: nobody reads an idle client's
// connection, so a server that closes it is noticed by the next call. A
// positional write sent on the dead connection is replayed on the new one.
func TestReaderTokenRemoteCloseWhileIdle(t *testing.T) {
	addr, conns := tcpStub(t)
	ctx := context.Background()
	c, err := ClientConfig{ReconnectAttempts: 8, RetryBase: time.Millisecond, Timeout: 10 * time.Second}.Dial(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open(ctx, "remote")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	(<-conns).Close()
	if n, err := f.WriteAt(make([]byte, 512), 512); err != nil || n != 512 {
		t.Fatalf("WriteAt after the server closed: %d, %v", n, err)
	}
	if st := c.Stats(); st.Reconnects != 1 || st.Replays != 1 {
		t.Fatalf("reconnects=%d replays=%d, want 1 and 1", st.Reconnects, st.Replays)
	}
}

// TestReaderTokenNoGoroutineAfterClose: a Client starts no reading
// goroutine, and a holder's context interrupt does not outlive it, so after
// Close the goroutine count is back to where it started.
func TestReaderTokenNoGoroutineAfterClose(t *testing.T) {
	before := runtime.NumGoroutine()
	var late *header
	cc, sc := net.Pipe()
	go stubServe(sc, func(nc net.Conn, req header) error {
		if req.offset == 1 {
			late = &req // answered only after its caller has given up
			return nil
		}
		if late != nil {
			if err := stubReply(nc, *late, pattern(64), 64); err != nil {
				return err
			}
			late = nil
		}
		return stubReply(nc, req, pattern(64), 64)
	})
	c := pipeClient(t, ClientConfig{Timeout: 10 * time.Second}, cc)
	f, err := c.Open(context.Background(), "leak")
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 64)
	if _, err := f.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := f.ReadAtCtx(ctx, b, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want a deadline error, got %v", err)
	}
	if _, err := f.ReadAt(b, 0); err != nil { // reads past the late reply
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}
