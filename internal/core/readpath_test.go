package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// stubServe plays the server on nc, driven by the test: it answers opens
// with descriptor 3 and hands every other request to onData. It returns
// when nc fails or onData returns an error.
func stubServe(nc net.Conn, onData func(nc net.Conn, req header) error) {
	defer nc.Close()
	var hb [headerSize]byte
	var req header
	for {
		if err := readHeader(nc, &hb, &req); err != nil {
			return
		}
		if req.op == OpOpen {
			if _, err := io.CopyN(io.Discard, nc, int64(req.pathLen)); err != nil {
				return
			}
			if err := writeFrame(nc, hb[:], &header{reqID: req.reqID, offset: 3}, "", nil); err != nil {
				return
			}
			continue
		}
		if err := onData(nc, req); err != nil {
			return
		}
	}
}

// stubReply sends a read reply carrying payload, but only its first send
// bytes; the caller finishes or drops the frame.
func stubReply(nc net.Conn, req header, payload []byte, send int) error {
	var hb [headerSize]byte
	h := header{reqID: req.reqID, offset: uint64(len(payload)), length: uint32(len(payload))}
	return writeFrame(nc, hb[:], &h, "", payload[:send])
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 1)
	}
	return b
}

// TestReadLandsInCallerBuffer: a read reply is read from the connection
// straight into the caller's slice — the payload aliases b and a 64 KiB
// read allocates nowhere near 64 KiB.
func TestReadLandsInCallerBuffer(t *testing.T) {
	const size = 64 << 10
	c, _ := pipePair(t, Config{Mode: ModeDirect})
	ctx := context.Background()
	f, err := c.Open(ctx, "land")
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(size)
	if _, err := f.WriteAtCtx(ctx, want, 0); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, size)
	r, err := c.call(ctx, OpPread, f.fd, 0, size, "", nil, b)
	if err != nil || len(r.payload) != size {
		t.Fatalf("read: %v, %d bytes", err, len(r.payload))
	}
	if &r.payload[0] != &b[0] || !bytes.Equal(b, want) {
		t.Fatal("reply payload does not alias the caller's buffer")
	}

	const runs = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if n, err := f.ReadAtCtx(ctx, b, 0); err != nil || n != size {
			t.Fatalf("ReadAtCtx = %d, %v", n, err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
		t.Fatalf("%d B allocated per 64 KiB read, want < 4 KiB", per)
	}
	if !bytes.Equal(b, want) {
		t.Fatal("read back wrong bytes")
	}
}

// TestReadCancelWhilePayloadInFlight: once readLoop has claimed a read's
// reply, it owns the caller's buffer until the frame is delivered, so a
// caller whose context expires mid-payload must wait for the rest of the
// frame (or the connection's failure) before returning its context error.
// Run under -race: an early return races the test's write to b below.
func TestReadCancelWhilePayloadInFlight(t *testing.T) {
	for _, finish := range []bool{true, false} {
		name := map[bool]string{true: "finish", false: "drop"}[finish]
		t.Run(name, func(t *testing.T) {
			const size = 64 << 10
			payload := pattern(size)
			headerSent := make(chan struct{})
			release := make(chan struct{})
			cc, sc := net.Pipe()
			go stubServe(sc, func(nc net.Conn, req header) error {
				if err := stubReply(nc, req, payload, size/2); err != nil {
					return err
				}
				close(headerSent)
				<-release
				if !finish {
					return io.EOF // drop the connection mid-payload
				}
				_, err := nc.Write(payload[size/2:])
				return err
			})
			c := pipeClient(t, ClientConfig{}, cc)
			defer c.Close()
			f, err := c.Open(context.Background(), "cancel")
			if err != nil {
				t.Fatal(err)
			}

			b := make([]byte, size)
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := f.ReadAtCtx(ctx, b, 0)
				done <- err
			}()
			<-headerSent
			<-ctx.Done()
			select {
			case err := <-done:
				t.Fatalf("ReadAtCtx returned (%v) while its payload was still being read into b", err)
			case <-time.After(100 * time.Millisecond):
			}
			close(release)
			select {
			case err := <-done:
				if !errors.Is(err, ErrOpTimeout) || !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("want a context deadline error, got %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("ReadAtCtx hung after the frame ended")
			}
			clear(b) // the caller owns b again
		})
	}
}

// TestReadReplayAfterMidPayloadDrop: a connection that dies after a read
// reply's header and half its payload is a transport failure like any
// other — the claimed call goes back to the in-flight set, so a positional
// read is replayed on the new connection and returns the full bytes, while
// a cursor read fails with ErrConnectionLost.
func TestReadReplayAfterMidPayloadDrop(t *testing.T) {
	const size = 64 << 10
	payload := pattern(size)
	var preads atomic.Int32
	onData := func(nc net.Conn, req header) error {
		switch {
		case req.op == OpPread && preads.Add(1) > 1: // the replay
			return stubReply(nc, req, payload, size)
		case req.op == OpPread || req.op == OpRead:
			_ = stubReply(nc, req, payload, size/2)
			return io.EOF // drop mid-payload
		}
		return stubReply(nc, req, nil, 0)
	}
	cc, sc := net.Pipe()
	go stubServe(sc, onData)
	redial := func() (net.Conn, error) {
		cc, sc := net.Pipe()
		go stubServe(sc, onData)
		return cc, nil
	}
	c := pipeClient(t, ClientConfig{
		ReconnectAttempts: 8, Redial: redial, RetryBase: time.Millisecond,
		Timeout: 10 * time.Second,
	}, cc)
	defer c.Close()
	f, err := c.Open(context.Background(), "replay")
	if err != nil {
		t.Fatal(err)
	}

	b := make([]byte, size)
	n, err := f.ReadAtCtx(context.Background(), b, 0)
	if err != nil || n != size || !bytes.Equal(b, payload) {
		t.Fatalf("replayed ReadAtCtx = %d, %v (bytes equal: %v)", n, err, bytes.Equal(b, payload))
	}
	if st := c.Stats(); st.Replays != 1 || st.Reconnects != 1 {
		t.Fatalf("replays=%d reconnects=%d, want 1 and 1", st.Replays, st.Reconnects)
	}

	if _, err := f.ReadCtx(context.Background(), b); !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("cursor read caught mid-payload: want ErrConnectionLost, got %v", err)
	}
}

// TestReadReplyLongerThanBuffer: a reply longer than the caller's slice
// cannot land in it; it takes a fresh slice and is copied truncated, and
// the stream stays in sync.
func TestReadReplyLongerThanBuffer(t *testing.T) {
	payload := pattern(64)
	cc, sc := net.Pipe()
	go stubServe(sc, func(nc net.Conn, req header) error {
		return stubReply(nc, req, payload, len(payload))
	})
	c := pipeClient(t, ClientConfig{}, cc)
	defer c.Close()
	f, err := c.Open(context.Background(), "long")
	if err != nil {
		t.Fatal(err)
	}
	for _, read := range []func([]byte) (int, error){
		func(b []byte) (int, error) { return f.ReadAtCtx(context.Background(), b, 0) },
		func(b []byte) (int, error) { return f.ReadCtx(context.Background(), b) },
	} {
		b := make([]byte, 16)
		n, err := read(b)
		if err != nil || n != len(b) || !bytes.Equal(b, payload[:len(b)]) {
			t.Fatalf("read = %d, %v, %x", n, err, b)
		}
	}
}
