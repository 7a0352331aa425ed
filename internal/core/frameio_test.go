package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts the Writes issued and the Reads completed on a conn.
type countingConn struct {
	net.Conn
	writes, reads atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

// TestFrameIO pins the socket calls a request frame costs: the client sends
// a frame up to frameCopyMax in one Write and a larger one as header and
// payload, the server reads a small frame in one Read, and a payload split
// across the server's read buffer and the socket arrives byte-exact.
func TestFrameIO(t *testing.T) {
	t.Run("calls", func(t *testing.T) {
		s := NewServer(Config{Mode: ModeAsync, Workers: 2})
		t.Cleanup(func() { _ = s.Close() })
		cc, sc := net.Pipe()
		client, server := &countingConn{Conn: cc}, &countingConn{Conn: sc}
		go func() { _ = s.ServeConn(server) }()
		c := pipeClient(t, ClientConfig{}, client)
		t.Cleanup(func() { _ = c.Close() })
		f, err := c.Open(context.Background(), "frames")
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			size          int
			writes, reads int64
		}{
			{4 << 10, 1, 1},
			{16 << 10, 1, 1},
			{1 << 20, 2, 2},
		} {
			w0, r0 := client.writes.Load(), server.reads.Load()
			if _, err := f.WriteAt(bytes.Repeat([]byte{byte(tc.size >> 10)}, tc.size), 0); err != nil {
				t.Fatal(err)
			}
			// The reply left after the frame's last read completed, and the
			// handler's next read cannot complete before the next frame.
			if w, r := client.writes.Load()-w0, server.reads.Load()-r0; w != tc.writes || r != tc.reads {
				t.Errorf("%d-byte write: %d client Writes, %d server Reads, want %d and %d", tc.size, w, r, tc.writes, tc.reads)
			}
		}
	})

	// Each case sends one 40 KiB write frame in two socket writes, split at
	// cut bytes into the frame, so the server's read buffer holds a prefix
	// of the payload (or none) and the rest comes straight from the socket.
	t.Run("straddle", func(t *testing.T) {
		const n = 40 << 10
		mem := NewMemBackend()
		s := NewServer(Config{Mode: ModeAsync, Workers: 2, Backend: mem})
		t.Cleanup(func() { _ = s.Close() })
		w := newWireConn(t, s)
		fd := w.open("straddle")
		payload := pattern(n)
		for i, cut := range []int{headerSize, headerSize + 10<<10, readBufSize + 1000} {
			off := int64(i * n)
			h := header{op: OpPwrite, reqID: 1000 + uint64(i), fd: fd, offset: uint64(off), length: n}
			frame := make([]byte, headerSize+n)
			h.encode((*[headerSize]byte)(frame))
			copy(frame[headerSize:], payload)
			for _, part := range [][]byte{frame[:cut], frame[cut:]} {
				if _, err := w.nc.Write(part); err != nil {
					t.Fatal(err)
				}
			}
			var r header
			if err := readHeader(w.nc, new([headerSize]byte), &r); err != nil {
				t.Fatal(err)
			}
			if r.reqID != h.reqID || Errno(r.pathLen) != EOK || r.offset != n {
				t.Fatalf("cut %d: reply id %d errno %v value %d", cut, r.reqID, Errno(r.pathLen), r.offset)
			}
			r, data := w.call(header{op: OpPread, fd: fd, offset: uint64(off), length: n})
			if Errno(r.pathLen) != EOK || !bytes.Equal(data, payload) {
				t.Fatalf("cut %d: read back errno %v, payload intact %v", cut, Errno(r.pathLen), bytes.Equal(data, payload))
			}
		}
	})

	// A frame cut off mid-payload, after part of the payload was buffered,
	// fails the connection; the staged write before it still lands.
	t.Run("truncated", func(t *testing.T) {
		mem := NewMemBackend()
		s := NewServer(Config{Mode: ModeAsync, Workers: 1, Backend: mem})
		t.Cleanup(func() { _ = s.Close() })
		cc, sc := net.Pipe()
		served := make(chan error, 1)
		go func() { served <- s.ServeConn(sc) }()
		w := &wireConn{t: t, nc: cc}
		fd := w.open("truncated")
		w.call(header{op: OpPwrite, fd: fd, length: 4 << 10}, pattern(4<<10))
		h := header{op: OpPwrite, reqID: 99, fd: fd, offset: 4 << 10, length: 64 << 10}
		frame := make([]byte, headerSize+5<<10)
		h.encode((*[headerSize]byte)(frame))
		if _, err := cc.Write(frame); err != nil {
			t.Fatal(err)
		}
		_ = cc.Close()
		select {
		case err := <-served:
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("truncated frame: ServeConn returned %v, want unexpected EOF", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("server hung on a truncated frame")
		}
		if data, _ := mem.Bytes("truncated"); !bytes.Equal(data, pattern(4<<10)) {
			t.Fatalf("staged write before the truncated frame: %d bytes landed", len(data))
		}
	})
}
