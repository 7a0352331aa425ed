package core

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func BenchmarkHeaderEncodeDecode(b *testing.B) {
	h := header{op: OpWrite, reqID: 1, fd: 3, offset: 1 << 30, length: 1 << 20}
	var buf [headerSize]byte
	var out header
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.encode(&buf)
		if err := decodeHeader(&buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBMLGetPut(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("size%dK", size/1024), func(b *testing.B) {
			pool := NewBML(256 << 20)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pool.Put(pool.Get(size))
			}
		})
	}
}

// BenchmarkBMLVsMake — the ablation for the pooled power-of-2 classes vs
// plain allocation under concurrent producers.
func BenchmarkBMLVsMake(b *testing.B) {
	const size = 256 << 10
	b.Run("bml", func(b *testing.B) {
		pool := NewBML(256 << 20)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				buf := pool.Get(size)
				buf[0] = 1
				pool.Put(buf)
			}
		})
	})
	b.Run("make", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				buf := make([]byte, size)
				buf[0] = 1
				_ = buf
			}
		})
	})
}

// benchServer wires n clients to a fresh server over TCP loopback and runs
// the write workload, reporting aggregate goodput.
func benchWrites(b *testing.B, mode Mode, clients int, msg int, backend Backend) {
	b.Helper()
	srv := NewServer(Config{Mode: mode, Workers: 4, BMLBytes: 512 << 20, Backend: backend})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	conns := make([]*File, clients)
	cls := make([]*Client, clients)
	for i := range conns {
		c, err := ClientConfig{}.Dial(context.Background(), "tcp", l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		cls[i] = c
		f, err := c.Open(context.Background(), fmt.Sprintf("bench%d", i))
		if err != nil {
			b.Fatal(err)
		}
		conns[i] = f
	}
	defer func() {
		for i := range conns {
			_ = conns[i].Close()
			_ = cls[i].Close()
		}
	}()

	payload := make([]byte, msg)
	b.SetBytes(int64(msg * clients))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, f := range conns {
			f := f
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := f.Write(payload); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	for _, f := range conns {
		if err := f.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerModesFastBackend — protocol + scheduling overhead when the
// backend is free: staging cannot win here, it only must not lose badly.
func BenchmarkServerModesFastBackend(b *testing.B) {
	for _, mode := range []Mode{ModeDirect, ModeWorkQueue, ModeAsync} {
		b.Run(mode.String(), func(b *testing.B) {
			benchWrites(b, mode, 4, 256<<10, NullBackend{})
		})
	}
}

// BenchmarkServerModesSlowSink — the paper's regime: a rate-limited sink
// makes the asynchronous mode's overlap visible as goodput.
func BenchmarkServerModesSlowSink(b *testing.B) {
	for _, mode := range []Mode{ModeDirect, ModeWorkQueue, ModeAsync} {
		b.Run(mode.String(), func(b *testing.B) {
			backend := NewSinkBackend(NewMemBackend(), 512<<20, 50*time.Microsecond)
			benchWrites(b, mode, 4, 256<<10, backend)
		})
	}
}

// BenchmarkPipelinedWrites — single client, no fan-out: measures per-op
// protocol latency across modes. The 4 KiB async arm is the small-op path at
// depth 1, where per-op syscalls and the scheduler hand-off dominate.
func BenchmarkPipelinedWrites(b *testing.B) {
	for _, mode := range []Mode{ModeDirect, ModeAsync} {
		b.Run(mode.String(), func(b *testing.B) {
			benchWrites(b, mode, 1, 64<<10, NullBackend{})
		})
	}
	b.Run("async_4k", func(b *testing.B) {
		benchWrites(b, ModeAsync, 1, 4<<10, NullBackend{})
	})
}

// BenchmarkReadPath — sequential remote reads.
func BenchmarkReadPath(b *testing.B) {
	srv := NewServer(Config{Mode: ModeWorkQueue, Workers: 4})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	c, err := ClientConfig{}.Dial(context.Background(), "tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open(context.Background(), "r")
	if err != nil {
		b.Fatal(err)
	}
	const msg = 256 << 10
	if _, err := f.Write(make([]byte, msg)); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, msg)
	b.SetBytes(msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}
