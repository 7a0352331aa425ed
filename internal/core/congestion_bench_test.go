package core

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// admissionArm is one client configuration of BenchmarkClientAdmission.
type admissionArm struct {
	name     string
	window   WindowConfig
	coalesce bool
}

// admissionArms are the client admission policies under test: no cap
// (unbounded admission), and an
// in-flight cap of 2 or 8, each with write coalescing off and on. With 8
// writers per client, cap 2 fills and lets coalescing merge; cap 8 never
// fills.
var admissionArms = []admissionArm{
	{name: "none"},
	{name: "cap2", window: WindowConfig{Max: 2}},
	{name: "cap2_coalesce", window: WindowConfig{Max: 2}, coalesce: true},
	{name: "cap8", window: WindowConfig{Max: 8}},
	{name: "cap8_coalesce", window: WindowConfig{Max: 8}, coalesce: true},
}

// BenchmarkClientAdmission measures acked write goodput from 8 clients × 8
// writer goroutines against a real Server whose backend is a 32 MiB/s sink:
// service time grows with bytes, so a merged frame costs what its bytes
// cost, not what one op costs. Each client appends 4 KiB positional writes
// to its own file (adjacent offsets, the log-append pattern coalescing
// exists for) and syncs it at the end, inside the timed region, so MB/s is
// bytes that reached the backend. Every op must ack; a lost ack fails the
// benchmark.
//
// Two server modes bound the design space: ModeAsync acks a staged write
// once it is queued, so its back-pressure is staging-pool admission;
// ModeWorkQueue acks after the backend call, so its back-pressure is the
// blocking reply itself.
//
// Run with a fixed op count for comparable results:
//
//	go test -run '^$' -bench ClientAdmission -benchtime 6000x ./internal/core/
func BenchmarkClientAdmission(b *testing.B) {
	modes := []struct {
		name string
		cfg  Config
	}{
		{"async", Config{Mode: ModeAsync}},
		{"workqueue", Config{Mode: ModeWorkQueue}},
	}
	for _, m := range modes {
		for _, arm := range admissionArms {
			b.Run(fmt.Sprintf("%s/%s", m.name, arm.name), func(b *testing.B) {
				benchAdmission(b, m.cfg, arm)
			})
		}
	}
}

func benchAdmission(b *testing.B, scfg Config, arm admissionArm) {
	const (
		clients    = 8
		writersPer = 8
		msg        = 4096
	)
	scfg.Backend = NewSinkBackend(NewMemBackend(), 32<<20, 0)
	srv := NewServer(scfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	defer l.Close()

	ctx := context.Background()
	type cli struct {
		c    *Client
		f    *File
		next atomic.Int64 // per-client offset allocator: adjacency is per-fd
	}
	cls := make([]*cli, clients)
	for i := range cls {
		cfg := ClientConfig{Window: arm.window}
		if arm.coalesce {
			cfg.Coalesce = CoalesceConfig{MaxBytes: 64 << 10, MaxOps: 16, Linger: 2 * time.Millisecond}
		}
		c, err := cfg.Dial(ctx, "tcp", l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		f, err := c.Open(ctx, fmt.Sprintf("admission-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		cls[i] = &cli{c: c, f: f}
	}

	buf := make([]byte, msg)
	var budget, lost atomic.Int64
	b.SetBytes(msg)
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, cl := range cls {
		for w := 0; w < writersPer; w++ {
			wg.Add(1)
			go func(cl *cli) {
				defer wg.Done()
				for budget.Add(1) <= int64(b.N) {
					off := (cl.next.Add(1) - 1) * msg
					if _, err := cl.f.WriteAt(buf, off); err != nil {
						lost.Add(1)
						b.Errorf("write: %v", err)
						return
					}
				}
			}(cl)
		}
	}
	wg.Wait()
	for _, cl := range cls {
		if err := cl.f.Sync(); err != nil {
			b.Fatalf("sync: %v", err)
		}
	}
	b.StopTimer()
	if lost.Load() != 0 {
		b.Fatalf("%d lost acks", lost.Load())
	}
	var merged uint64
	for _, cl := range cls {
		merged += cl.c.Stats().CoalescedWrites
	}
	b.ReportMetric(float64(merged)/float64(b.N), "merged/op")
}
