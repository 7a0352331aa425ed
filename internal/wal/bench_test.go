package wal

// BenchmarkBurstAck compares the two things a server can do with a write
// that misses BML admission: execute it synchronously against the (slow)
// backend — the degrade-to-sync path — or append it to the WAL spill tier
// and acknowledge. The measured quantity is acknowledged-burst bandwidth:
// how fast a client's fixed burst is acked, which is what an application
// blocked on write() observes. Spill drain runs off the timer (that is the
// point of a burst buffer); each iteration still waits for the drain so
// iterations are independent.

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/core"
)

const (
	benchRecord = 64 << 10
	benchBurst  = 32 // records per iteration: a 2 MiB burst
)

// benchServer wires a client to an async server over a net.Pipe with a
// one-buffer BML and a rate-limited sink backend, optionally spilling to a
// fresh WAL.
func benchServer(b *testing.B, spill *Log, backend core.Backend) *core.Client {
	b.Helper()
	s := core.NewServer(core.Config{
		Mode:       core.ModeAsync,
		Workers:    1,
		BMLBytes:   benchRecord, // one buffer: the burst overwhelms staging
		BMLTimeout: 100 * time.Microsecond,
		Backend:    backend,
		Spill:      spillOrNil(spill),
	})
	cc, sc := net.Pipe()
	go func() { _ = s.ServeConn(sc) }()
	c, err := core.ClientConfig{}.Client(cc)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		_ = c.Close()
		_ = s.Close()
	})
	return c
}

// spillOrNil avoids storing a typed nil *Log in the Spiller interface.
func spillOrNil(l *Log) core.Spiller {
	if l == nil {
		return nil
	}
	return l
}

func runBurstBench(b *testing.B, withSpill bool) {
	// 4 MiB/s sink: slow enough that a synchronous 64 KiB write (16 ms)
	// clearly dominates scheduler noise, so the comparison isolates where
	// the ack waits — on the sink (degrade) or on a local WAL append.
	backend := core.NewSinkBackend(core.NewMemBackend(), 4<<20, 0)
	var lg *Log
	if withSpill {
		var err error
		lg, _, err = Open(Config{Dir: b.TempDir(), Backend: backend})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = lg.Close() })
	}
	c := benchServer(b, lg, backend)
	f, err := c.Open(context.Background(), "burst")
	if err != nil {
		b.Fatal(err)
	}
	payload := pattern(1, benchRecord)
	b.SetBytes(benchRecord * benchBurst)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < benchBurst; r++ {
			off := int64((i*benchBurst + r) * benchRecord)
			if _, err := f.WriteAt(payload, off); err != nil {
				b.Fatal(err)
			}
		}
		if lg != nil {
			// Drain between bursts, off the timer: iterations must not
			// compound lag, and ack bandwidth is the measured quantity.
			b.StopTimer()
			for {
				st := lg.SnapshotStats()
				if st.Lag == 0 {
					break
				}
				time.Sleep(time.Millisecond)
			}
			b.StartTimer()
		}
	}
}

func BenchmarkBurstAck(b *testing.B) {
	b.Run("degrade-to-sync", func(b *testing.B) { runBurstBench(b, false) })
	b.Run("wal-spill", func(b *testing.B) { runBurstBench(b, true) })
}
