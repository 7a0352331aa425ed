// Quickstart: run a forwarding server with asynchronous data staging over a
// TCP loopback, write a file through it, observe a deferred-error-free
// round trip, and print the server-side staging statistics plus a telemetry
// snapshot — the same per-stage numbers a production fwdd exports at
// /metrics.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

func main() {
	// A forwarding server in the paper's full configuration: work-queue
	// scheduling with 4 workers plus asynchronous data staging, backed by
	// memory (stand-in for the ION's route to GPFS).
	srv := core.NewServer(core.Config{
		Mode:     core.ModeAsync,
		Workers:  4,
		Batch:    8,
		BMLBytes: 64 << 20,
		Backend:  core.NewMemBackend(),
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	// The compute-node side: every I/O call ships to the server. The zero
	// ClientConfig reproduces the plain, non-resilient client; see the
	// example config on core.ClientConfig for retries, failover, the
	// in-flight cap and write coalescing.
	ctx := context.Background()
	client, err := core.ClientConfig{}.Dial(ctx, "tcp", l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	f, err := client.Open(ctx, "results/checkpoint-000.dat")
	if err != nil {
		log.Fatal(err)
	}

	record := bytes.Repeat([]byte("science!"), 512) // 4 KiB
	for i := 0; i < 256; i++ {
		if _, err := f.Write(record); err != nil {
			log.Fatalf("write %d: %v", i, err)
		}
	}
	// Writes above were staged: they returned as soon as the server copied
	// them. Sync drains the descriptor and reports any deferred error.
	if err := f.Sync(); err != nil {
		log.Fatalf("sync: %v", err)
	}
	size, err := f.Stat()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d bytes through the forwarder\n", size)

	back := make([]byte, len(record))
	if _, err := f.ReadAt(back, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back first record, intact: %v\n", bytes.Equal(back, record))
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	st := srv.Stats()
	bml := srv.BMLStats()
	fmt.Printf("server: %d ops, %d staged writes, %d worker batches\n",
		st.Ops, st.StagedWrites, st.WorkerBatch)
	fmt.Printf("BML: %d allocations (%d fresh), peak %d KiB\n",
		bml.Allocs, bml.Fresh, bml.Peak/1024)

	// The telemetry registry holds the same counters plus the per-stage
	// latency distributions of the forwarding path (paper stages: CN→ION
	// receive, queue wait, backend service, reply).
	fmt.Println("\ntelemetry snapshot (excerpt):")
	snaps := srv.Metrics().Snapshot()
	if f := telemetry.Find(snaps, "iofwd_requests_total"); f != nil {
		for _, s := range f.Series {
			if v := *s.Value; v > 0 {
				fmt.Printf("  requests{op=%q} = %d\n", s.Labels["op"], v)
			}
		}
	}
	if f := telemetry.Find(snaps, "iofwd_stage_latency_ns"); f != nil {
		for _, s := range f.Series {
			h := s.Histogram
			if h.Count == 0 {
				continue
			}
			fmt.Printf("  stage %-7s n=%-4d p50=%-10v p99=%-10v max=%v\n",
				s.Labels["stage"], h.Count,
				time.Duration(h.P50), time.Duration(h.P99), time.Duration(h.Max))
		}
	}
	if f := telemetry.Find(snaps, "iofwd_queue_peak_depth"); f != nil {
		fmt.Printf("  queue peak depth = %d\n", *f.Series[0].Value)
	}
	if f := telemetry.Find(snaps, "iofwd_bml_peak_bytes"); f != nil {
		fmt.Printf("  BML peak = %d KiB\n", *f.Series[0].Value/1024)
	}
}
