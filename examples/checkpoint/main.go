// Checkpoint and in-situ streaming: the two workloads the paper's
// introduction motivates. In both, ranks alternate computation with writes
// through a forwarding server whose backend is rate-limited:
//
//   - checkpoint: a bulk-synchronous simulation periodically dumps its
//     state to a shared parallel filesystem, and the final dump must be
//     durable before the job exits;
//   - in-situ stream: "data must travel down a similar path when streamed
//     off the system, such as when performing visual analysis concurrently
//     with the simulation" — producers ship each time step's field to an
//     analysis cluster ingesting at a fixed rate.
//
// Each workload runs under every server mode, so the overlap benefit of
// asynchronous data staging shows up as wall-clock time.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/core"
)

const (
	ranks     = 4
	stepBytes = 2 << 20  // per rank per step
	sinkRate  = 64 << 20 // backend bandwidth in bytes/s, shared by all ranks
)

type workload struct {
	name    string
	steps   int
	compute time.Duration // per step, overlapped by async staging
	sync    bool          // Sync before Close: the last dump must be durable
}

var workloads = []workload{
	{name: "checkpoint", steps: 5, compute: 120 * time.Millisecond, sync: true},
	{name: "in-situ stream", steps: 6, compute: 100 * time.Millisecond},
}

func main() {
	for i, w := range workloads {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("%s: %d ranks x %d steps of %d MiB, sink %d MiB/s\n",
			w.name, ranks, w.steps, stepBytes>>20, sinkRate>>20)
		for _, mode := range []core.Mode{core.ModeDirect, core.ModeWorkQueue, core.ModeAsync} {
			elapsed := w.run(mode)
			fmt.Printf("  %-10s %7.0f ms  (%.1f aggregate steps/s)\n", mode,
				float64(elapsed.Milliseconds()), float64(ranks*w.steps)/elapsed.Seconds())
		}
	}
	fmt.Println("\nasync staging overlaps each write with the next compute step, so the")
	fmt.Println("application pays only the copy — the paper's figure-8 design.")
}

func (w workload) run(mode core.Mode) time.Duration {
	backend := core.NewSinkBackend(core.NewMemBackend(), sinkRate, 0)
	srv := core.NewServer(core.Config{Mode: mode, Workers: 4, BMLBytes: 128 << 20, Backend: backend})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := core.ClientConfig{}.Dial(ctx, "tcp", l.Addr().String())
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			f, err := c.Open(ctx, fmt.Sprintf("%s/rank%03d", w.name, r))
			if err != nil {
				log.Fatal(err)
			}
			data := make([]byte, stepBytes)
			for s := 0; s < w.steps; s++ {
				time.Sleep(w.compute) // the simulation's work
				for i := range data {
					data[i] = byte(i + s)
				}
				if _, err := f.Write(data); err != nil {
					log.Fatalf("%s rank %d step %d: %v", w.name, r, s, err)
				}
			}
			if w.sync {
				if err := f.Sync(); err != nil {
					log.Fatalf("%s rank %d sync: %v", w.name, r, err)
				}
			}
			if err := f.Close(); err != nil {
				log.Fatalf("%s rank %d close: %v", w.name, r, err)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
