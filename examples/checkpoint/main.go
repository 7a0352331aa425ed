// Checkpoint: the workload the paper's introduction motivates — a bulk-
// synchronous simulation that periodically dumps state. Ranks alternate
// computation with checkpoint writes through a forwarding server whose
// backend is rate-limited like a shared parallel filesystem, and the run is
// repeated for each server mode so the overlap benefit of asynchronous data
// staging is visible as wall-clock time.
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
	ranks          = 4
	steps          = 5
	checkpointKiB  = 2048
	computePerStep = 120 * time.Millisecond
	sinkBandwidth  = 64 << 20 // 64 MiB/s shared sink
)

func main() {
	fmt.Printf("checkpointing %d ranks, %d steps, %d KiB per rank per step, sink %d MiB/s\n\n",
		ranks, steps, checkpointKiB, sinkBandwidth>>20)
	for _, mode := range []core.Mode{core.ModeDirect, core.ModeWorkQueue, core.ModeAsync} {
		elapsed := run(mode)
		fmt.Printf("%-10s %7.0f ms total\n", mode, float64(elapsed.Milliseconds()))
	}
	fmt.Println("\nasync staging overlaps the dump with the next compute step, so the")
	fmt.Println("application pays only the copy — the paper's figure-8 design.")
}

func run(mode core.Mode) time.Duration {
	backend := core.NewSinkBackend(core.NewMemBackend(), sinkBandwidth, 0)
	srv := core.NewServer(core.Config{Mode: mode, Workers: 4, BMLBytes: 128 << 20, Backend: backend})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := core.ClientConfig{}.Dial(context.Background(), "tcp", l.Addr().String())
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			f, err := c.Open(context.Background(), fmt.Sprintf("ckpt/rank%03d.dat", r))
			if err != nil {
				log.Fatal(err)
			}
			state := make([]byte, checkpointKiB*1024)
			for s := 0; s < steps; s++ {
				time.Sleep(computePerStep) // the simulation's work
				if _, err := f.Write(state); err != nil {
					log.Fatalf("rank %d step %d: %v", r, s, err)
				}
			}
			// The final checkpoint must be durable before the job exits.
			if err := f.Sync(); err != nil {
				log.Fatalf("rank %d sync: %v", r, err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("rank %d close: %v", r, err)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
