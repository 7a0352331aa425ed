// In-situ analysis streaming: the paper's second motivating workload —
// "data must travel down a similar path when streamed off the system, such
// as when performing visual analysis concurrently with the simulation."
// Producer ranks stream time-step field data through the forwarder to an
// analysis sink that consumes at a fixed rate (a visualization cluster
// ingesting over the external network); the example reports the achieved
// frame rate per server mode.
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
	producers  = 4
	frames     = 6
	frameBytes = 2 << 20 // 2 MiB field slab per producer per time step
	sinkRate   = 64 << 20
)

func main() {
	fmt.Printf("in-situ stream: %d producers x %d frames of %d MiB, analysis ingest %d MiB/s\n\n",
		producers, frames, frameBytes>>20, sinkRate>>20)
	for _, mode := range []core.Mode{core.ModeDirect, core.ModeWorkQueue, core.ModeAsync} {
		elapsed, fps := run(mode)
		fmt.Printf("%-10s %7.0f ms  (%.1f aggregate frames/s)\n", mode, float64(elapsed.Milliseconds()), fps)
	}
}

func run(mode core.Mode) (time.Duration, float64) {
	// The analysis cluster: consumes data at its ingest bandwidth.
	backend := core.NewSinkBackend(core.NewMemBackend(), sinkRate, 200*time.Microsecond)
	srv := core.NewServer(core.Config{Mode: mode, Workers: 4, BMLBytes: 256 << 20, Backend: backend})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	start := time.Now()
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		pr := pr
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := core.ClientConfig{}.Dial(context.Background(), "tcp", l.Addr().String())
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			stream, err := c.Open(context.Background(), fmt.Sprintf("stream/producer%02d", pr))
			if err != nil {
				log.Fatal(err)
			}
			slab := make([]byte, frameBytes)
			for fr := 0; fr < frames; fr++ {
				// Each time step: advance the field, then ship it out.
				simulateTimeStep(slab, fr)
				if _, err := stream.Write(slab); err != nil {
					log.Fatalf("producer %d frame %d: %v", pr, fr, err)
				}
			}
			if err := stream.Close(); err != nil {
				log.Fatalf("producer %d close: %v", pr, err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	return elapsed, float64(producers*frames) / elapsed.Seconds()
}

// simulateTimeStep stands in for the solver: it advances the field for a
// fixed compute budget and touches the whole slab. The compute is what
// asynchronous staging overlaps with the outbound stream.
func simulateTimeStep(slab []byte, step int) {
	time.Sleep(100 * time.Millisecond)
	for i := range slab {
		slab[i] = byte(i + step)
	}
}
