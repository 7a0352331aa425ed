// Filtering: the paper's future-work scenario (Section VII) — "offload data
// filtering onto the I/O forwarding nodes in order to reduce the amount of
// data written to storage as well as to facilitate in situ analytics."
//
// Producer ranks stream full-resolution float64 fields through the
// forwarder; the forwarding node runs an in-situ filter chain that (a)
// extracts running min/max statistics from the passing data and (b)
// subsamples it 4:1 before it reaches storage. The application writes full
// frames and never knows.
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"net"

	"repro/internal/core"
)

const (
	frames       = 8
	valuesPerRow = 4096 // one frame = 4096 float64 samples = 32 KiB
)

func main() {
	backend := core.NewMemBackend()
	stats := core.NewMinMaxFilter()
	chain := core.NewFilterChain(
		stats, // observe first, at full resolution
		&core.SubsampleFilter{RecordBytes: 8, Keep1InN: 4},
	)
	srv := core.NewServer(core.Config{
		Mode:    core.ModeAsync,
		Workers: 2,
		Backend: backend,
		Filters: chain,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	client, err := core.ClientConfig{}.Dial(context.Background(), "tcp", l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	f, err := client.Open(context.Background(), "field/temperature")
	if err != nil {
		log.Fatal(err)
	}

	frame := make([]byte, 8*valuesPerRow)
	var wrote int
	for step := 0; step < frames; step++ {
		for i := 0; i < valuesPerRow; i++ {
			// A travelling wave with growing amplitude.
			v := float64(step+1) * math.Sin(float64(i)/64+float64(step))
			binary.LittleEndian.PutUint64(frame[i*8:], math.Float64bits(v))
		}
		n, err := f.Write(frame)
		if err != nil {
			log.Fatalf("step %d: %v", step, err)
		}
		wrote += n
	}
	if err := f.Sync(); err != nil {
		log.Fatal(err)
	}
	stored, err := f.Stat()
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	lo, hi, n := stats.Range("field/temperature")
	in, out := chain.Reduction()
	fmt.Printf("application wrote : %d bytes (%d frames)\n", wrote, frames)
	fmt.Printf("storage received  : %d bytes (%.0f%% reduction at the ION)\n",
		stored, 100*(1-float64(out)/float64(in)))
	fmt.Printf("in-situ analytics : %d samples observed, range [%.3f, %.3f]\n", n, lo, hi)
}
