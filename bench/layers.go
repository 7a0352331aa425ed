package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/stripetier"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// layerResult is one isolated-layer measurement: a layer's exported API
// driven alone, in this process, with no daemon.
type layerResult struct {
	Name        string             `json:"name"`
	Bytes       int                `json:"bytes"` // payload per call; 0 where the call moves none
	Workers     int                `json:"workers"`
	Ops         int64              `json:"ops"`
	NsPerOp     float64            `json:"ns_per_op"`
	MiBPerS     float64            `json:"mib_s"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// measureLayer drives call from workers goroutines for dur and reports
// wall-clock ns/op (elapsed ÷ total calls, so it falls as workers overlap),
// payload MiB/s and heap allocations per call. The span is recorded around
// each batch of calls, not each call: several layers cost tens of
// nanoseconds, less than the clock read that would bracket them.
func measureLayer(name string, bytes, workers, batch int, dur time.Duration, call func(worker, i int) error) (layerResult, error) {
	var ops atomic.Int64
	errs := make(chan error, workers) // one slot per worker
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); {
				for b := 0; b < batch; b, i = b+1, i+1 {
					if err := call(w, i); err != nil {
						errs <- err
						return
					}
				}
				ops.Add(int64(batch))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	select {
	case err := <-errs:
		return layerResult{}, fmt.Errorf("%s: %w", name, err)
	default:
	}
	n := float64(ops.Load())
	return layerResult{
		Name: name, Bytes: bytes, Workers: workers, Ops: ops.Load(),
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		MiBPerS:     n * float64(bytes) / (1 << 20) / elapsed.Seconds(),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / n,
	}, nil
}

func isoBMLGetPut(size int, dur time.Duration) (layerResult, error) {
	pool := core.NewBML(256 << 20)
	return measureLayer("iso_bml_getput", size, 1, 1024, dur, func(_, _ int) error {
		pool.Put(pool.Get(size))
		return nil
	})
}

// isoBackendMemWrite writes into a pre-extended file, like every workload:
// an extending MemBackend write regrows the whole file (see README.md).
func isoBackendMemWrite(size int, dur time.Duration) (layerResult, error) {
	const ring = 64 << 20
	h, err := core.NewMemBackend().Open("iso", true)
	if err != nil {
		return layerResult{}, err
	}
	payload := newPattern(1, 0, size).payload(0, 1)
	if _, err := h.WriteAt(payload, ring-int64(size)); err != nil {
		return layerResult{}, err
	}
	slots := ring / size
	return measureLayer("iso_backend_mem_write", size, 1, 64, dur, func(_, i int) error {
		_, err := h.WriteAt(payload, int64(i%slots)*int64(size))
		return err
	})
}

// isoWALAppend is the spill path alone: 16 appenders (the burst workload's
// 2 connections x 8 writers) sharing group-commit fsyncs on a real disk.
func isoWALAppend(dir string, dur time.Duration) (layerResult, error) {
	const size, appenders, ring = 16 << 10, 16, 16 << 20
	lg, _, err := wal.Open(wal.Config{
		Dir: filepath.Join(dir, "iso-wal"), Backend: core.NullBackend{},
		Sync: wal.SyncAlways, GroupCommit: true,
	})
	if err != nil {
		return layerResult{}, err
	}
	payload := newPattern(1, 0, size).payload(0, 1)
	applied := func(error) {}
	r, err := measureLayer("iso_wal_append", size, appenders, 1, dur, func(w, i int) error {
		off := int64((i*appenders+w)%(ring/size)) * size
		return lg.Append("iso", off, payload, applied, nil)
	})
	st := lg.SnapshotStats()
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return layerResult{}, err
	}
	r.Extra = map[string]float64{"fsyncs_per_append": ratio(float64(st.Syncs), float64(st.Appends))}
	return r, nil
}

func isoStripeWrite(replicas int, dur time.Duration) (layerResult, error) {
	const size, slots = 1 << 20, 64
	members := make([]core.Backend, 4)
	for i := range members {
		members[i] = core.NewMemBackend()
	}
	tier, err := stripetier.New(members, stripetier.Config{Replicas: replicas})
	if err != nil {
		return layerResult{}, err
	}
	defer tier.Close()
	h, err := tier.Open("iso", true)
	if err != nil {
		return layerResult{}, err
	}
	payload := newPattern(1, 0, size).payload(0, 1)
	if _, err := h.WriteAt(payload, (slots-1)*size); err != nil {
		return layerResult{}, err
	}
	r, err := measureLayer("iso_stripe_write", size, 1, 8, dur, func(_, i int) error {
		_, err := h.WriteAt(payload, int64(i%slots)*size)
		return err
	})
	r.Extra = map[string]float64{"members": 4, "replicas": float64(replicas)}
	return r, err
}

// isoConnRoundtrip is the transport + codec floor: conns clients, each at
// depth 1, against an in-process direct-mode server on a null backend over
// TCP loopback. It uses the workload's connection count so that efficiency
// divides like by like.
func isoConnRoundtrip(ctx context.Context, size, conns int, dur time.Duration) (layerResult, error) {
	srv := core.NewServer(core.Config{Mode: core.ModeDirect, Backend: core.NullBackend{}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return layerResult{}, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(l)
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	files := make([]*core.File, conns)
	for i := range files {
		c, err := core.ClientConfig{Timeout: opTimeout}.Dial(ctx, "tcp", l.Addr().String())
		if err != nil {
			return layerResult{}, err
		}
		defer c.Close()
		if files[i], err = c.Open(ctx, fmt.Sprintf("iso-%d", i)); err != nil {
			return layerResult{}, err
		}
	}
	payload := newPattern(1, 0, size).payload(0, 1)
	return measureLayer("iso_conn_roundtrip", size, conns, 16, dur, func(w, _ int) error {
		_, err := files[w].WriteAtCtx(ctx, payload, 0)
		return err
	})
}

func isoTelemetryObserve(dur time.Duration) (layerResult, error) {
	var h telemetry.Histogram
	return measureLayer("iso_telemetry_observe", 0, 1, 4096, dur, func(_, i int) error {
		h.Observe(int64(i))
		return nil
	})
}

// allLayers is the `-layers` table: every isolated layer at the record
// sizes the workloads use.
func allLayers(ctx context.Context, scratch string, conns int, dur time.Duration) ([]layerResult, error) {
	runs := []func() (layerResult, error){
		func() (layerResult, error) { return isoBMLGetPut(4<<10, dur) },
		func() (layerResult, error) { return isoBMLGetPut(1<<20, dur) },
		func() (layerResult, error) { return isoBackendMemWrite(4<<10, dur) },
		func() (layerResult, error) { return isoBackendMemWrite(1<<20, dur) },
		func() (layerResult, error) { return isoWALAppend(scratch, dur) },
		func() (layerResult, error) { return isoStripeWrite(1, dur) },
		func() (layerResult, error) { return isoStripeWrite(2, dur) },
		func() (layerResult, error) { return isoConnRoundtrip(ctx, 4<<10, conns, dur) },
		func() (layerResult, error) { return isoTelemetryObserve(dur) },
	}
	out := make([]layerResult, 0, len(runs))
	for _, run := range runs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := run()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// workloadLayers measures, at w's record size, the isolated layers its
// operations pass through, and returns them as per-layer metrics plus the
// slowest one: the denominator of the paper's efficiency number.
func workloadLayers(ctx context.Context, w workload, scratch string, conns int, dur time.Duration) (map[string]float64, float64, error) {
	runs := []func() (layerResult, error){
		func() (layerResult, error) { return isoBMLGetPut(w.record, dur) },
		func() (layerResult, error) { return isoBackendMemWrite(w.record, dur) },
		func() (layerResult, error) { return isoConnRoundtrip(ctx, w.record, conns, dur) },
	}
	if w.spills {
		runs = append(runs, func() (layerResult, error) { return isoWALAppend(scratch, dur) })
	}
	m := map[string]float64{"iso_wal_append_mib_s": 0} // stays 0 where no write reaches the WAL
	slowest := math.Inf(1)
	for _, run := range runs {
		r, err := run()
		if err != nil {
			return nil, 0, err
		}
		m[r.Name+"_mib_s"] = r.MiBPerS
		slowest = math.Min(slowest, r.MiBPerS)
	}
	return m, slowest, nil
}
