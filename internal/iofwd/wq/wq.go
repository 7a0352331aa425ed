// Package wq implements the paper's first optimization (Section IV,
// Figure 7): I/O scheduling for ZOID using a shared FIFO work queue and a
// pool of worker threads. The per-CN ZOID thread no longer executes the I/O
// operation itself — it enqueues the task, and a small worker pool (default
// 4 on the 4-core ION) dequeues multiple requests per wakeup and executes
// them in an event loop. This decouples the number of I/O-executing threads
// from the number of compute clients and mitigates the ION resource
// contention identified in Section III.
//
// Data staging remains synchronous: the application stays blocked until the
// worker has completed the I/O operation.
package wq

import (
	"fmt"

	"repro/internal/bgp"
	"repro/internal/iofwd"
	"repro/internal/sim"
)

// Config selects the worker-pool parameters.
type Config struct {
	// Workers is the worker-thread count (paper default and optimum: 4).
	Workers int
	// Batch caps tasks dequeued per worker wakeup (I/O multiplexing).
	Batch int
	// Discipline selects SharedFIFO (the paper) or Sharded (the real
	// server's work-stealing scheduler).
	Discipline iofwd.Discipline
}

// DefaultConfig matches the paper's configuration.
func DefaultConfig() Config { return Config{Workers: 4, Batch: 8} }

// Forwarder is ZOID augmented with work-queue I/O scheduling.
type Forwarder struct {
	iofwd.Base
	pool *iofwd.WorkerPool
}

// New returns a work-queue forwarder for the pset.
func New(e *sim.Engine, ps *bgp.Pset, p bgp.Params, cfg Config) *Forwarder {
	if cfg.Workers <= 0 {
		cfg = DefaultConfig()
	}
	f := &Forwarder{Base: iofwd.NewBase(e, ps, p)}
	f.pool = iofwd.NewWorkerPool(e, ps.ION.CPU, iofwd.PoolConfig{
		Workers:     cfg.Workers,
		Batch:       cfg.Batch,
		DispatchCPU: p.IONWorkerDispatchCPU,
		Discipline:  cfg.Discipline,
	})
	return f
}

// Name implements iofwd.Forwarder.
func (f *Forwarder) Name() string { return "zoid+wq" }

// Pool exposes the worker pool for experiment instrumentation.
func (f *Forwarder) Pool() *iofwd.WorkerPool { return f.pool }

// Open implements iofwd.Forwarder; opens stay synchronous.
func (f *Forwarder) Open(p *sim.Proc, cn int, sink iofwd.Sink) (int, error) {
	f.UplinkControl(p, f.P.IONCtrlCPUThread)
	d := f.DB.Open(sink)
	f.OpenSink(p, sink)
	f.Reply(p)
	return d.FD, nil
}

// submitAndWait enqueues the task and blocks the application until a worker
// completes it ("Once the worker thread completes an I/O task, it wakes up
// the associated ZOID thread and passes the status of the I/O operation",
// paper IV).
func (f *Forwarder) submitAndWait(p *sim.Proc, d *iofwd.Descriptor, kind iofwd.TaskKind, n int64) error {
	op := f.DB.Start(d)
	var result error
	completed := false
	f.pool.Submit(&iofwd.Task{
		Kind:  kind,
		Desc:  d,
		Op:    op,
		Bytes: n,
		Done: func(err error) {
			result = err
			completed = true
			f.DB.Complete(d, op, nil) // status handed back directly
			f.Eng.Ready(p)
		},
	})
	for !completed {
		p.Suspend()
	}
	return result
}

// Write forwards a write through the work queue; the application blocks
// until the worker has executed it.
func (f *Forwarder) Write(p *sim.Proc, cn int, fd int, n int64) error {
	d, err := f.DB.Lookup(fd)
	if err != nil {
		return err
	}
	f.UplinkControl(p, f.P.IONCtrlCPUThread)
	f.UplinkData(p, n, 1)
	werr := f.submitAndWait(p, d, iofwd.TaskWrite, n)
	f.Reply(p)
	f.CountWrite(n)
	if werr != nil {
		return fmt.Errorf("zoid+wq: write fd %d: %w", fd, werr)
	}
	return nil
}

// Read forwards a read through the work queue.
func (f *Forwarder) Read(p *sim.Proc, cn int, fd int, n int64) error {
	d, err := f.DB.Lookup(fd)
	if err != nil {
		return err
	}
	f.UplinkControl(p, f.P.IONCtrlCPUThread)
	rerr := f.submitAndWait(p, d, iofwd.TaskRead, n)
	f.DownlinkData(p, n, 1)
	f.CountRead(n)
	if rerr != nil {
		return fmt.Errorf("zoid+wq: read fd %d: %w", fd, rerr)
	}
	return nil
}

// Close implements iofwd.Forwarder.
func (f *Forwarder) Close(p *sim.Proc, cn int, fd int) error {
	d, err := f.DB.Lookup(fd)
	if err != nil {
		return err
	}
	f.UplinkControl(p, f.P.IONCtrlCPUThread)
	f.CloseSink(p, d.Sink)
	err = f.DB.Close(p, d)
	f.Reply(p)
	return err
}

// Drain waits for all queued operations; with synchronous staging there is
// never queued work once the applications return, so this returns quickly.
func (f *Forwarder) Drain(p *sim.Proc) { f.DB.WaitAll(p) }

// Shutdown stops the worker pool.
func (f *Forwarder) Shutdown() { f.pool.Shutdown() }
