package wq

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/bgp"
	"repro/internal/iofwd"
	"repro/internal/sim"
)

func machine(e *sim.Engine, cns int) (*bgp.Machine, bgp.Params) {
	p := bgp.Default()
	return bgp.NewMachine(e, bgp.Config{Psets: 1, CNsPerPset: cns, DANodes: 1, Params: &p}), p
}

func TestSynchronousCompletion(t *testing.T) {
	e := sim.New(1)
	m, p := machine(e, 1)
	f := New(e, m.Psets[0], p, Config{Workers: 2, Batch: 4})
	slow := &slowSink{delay: sim.Second}
	var wrote sim.Time
	e.Spawn("cn", func(proc *sim.Proc) {
		fd, _ := f.Open(proc, 0, slow)
		if err := f.Write(proc, 0, fd, 4096); err != nil {
			t.Errorf("write: %v", err)
		}
		wrote = proc.Now()
		_ = f.Close(proc, 0, fd)
	})
	e.Run(0)
	f.Shutdown()
	if wrote < sim.Second {
		t.Fatalf("write returned at %v; scheduling is synchronous", wrote)
	}
}

func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	// 8 clients but a single worker: 8 one-second operations must take
	// ~8 seconds, because only the worker executes I/O.
	e := sim.New(1)
	m, p := machine(e, 8)
	f := New(e, m.Psets[0], p, Config{Workers: 1, Batch: 2})
	slow := &slowSink{delay: sim.Second}
	for cn := 0; cn < 8; cn++ {
		cn := cn
		e.Spawn(fmt.Sprintf("cn%d", cn), func(proc *sim.Proc) {
			fd, _ := f.Open(proc, cn, slow)
			if err := f.Write(proc, cn, fd, 4096); err != nil {
				t.Errorf("write: %v", err)
			}
			_ = f.Close(proc, cn, fd)
		})
	}
	end := e.Run(0)
	f.Shutdown()
	if end < 8*sim.Second {
		t.Fatalf("8 serialized 1s ops finished at %v, want >= 8s", end)
	}
	if f.Pool().Executed() != 8 {
		t.Fatalf("executed %d", f.Pool().Executed())
	}
}

func TestMultiplexingBatches(t *testing.T) {
	e := sim.New(1)
	m, p := machine(e, 8)
	f := New(e, m.Psets[0], p, Config{Workers: 1, Batch: 8})
	sink := &iofwd.NullSink{ION: m.Psets[0].ION, P: p}
	for cn := 0; cn < 8; cn++ {
		cn := cn
		e.Spawn(fmt.Sprintf("cn%d", cn), func(proc *sim.Proc) {
			fd, _ := f.Open(proc, cn, sink)
			for i := 0; i < 4; i++ {
				if err := f.Write(proc, cn, fd, 64*1024); err != nil {
					t.Errorf("write: %v", err)
				}
			}
			_ = f.Close(proc, cn, fd)
		})
	}
	e.Run(0)
	f.Shutdown()
	pool := f.Pool()
	if pool.Executed() != 32 {
		t.Fatalf("executed %d, want 32", pool.Executed())
	}
	if pool.Batches() >= pool.Executed() {
		t.Fatalf("batches %d not smaller than tasks %d; no multiplexing happened",
			pool.Batches(), pool.Executed())
	}
}

func TestErrorsPassedBackThroughQueue(t *testing.T) {
	e := sim.New(1)
	m, p := machine(e, 1)
	f := New(e, m.Psets[0], p, Config{Workers: 1, Batch: 1})
	boom := errors.New("boom")
	sink := &iofwd.FailingSink{Sink: &iofwd.NullSink{ION: m.Psets[0].ION, P: p}, FailAfter: 1, Err: boom}
	e.Spawn("cn", func(proc *sim.Proc) {
		fd, _ := f.Open(proc, 0, sink)
		if err := f.Write(proc, 0, fd, 128); err != nil {
			t.Errorf("first write: %v", err)
		}
		if err := f.Write(proc, 0, fd, 128); !errors.Is(err, boom) {
			t.Errorf("second write = %v, want boom", err)
		}
		_ = f.Close(proc, 0, fd)
	})
	e.Run(0)
	f.Shutdown()
}

type slowSink struct{ delay sim.Time }

func (s *slowSink) Write(p *sim.Proc, n int64) error { p.Sleep(s.delay); return nil }
func (s *slowSink) Read(p *sim.Proc, n int64) error  { p.Sleep(s.delay); return nil }
