// Package experiments contains one runner per figure of the paper's
// evaluation (Figures 4-6 and 9-13), built on the simulated ALCF machine.
// Each runner returns a stats.Table whose measured series can be printed
// next to the paper-reported reference values.
package experiments

import (
	"fmt"

	"repro/internal/bgp"
	"repro/internal/iofwd"
	"repro/internal/iofwd/ciod"
	"repro/internal/iofwd/staging"
	"repro/internal/iofwd/wq"
	"repro/internal/iofwd/zoid"
	"repro/internal/sim"
)

// Mechanism names one of the four forwarding mechanisms under study.
type Mechanism string

// The four mechanisms of the paper's evaluation.
const (
	CIOD  Mechanism = "ciod"
	ZOID  Mechanism = "zoid"
	WQ    Mechanism = "zoid+wq"
	Async Mechanism = "zoid+wq+async"
)

// AllMechanisms lists the mechanisms in the order the paper plots them.
var AllMechanisms = []Mechanism{CIOD, ZOID, WQ, Async}

// NewForwarder constructs the named mechanism for a pset.
func NewForwarder(e *sim.Engine, ps *bgp.Pset, p bgp.Params, mech Mechanism, workers, batch int) iofwd.Forwarder {
	return NewForwarderDisc(e, ps, p, mech, workers, batch, iofwd.SharedFIFO)
}

// NewForwarderDisc is NewForwarder with an explicit queueing discipline for
// the worker-pool mechanisms (CIOD and ZOID have no pool; the discipline is
// ignored for them).
func NewForwarderDisc(e *sim.Engine, ps *bgp.Pset, p bgp.Params, mech Mechanism, workers, batch int, disc iofwd.Discipline) iofwd.Forwarder {
	switch mech {
	case CIOD:
		return ciod.New(e, ps, p)
	case ZOID:
		return zoid.New(e, ps, p)
	case WQ:
		return wq.New(e, ps, p, wq.Config{Workers: workers, Batch: batch, Discipline: disc})
	case Async:
		return staging.New(e, ps, p, staging.Config{Workers: workers, Batch: batch, Discipline: disc})
	default:
		panic(fmt.Sprintf("experiments: unknown mechanism %q", mech))
	}
}

// E2EConfig describes one end-to-end forwarding run: every CN concurrently
// streams Iters messages of MsgBytes to its sink, as in the paper's
// memory-to-memory data transfer microbenchmark (Section III-C).
type E2EConfig struct {
	Mech       Mechanism
	Psets      int
	CNsPerPset int
	// DANodes is the number of data-analysis sink nodes; CN connections are
	// distributed round-robin among them (the MxN redistribution of V-A4).
	// Zero means the data terminates in /dev/null on the ION (fig 4).
	DANodes  int
	MsgBytes int64
	Iters    int
	Workers  int
	Batch    int
	// Discipline selects the worker-pool queueing discipline for the WQ and
	// Async mechanisms (SharedFIFO or Sharded).
	Discipline iofwd.Discipline
	Params     *bgp.Params
	// Reads switches the workload from writes to reads (fig 4 measures
	// both directions; the shape is the same).
	Reads bool
	// JitterMax, when positive, adds a uniform random per-operation pause
	// in [0, JitterMax) on each CN — useful for sensitivity studies of how
	// phase decorrelation affects the synchronous mechanisms. The paper's
	// workload is collective I/O ("typically in HPC applications, all the
	// nodes concurrently perform I/O operations"), so the default is no
	// jitter: all CNs issue operations in lockstep.
	JitterMax sim.Time
}

// E2EResult is the outcome of one run.
type E2EResult struct {
	ThroughputMiBps float64
	Elapsed         sim.Time
	Bytes           int64
	// Utilization of the first pset's resources over the run: the busy
	// fraction of the tree uplink, the ION CPU, and the ION NIC. These are
	// the quantities the paper's bottleneck analysis reasons about.
	TreeUtil   float64
	IONCPUUtil float64
	IONNICUtil float64
}

// barrier releases all n participants once the last one arrives and records
// the release time as the measurement start.
type barrier struct {
	eng     *sim.Engine
	n       int
	arrived int
	waiting []*sim.Proc
	at      sim.Time
}

func (b *barrier) wait(p *sim.Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.at = p.Now()
		for _, w := range b.waiting {
			b.eng.Ready(w)
		}
		b.waiting = nil
		return
	}
	b.waiting = append(b.waiting, p)
	p.Suspend()
}

// RunE2E executes one end-to-end forwarding experiment and returns the
// sustained aggregate throughput. The clock starts when every CN has opened
// its descriptor and stops when every byte has been delivered (descriptors
// closed, staged operations drained).
func RunE2E(cfg E2EConfig) E2EResult {
	if cfg.Iters <= 0 {
		cfg.Iters = 100
	}
	e := sim.New(1)
	p := bgp.Default()
	if cfg.Params != nil {
		p = *cfg.Params
	}
	m := bgp.NewMachine(e, bgp.Config{
		Psets:      cfg.Psets,
		CNsPerPset: cfg.CNsPerPset,
		DANodes:    cfg.DANodes,
		Params:     &p,
	})
	totalCNs := m.TotalCNs()
	start := &barrier{eng: e, n: totalCNs}
	var endAt sim.Time
	finished := 0

	var fwds []iofwd.Forwarder
	for pi, ps := range m.Psets {
		fwd := NewForwarderDisc(e, ps, p, cfg.Mech, cfg.Workers, cfg.Batch, cfg.Discipline)
		fwds = append(fwds, fwd)
		for cn := 0; cn < ps.CNs; cn++ {
			global := pi*ps.CNs + cn
			var sink iofwd.Sink
			if cfg.DANodes > 0 {
				sink = iofwd.NewDASink(e, ps.ION, m.DAs[global%len(m.DAs)], p)
			} else {
				sink = &iofwd.NullSink{ION: ps.ION, P: p}
			}
			cn := cn
			e.Spawn(fmt.Sprintf("cn%d", global), func(proc *sim.Proc) {
				fd, err := fwd.Open(proc, cn, sink)
				if err != nil {
					panic(err)
				}
				start.wait(proc)
				for it := 0; it < cfg.Iters; it++ {
					if cfg.JitterMax > 0 {
						proc.Sleep(sim.Time(e.Rand().Int63n(int64(cfg.JitterMax))))
					}
					if cfg.Reads {
						err = fwd.Read(proc, cn, fd, cfg.MsgBytes)
					} else {
						err = fwd.Write(proc, cn, fd, cfg.MsgBytes)
					}
					if err != nil {
						panic(err)
					}
				}
				if err := fwd.Close(proc, cn, fd); err != nil {
					panic(err)
				}
				finished++
				if finished == totalCNs {
					endAt = proc.Now()
				}
			})
		}
	}
	e.Run(0)
	for _, fwd := range fwds {
		fwd.Shutdown()
	}
	bytes := int64(totalCNs) * int64(cfg.Iters) * cfg.MsgBytes
	elapsed := endAt - start.at
	if elapsed <= 0 {
		panic("experiments: zero elapsed time")
	}
	ps0 := m.Psets[0]
	cpuCap := float64(ps0.ION.CPU.Cores()) * endAt.Seconds()
	return E2EResult{
		ThroughputMiBps: float64(bytes) / elapsed.Seconds() / bgp.MiB,
		Elapsed:         elapsed,
		Bytes:           bytes,
		TreeUtil:        ps0.Tree.BusyTime().Seconds() / endAt.Seconds(),
		IONCPUUtil:      ps0.ION.CPU.CoreSecondsDelivered() / cpuCap,
		IONNICUtil:      ps0.ION.NIC.BusyTime().Seconds() / endAt.Seconds(),
	}
}

// NuttcpResult is the outcome of a raw external-network run.
type NuttcpResult struct {
	ThroughputMiBps float64
}

// RunNuttcpIONToDA models the Section III-B nuttcp measurement: k sender
// threads on one ION stream 1 MiB messages memory-to-memory to a DA node,
// with no forwarding involved.
func RunNuttcpIONToDA(threads int, msgBytes int64, iters int) NuttcpResult {
	e := sim.New(1)
	p := bgp.Default()
	m := bgp.NewMachine(e, bgp.Config{Psets: 1, CNsPerPset: 1, DANodes: 1, Params: &p})
	ion, da := m.Psets[0].ION, m.DAs[0]
	var endAt sim.Time
	finished := 0
	for t := 0; t < threads; t++ {
		// Each sender thread drives its own TCP connection, as nuttcp does.
		sink := iofwd.NewDASink(e, ion, da, p)
		e.Spawn(fmt.Sprintf("sender%d", t), func(proc *sim.Proc) {
			for i := 0; i < iters; i++ {
				if err := sink.Write(proc, msgBytes); err != nil {
					panic(err)
				}
			}
			sink.CloseCost(proc)
			finished++
			if finished == threads {
				endAt = proc.Now()
			}
		})
	}
	e.Run(0)
	bytes := int64(threads) * int64(iters) * msgBytes
	return NuttcpResult{ThroughputMiBps: float64(bytes) / endAt.Seconds() / bgp.MiB}
}

// RunNuttcpDAToDA models the DA-to-DA reference: a single stream between two
// Xeon analysis nodes sustains ~1110 MiB/s (Section III-B).
func RunNuttcpDAToDA(threads int, msgBytes int64, iters int) NuttcpResult {
	e := sim.New(1)
	p := bgp.Default()
	m := bgp.NewMachine(e, bgp.Config{Psets: 1, CNsPerPset: 1, DANodes: 2, Params: &p})
	src, dst := m.DAs[0], m.DAs[1]
	var endAt sim.Time
	finished := 0
	for t := 0; t < threads; t++ {
		e.Spawn(fmt.Sprintf("sender%d", t), func(proc *sim.Proc) {
			for i := 0; i < iters; i++ {
				n := msgBytes
				sim.Fork(proc,
					func(done func()) { src.CPU.ComputeAsync(float64(n)*p.DASendCost, done) },
					func(done func()) { src.NIC.TransferAsync(e, n, done) },
					func(done func()) { dst.NIC.TransferAsync(e, n, done) },
					func(done func()) { dst.CPU.ComputeAsync(float64(n)*p.DARecvCost, done) },
				)
			}
			finished++
			if finished == threads {
				endAt = proc.Now()
			}
		})
	}
	e.Run(0)
	bytes := int64(threads) * int64(iters) * msgBytes
	return NuttcpResult{ThroughputMiBps: float64(bytes) / endAt.Seconds() / bgp.MiB}
}
