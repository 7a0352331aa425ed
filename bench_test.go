// Package repro's root benchmark harness: one benchmark per figure of the
// paper's evaluation section (4-6, 9-13), each reporting the simulated
// sustained throughput as a custom MiB/s metric, plus ablation benchmarks
// for the design choices called out in DESIGN.md. The same series print as
// tables via `go run ./cmd/iofsim -all`.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/bgp"
	"repro/internal/experiments"
	"repro/internal/iofwd"
	"repro/internal/madbench"
	"repro/internal/sim"
)

const mib = 1 << 20

// reportE2E runs one end-to-end configuration per benchmark iteration and
// reports its throughput.
func reportE2E(b *testing.B, cfg experiments.E2EConfig) {
	b.Helper()
	var thr float64
	for i := 0; i < b.N; i++ {
		r := experiments.RunE2E(cfg)
		thr = r.ThroughputMiBps
	}
	b.ReportMetric(thr, "MiB/s")
	b.ReportMetric(0, "ns/op") // virtual-time experiment; wall ns/op is meaningless
}

// BenchmarkFigure4 — collective network streaming CN->ION (writes to
// /dev/null), CIOD and ZOID, swept over pset population. Paper: ~680 MiB/s
// peak at 4-8 CNs, decline beyond 32, ZOID ~2% ahead.
func BenchmarkFigure4(b *testing.B) {
	for _, mech := range []experiments.Mechanism{experiments.CIOD, experiments.ZOID} {
		for _, cns := range []int{1, 4, 16, 64} {
			b.Run(fmt.Sprintf("%s/cn%d", mech, cns), func(b *testing.B) {
				reportE2E(b, experiments.E2EConfig{
					Mech: mech, Psets: 1, CNsPerPset: cns, MsgBytes: mib, Iters: 40,
				})
			})
		}
	}
}

// BenchmarkFigure5 — external network ION->DA nuttcp sweep. Paper: 307 at
// one thread, ~791 at four, lower at eight; DA->DA 1110.
func BenchmarkFigure5(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ion-da/threads%d", threads), func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				thr = experiments.RunNuttcpIONToDA(threads, mib, 150).ThroughputMiBps
			}
			b.ReportMetric(thr, "MiB/s")
		})
	}
	b.Run("da-da/threads1", func(b *testing.B) {
		var thr float64
		for i := 0; i < b.N; i++ {
			thr = experiments.RunNuttcpDAToDA(1, mib, 150).ThroughputMiBps
		}
		b.ReportMetric(thr, "MiB/s")
	})
}

// BenchmarkFigure6 — end-to-end CN->DA baselines. Paper: CIOD/ZOID sustain
// at most ~420 MiB/s, 66% of achievable, declining with node count.
func BenchmarkFigure6(b *testing.B) {
	for _, mech := range []experiments.Mechanism{experiments.CIOD, experiments.ZOID} {
		for _, cns := range []int{8, 32, 64} {
			b.Run(fmt.Sprintf("%s/cn%d", mech, cns), func(b *testing.B) {
				reportE2E(b, experiments.E2EConfig{
					Mech: mech, Psets: 1, CNsPerPset: cns, DANodes: 1, MsgBytes: mib, Iters: 40,
				})
			})
		}
	}
}

// BenchmarkFigure9 — all four mechanisms vs CN count. Paper at 32 CNs:
// wq +38% over CIOD (83% efficiency), async +57% (~95%).
func BenchmarkFigure9(b *testing.B) {
	for _, mech := range experiments.AllMechanisms {
		for _, cns := range []int{4, 32, 64} {
			b.Run(fmt.Sprintf("%s/cn%d", mech, cns), func(b *testing.B) {
				reportE2E(b, experiments.E2EConfig{
					Mech: mech, Psets: 1, CNsPerPset: cns, DANodes: 1, MsgBytes: mib, Iters: 40, Workers: 4,
				})
			})
		}
	}
}

// BenchmarkFigure10 — message-size sweep at 64 CNs. Paper at 256 KiB:
// efficiencies 64/74/86/95%.
func BenchmarkFigure10(b *testing.B) {
	for _, mech := range experiments.AllMechanisms {
		for _, msg := range []int64{64 * 1024, 256 * 1024, mib, 4 * mib} {
			b.Run(fmt.Sprintf("%s/msg%dK", mech, msg/1024), func(b *testing.B) {
				reportE2E(b, experiments.E2EConfig{
					Mech: mech, Psets: 1, CNsPerPset: 64, DANodes: 1, MsgBytes: msg, Iters: 40, Workers: 4,
				})
			})
		}
	}
}

// BenchmarkFigure11 — worker-pool size sweep. Paper: ~300 MiB/s at one
// worker, peak at four, decline at eight.
func BenchmarkFigure11(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			reportE2E(b, experiments.E2EConfig{
				Mech: experiments.Async, Psets: 1, CNsPerPset: 64, DANodes: 1,
				MsgBytes: mib, Iters: 40, Workers: workers,
			})
		})
	}
}

// BenchmarkFigure12 — weak scaling to 20 DA sinks. Paper: async+wq is
// +53/43/47% over CIOD at 256/512/1024 CNs.
func BenchmarkFigure12(b *testing.B) {
	for _, mech := range experiments.AllMechanisms {
		for _, cns := range []int{256, 512, 1024} {
			b.Run(fmt.Sprintf("%s/cn%d", mech, cns), func(b *testing.B) {
				reportE2E(b, experiments.E2EConfig{
					Mech: mech, Psets: cns / 64, CNsPerPset: 64, DANodes: 20,
					MsgBytes: mib, Iters: 15, Workers: 4,
				})
			})
		}
	}
}

// BenchmarkFigure13 — MADbench2 in I/O mode against the GPFS model. Paper:
// async+wq is +53%/+49% over CIOD at 64/256 nodes.
func BenchmarkFigure13(b *testing.B) {
	for _, mech := range experiments.AllMechanisms {
		mech := mech
		for _, scale := range []struct{ nodes, npix int }{{64, 4096}, {256, 8192}} {
			b.Run(fmt.Sprintf("%s/nodes%d", mech, scale.nodes), func(b *testing.B) {
				var thr float64
				for i := 0; i < b.N; i++ {
					r := madbench.Run(madbench.Config{
						Nodes: scale.nodes, NPix: scale.npix, NBin: 8, Alpha: 1,
						NewForwarder: func(e *sim.Engine, ps *bgp.Pset, p bgp.Params) iofwd.Forwarder {
							return experiments.NewForwarder(e, ps, p, mech, 4, 8)
						},
					})
					thr = r.ThroughputMiBps
				}
				b.ReportMetric(thr, "MiB/s")
			})
		}
	}
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationQueueDiscipline — shared FIFO (the paper) vs the real
// server's sharded work-stealing scheduler.
func BenchmarkAblationQueueDiscipline(b *testing.B) {
	base := experiments.E2EConfig{
		Mech: experiments.Async, Psets: 1, CNsPerPset: 64, DANodes: 1,
		MsgBytes: mib, Iters: 40, Workers: 4,
	}
	b.Run("shared-fifo", func(b *testing.B) { reportE2E(b, base) })
	b.Run("shared-fifo/batch1", func(b *testing.B) {
		cfg := base
		cfg.Batch = 1
		reportE2E(b, cfg)
	})
	// Sharded runs the real server's scheduling decisions (internal/policy).
	// The sink dominates throughput, so the disciplines differ in queue
	// imbalance rather than bandwidth.
	b.Run("sharded", func(b *testing.B) {
		cfg := base
		cfg.Discipline = iofwd.Sharded
		reportE2E(b, cfg)
	})
}

// BenchmarkAblationBatchDepth — the event-loop multiplexing depth (paper:
// "a worker thread dequeues multiple I/O requests").
func BenchmarkAblationBatchDepth(b *testing.B) {
	for _, batch := range []int{1, 4, 8, 32} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			reportE2E(b, experiments.E2EConfig{
				Mech: experiments.Async, Psets: 1, CNsPerPset: 64, DANodes: 1,
				MsgBytes: mib, Iters: 40, Workers: 4, Batch: batch,
			})
		})
	}
}

// BenchmarkAblationStagingMemory — throughput vs the BML cap: once the cap
// falls below the working set, staging degrades toward synchronous
// behaviour (paper: "the I/O operation is blocked until ... sufficient
// memory is available").
func BenchmarkAblationStagingMemory(b *testing.B) {
	for _, mb := range []int64{4, 16, 64, 1536} {
		b.Run(fmt.Sprintf("bml%dMiB", mb), func(b *testing.B) {
			p := bgp.Default()
			p.BMLBytes = mb * mib
			reportE2E(b, experiments.E2EConfig{
				Mech: experiments.Async, Psets: 1, CNsPerPset: 64, DANodes: 1,
				MsgBytes: mib, Iters: 40, Workers: 4, Params: &p,
			})
		})
	}
}

// BenchmarkAblationSocketBuffer — sensitivity of the synchronous baselines
// to the per-connection socket buffer, the overlap they get for free.
func BenchmarkAblationSocketBuffer(b *testing.B) {
	for _, kb := range []int64{128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("zoid/sock%dK", kb), func(b *testing.B) {
			p := bgp.Default()
			p.SockBufBytes = kb * 1024
			reportE2E(b, experiments.E2EConfig{
				Mech: experiments.ZOID, Psets: 1, CNsPerPset: 32, DANodes: 1,
				MsgBytes: mib, Iters: 40, Params: &p,
			})
		})
	}
}
