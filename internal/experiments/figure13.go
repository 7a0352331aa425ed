package experiments

import (
	"fmt"

	"repro/internal/bgp"
	"repro/internal/iofwd"
	"repro/internal/madbench"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Figure13 reproduces "Performance of the MADBench2 application benchmark
// using the I/O forwarding mechanisms" (paper V-B): MADbench2 in I/O mode
// (α=1, RMOD=WMOD=1, all processes doing I/O concurrently) against GPFS,
// weak-scaled from 64 nodes (NPIX=4096) to 256 nodes (NPIX=8192), so every
// process moves ~2 MiB per operation. Paper: staging+scheduling achieves
// +53%/+40% over CIOD/ZOID at 64 nodes and +49%/+34% at 256 nodes.
//
// The paper sets the number of component matrices to 1024 (128 GB total at
// 64 nodes); the runner defaults to a smaller NBin, which scales the run
// length linearly but leaves the steady-state throughput comparison intact
// (EXPERIMENTS.md records the scaling check).
func Figure13(quick bool) *stats.Table {
	scales := []struct {
		nodes, npix int
	}{{64, 4096}, {256, 8192}}
	nbin := 24
	if quick {
		nbin = 8
	}
	t := &stats.Table{
		Title:  "Figure 13: MADbench2 (I/O mode) on GPFS, 1 pset / 4 psets",
		XLabel: "nodes",
		YLabel: "MiB/s",
	}
	for _, s := range scales {
		t.X = append(t.X, fmt.Sprint(s.nodes))
	}
	for _, mech := range AllMechanisms {
		mech := mech
		var y []float64
		for _, s := range scales {
			r := madbench.Run(madbench.Config{
				Nodes: s.nodes,
				NPix:  s.npix,
				NBin:  nbin,
				Alpha: 1,
				NewForwarder: func(e *sim.Engine, ps *bgp.Pset, p bgp.Params) iofwd.Forwarder {
					return NewForwarder(e, ps, p, mech, 4, 8)
				},
			})
			y = append(y, r.ThroughputMiBps)
		}
		t.Add(string(mech), y)
	}
	for i, s := range scales {
		addImprovementNotes(t, i, fmt.Sprintf("at %d nodes", s.nodes))
	}
	t.Notes = append(t.Notes,
		"paper: async over ciod +53%/+49%, over zoid +40%/+34% at 64/256 nodes",
		fmt.Sprintf("NBin %d (paper: 1024); aggregate I/O scales linearly with NBin", nbin))
	return t
}
