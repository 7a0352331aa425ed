package wal

// BenchmarkGroupCommit measures what group commit exists to change: the
// acknowledged-burst bandwidth of concurrent spilled appends under
// -wal-sync always, where every ack must be preceded by an fsync. The
// group-off arm pays one serialized fsync per record; the group-on arm
// shares each fsync across a cohort of concurrent appenders. The drain to
// the backend runs off the timer between iterations, exactly like
// BenchmarkBurstAck: ack latency is the measured quantity.
//
// The record size is deliberately small (1 KiB): an fsync's cost is a
// fixed journal commit plus a data-volume term, and sharing it only wins
// where the fixed term dominates — the small-synchronous-write shape the
// paper's forwarding layer exists to absorb. At 64 KiB records the
// data-volume term dominates and batching the fsync saves nothing
// (measured on this filesystem: group-on loses there).

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

const (
	groupBenchWriters = 16      // concurrent appenders per iteration
	groupBenchRecord  = 1 << 10 // bytes per record: the small-synchronous-write shape group commit exists for
)

func runGroupBench(b *testing.B, group bool) {
	const perWriter = 8
	lg, _, err := Open(Config{
		Dir:         b.TempDir(),
		Backend:     core.NewMemBackend(),
		Sync:        SyncAlways,
		GroupCommit: group,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = lg.Close() })
	payload := pattern(1, groupBenchRecord)
	b.SetBytes(int64(groupBenchRecord * groupBenchWriters * perWriter))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < groupBenchWriters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Every iteration rewrites the same per-writer window:
				// offsets are distinct within an iteration (what cohort
				// correctness needs) but bounded across them, so the
				// in-memory backend never grows and its O(size) buffer
				// regrowth cannot leak into the timed window.
				base := int64(w * perWriter * groupBenchRecord)
				for r := 0; r < perWriter; r++ {
					if err := lg.Append("bench", base+int64(r*groupBenchRecord), payload, nil, nil); err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		b.StopTimer()
		for lg.SnapshotStats().Lag > 0 {
			time.Sleep(time.Millisecond)
		}
		b.StartTimer()
	}
}

func BenchmarkGroupCommit(b *testing.B) {
	b.Run(fmt.Sprintf("group-off/w%d", groupBenchWriters), func(b *testing.B) { runGroupBench(b, false) })
	b.Run(fmt.Sprintf("group-on/w%d", groupBenchWriters), func(b *testing.B) { runGroupBench(b, true) })
}
