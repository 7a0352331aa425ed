package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// frameLen is the on-disk frame size of one record with the given name and
// payload length — what the cohort byte-cap and rotation tests size their
// limits with.
func frameLen(name string, n int) int {
	return frameHeader + recHeaderLen(name) + n
}

// gateBackend wraps a MemBackend but blocks every WriteAt until released,
// so a test can pile records into the drain queue (forcing one big
// compaction batch) or keep segments pending on disk while it inspects
// them.
type gateBackend struct {
	*core.MemBackend
	gate chan struct{}
}

func newGateBackend() *gateBackend {
	return &gateBackend{MemBackend: core.NewMemBackend(), gate: make(chan struct{})}
}

func (g *gateBackend) release() { close(g.gate) }

func (g *gateBackend) Open(name string, create bool) (core.Handle, error) {
	h, err := g.MemBackend.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &gateHandle{Handle: h, gate: g.gate}, nil
}

type gateHandle struct {
	core.Handle
	gate chan struct{}
}

func (h *gateHandle) WriteAt(p []byte, off int64) (int, error) {
	<-h.gate
	return h.Handle.WriteAt(p, off)
}

// groupAppend launches n concurrent appends of payloadLen-byte records at
// disjoint offsets of "obj" and waits for every ack, returning the ack
// errors and how many Append calls returned a (non-callback) error.
func groupAppend(t *testing.T, lg *Log, n, payloadLen int) []error {
	t.Helper()
	col := newCollect(n)
	var wg sync.WaitGroup
	var refused atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := lg.Append("obj", int64(i*payloadLen), pattern(i, payloadLen), col.done, nil)
			if err != nil {
				refused.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if r := refused.Load(); r != 0 {
		t.Fatalf("%d of %d grouped appends were refused", r, n)
	}
	return col.wait(t, n)
}

// TestCohortSharesFsync: with the linger primed and the cohort byte
// cap set to exactly N frames, N concurrent appends form one cohort — one
// fsync, one batch of N — and every member is acked durable.
func TestCohortSharesFsync(t *testing.T) {
	const n, payloadLen = 8, 100
	dir := t.TempDir()
	be := core.NewMemBackend()
	lg, _, err := Open(Config{
		Dir: dir, Backend: be, Sync: SyncAlways,
		GroupLinger:   10 * time.Second, // commit must come from the byte-cap seal
		GroupMaxBytes: int64(n * frameLen("obj", payloadLen)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the count-wake open: with extra phantom in-flight appends the
	// cohort can never capture the whole population, so the leader lingers
	// until the seal (or timer) this test arranges.
	lg.inflight.Add(int64(n))
	for i, err := range groupAppend(t, lg, n, payloadLen) {
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
	}
	st := lg.SnapshotStats()
	if st.Syncs != 1 {
		t.Fatalf("got %d fsyncs for %d concurrent appends, want 1 shared one", st.Syncs, n)
	}
	if st.GroupBatches != 1 {
		t.Fatalf("got %d batches, want 1", st.GroupBatches)
	}
	if got := lg.batchOps.Max(); got != n {
		t.Fatalf("batch held %d records, want %d", got, n)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := be.Bytes("obj")
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[i*payloadLen:(i+1)*payloadLen], pattern(i, payloadLen)) {
			t.Fatalf("record %d corrupted after drain", i)
		}
	}
}

// TestCohortNeverStraddlesRotation: with a segment that holds
// exactly two frames, three concurrent appends must land as two clean
// single-segment cohorts (2 frames + 1 frame) — never a cohort whose
// frames span the rotation boundary. The drain gate keeps both segment
// files on disk so the test can scan them after all three acks.
func TestCohortNeverStraddlesRotation(t *testing.T) {
	const payloadLen = 64
	fl := frameLen("obj", payloadLen)
	dir := t.TempDir()
	be := newGateBackend()
	lg, _, err := Open(Config{
		Dir: dir, Backend: be, Sync: SyncAlways,
		SegmentBytes:  int64(2 * fl),
		GroupLinger:   50 * time.Millisecond,
		GroupMaxBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the count-wake open: with extra phantom in-flight appends the
	// cohort can never capture the whole population, so the leader lingers
	// until the seal (or timer) this test arranges.
	lg.inflight.Add(8)
	// Append returns are the durability acks; the done callbacks sit
	// behind the gated drain, so wait only on the former.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := lg.Append("obj", int64(i*payloadLen), pattern(i, payloadLen), nil, nil); err != nil {
				t.Errorf("append %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	// All three acked; the gate holds their records pending, so both
	// segment files are still on disk. Every file must scan clean (no
	// cohort left a hole at a rotation boundary) and hold whole frames
	// summing to the three appended records.
	paths, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d segment files, want 2 (one rotation)", len(paths))
	}
	frames := 0
	seen := make(map[int64]bool)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScanner(f)
		perSeg := 0
		for {
			payload, err := sc.Next()
			if err != nil {
				if errors.Is(err, ErrTorn) {
					t.Fatalf("segment %s scans torn: a cohort straddled the rotation", p)
				}
				break
			}
			name, off, data, derr := decodeRecord(payload)
			if derr != nil || name != "obj" {
				t.Fatalf("segment %s holds a mangled record: %v", p, derr)
			}
			i := off / payloadLen
			if !bytes.Equal(data, pattern(int(i), payloadLen)) {
				t.Fatalf("record at off %d corrupted on disk", off)
			}
			seen[off] = true
			perSeg++
		}
		f.Close()
		if perSeg > 2 {
			t.Fatalf("segment %s holds %d frames, capacity is 2", p, perSeg)
		}
		frames += perSeg
	}
	if frames != 3 || len(seen) != 3 {
		t.Fatalf("segments hold %d frames (%d distinct), want all 3 records", frames, len(seen))
	}

	be.release()
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCohortAllOrNothingAck: at the after-batch-sync-before-ack crash
// point the whole cohort is durable on disk, yet no member's Append has
// returned — the cohort is acknowledged all-or-nothing.
func TestCohortAllOrNothingAck(t *testing.T) {
	const n, payloadLen = 8, 100
	dir := t.TempDir()
	var returned atomic.Int64
	var ackedAtFire atomic.Int64
	ackedAtFire.Store(-1)
	cfg := Config{
		Dir: dir, Backend: core.NewMemBackend(), Sync: SyncAlways,
		GroupLinger:   10 * time.Second,
		GroupMaxBytes: int64(n * frameLen("obj", payloadLen)),
		Crash: func(point string) {
			if point == CrashAfterBatchSync {
				ackedAtFire.CompareAndSwap(-1, returned.Load())
			}
		},
	}
	lg, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the count-wake open: with extra phantom in-flight appends the
	// cohort can never capture the whole population, so the leader lingers
	// until the seal (or timer) this test arranges.
	lg.inflight.Add(int64(n))
	col := newCollect(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := lg.Append("obj", int64(i*payloadLen), pattern(i, payloadLen), col.done, nil); err != nil {
				t.Errorf("append %d refused: %v", i, err)
			}
			returned.Add(1)
		}(i)
	}
	wg.Wait()
	col.wait(t, n)
	if got := ackedAtFire.Load(); got != 0 {
		t.Fatalf("%d appends had already returned when the batch became durable, want 0 (all-or-nothing ack)", got)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCohortFailureUnparksCohort: when the batch write fails, every
// cohort member's Append returns the error, nothing is acked, and the
// reservation accounting rolls back.
func TestCohortFailureUnparksCohort(t *testing.T) {
	const n, payloadLen = 4, 100
	dir := t.TempDir()
	lg, _, err := Open(Config{
		Dir: dir, Backend: core.NewMemBackend(), Sync: SyncAlways,
		GroupLinger:   10 * time.Second,
		GroupMaxBytes: int64(n * frameLen("obj", payloadLen)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the count-wake open: with extra phantom in-flight appends the
	// cohort can never capture the whole population, so the leader lingers
	// until the seal (or timer) this test arranges.
	lg.inflight.Add(int64(n))
	// Close the active segment file underneath the log: the cohort's batch
	// write must fail, and the failure must reach every parked member.
	lg.mu.Lock()
	lg.active.f.Close()
	lg.mu.Unlock()

	var wg sync.WaitGroup
	var refused atomic.Int64
	var acked atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := lg.Append("obj", int64(i*payloadLen), pattern(i, payloadLen),
				func(error) { acked.Add(1) }, nil)
			if err != nil {
				refused.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if got := refused.Load(); got != n {
		t.Fatalf("%d of %d members saw the batch failure, want all", got, n)
	}
	if got := acked.Load(); got != 0 {
		t.Fatalf("%d done callbacks fired for a failed cohort, want 0", got)
	}
	lg.mu.Lock()
	if lg.liveBytes != 0 || lg.active.reserved != 0 || lg.active.size != 0 {
		t.Fatalf("rollback left liveBytes=%d reserved=%d size=%d, want all zero",
			lg.liveBytes, lg.active.reserved, lg.active.size)
	}
	lg.mu.Unlock()
	st := lg.SnapshotStats()
	if st.Syncs != 0 || st.Appends != 0 {
		t.Fatalf("failed cohort published: syncs=%d appends=%d", st.Syncs, st.Appends)
	}
	_ = lg.Close()
}

// TestCohortSingleWriter: a lone sequential writer never lingers
// (cohorts stay singletons) and still gets per-record durability.
func TestCohortSingleWriter(t *testing.T) {
	const n, payloadLen = 6, 80
	dir := t.TempDir()
	be := core.NewMemBackend()
	lg, _, err := Open(Config{
		Dir: dir, Backend: be, Sync: SyncAlways,
		GroupLinger: 10 * time.Second, // would hang the test if a singleton lingered
	})
	if err != nil {
		t.Fatal(err)
	}
	col := newCollect(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := lg.Append("obj", int64(i*payloadLen), pattern(i, payloadLen), col.done, nil); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	for i, err := range col.wait(t, n) {
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("sequential appends took %v: a singleton cohort lingered", el)
	}
	st := lg.SnapshotStats()
	if st.Syncs != n || st.GroupBatches != n {
		t.Fatalf("got %d syncs / %d batches for %d sequential appends, want %d singleton cohorts",
			st.Syncs, st.GroupBatches, n, n)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := be.Bytes("obj")
	if len(got) != n*payloadLen {
		t.Fatalf("backend holds %d bytes, want %d", len(got), n*payloadLen)
	}
}
