package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// collect waits for n done callbacks and returns the errors in call order.
type collect struct {
	mu   sync.Mutex
	errs []error
	ch   chan struct{}
}

func newCollect(n int) *collect { return &collect{ch: make(chan struct{}, n)} }

func (c *collect) done(err error) {
	c.mu.Lock()
	c.errs = append(c.errs, err)
	c.mu.Unlock()
	c.ch <- struct{}{}
}

func (c *collect) wait(t *testing.T, n int) []error {
	t.Helper()
	for i := 0; i < n; i++ {
		<-c.ch
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]error(nil), c.errs...)
}

func pattern(i, n int) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(i*131 + j)
	}
	return b
}

func TestAppendDrainApplies(t *testing.T) {
	dir := t.TempDir()
	be := core.NewMemBackend()
	lg, stats, err := Open(Config{Dir: dir, Backend: be, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 0 {
		t.Fatalf("fresh dir recovered %d segments", stats.Segments)
	}
	const n = 40
	c := newCollect(n)
	want := make([]byte, 0, n*64)
	for i := 0; i < n; i++ {
		p := pattern(i, 64)
		want = append(want, p...)
		if err := lg.Append("obj", int64(i*64), p, c.done, nil); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	for _, err := range c.wait(t, n) {
		if err != nil {
			t.Fatalf("drain error: %v", err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	got, ok := be.Bytes("obj")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("backend bytes mismatch (ok=%v, %d vs %d bytes)", ok, len(got), len(want))
	}
	s := lg.SnapshotStats()
	if s.Appends != n || s.Drained != n || s.Lag != 0 || s.LiveBytes != 0 {
		t.Fatalf("stats after close: %+v", s)
	}
	// Clean close leaves no segment files behind.
	left, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(left) != 0 {
		t.Fatalf("segments left after clean close: %v", left)
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	be := core.NewMemBackend()
	// Tiny segments force rotation every couple of appends.
	lg, _, err := Open(Config{Dir: dir, Backend: be, SegmentBytes: 256, Sync: SyncInterval, SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	c := newCollect(n)
	for i := 0; i < n; i++ {
		if err := lg.Append("obj", int64(i*100), pattern(i, 100), c.done, nil); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	c.wait(t, n)
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	s := lg.SnapshotStats()
	if s.Truncated == 0 {
		t.Fatalf("no segments truncated across %d rotating appends: %+v", n, s)
	}
	for i := 0; i < n; i++ {
		got, _ := be.Bytes("obj")
		if !bytes.Equal(got[i*100:i*100+100], pattern(i, 100)) {
			t.Fatalf("record %d corrupted after rotation", i)
		}
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy string
		every  int
		want   func(syncs uint64, n int) bool
	}{
		{SyncAlways, 0, func(s uint64, n int) bool { return s == uint64(n) }},
		{SyncInterval, 5, func(s uint64, n int) bool { return s == uint64(n/5) }},
		{SyncNever, 0, func(s uint64, n int) bool { return s == 0 }},
	} {
		t.Run(tc.policy, func(t *testing.T) {
			lg, _, err := Open(Config{
				Dir: t.TempDir(), Backend: core.NewMemBackend(),
				Sync: tc.policy, SyncEvery: tc.every,
			})
			if err != nil {
				t.Fatal(err)
			}
			const n = 20
			c := newCollect(n)
			for i := 0; i < n; i++ {
				if err := lg.Append("o", int64(i*8), pattern(i, 8), c.done, nil); err != nil {
					t.Fatal(err)
				}
			}
			c.wait(t, n)
			if err := lg.Close(); err != nil {
				t.Fatal(err)
			}
			if s := lg.SnapshotStats(); !tc.want(s.Syncs, n) {
				t.Fatalf("policy %s: %d syncs over %d appends", tc.policy, s.Syncs, n)
			}
		})
		// One goroutine submits n records and waits for none: under every
		// policy they share commits, keep submit order in the log and at the
		// drain, and each is acked exactly once.
		t.Run(tc.policy+"/burst", func(t *testing.T) {
			const n, payloadLen = 64, 8
			dir := t.TempDir()
			be := newGateBackend() // holds the drain so the segment stays on disk
			submitted := make(chan struct{})
			var gated atomic.Bool
			lg, _, err := Open(Config{
				Dir: dir, Backend: be, Sync: tc.policy, SyncEvery: tc.every,
				// The first commit waits for the whole burst, so the records
				// behind it are certain to be queued together.
				Crash: func(point string) {
					if point == CrashMidBatchAppend && gated.CompareAndSwap(false, true) {
						<-submitted
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			var fired [n]atomic.Int32
			acks := make(chan error, n)
			var mu sync.Mutex
			var drainOrder []int
			for i := 0; i < n; i++ {
				i := i
				err := lg.Submit("o", int64(i*payloadLen), pattern(i, payloadLen),
					func(err error) { fired[i].Add(1); acks <- err },
					func(error) { mu.Lock(); drainOrder = append(drainOrder, i); mu.Unlock() }, nil)
				if err != nil {
					t.Fatalf("submit %d refused: %v", i, err)
				}
			}
			close(submitted)
			for i := 0; i < n; i++ {
				if err := <-acks; err != nil {
					t.Fatalf("ack: %v", err)
				}
			}
			batches, s := lg.batchOps.Count(), lg.SnapshotStats()
			if batches >= n || lg.batchOps.Sum() != n {
				t.Fatalf("%d unwaited submits committed as %d records in %d cohorts, want all of them in fewer cohorts",
					n, lg.batchOps.Sum(), batches)
			}
			switch tc.policy {
			case SyncAlways:
				if s.Syncs != batches {
					t.Fatalf("%d fsyncs for %d commits, want one each", s.Syncs, batches)
				}
			case SyncInterval:
				lg.mu.Lock()
				unsynced := lg.unsynced
				lg.mu.Unlock()
				if s.Syncs == 0 || s.Syncs > batches || unsynced >= tc.every {
					t.Fatalf("%d fsyncs over %d commits left %d records unsynced, want fewer than SyncEvery=%d",
						s.Syncs, batches, unsynced, tc.every)
				}
			case SyncNever:
				if s.Syncs != 0 {
					t.Fatalf("%d fsyncs, want none", s.Syncs)
				}
			}
			offs, _ := scanSegments(t, dir)
			if len(offs) != n {
				t.Fatalf("segment holds %d records, want %d", len(offs), n)
			}
			for i, off := range offs {
				if off != int64(i*payloadLen) {
					t.Fatalf("log position %d holds the record submitted %dth: submit order is not log order", i, off/payloadLen)
				}
			}
			be.release()
			if err := lg.Close(); err != nil {
				t.Fatal(err)
			}
			for i := range fired {
				if got := fired[i].Load(); got != 1 {
					t.Fatalf("record %d acked %d times, want exactly once", i, got)
				}
			}
			for i, got := range drainOrder {
				if got != i {
					t.Fatalf("drain position %d applied the record submitted %dth: submit order is not drain order", i, got)
				}
			}
			if len(drainOrder) != n {
				t.Fatalf("%d records drained, want %d", len(drainOrder), n)
			}
		})
	}
}

// TestRotatedSegmentSyncedAfterLastCohort: under SyncInterval a segment is
// durable once it stops being written, also when it is rotated away with
// cohorts still queued on it — the committer fsyncs each of them as it
// lands; a sync at the rotation itself would run before their bytes do.
// With no cohort outstanding the rotation still syncs the segment itself.
func TestRotatedSegmentSyncedAfterLastCohort(t *testing.T) {
	const perSeg, segs, payloadLen = 4, 4, 64
	const n = perSeg*segs + 1 // the last record alone on the active segment
	dir := t.TempDir()
	be := newGateBackend() // nothing drains: no segment is rewound or removed
	submitted := make(chan struct{})
	var mu sync.Mutex
	var events []string
	lg, _, err := Open(Config{
		Dir: dir, Backend: be, Sync: SyncInterval,
		SyncEvery:    10 * n, // pacing never asks for an fsync
		SegmentBytes: int64(perSeg * frameLen("obj", payloadLen)),
		Crash: func(point string) {
			mu.Lock()
			events = append(events, point)
			first := len(events) == 1
			mu.Unlock()
			if first {
				<-submitted // every rotation happens with this cohort unwritten
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	acks := make(chan error, n)
	for i := 0; i < n; i++ {
		if err := lg.Submit("obj", int64(i*payloadLen), pattern(i, payloadLen), func(err error) { acks <- err }, nil, nil); err != nil {
			t.Fatalf("submit %d refused: %v", i, err)
		}
	}
	close(submitted)
	for i := 0; i < n; i++ {
		if err := <-acks; err != nil {
			t.Fatalf("ack: %v", err)
		}
	}
	if s := lg.SnapshotStats(); s.Segments != segs+1 {
		t.Fatalf("%d live segments, want %d (%d rotations)", s.Segments, segs+1, segs)
	}
	// Every cohort but the last sat on a segment that was rotated away
	// before it was written: each is written, then fsynced, then published.
	// The last is on the active segment and publishes unsynced.
	rotated := int(lg.batchOps.Count()) - 1
	var want []string
	for i := 0; i < rotated; i++ {
		want = append(want, CrashMidBatchAppend, CrashBeforeBatchSync, CrashAfterBatchSync)
	}
	want = append(want, CrashMidBatchAppend, CrashAfterBatchSync)
	mu.Lock()
	got := append([]string(nil), events...)
	mu.Unlock()
	if !slices.Equal(got, want) {
		t.Fatalf("commit sequence %v, want %v", got, want)
	}
	if r, s := lg.fsyncRotate.Value(), lg.syncs.Value(); rotated < segs || r != uint64(rotated) || s != r {
		t.Fatalf("%d cohorts on %d rotated segments: %d rotate fsyncs of %d total, want one per cohort and no other",
			rotated, segs, r, s)
	}

	// A sequential writer fills the active segment; the rotation finds its
	// records committed unsynced with no cohort outstanding and syncs it.
	for i := n; i < n+perSeg; i++ {
		if err := lg.Append("obj", int64(i*payloadLen), pattern(i, payloadLen), nil, nil); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if r := lg.fsyncRotate.Value(); r != uint64(rotated)+1 {
		t.Fatalf("%d rotate fsyncs after a rotation with unsynced records and no queued cohort, want %d", r, rotated+1)
	}
	be.release()
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryReplaysSurvivors(t *testing.T) {
	dir := t.TempDir()
	// Hand-build two segment files, as a crashed incarnation would leave
	// them: all records intact, never drained.
	for seg, base := range map[uint64]int{3: 0, 7: 4} {
		var buf bytes.Buffer
		for i := base; i < base+4; i++ {
			frame := encodeFrame(encodeRecordHeader("obj", int64(i*32)), pattern(i, 32))
			buf.Write(frame)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(seg)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	be := core.NewMemBackend()
	lg, stats, err := Open(Config{Dir: dir, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if stats.Segments != 2 || stats.Replayed != 8 || stats.Torn != 0 || stats.Errors != 0 {
		t.Fatalf("recover stats: %+v", stats)
	}
	got, _ := be.Bytes("obj")
	for i := 0; i < 8; i++ {
		if !bytes.Equal(got[i*32:i*32+32], pattern(i, 32)) {
			t.Fatalf("replayed record %d mismatch", i)
		}
	}
	// Fully replayed segments are removed; the new active segment gets an
	// id past the recovered maximum so names never collide.
	left, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(left) != 1 || filepath.Base(left[0]) != segName(8) {
		t.Fatalf("segments after recovery: %v (want only %s)", left, segName(8))
	}
}

func TestRecoveryIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	frame := encodeFrame(encodeRecordHeader("obj", 0), pattern(1, 32))
	if err := os.WriteFile(filepath.Join(dir, segName(0)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	be := core.NewMemBackend()
	// Apply once directly, then recover over it: positional replay must
	// leave the same bytes.
	h, _ := be.Open("obj", true)
	_, _ = h.WriteAt(pattern(1, 32), 0)
	lg, stats, err := Open(Config{Dir: dir, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if stats.Replayed != 1 {
		t.Fatalf("recover stats: %+v", stats)
	}
	got, _ := be.Bytes("obj")
	if !bytes.Equal(got, pattern(1, 32)) {
		t.Fatalf("double-applied record changed bytes")
	}
}

// failingBackend rejects opens or writes to drill the error paths.
type failingBackend struct {
	core.Backend
	failWrites bool
}

func (f *failingBackend) Open(name string, create bool) (core.Handle, error) {
	if f.Backend == nil {
		return nil, fmt.Errorf("%w: backend down", core.EIO)
	}
	h, err := f.Backend.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &failingHandle{Handle: h, failWrites: f.failWrites}, nil
}

type failingHandle struct {
	core.Handle
	failWrites bool
}

func (h *failingHandle) WriteAt(b []byte, off int64) (int, error) {
	if h.failWrites {
		return 0, fmt.Errorf("%w: injected drain failure", core.EIO)
	}
	return h.Handle.WriteAt(b, off)
}

func TestDrainErrorReachesDone(t *testing.T) {
	lg, _, err := Open(Config{
		Dir:     t.TempDir(),
		Backend: &failingBackend{Backend: core.NewMemBackend(), failWrites: true},
		Sync:    SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := newCollect(1)
	if err := lg.Append("obj", 0, pattern(0, 16), c.done, nil); err != nil {
		t.Fatal(err)
	}
	errs := c.wait(t, 1)
	if !errors.Is(errs[0], core.EIO) {
		t.Fatalf("drain error %v does not wrap EIO", errs[0])
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if s := lg.SnapshotStats(); s.DrainErrs != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestRecoveryKeepsSegmentOnApplyError(t *testing.T) {
	dir := t.TempDir()
	frame := encodeFrame(encodeRecordHeader("obj", 0), pattern(0, 16))
	if err := os.WriteFile(filepath.Join(dir, segName(0)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	lg, stats, err := Open(Config{Dir: dir, Backend: &failingBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	_ = lg.Close()
	if stats.Errors != 1 || stats.Replayed != 0 {
		t.Fatalf("recover stats: %+v", stats)
	}
	// The unapplied segment survives for the next recovery attempt.
	if _, err := os.Stat(filepath.Join(dir, segName(0))); err != nil {
		t.Fatalf("segment with apply errors was deleted: %v", err)
	}
}

// syncTrackBackend wraps a backend, recording every handle Sync by name
// and failing the ones whose name is marked. It drills the two
// sync-before-truncate barriers: recovery's segment removal and the
// drainer's eviction debt.
type syncTrackBackend struct {
	core.Backend
	mu       sync.Mutex
	failSync map[string]bool
	syncs    []string
}

func (b *syncTrackBackend) setFail(name string, fail bool) {
	b.mu.Lock()
	if b.failSync == nil {
		b.failSync = make(map[string]bool)
	}
	b.failSync[name] = fail
	b.mu.Unlock()
}

func (b *syncTrackBackend) Open(name string, create bool) (core.Handle, error) {
	h, err := b.Backend.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &syncTrackHandle{Handle: h, b: b, name: name}, nil
}

type syncTrackHandle struct {
	core.Handle
	b    *syncTrackBackend
	name string
}

func (h *syncTrackHandle) Sync() error {
	h.b.mu.Lock()
	h.b.syncs = append(h.b.syncs, h.name)
	fail := h.b.failSync[h.name]
	h.b.mu.Unlock()
	if fail {
		return fmt.Errorf("%w: injected sync failure", core.EIO)
	}
	return h.Handle.Sync()
}

// TestRecoveryKeepsSegmentOnSyncError: a replayed segment is removed only
// after the backend handles it wrote through are fsynced. When the sync
// fails the segment must survive (its records may not be durable) and Open
// must still succeed — a healed backend drains it on the next recovery.
func TestRecoveryKeepsSegmentOnSyncError(t *testing.T) {
	dir := t.TempDir()
	frame := encodeFrame(encodeRecordHeader("obj", 0), pattern(0, 16))
	if err := os.WriteFile(filepath.Join(dir, segName(0)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	be := &syncTrackBackend{Backend: core.NewMemBackend()}
	be.setFail("obj", true)
	lg, stats, err := Open(Config{Dir: dir, Backend: be})
	if err != nil {
		t.Fatalf("Open failed on a backend sync error: %v", err)
	}
	if stats.Replayed != 1 || stats.Errors != 1 {
		t.Fatalf("recover stats: %+v, want Replayed=1 Errors=1", stats)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(0))); err != nil {
		t.Fatalf("segment removed before its backend writes were synced: %v", err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	be.setFail("obj", false)
	lg2, stats2, err := Open(Config{Dir: dir, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if stats2.Replayed != 1 || stats2.Errors != 0 {
		t.Fatalf("healed recover stats: %+v, want Replayed=1 Errors=0", stats2)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(0))); !os.IsNotExist(err) {
		t.Fatalf("segment not removed after a successful sync: %v", err)
	}
}

// TestEvictionSyncDebtBlocksTruncate: when the drainer evicts its cached
// backend handle and that handle's Sync fails, the failure must be sticky —
// no segment holding that name's records may be released until a sync
// succeeds, or a crash could lose the applied-but-unsynced writes.
func TestEvictionSyncDebtBlocksTruncate(t *testing.T) {
	be := &syncTrackBackend{Backend: core.NewMemBackend()}
	be.setFail("a", true)
	lg, _, err := Open(Config{Dir: t.TempDir(), Backend: be, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	relCh := make(chan string, 3)
	c := newCollect(3)
	// Record for "a", then "b": applying b evicts a's handle, whose Sync
	// fails. The segment then holds both names' records.
	if err := lg.Append("a", 0, pattern(0, 16), c.done, func() { relCh <- "a" }); err != nil {
		t.Fatal(err)
	}
	if err := lg.Append("b", 0, pattern(1, 16), c.done, func() { relCh <- "b" }); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 2)
	// Both records applied, but "a"'s sync debt is outstanding: the
	// segment must not be released.
	select {
	case name := <-relCh:
		t.Fatalf("record %q released while %q's applied writes were unsynced", name, "a")
	case <-time.After(50 * time.Millisecond):
	}
	if s := lg.SnapshotStats(); s.Truncated != 0 {
		t.Fatalf("segment truncated with sync debt outstanding: %+v", s)
	}

	// Heal the backend; the next drained record repays the debt and the
	// whole segment finally truncates, releasing all three records.
	be.setFail("a", false)
	if err := lg.Append("b", 16, pattern(2, 16), c.done, func() { relCh <- "b2" }); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1)
	for i := 0; i < 3; i++ {
		<-relCh
	}
	if s := lg.SnapshotStats(); s.Truncated == 0 {
		t.Fatalf("segment never truncated after the debt was repaid: %+v", s)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMaxFrameCoversWorstCaseRecord: every record Append accepts must scan
// back — the frame payload bound covers the protocol's largest write under
// the longest possible name, and anything larger is refused up front
// instead of being acknowledged and then discarded as a torn length.
func TestMaxFrameCoversWorstCaseRecord(t *testing.T) {
	maxName := strings.Repeat("n", 1<<16-1)
	if worst := recHeaderLen(maxName) + core.MaxPayload; worst > MaxFramePayload {
		t.Fatalf("worst-case record payload %d exceeds MaxFramePayload %d", worst, MaxFramePayload)
	}
	// A max-length-name record round-trips through the scanner.
	var buf bytes.Buffer
	data := pattern(3, 64)
	if err := AppendFrame(&buf, append(encodeRecordHeader(maxName, 7), data...)); err != nil {
		t.Fatal(err)
	}
	payload, err := NewScanner(&buf).Next()
	if err != nil {
		t.Fatalf("scanning max-name frame: %v", err)
	}
	name, off, got, err := decodeRecord(payload)
	if err != nil || name != maxName || off != 7 || !bytes.Equal(got, data) {
		t.Fatalf("max-name record mangled: name len %d off %d err %v", len(name), off, err)
	}
	// An oversized record is rejected at Append, never logged.
	lg, _, err := Open(Config{Dir: t.TempDir(), Backend: core.NewMemBackend(), Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	over := make([]byte, core.MaxPayload+maxRecordHeader)
	if err := lg.Append(maxName, 0, over, nil, nil); !errors.Is(err, core.EINVAL) {
		t.Fatalf("oversized append: %v, want EINVAL", err)
	}
	// AppendFrame refuses payloads the scanner would reject as torn.
	if err := AppendFrame(&buf, nil); !errors.Is(err, core.EINVAL) {
		t.Fatalf("empty frame payload: %v, want EINVAL", err)
	}
}

func TestAppendLimits(t *testing.T) {
	lg, _, err := Open(Config{Dir: t.TempDir(), Backend: core.NewMemBackend(), MaxBytes: 128, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append("obj", 0, make([]byte, 1024), nil, nil); !errors.Is(err, ErrFull) {
		t.Fatalf("over-cap append: %v, want ErrFull", err)
	}
	if err := lg.Append("", 0, nil, nil, nil); !errors.Is(err, core.EINVAL) {
		t.Fatalf("empty-name append: %v, want EINVAL", err)
	}
	if err := lg.Append("obj", -1, nil, nil, nil); !errors.Is(err, core.EINVAL) {
		t.Fatalf("negative-offset append: %v, want EINVAL", err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Append("obj", 0, pattern(0, 8), nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestCloseDrainsFully(t *testing.T) {
	be := core.NewMemBackend()
	lg, _, err := Open(Config{Dir: t.TempDir(), Backend: be, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	c := newCollect(n)
	for i := 0; i < n; i++ {
		if err := lg.Append("obj", int64(i*16), pattern(i, 16), c.done, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Close must not return before every queued record has been applied
	// and acknowledged.
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if s := lg.SnapshotStats(); s.Drained != n || s.Lag != 0 {
		t.Fatalf("close returned with lag: %+v", s)
	}
	got, _ := be.Bytes("obj")
	if len(got) != n*16 {
		t.Fatalf("backend holds %d bytes, want %d", len(got), n*16)
	}
}

func TestCrashHookFiresInOrder(t *testing.T) {
	var mu sync.Mutex
	var fired []string
	lg, _, err := Open(Config{
		Dir: t.TempDir(), Backend: core.NewMemBackend(),
		SegmentBytes: 64, Sync: SyncAlways,
		// The committer fires the batch points, the drainer (or a rotating
		// submitter) the truncate points.
		Crash: func(p string) { mu.Lock(); fired = append(fired, p); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	c := newCollect(2)
	// Two appends, each a cohort of one, the second too big to share the
	// first's segment.
	if err := lg.Append("o", 0, pattern(0, 48), c.done, nil); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1)
	if err := lg.Append("o", 48, pattern(1, 48), c.done, nil); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1)
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	var batch []string
	truncating := false
	for _, p := range fired {
		switch p {
		case CrashBeforeTruncate:
			truncating = true
		case CrashAfterTruncate:
			if !truncating {
				t.Fatalf("after-truncate fired with no before-truncate: %v", fired)
			}
			truncating = false
		default:
			batch = append(batch, p)
		}
	}
	commit := []string{CrashMidBatchAppend, CrashBeforeBatchSync, CrashAfterBatchSync}
	if want := append(commit, commit...); !slices.Equal(batch, want) {
		t.Fatalf("batch points fired as %v, want %v", batch, want)
	}
}
