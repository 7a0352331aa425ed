package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Sync policy names accepted by Config.Sync (and fwdd's -wal-sync flag).
const (
	// SyncAlways fsyncs at every commit: an acknowledged spill is durable
	// before the client hears about it.
	SyncAlways = "always"
	// SyncInterval fsyncs the commit that brings the unsynced records to
	// Config.SyncEvery, and a segment once it stops being written: the
	// default trade — a crash can lose at most SyncEvery-1 acked spills'
	// durability, while the common-case commit stays one write.
	SyncInterval = "interval"
	// SyncNever leaves flushing to the OS: fastest, crash-unsafe; for
	// benchmarking the framing cost alone.
	SyncNever = "never"
)

// Crash-point names fired through Config.Crash, in op order. Each fires at
// a deterministic position in the commit/truncate sequence, so a kill
// schedule expressed as occurrence counts is reproducible (see
// fault.CrashSet).
const (
	// CrashBeforeTruncate fires when a rotated segment's last record has
	// drained, before the segment file is removed: recovery re-replays the
	// whole segment (idempotently).
	CrashBeforeTruncate = "before-truncate"
	// CrashAfterTruncate fires just after a drained segment is removed.
	CrashAfterTruncate = "after-truncate"
	// CrashMidBatchAppend fires between the two halves of a deliberately
	// split cohort write: the on-disk tail tears mid-cohort, possibly
	// mid-frame. No cohort member was acked.
	CrashMidBatchAppend = "mid-batch-append"
	// CrashBeforeBatchSync fires after a cohort's frames are fully written
	// but before the commit's fsync — only at a commit that fsyncs. No
	// cohort member was acked.
	CrashBeforeBatchSync = "before-batch-sync"
	// CrashAfterBatchSync fires after the commit (and its fsync, when the
	// policy asked for one) but before any cohort member is acknowledged:
	// the whole cohort is in the log yet no client heard an ack — recovery
	// replays it all, proving the cohort is all-or-nothing at the ack level.
	CrashAfterBatchSync = "after-batch-sync-before-ack"
)

// CrashPoints lists every name the log passes to Config.Crash, so a drill's
// schedule can be rejected up front when it names a point that never fires.
var CrashPoints = []string{
	CrashBeforeTruncate, CrashAfterTruncate,
	CrashMidBatchAppend, CrashBeforeBatchSync, CrashAfterBatchSync,
}

// Config configures a Log.
type Config struct {
	// Dir holds the segment files. It is created if missing. The log owns
	// files matching wal-*.seg inside it; other files are ignored.
	Dir string
	// Backend receives replayed and drained records.
	Backend core.Backend
	// SegmentBytes rotates the active segment once it would exceed this
	// size (default 8 MiB). A single record larger than the limit still
	// occupies one (oversized) segment by itself.
	SegmentBytes int64
	// Sync is the fsync policy: SyncAlways, SyncInterval or SyncNever
	// (default SyncInterval).
	Sync string
	// SyncEvery is the append interval for SyncInterval (default 32).
	SyncEvery int
	// MaxBytes caps the bytes queued on disk awaiting drain; an append
	// past the cap fails with ErrFull so the caller can fall back to its
	// non-spill path. 0 means unlimited.
	MaxBytes int64
	// Crash, when non-nil, is invoked at named crash points (the Crash*
	// constants). Production leaves it nil; the kill/restart harness
	// installs fault.CrashSet.Fire to SIGKILL the process mid-sequence.
	Crash func(point string)
	// Deprecated: every record group-commits; kept only because bench/ names it.
	GroupCommit bool
	// GroupLinger bounds how long the committer waits, under SyncAlways, for
	// submits already on their way to join a cohort before committing it
	// (default 200µs). The wait ends early once the cohort holds every
	// record currently in flight, so a lone writer's cohort commits the
	// moment it forms and pays nothing for the window.
	GroupLinger time.Duration
	// GroupMaxBytes seals a cohort once its buffered frames reach this
	// size (default 1 MiB); the next append starts a new cohort.
	GroupMaxBytes int64
	// DrainFailed, when non-nil, is invoked — off the append path, after
	// the record's done callback fired with the error — for every record
	// whose drain-time or recovery-time backend apply failed. fwdd wires
	// it to the stripe tier's repair enqueue so a spilled write that
	// missed a replica heals without a second discovery pass.
	DrainFailed func(name string, off int64, n int)
}

// RecoverStats reports what Open found and replayed from a previous
// incarnation's segments.
type RecoverStats struct {
	// Segments is how many segment files were scanned.
	Segments int
	// Replayed is how many intact records were applied to the backend.
	Replayed int
	// Torn is how many segments ended in a discarded torn tail.
	Torn int
	// Errors is how many records failed to apply (backend errors), plus
	// one per backend handle that failed to sync after a segment's replay.
	// Affected segments are kept on disk for the next recovery pass.
	Errors int
}

// record is the in-memory drain queue entry for one appended frame. The
// payload itself stays on disk (bounded memory is the point of spilling);
// the drainer reads it back by position.
type record struct {
	seg      *segment
	name     string
	off      int64
	dataPos  int64 // absolute file offset of the write payload
	n        int   // payload length
	frame    int64 // whole frame length, for liveBytes accounting
	done     func(error)
	released func()
}

// segment is one on-disk WAL file.
type segment struct {
	id      uint64
	path    string
	f       *os.File
	size    int64 // bytes of intact appended frames (plus reserved regions)
	pending int   // appended records not yet drained
	// reserved counts records whose cohort has claimed a region of the
	// file but has not committed yet (group commit). A segment with
	// reservations must not be truncated, removed, or released: the bytes
	// under them are about to become acknowledged records.
	reserved int
	rotated  bool // no longer the active segment
	// unflushed marks an active segment whose records were all applied but
	// whose pre-truncate backend flush failed: the applied bytes may not be
	// durable, so the file must survive until a flush succeeds (or recovery
	// re-applies it).
	unflushed bool
	// releases holds the drained records' release callbacks; they fire
	// only when the segment's bytes durably leave the log (file removed or
	// rewound after a successful backend flush). Until then the records
	// remain replayable by recovery, so callers must keep treating them as
	// live (see core.Spiller).
	releases []func()
}

// Log is the write-ahead spill tier. Appends go to the active segment;
// a single background drainer replays records to the backend in append
// order and truncates segments whose records have all been applied.
type Log struct {
	cfg Config

	mu          sync.Mutex
	cond        *sync.Cond // signalled on enqueue and on close
	queue       []record
	active      *segment
	rotatedSegs []*segment // rotated, still holding undrained records
	nextSeg     uint64
	liveBytes   int64
	unsynced    int // records published since the last fsync (SyncInterval pacing)
	closed      bool

	// Group-commit state (see group.go). cohortQ holds created but not yet
	// resolved cohorts in creation order, consumed from the head by the
	// committer goroutine; curCohort is the open (joinable) cohort, always
	// the tail of cohortQ; spare is the last committed cohort, emptied, kept
	// so the next one reuses its buffers; sweeps are segments orphaned by a
	// cohort failure that the drainer must finish (no drain completion will
	// visit them).
	curCohort  *cohort
	cohortQ    []*cohort
	commitCond *sync.Cond // signalled when cohortQ gains a cohort, and on close
	spare      *cohort
	sweeps     []*segment
	draining   int // records taken off the queue, not yet applied
	// inflight counts records that entered Submit and are not yet
	// committed, failed or refused — the population a lingering committer
	// can still hope to capture. The linger heuristic reads it without l.mu.
	inflight atomic.Int64

	wg sync.WaitGroup

	// drainer-only handle cache: most bursts hammer one descriptor, so one
	// slot captures almost all reopens without a map that never shrinks.
	cacheName   string
	cacheHandle core.Handle
	// syncDebt (drainer-only) names backends whose eviction-time Sync
	// failed: their applied records are not yet durable, so no segment may
	// be released until the debt is repaid by a successful sync (see
	// syncBackendCache).
	syncDebt map[string]struct{}

	// Counters are value fields registered via MustRegister so the hot
	// path never chases a pointer it doesn't already have.
	appends      telemetry.Counter
	appendErrors telemetry.Counter
	replayed     telemetry.Counter
	replayErrors telemetry.Counter
	torn         telemetry.Counter
	drained      telemetry.Counter
	drainErrors  telemetry.Counter
	truncated    telemetry.Counter
	syncs        telemetry.Counter
	// fsyncs by reason: SyncEvery pacing, the seal of a segment that stopped
	// being written, and the SyncAlways commit. Their sum tracks syncs; the
	// split is what shows fsync amortisation working.
	fsyncInterval telemetry.Counter
	fsyncRotate   telemetry.Counter
	fsyncBatch    telemetry.Counter
	batchOps      telemetry.Histogram // records per group-commit batch
	batchBytes    telemetry.Histogram // frame bytes per group-commit batch
	compacted     telemetry.Counter   // bytes skipped by pre-drain compaction
	drainRepair   telemetry.Counter   // drain failures handed to DrainFailed
}

const (
	defaultSegmentBytes  = 8 << 20
	defaultSyncEvery     = 32
	defaultGroupLinger   = 200 * time.Microsecond
	defaultGroupMaxBytes = 1 << 20
	segPrefix            = "wal-"
	segSuffix            = ".seg"
)

// segName formats a segment file name; lexicographic order is ID order.
func segName(id uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, id, segSuffix) }

// Open recovers any segments left in cfg.Dir by a previous incarnation —
// replaying every intact record to the backend and discarding torn
// tails — then starts the drainer and returns a log ready for appends.
// Callers must not accept traffic before Open returns: recovery ordering
// with respect to new writes is only guaranteed by that barrier.
func Open(cfg Config) (*Log, RecoverStats, error) {
	if cfg.Dir == "" {
		return nil, RecoverStats{}, fmt.Errorf("%w: wal: empty dir", core.EINVAL)
	}
	if cfg.Backend == nil {
		return nil, RecoverStats{}, fmt.Errorf("%w: wal: nil backend", core.EINVAL)
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = defaultSegmentBytes
	}
	if cfg.Sync == "" {
		cfg.Sync = SyncInterval
	}
	switch cfg.Sync {
	case SyncAlways, SyncInterval, SyncNever:
	default:
		return nil, RecoverStats{}, fmt.Errorf("%w: wal: unknown sync policy %q", core.EINVAL, cfg.Sync)
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = defaultSyncEvery
	}
	if cfg.GroupLinger < 0 {
		return nil, RecoverStats{}, fmt.Errorf("%w: wal: negative group linger", core.EINVAL)
	}
	if cfg.GroupLinger == 0 {
		cfg.GroupLinger = defaultGroupLinger
	}
	if cfg.GroupMaxBytes < 0 {
		return nil, RecoverStats{}, fmt.Errorf("%w: wal: negative group batch cap", core.EINVAL)
	}
	if cfg.GroupMaxBytes == 0 {
		cfg.GroupMaxBytes = defaultGroupMaxBytes
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, RecoverStats{}, fmt.Errorf("%w: creating wal dir: %v", core.EIO, err)
	}
	l := &Log{cfg: cfg}
	l.cond = sync.NewCond(&l.mu)
	l.commitCond = sync.NewCond(&l.mu)
	stats, err := l.recover()
	if err != nil {
		return nil, stats, err
	}
	if err := l.openActive(); err != nil {
		return nil, stats, err
	}
	l.wg.Add(2)
	go l.drain()
	go l.commitLoop()
	return l, stats, nil
}

// recover scans segment files oldest-first, applies intact records to the
// backend, and removes segments that replayed fully. A torn tail ends that
// segment's scan (later segments are still processed: a torn tail in an
// older segment can only exist if the crash tore a write that was never
// acknowledged, and replay is positional and idempotent either way). A
// segment with backend apply errors is kept for the next recovery.
//
// A segment is removed only after the backend handles it wrote through are
// fsynced — the same sync-before-truncate order the drainer follows — so a
// power loss at any point during recovery can never lose an acknowledged
// spill: either the segment is still on disk or its records are durable on
// the backend. A sync failure keeps the segment (counted in Errors) rather
// than failing Open.
func (l *Log) recover() (RecoverStats, error) {
	var stats RecoverStats
	names, err := filepath.Glob(filepath.Join(l.cfg.Dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return stats, fmt.Errorf("%w: listing wal dir: %v", core.EIO, err)
	}
	sort.Strings(names) // fixed-width hex IDs: lexicographic == numeric
	handles := make(map[string]core.Handle)
	defer func() {
		for _, h := range handles {
			_ = h.Close()
		}
	}()
	touched := make(map[string]struct{})
	for _, path := range names {
		base := filepath.Base(path)
		idHex := strings.TrimSuffix(strings.TrimPrefix(base, segPrefix), segSuffix)
		var id uint64
		if _, err := fmt.Sscanf(idHex, "%x", &id); err != nil {
			continue // not one of ours
		}
		if id >= l.nextSeg {
			l.nextSeg = id + 1
		}
		stats.Segments++
		clear(touched)
		clean, err := l.replaySegment(path, handles, touched, &stats)
		if err != nil {
			return stats, err
		}
		if clean {
			for name := range touched {
				if serr := handles[name].Sync(); serr != nil {
					stats.Errors++
					l.replayErrors.Inc()
					clean = false
					break
				}
			}
		}
		if clean {
			if err := os.Remove(path); err != nil {
				return stats, fmt.Errorf("%w: removing replayed segment: %v", core.EIO, err)
			}
		}
	}
	return stats, nil
}

// replaySegment streams one segment's records into the backend, adding
// every name it writes through to touched. It reports clean=true when
// every record in the file was applied successfully (the file may then be
// deleted once the touched handles are synced).
func (l *Log) replaySegment(path string, handles map[string]core.Handle, touched map[string]struct{}, stats *RecoverStats) (clean bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("%w: opening segment: %v", core.EIO, err)
	}
	defer f.Close()
	clean = true
	sc := NewScanner(f)
	for {
		payload, err := sc.Next()
		if err != nil {
			if err == io.EOF {
				break
			}
			if errors.Is(err, ErrTorn) {
				stats.Torn++
				l.torn.Inc()
				break // everything past a tear is garbage
			}
			return false, err
		}
		name, off, data, derr := decodeRecord(payload)
		if derr != nil {
			stats.Torn++
			l.torn.Inc()
			break
		}
		h, ok := handles[name]
		if !ok {
			h, err = l.cfg.Backend.Open(name, true)
			if err != nil {
				stats.Errors++
				l.replayErrors.Inc()
				clean = false
				if l.cfg.DrainFailed != nil {
					l.drainRepair.Inc()
					l.cfg.DrainFailed(name, off, len(data))
				}
				continue
			}
			handles[name] = h
		}
		n, werr := h.WriteAt(data, off)
		touched[name] = struct{}{}
		if werr == nil && n < len(data) {
			werr = fmt.Errorf("%w: short replay write (%d of %d bytes)", core.EIO, n, len(data))
		}
		if werr != nil {
			stats.Errors++
			l.replayErrors.Inc()
			clean = false
			if l.cfg.DrainFailed != nil {
				l.drainRepair.Inc()
				l.cfg.DrainFailed(name, off, len(data))
			}
			continue
		}
		stats.Replayed++
		l.replayed.Inc()
	}
	return clean, nil
}

// openActive creates a fresh active segment.
func (l *Log) openActive() error {
	id := l.nextSeg
	l.nextSeg++
	path := filepath.Join(l.cfg.Dir, segName(id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("%w: creating segment: %v", core.EIO, err)
	}
	l.active = &segment{id: id, path: path, f: f}
	return nil
}

// Submit orders one positional write into the log and returns as soon as
// its place is fixed and data has been copied — the caller may reuse data
// and submit the next record at once; records reach the log, the drainer
// and a crash replay in Submit order. acked is invoked exactly once, from
// any goroutine and possibly before Submit returns: with nil once the
// record is committed (synced per policy) and published to the drainer, or
// with the commit error when its cohort's write or fsync failed — the
// record is then not in the log and done/released never fire. The committer
// goroutine calls acked, so it must not block: a stalled callback stalls
// every later record's durability.
//
// done is invoked exactly once from the drainer with the backend write's
// result — nil on success, the wrapped error otherwise — mirroring the
// deferred-error semantics of the staged async path. released, when
// non-nil, is invoked at most once, strictly after done, when the record's
// durable copy has left the log (its segment was removed or rewound after a
// backend flush): until then the record could be re-applied by a crash
// recovery, so the caller must not let a conflicting write reach the
// backend by another path. If Submit returns a non-nil error the record
// was refused (closed, full, oversize, or the rotation it needed failed),
// no callback will ever be called, and the caller must fall back to its
// non-spill path.
//
// Submit implements core.Spiller.
func (l *Log) Submit(name string, off int64, data []byte, acked, done func(error), released func()) error {
	if name == "" || len(name) > 1<<16-1 {
		return fmt.Errorf("%w: bad record name length %d", core.EINVAL, len(name))
	}
	if off < 0 {
		return fmt.Errorf("%w: negative record offset", core.EINVAL)
	}
	if payload := recHeaderLen(name) + len(data); payload > MaxFramePayload {
		return fmt.Errorf("%w: record payload %d exceeds frame limit %d", core.EINVAL, payload, MaxFramePayload)
	}

	// Reserve the frame's region of the active segment and encode the record
	// straight into the open cohort's buffer (starting a cohort if none is
	// open); the committer acknowledges it. inflight is counted before the
	// lock: a submitter still on its way to the cohort is the evidence the
	// committer's linger waits on.
	l.inflight.Add(1)
	flen := int64(frameHeader + recHeaderLen(name) + len(data))
	l.mu.Lock()
	if err := l.admitLocked(flen); err != nil {
		l.mu.Unlock()
		l.inflight.Add(-1)
		return err
	}
	c := l.curCohort
	if c == nil {
		if c = l.spare; c == nil {
			c = new(cohort)
		}
		l.spare = nil
		c.seg, c.base = l.active, l.active.size
		l.curCohort = c
		l.cohortQ = append(l.cohortQ, c)
		l.commitCond.Signal()
	}
	seg := c.seg
	c.buf = appendRecordFrame(c.buf, name, off, data)
	c.recs = append(c.recs, record{
		seg: seg, name: name, off: off,
		dataPos: seg.size + flen - int64(len(data)), n: len(data), frame: flen,
		done: done, released: released,
	})
	c.acks = append(c.acks, acked)
	seg.size += flen
	seg.reserved++
	l.liveBytes += flen
	if int64(len(c.buf)) >= l.cfg.GroupMaxBytes {
		l.sealCohortLocked()
	} else if int64(len(c.recs)) >= l.inflight.Load() {
		// The cohort holds every record in flight: lingering further cannot
		// gain members. It stays open — stragglers arriving before the
		// committer seals it still share this commit.
		c.readyLocked()
	}
	l.mu.Unlock()
	return nil
}

// Append is Submit plus the wait: it returns nil once the record is durable
// and published, and otherwise the refusal or commit error — either way a
// non-nil return means the record is not in the log and neither callback
// will fire.
func (l *Log) Append(name string, off int64, data []byte, done func(error), released func()) error {
	var ack struct {
		sync.WaitGroup
		err error
	}
	ack.Add(1)
	if err := l.Submit(name, off, data, func(err error) { ack.err = err; ack.Done() }, done, released); err != nil {
		return err
	}
	ack.Wait()
	return ack.err
}

// admitLocked is the submit-time gate: refuse when closed or past the byte
// cap, and rotate when the frame would overflow the active segment —
// sealing the open cohort first, so it stays whole on the old segment and
// the triggering record starts a new cohort on the fresh one.
func (l *Log) admitLocked(frame int64) error {
	if l.closed {
		return ErrClosed
	}
	if l.cfg.MaxBytes > 0 && l.liveBytes+frame > l.cfg.MaxBytes {
		return fmt.Errorf("%w: %d live + %d frame > %d cap", ErrFull, l.liveBytes, frame, l.cfg.MaxBytes)
	}
	if l.active.size > 0 && l.active.size+frame > l.cfg.SegmentBytes {
		l.sealCohortLocked()
		if err := l.rotateLocked(); err != nil {
			l.appendErrors.Inc()
			return err
		}
	}
	return nil
}

// rotateLocked seals the active segment and opens a fresh one. Under
// SyncInterval a segment file is fully durable once it stops being written:
// with cohorts still queued on it the committer syncs it as each one lands
// (see commitLoop) — a sync here would run before their bytes do — and
// otherwise it is synced here, for the records committed unsynced.
func (l *Log) rotateLocked() error {
	seg := l.active
	if l.cfg.Sync == SyncInterval && l.unsynced > 0 && seg.reserved == 0 {
		if err := seg.f.Sync(); err != nil {
			return fmt.Errorf("%w: syncing segment: %v", core.EIO, err)
		}
		l.syncedLocked(&l.fsyncRotate)
	}
	seg.rotated = true
	switch {
	case seg.pending == 0 && seg.reserved == 0 && !seg.unflushed:
		// Already fully drained and flushed through to the backend: no
		// truncate barrier needed, just drop it.
		l.removeSegLocked(seg)
	case seg.pending == 0 && seg.reserved == 0:
		// Drained, but the backend flush failed when the drainer tried to
		// rewind it: the applied records may not be durable yet, so the
		// file stays on disk for recovery (idempotent re-apply) and its
		// release callbacks stay withheld.
		l.drainErrors.Inc()
		_ = seg.f.Close()
	default:
		l.rotatedSegs = append(l.rotatedSegs, seg)
	}
	return l.openActive()
}

// removeSegLocked closes and deletes a fully drained segment file. Removal
// failure is not fatal — the records were all applied, and recovery would
// only re-apply them idempotently — but it is counted, and the records'
// release callbacks are withheld (the file could still be replayed).
func (l *Log) removeSegLocked(seg *segment) {
	l.fire(CrashBeforeTruncate)
	_ = seg.f.Close()
	if err := os.Remove(seg.path); err != nil {
		l.drainErrors.Inc()
		return
	}
	l.truncated.Inc()
	l.fire(CrashAfterTruncate)
	l.releaseSegLocked(seg)
}

// releaseSegLocked fires and clears the segment's accumulated release
// callbacks, after its bytes have durably left the log. Callbacks are
// plain bookkeeping on the caller's side (descriptor counters) — cheap and
// non-blocking — so invoking them under l.mu is fine.
func (l *Log) releaseSegLocked(seg *segment) {
	rel := seg.releases
	seg.releases = nil
	for _, f := range rel {
		f()
	}
}

// drain is the background replay loop: take the whole queue as one batch,
// plan it through the compaction interval map, then apply each record's
// surviving byte ranges to the backend in FIFO order, report through done,
// and release segment space. Global FIFO order preserves per-name append
// order (the property the deferred-write semantics need); compaction
// preserves it too — a shadowed byte is simply written by its newest
// writer instead of every writer.
func (l *Log) drain() {
	defer l.wg.Done()
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && len(l.sweeps) == 0 && !(l.closed && len(l.cohortQ) == 0) {
			l.cond.Wait()
		}
		if len(l.sweeps) > 0 {
			seg := l.sweeps[0]
			l.sweeps = l.sweeps[1:]
			l.finishSegLocked(seg)
			l.mu.Unlock()
			continue
		}
		if len(l.queue) == 0 {
			// Closed, fully drained, and no cohort can still publish.
			l.mu.Unlock()
			return
		}
		batch := l.queue
		l.queue = nil
		l.draining = len(batch)
		l.mu.Unlock()

		plans, skipped := compactBatch(batch)
		if skipped > 0 {
			l.compacted.Add(uint64(skipped))
		}
		for i := range batch {
			rec := batch[i]
			err := l.applySpans(rec, plans[i])
			if err != nil {
				l.drainErrors.Inc()
			} else {
				l.drained.Inc()
			}
			if rec.done != nil {
				rec.done(err)
			}
			if err != nil && l.cfg.DrainFailed != nil {
				l.drainRepair.Inc()
				l.cfg.DrainFailed(rec.name, rec.off, rec.n)
			}

			l.mu.Lock()
			l.draining--
			rec.seg.pending--
			l.liveBytes -= rec.frame
			if rec.released != nil {
				// Queued for the segment's release barrier: the durable copy
				// outlives the apply until the whole segment is truncated.
				rec.seg.releases = append(rec.seg.releases, rec.released)
			}
			if rec.seg.pending == 0 && rec.seg.reserved == 0 {
				l.finishSegLocked(rec.seg)
			}
			l.mu.Unlock()
		}
	}
}

// finishSegLocked runs the segment-completion barrier once a segment has
// no pending or reserved records: flush the backend handles its records
// wrote through, then remove (rotated) or rewind (active) the file and
// fire the release callbacks. The segment is about to lose the records'
// only durable copy, so the flush comes first — a crash immediately after
// the truncate cannot lose an applied-but-unsynced record. On flush
// failure the rotated segment stays on disk for the next recovery
// (idempotent re-apply) and the active one keeps its bytes. Drainer-side
// only (syncBackendCache touches the drainer's handle cache).
func (l *Log) finishSegLocked(seg *segment) {
	if seg.pending != 0 || seg.reserved != 0 {
		// A sweep raced new reservations or appends; whoever completes them
		// finishes the segment.
		return
	}
	if seg.rotated {
		found := false
		for i, s := range l.rotatedSegs {
			if s == seg {
				l.rotatedSegs = append(l.rotatedSegs[:i], l.rotatedSegs[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			return // already finished by an earlier completion
		}
		if l.syncBackendCache() == nil {
			l.removeSegLocked(seg)
		} else {
			l.drainErrors.Inc()
			_ = seg.f.Close()
		}
		return
	}
	if seg.size == 0 && !seg.unflushed {
		return // already rewound; nothing to flush or release
	}
	if l.syncBackendCache() == nil {
		// Active segment fully drained: rewind it in place so a quiet log
		// stays one small file.
		seg.unflushed = false
		if err := seg.f.Truncate(0); err == nil {
			seg.size = 0
			l.truncated.Inc()
			l.releaseSegLocked(seg)
		}
	} else {
		// Active segment drained but the backend flush failed: mark it so
		// a later rotation keeps the file instead of dropping the records'
		// only maybe-durable copy.
		seg.unflushed = true
	}
}

// syncBackendCache flushes the drainer's current backend handle and repays
// any outstanding sync debt (names whose eviction-time Sync failed, left
// applied-but-unsynced). Called before a drained segment is discarded; it
// must succeed for every name with applied records — current and evicted —
// before any segment may be released, or a crash after the truncate could
// lose an applied-but-unsynced record that no longer has a WAL copy.
func (l *Log) syncBackendCache() error {
	if l.cacheHandle != nil {
		if err := l.cacheHandle.Sync(); err != nil {
			return fmt.Errorf("%w: syncing backend before truncate: %v", core.EIO, err)
		}
		delete(l.syncDebt, l.cacheName)
	}
	for name := range l.syncDebt {
		h, err := l.cfg.Backend.Open(name, true)
		if err != nil {
			return fmt.Errorf("%w: reopening %q to repay sync debt: %v", core.EIO, name, err)
		}
		serr := h.Sync()
		_ = h.Close()
		if serr != nil {
			return fmt.Errorf("%w: syncing %q before truncate: %v", core.EIO, name, serr)
		}
		delete(l.syncDebt, name)
	}
	return nil
}

// applySpans reads a record's surviving byte ranges back from its segment
// and writes them to the backend, reusing the one-slot handle cache. An
// empty plan means the record was fully shadowed by newer records in the
// same batch: nothing to write, the record succeeds vacuously.
func (l *Log) applySpans(rec record, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	if l.cacheHandle == nil || l.cacheName != rec.name {
		if l.cacheHandle != nil {
			// Sync before eviction: see syncBackendCache. A failure is
			// sticky — the name joins the sync debt, so no segment can be
			// released until a later sync of that name succeeds. Without
			// the debt, a segment holding several names' records could be
			// deleted while the evicted name's applied writes are still
			// unsynced, losing them on a crash.
			if l.cacheHandle.Sync() != nil {
				l.drainErrors.Inc()
				if l.syncDebt == nil {
					l.syncDebt = make(map[string]struct{})
				}
				l.syncDebt[l.cacheName] = struct{}{}
			}
			_ = l.cacheHandle.Close()
			l.cacheHandle = nil
		}
		h, err := l.cfg.Backend.Open(rec.name, true)
		if err != nil {
			return fmt.Errorf("%w: opening %q for drain: %v", core.EIO, rec.name, err)
		}
		l.cacheName, l.cacheHandle = rec.name, h
	}
	for _, sp := range spans {
		n := int(sp.hi - sp.lo)
		buf := make([]byte, n)
		if _, err := rec.seg.f.ReadAt(buf, rec.dataPos+(sp.lo-rec.off)); err != nil {
			return fmt.Errorf("%w: reading back spilled record: %v", core.EIO, err)
		}
		w, err := l.cacheHandle.WriteAt(buf, sp.lo)
		if err != nil {
			return fmt.Errorf("%w: draining to %q: %v", core.EIO, rec.name, err)
		}
		if w < n {
			return fmt.Errorf("%w: short drain write (%d of %d bytes)", core.EIO, w, n)
		}
	}
	return nil
}

// fire invokes the crash hook if one is installed. cfg.Crash is immutable
// after Open, so fire is safe with or without l.mu held (the batch-write
// points fire outside the lock); the production hook never returns
// (SIGKILL), and test hooks must be safe for concurrent use.
func (l *Log) fire(point string) {
	if l.cfg.Crash != nil {
		l.cfg.Crash(point)
	}
}

// Close stops submits, waits for the committer to resolve every submitted
// record (each acked exactly once) and for the drainer to apply every
// published one, and releases the files. A fully drained log leaves an
// empty active segment behind; recovery of an empty segment is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	// No submit can join any more: seal the open cohort so the committer
	// does not linger on it, and let it resolve everything queued.
	l.sealCohortLocked()
	l.cond.Broadcast()
	l.commitCond.Broadcast()
	l.mu.Unlock()
	l.wg.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cacheHandle != nil {
		_ = l.cacheHandle.Close()
		l.cacheHandle = nil
	}
	var err error
	if l.active != nil {
		if l.active.size == 0 {
			_ = l.active.f.Close()
			if rerr := os.Remove(l.active.path); rerr != nil {
				err = fmt.Errorf("%w: removing empty segment: %v", core.EIO, rerr)
			}
		} else {
			// Shouldn't happen after a full drain, but if it does the
			// segment stays for the next recovery rather than vanishing.
			_ = l.active.f.Close()
		}
		l.active = nil
	}
	return err
}

// Stats is a point-in-time snapshot for tests and /statz.
type Stats struct {
	Appends   uint64
	Drained   uint64
	DrainErrs uint64
	Replayed  uint64
	Torn      uint64
	Truncated uint64
	Syncs     uint64
	// GroupBatches is how many group-commit cohorts have published;
	// Appends/GroupBatches is the realised fsync amortisation.
	GroupBatches uint64
	// CompactedBytes is how many spilled bytes the drainer skipped because
	// newer records in the same batch covered them.
	CompactedBytes uint64
	LiveBytes      int64
	Lag            int
	Segments       int
}

// SnapshotStats returns current counters and occupancy.
func (l *Log) SnapshotStats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:        l.appends.Value(),
		Drained:        l.drained.Value(),
		DrainErrs:      l.drainErrors.Value(),
		Replayed:       l.replayed.Value(),
		Torn:           l.torn.Value(),
		Truncated:      l.truncated.Value(),
		Syncs:          l.syncs.Value(),
		GroupBatches:   l.batchOps.Count(),
		CompactedBytes: l.compacted.Value(),
		LiveBytes:      l.liveBytes,
		Lag:            len(l.queue) + l.draining,
		Segments:       l.segmentsLocked(),
	}
}

func (l *Log) segmentsLocked() int {
	n := len(l.rotatedSegs)
	if l.active != nil {
		n++
	}
	return n
}

// Register exposes the log's instruments on reg under the iofwd_wal_*
// families.
func (l *Log) Register(reg *telemetry.Registry) {
	reg.MustRegister("iofwd_wal_appends_total",
		"Writes spilled to the WAL after BML admission timed out.", &l.appends)
	reg.MustRegister("iofwd_wal_append_errors_total",
		"WAL appends that failed (caller fell back to the sync path).", &l.appendErrors)
	reg.MustRegister("iofwd_wal_replayed_total",
		"Records replayed to the backend during startup recovery.", &l.replayed)
	reg.MustRegister("iofwd_wal_replay_errors_total",
		"Recovery records the backend rejected (segment kept on disk).", &l.replayErrors)
	reg.MustRegister("iofwd_wal_torn_discarded_total",
		"Torn segment tails discarded during recovery.", &l.torn)
	reg.MustRegister("iofwd_wal_drained_total",
		"Spilled records applied to the backend by the drainer.", &l.drained)
	reg.MustRegister("iofwd_wal_drain_errors_total",
		"Spilled records whose backend write failed (deferred error).", &l.drainErrors)
	reg.MustRegister("iofwd_wal_truncated_segments_total",
		"Segments truncated or removed after draining fully.", &l.truncated)
	reg.MustRegister("iofwd_wal_syncs_total",
		"fsyncs of the active segment.", &l.syncs)
	reg.MustRegister("iofwd_wal_fsyncs_total",
		"fsyncs of the active segment by reason.", &l.fsyncInterval, telemetry.L("reason", "interval"))
	reg.MustRegister("iofwd_wal_fsyncs_total",
		"fsyncs of the active segment by reason.", &l.fsyncRotate, telemetry.L("reason", "rotate"))
	reg.MustRegister("iofwd_wal_fsyncs_total",
		"fsyncs of the active segment by reason.", &l.fsyncBatch, telemetry.L("reason", "batch"))
	reg.MustRegister("iofwd_wal_commit_batch_ops",
		"Records per group-commit cohort (fsync amortisation).", &l.batchOps)
	reg.MustRegister("iofwd_wal_commit_batch_bytes",
		"Frame bytes per group-commit cohort.", &l.batchBytes)
	reg.MustRegister("iofwd_wal_compacted_bytes_total",
		"Spilled bytes skipped at drain: newer records in the batch covered them.", &l.compacted)
	reg.MustRegister("iofwd_wal_drain_repair_enqueues_total",
		"Drain/replay failures handed to the backend repair hook.", &l.drainRepair)
	reg.GaugeFunc("iofwd_wal_bytes",
		"Bytes on disk awaiting drain.", func() int64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			return l.liveBytes
		})
	reg.GaugeFunc("iofwd_wal_drain_lag_records",
		"Appended records not yet applied to the backend.", func() int64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			return int64(len(l.queue) + l.draining)
		})
	reg.GaugeFunc("iofwd_wal_segments",
		"Live segment files (active + rotated awaiting drain).", func() int64 {
			l.mu.Lock()
			defer l.mu.Unlock()
			return int64(l.segmentsLocked())
		})
}
