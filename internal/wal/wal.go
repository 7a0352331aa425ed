package wal

import (
	"fmt"
	"os"
	"path/filepath"
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

	// Group-commit state (see commit.go). cohortQ holds created but not yet
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
