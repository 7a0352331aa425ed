package wal

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// The commit path: a record reaches a segment file only through here, under
// every sync policy. A write and an fsync per record, serialised on l.mu, is
// the exact small-synchronous-write shape the paper's forwarding layer
// exists to absorb, so Submit only encodes the record into the open cohort's
// buffer — that fixes its place in the log — and returns; one committer
// goroutine owned by the Log takes cohorts off cohortQ in creation order,
// writes each whole buffer with one positional append, fsyncs when the
// policy asks this commit to, publishes every member to the drain queue,
// and only then fires the members' acked callbacks. The cohort is
// acknowledged all-or-nothing, the write and fsync cost is shared, and
// whatever is submitted while one cohort commits forms the next — no
// submitter ever waits inside the log, so one caller can have a whole burst
// in a single cohort.
//
// Cohorts commit in creation order (FIFO per segment). That ordering is a
// durability requirement, not a fairness nicety: recovery stops scanning a
// segment at the first tear, so if cohort N+1 reached disk before cohort N
// and the process died in between, N+1's acked records would sit beyond
// N's hole and be discarded. A cohort also never straddles a segment
// rotation — rotation seals the open cohort on the old segment and the
// triggering submit starts a fresh cohort on the new one — so a cohort's
// frames are always one contiguous reserved region of one file.
type cohort struct {
	seg  *segment
	base int64 // segment offset where the cohort's frames land
	buf  []byte
	recs []record
	acks []func(error) // recs[i]'s commit acknowledgement

	// readied is set when lingering can gain the cohort nothing more: it was
	// sealed, or it holds every record in flight. ready is made only by a
	// committer that decided to linger, and closed when readied is set.
	readied bool
	ready   chan struct{}
}

func (c *cohort) readyLocked() {
	if !c.readied {
		c.readied = true
		if c.ready != nil {
			close(c.ready)
		}
	}
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

	// Counted before the lock: a submitter still on its way to the cohort is
	// the evidence the committer's linger waits on.
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

// sealCohortLocked closes the open cohort to new members (byte cap,
// rotation, Close, or the committer starting its commit). Sealing does not
// publish: the cohort keeps its reserved region until it commits.
func (l *Log) sealCohortLocked() {
	if c := l.curCohort; c != nil {
		c.readyLocked()
		l.curCohort = nil
	}
}

// commitLoop is the committer: the one consumer of cohortQ. For each cohort
// in creation order it optionally lingers so submitters already on their way
// can share the fsync, seals, writes the whole batch with one buffered
// append, fsyncs if the policy asks this commit to (syncReasonLocked),
// publishes every member, then fires the acks. It exits once the log is
// closed and every submitted cohort is resolved.
func (l *Log) commitLoop() {
	defer l.wg.Done()
	l.mu.Lock()
	for {
		for len(l.cohortQ) == 0 {
			if l.closed {
				l.mu.Unlock()
				return
			}
			l.commitCond.Wait()
		}
		c := l.cohortQ[0]
		if l.cfg.Sync == SyncAlways && !c.readied && int64(len(c.recs)) < l.inflight.Load() {
			// Linger only where members would share an fsync, and only on
			// evidence: records submitted but not yet in a cohort keep the
			// committer here, and the wait ends the moment the cohort has
			// captured them (or is sealed). A lone writer's cohort already
			// holds everything in flight and never waits; members that
			// joined while the previous cohort was fsyncing commit at once.
			ready := make(chan struct{})
			c.ready = ready
			l.mu.Unlock()
			//lint:allow simclock the linger window is a bounded real-time batching heuristic; crash points and replay stay op-ordered
			timer := time.NewTimer(l.cfg.GroupLinger)
			select {
			case <-ready:
			case <-timer.C:
			}
			timer.Stop()
			l.mu.Lock()
		}
		if l.curCohort == c {
			l.sealCohortLocked()
		}
		l.mu.Unlock()

		// The batch write needs no lock: the cohort's region was reserved
		// under l.mu and nothing else writes there (rotation moved new
		// submits to a new segment if it sealed us; the drainer only reads
		// published regions).
		err := l.writeBatch(c.seg, c.base, c.buf)

		// Whether to fsync is decided after the write, under the lock that
		// orders it against rotation: a cohort that skips the fsync publishes
		// in this same critical section, so its segment cannot rotate away
		// in between.
		l.mu.Lock()
		reason := l.syncReasonLocked(c)
		if err == nil && reason != nil {
			l.mu.Unlock()
			l.fire(CrashBeforeBatchSync)
			if serr := c.seg.f.Sync(); serr != nil {
				err = fmt.Errorf("%w: syncing batch: %v", core.EIO, serr)
			}
			l.mu.Lock()
		}
		resolved := []*cohort{c}
		if err != nil {
			resolved = l.failCohortsLocked(c, err)
		} else {
			l.publishLocked(c)
			if reason != nil {
				l.syncedLocked(reason)
			}
		}
		// Acks run outside l.mu: they are caller code (the server enqueues
		// the client's reply there).
		l.mu.Unlock()
		for _, r := range resolved {
			for _, ack := range r.acks {
				ack(err)
			}
		}
		l.mu.Lock()
		if err == nil && int64(cap(c.buf)) <= 2*l.cfg.GroupMaxBytes {
			// Keep the cohort's buffers for the next one (an outsized
			// record's buffer is not worth pinning).
			clear(c.recs)
			clear(c.acks)
			*c = cohort{buf: c.buf[:0], recs: c.recs[:0], acks: c.acks[:0]}
			l.spare = c
		}
	}
}

// syncReasonLocked is the sync policy: it returns the fsync counter that
// c's commit — c is written, not yet published — must fsync under, or nil
// when the commit publishes unsynced. SyncAlways fsyncs every commit.
// SyncInterval fsyncs the commit that brings the unsynced records to
// SyncEvery, and every commit on a segment already rotated away: nothing
// lands there after its last queued cohort, so the file is durable once it
// stops being written. SyncNever never does.
func (l *Log) syncReasonLocked(c *cohort) *telemetry.Counter {
	switch {
	case l.cfg.Sync == SyncAlways:
		return &l.fsyncBatch
	case l.cfg.Sync == SyncInterval && c.seg.rotated:
		return &l.fsyncRotate
	case l.cfg.Sync == SyncInterval && l.unsynced+len(c.recs) >= l.cfg.SyncEvery:
		return &l.fsyncInterval
	}
	return nil
}

// syncedLocked accounts one successful segment fsync: everything published
// so far is durable.
func (l *Log) syncedLocked(reason *telemetry.Counter) {
	l.unsynced = 0
	l.syncs.Inc()
	reason.Inc()
}

// publishLocked hands a committed cohort — the head of cohortQ — to the
// drainer. Its records count as unsynced until the next fsync.
func (l *Log) publishLocked(c *cohort) {
	l.unsynced += len(c.recs)
	l.batchOps.Observe(int64(len(c.recs)))
	l.batchBytes.Observe(int64(len(c.buf)))
	c.seg.reserved -= len(c.recs)
	c.seg.pending += len(c.recs)
	l.queue = append(l.queue, c.recs...)
	l.appends.Add(uint64(len(c.recs)))
	l.inflight.Add(-int64(len(c.recs)))
	l.cohortQ = l.cohortQ[1:]
	l.fire(CrashAfterBatchSync)
	l.cond.Signal()
}

// writeBatch lands a cohort's concatenated frames at its reserved region
// with positional writes. When a crash hook is installed the batch is
// split one byte short of the end so CrashMidBatchAppend always leaves a
// genuinely torn frame on disk — a cut at any other fraction could land
// exactly on a frame boundary and scan clean.
func (l *Log) writeBatch(seg *segment, base int64, buf []byte) error {
	if l.cfg.Crash != nil && len(buf) > 1 {
		cut := len(buf) - 1
		if _, err := seg.f.WriteAt(buf[:cut], base); err != nil {
			return fmt.Errorf("%w: appending batch: %v", core.EIO, err)
		}
		l.fire(CrashMidBatchAppend)
		if _, err := seg.f.WriteAt(buf[cut:], base+int64(cut)); err != nil {
			return fmt.Errorf("%w: appending batch: %v", core.EIO, err)
		}
		return nil
	}
	if _, err := seg.f.WriteAt(buf, base); err != nil {
		return fmt.Errorf("%w: appending batch: %v", core.EIO, err)
	}
	return nil
}

// failCohortsLocked fails c — the head of cohortQ, whose batch write or
// fsync failed — plus every queued cohort behind it on the same segment,
// and returns them for the committer to acknowledge with the error. Commits
// are FIFO per segment, so the later cohorts' reserved regions sit above
// c's torn bytes; publishing them would strand acked records behind a hole
// that recovery's first-tear scan discards. The segment is rewound to
// c.base so the region is reused; cohorts on newer segments (after a
// rotation) are untouched and commit normally.
func (l *Log) failCohortsLocked(c *cohort, err error) []*cohort {
	seg := c.seg
	n := 0
	for n < len(l.cohortQ) && l.cohortQ[n].seg == seg {
		f := l.cohortQ[n]
		n++
		if l.curCohort == f {
			l.curCohort = nil
		}
		seg.reserved -= len(f.recs)
		l.liveBytes -= int64(len(f.buf))
		l.appendErrors.Add(uint64(len(f.recs)))
		l.inflight.Add(-int64(len(f.recs)))
	}
	failed := l.cohortQ[:n:n]
	l.cohortQ = l.cohortQ[n:]
	seg.size = c.base
	if seg.pending == 0 && seg.reserved == 0 {
		// No future drain completion will visit this segment, so hand it to
		// the drainer explicitly: releases and file lifecycle are
		// drainer-side work (syncBackendCache touches drainer-only state).
		l.sweeps = append(l.sweeps, seg)
	}
	// Wake the drainer unconditionally: if the log is closed, the emptied
	// cohort queue may be what it is waiting on to exit.
	l.cond.Signal()
	return failed
}
