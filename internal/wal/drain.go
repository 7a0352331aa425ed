package wal

import (
	"fmt"

	"repro/internal/core"
)

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
