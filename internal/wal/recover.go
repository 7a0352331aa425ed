package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
)

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
