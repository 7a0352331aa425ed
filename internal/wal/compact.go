package wal

import "sort"

// Pre-drain compaction: the drainer takes the whole queue as one batch and
// plans, per record, the byte ranges NOT overwritten by a newer record of
// the same name later in the batch. A hot region rewritten many times
// while spilled collapses to the newest bytes — one backend write instead
// of N. Compaction changes only what is *replayed*, never what is on
// disk: a crash before the drain completes still recovers by replaying
// every record in append order, which lands on the same final bytes.
//
// Interval-map invariants:
//
//  1. covered[name] is the union of the ranges of all records of that name
//     strictly newer than the one being planned, kept sorted and
//     non-overlapping (insertSpan merges).
//  2. A record's plan is its range minus covered at plan time, so every
//     surviving byte is written by exactly one record in the batch — the
//     newest one covering it.
//  3. Applying the plans in the original FIFO order is byte-identical to a
//     full sequential replay: any byte two records both cover is planned
//     only for the newer record, and bytes outside any overlap are written
//     by their only writer.
//
// Records appended after the batch was taken are a later batch; they only
// append newer data, so compacting within a batch can never resurrect
// stale bytes.

// span is a half-open byte range [lo, hi) in a backend object's offset
// space.
type span struct{ lo, hi int64 }

// compactBatch plans one drain batch. plans[i] holds record i's surviving
// ranges (empty means fully shadowed — nothing to write); skipped is the
// total byte count compaction removed from the replay.
func compactBatch(batch []record) (plans [][]span, skipped int64) {
	plans = make([][]span, len(batch))
	covered := make(map[string][]span, 1)
	for i := len(batch) - 1; i >= 0; i-- {
		rec := &batch[i]
		if rec.n == 0 {
			continue
		}
		s := span{rec.off, rec.off + int64(rec.n)}
		surviving := subtractSpans(s, covered[rec.name])
		plans[i] = surviving
		kept := int64(0)
		for _, sp := range surviving {
			kept += sp.hi - sp.lo
		}
		skipped += int64(rec.n) - kept
		covered[rec.name] = insertSpan(covered[rec.name], s)
	}
	return plans, skipped
}

// subtractSpans returns s minus the union of cover. cover must be sorted
// and non-overlapping (insertSpan's invariant).
func subtractSpans(s span, cover []span) []span {
	var out []span
	lo := s.lo
	for _, c := range cover {
		if c.hi <= lo {
			continue
		}
		if c.lo >= s.hi {
			break
		}
		if c.lo > lo {
			out = append(out, span{lo, c.lo})
		}
		if c.hi > lo {
			lo = c.hi
		}
		if lo >= s.hi {
			return out
		}
	}
	if lo < s.hi {
		out = append(out, span{lo, s.hi})
	}
	return out
}

// insertSpan merges s into a sorted, non-overlapping span set (adjacent
// spans coalesce too, keeping the set small for hot sequential regions).
func insertSpan(set []span, s span) []span {
	i := sort.Search(len(set), func(i int) bool { return set[i].hi >= s.lo })
	j := i
	for j < len(set) && set[j].lo <= s.hi {
		if set[j].lo < s.lo {
			s.lo = set[j].lo
		}
		if set[j].hi > s.hi {
			s.hi = set[j].hi
		}
		j++
	}
	if j > i {
		// s absorbed set[i:j]; splice it over them in place.
		set[i] = s
		return append(set[:i+1], set[j:]...)
	}
	set = append(set, span{})
	copy(set[i+1:], set[i:])
	set[i] = s
	return set
}
