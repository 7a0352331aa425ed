package stripetier

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

func TestJournalEntryRoundTrip(t *testing.T) {
	keys := []repairKey{
		{name: "a", stripe: 0, member: 0},
		{name: "some/long/object-name", stripe: 1 << 40, member: 17},
	}
	for _, k := range keys {
		for _, op := range []byte{journalAdd, journalDel} {
			gotOp, gotK, err := decodeJournalEntry(encodeJournalEntry(op, k))
			if err != nil {
				t.Fatalf("decode(%d, %+v): %v", op, k, err)
			}
			if gotOp != op || gotK != k {
				t.Fatalf("round trip: got (%d, %+v), want (%d, %+v)", gotOp, gotK, op, k)
			}
		}
	}
	for _, bad := range [][]byte{
		nil,
		{journalAdd},
		{9, 0, 1, 'x', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},        // unknown op
		{journalAdd, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // empty name
		encodeJournalEntry(journalAdd, keys[0])[:10],              // truncated
	} {
		if _, _, err := decodeJournalEntry(bad); err == nil {
			t.Fatalf("decode accepted bad payload %v", bad)
		}
	}
}

// FuzzDecodeJournalEntry: a journal frame's CRC only proves its payload is
// the bytes once written, so the decoder must take any payload without
// panicking, reject with an EIO-wrapped error, and accept only an entry
// that re-encodes to exactly the input. The seed corpus under
// testdata/fuzz/FuzzDecodeJournalEntry holds encodeJournalEntry output for
// both ops and the range edges, truncations of one entry, and one entry
// with a trailing byte.
func FuzzDecodeJournalEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		op, k, err := decodeJournalEntry(in)
		if err != nil {
			if !errors.Is(err, core.EIO) {
				t.Fatalf("decode failed with %v, want an EIO-wrapped error", err)
			}
			return
		}
		if got := encodeJournalEntry(op, k); !bytes.Equal(got, in) {
			t.Fatalf("decoded (%d, %+v) re-encodes to %x, read %x", op, k, got, in)
		}
	})
}

// newPersistTier builds a 2-member, 2-replica tier whose pending set is
// journaled at path, with its repair loop parked until startLoop: a loop
// running from the start could drain a reloaded entry before the test
// looks for it.
func newPersistTier(t *testing.T, path string, mems []*core.MemBackend) (*Tier, []*flakyMember, func()) {
	t.Helper()
	return newParkedTier(t, mems, Config{
		StripeSize:     16,
		Replicas:       2,
		Health:         testHealthCfg(),
		PendingJournal: path,
	})
}

func waitPendingDrained(t *testing.T, tier *Tier) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tier.repair.pendingCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pending set never drained (%d left)", tier.repair.pendingCount())
		}
		tier.repair.kickNow()
		time.Sleep(time.Millisecond)
	}
}

// TestPendingSetSurvivesRestart is the satellite's core promise: a stale
// replica marked for repair before a restart is still marked — and gets
// repaired — after one.
func TestPendingSetSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pending.journal")
	mems := []*core.MemBackend{core.NewMemBackend(), core.NewMemBackend()}

	tier, flaky, startLoop := newPersistTier(t, path, mems)
	startLoop()
	flaky[1].fail.Store(true) // member 1 drops its replica writes
	h, err := tier.Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(0, 16)
	if n, err := h.WriteAt(data, 0); err != nil || n != 16 {
		t.Fatalf("degraded write: n=%d err=%v", n, err)
	}
	if !tier.repair.isPending("obj", 0, 1) {
		t.Fatal("failed replica write did not queue a repair")
	}
	_ = h.Close()
	// Close with member 1 still sick: the entry must stay durably queued.
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	if got, ok := mems[1].Bytes("obj"); ok && len(got) > 0 {
		t.Fatal("member 1 has bytes it never acknowledged")
	}

	// Restart over the same members, member 1 healthy again. The journal
	// must reload the pending entry and the kicked repair loop drain it.
	tier2, _, startLoop2 := newPersistTier(t, path, mems)
	if !tier2.repair.isPending("obj", 0, 1) {
		t.Fatal("pending entry lost across restart")
	}
	startLoop2()
	waitPendingDrained(t, tier2)
	got, ok := mems[1].Bytes("obj")
	if !ok || !bytes.Equal(got[:16], data) {
		t.Fatalf("member 1 not repaired after restart (ok=%v len=%d)", ok, len(got))
	}
}

// TestJournalTornTailTolerated hand-writes a journal whose last entry is
// cut mid-frame: loading must keep everything before the tear.
func TestJournalTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pending.journal")
	k1 := repairKey{name: "obj", stripe: 1, member: 0}
	k2 := repairKey{name: "obj", stripe: 2, member: 1}
	var buf bytes.Buffer
	if err := wal.AppendFrame(&buf, encodeJournalEntry(journalAdd, k1)); err != nil {
		t.Fatal(err)
	}
	if err := wal.AppendFrame(&buf, encodeJournalEntry(journalAdd, k2)); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-5]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Fatalf("loaded %d entries, want 1 (tail torn)", len(set))
	}
	if _, ok := set[k1]; !ok {
		t.Fatalf("intact entry missing from %v", set)
	}
}

// TestJournalCompactsOnLoad: dels and dead adds are dropped by the rewrite
// in openJournal, leaving one frame per live entry.
func TestJournalCompactsOnLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pending.journal")
	live := repairKey{name: "obj", stripe: 3, member: 1}
	dead := repairKey{name: "obj", stripe: 4, member: 0}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		op byte
		k  repairKey
	}{{journalAdd, dead}, {journalAdd, live}, {journalDel, dead}} {
		if err := wal.AppendFrame(f, encodeJournalEntry(e.op, e.k)); err != nil {
			t.Fatal(err)
		}
	}
	_ = f.Close()

	set, jf, err := openJournal(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	if len(set) != 1 {
		t.Fatalf("loaded %d entries, want 1", len(set))
	}
	if _, ok := set[live]; !ok {
		t.Fatalf("live entry missing from %v", set)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	oneFrame := int64(8 + len(encodeJournalEntry(journalAdd, live)))
	if info.Size() != oneFrame {
		t.Fatalf("compacted journal is %d bytes, want exactly one frame (%d)", info.Size(), oneFrame)
	}
}

// TestJournalDropsOutOfBoundsMembers: entries recorded under a larger tier
// must not be replayed into a smaller one.
func TestJournalDropsOutOfBoundsMembers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pending.journal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []repairKey{
		{name: "obj", stripe: 0, member: 1},
		{name: "obj", stripe: 0, member: 7}, // beyond the 2-member tier
	} {
		if err := wal.AppendFrame(f, encodeJournalEntry(journalAdd, k)); err != nil {
			t.Fatal(err)
		}
	}
	_ = f.Close()

	mems := []*core.MemBackend{core.NewMemBackend(), core.NewMemBackend()}
	tier, flaky, startLoop := newPersistTier(t, path, mems)
	if tier.repair.isPending("obj", 0, 7) {
		t.Fatal("out-of-bounds member survived the reload")
	}
	if !tier.repair.isPending("obj", 0, 1) {
		t.Fatal("in-bounds entry dropped by the reload")
	}
	// Close joins the loop, so it must run; with its survivor unreadable the
	// entry cannot be repaired (and deleted) before the on-disk check.
	flaky[0].failOpen.Store(true)
	startLoop()
	tier.Close()
	// The entry is filtered before the compaction rewrite, so it must be
	// gone from the on-disk journal too — not just the in-memory set —
	// or it would linger across every restart.
	reloaded, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reloaded[repairKey{name: "obj", stripe: 0, member: 7}]; ok {
		t.Fatal("out-of-bounds entry survived the compaction rewrite on disk")
	}
	if _, ok := reloaded[repairKey{name: "obj", stripe: 0, member: 1}]; !ok {
		t.Fatal("in-bounds entry missing from the compacted journal")
	}
}
