package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
)

// fakeSpill is a controllable Spiller: it records submits, acknowledges
// each one inline (as the WAL does outside group commit) unless holdAcks is
// set, and lets the test decide when (and with what error) each ack and each
// drain completes.
type fakeSpill struct {
	mu       sync.Mutex
	refuse   error // returned from Submit when non-nil (no callback ever called)
	holdAcks bool  // leave acked to the test instead of firing it inline
	appends  []spillRec
}

type spillRec struct {
	name     string
	off      int64
	data     []byte
	acked    func(error)
	done     func(error)
	released func()
}

func (f *fakeSpill) Submit(name string, off int64, data []byte, acked, done func(error), released func()) error {
	f.mu.Lock()
	if f.refuse != nil {
		f.mu.Unlock()
		return f.refuse
	}
	f.appends = append(f.appends, spillRec{name, off, append([]byte(nil), data...), acked, done, released})
	hold := f.holdAcks
	f.mu.Unlock()
	if !hold {
		acked(nil)
	}
	return nil
}

func (f *fakeSpill) take(t *testing.T, i int) spillRec {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.appends) <= i {
		t.Fatalf("spiller saw %d appends, want at least %d", len(f.appends), i+1)
	}
	return f.appends[i]
}

// waitSubmits blocks until the spiller has seen n submits and returns them
// in submit order.
func (f *fakeSpill) waitSubmits(t *testing.T, n int) []spillRec {
	t.Helper()
	waitFor(t, 5*time.Second, fmt.Sprintf("%d spill submits", n), func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.appends) >= n
	})
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]spillRec(nil), f.appends[:n]...)
}

// applySpilled writes rec to b, as the WAL's drainer would.
func applySpilled(b Backend, rec spillRec) error {
	h, err := b.Open(rec.name, true)
	if err != nil {
		return err
	}
	defer h.Close()
	_, err = h.WriteAt(rec.data, rec.off)
	return err
}

// gateOpener returns a func that opens gate once; it also runs at cleanup,
// so a failing test never leaves a worker blocked in the backend.
func gateOpener(t *testing.T, gate *gateBackend) func() {
	var once sync.Once
	open := func() { once.Do(func() { close(gate.release) }) }
	t.Cleanup(open)
	return open
}

// writeResults runs n concurrent WriteAts of one BML class each, at offsets
// i*policy.MinClass, and returns a channel per write that yields its error.
func writeResults(f *File, n int) []chan error {
	res := make([]chan error, n)
	for i := range res {
		res[i] = make(chan error, 1)
		go func(i int) {
			_, err := f.WriteAt(bytes.Repeat([]byte{byte(0x10 + i)}, policy.MinClass), int64(i*policy.MinClass))
			res[i] <- err
		}(i)
	}
	return res
}

// spillPair builds an async server whose one-class BML the test can plug, so
// a write deterministically misses admission and takes the spill (or
// degrade) path.
func spillPair(t *testing.T, fs *fakeSpill) (*Client, *Server) {
	t.Helper()
	cfg := Config{
		Mode:       ModeAsync,
		Workers:    1,
		BMLBytes:   policy.MinClass,
		BMLTimeout: time.Millisecond,
		Backend:    NewMemBackend(),
	}
	if fs != nil {
		cfg.Spill = fs
	}
	c, s := pipePair(t, cfg)
	plug := s.bml.Get(policy.MinClass)
	t.Cleanup(func() { s.bml.Put(plug) })
	return c, s
}

func TestSpillAbsorbsAdmissionMiss(t *testing.T) {
	fs := &fakeSpill{}
	c, s := spillPair(t, fs)
	f, err := c.Open(context.Background(), "burst")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xab}, policy.MinClass)
	if n, err := f.WriteAt(payload, 128); err != nil || n != len(payload) {
		t.Fatalf("spilled write: n=%d err=%v", n, err)
	}
	st := s.Stats()
	if st.Spilled != 1 || st.Degraded != 0 {
		t.Fatalf("stats: spilled=%d degraded=%d, want 1/0", st.Spilled, st.Degraded)
	}
	rec := fs.take(t, 0)
	if rec.name != "burst" || rec.off != 128 || !bytes.Equal(rec.data, payload) {
		t.Fatalf("spiller saw name=%q off=%d len=%d", rec.name, rec.off, len(rec.data))
	}
	// The op is in flight until the drainer reports; fsync must then see a
	// clean descriptor.
	rec.done(nil)
	if err := f.Sync(); err != nil {
		t.Fatalf("fsync after drain: %v", err)
	}
}

func TestSpillDrainFailureIsDeferred(t *testing.T) {
	fs := &fakeSpill{}
	c, s := spillPair(t, fs)
	f, err := c.Open(context.Background(), "burst")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5c}, policy.MinClass)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatalf("spilled write acked with error: %v", err)
	}
	fs.take(t, 0).done(EIO)
	if err := f.Sync(); !errors.Is(err, EIO) {
		t.Fatalf("fsync after failed drain: %v, want EIO", err)
	}
	// Exactly once: the next fsync is clean.
	if err := f.Sync(); err != nil {
		t.Fatalf("second fsync: %v", err)
	}
	if v := s.metrics.deferredErrors.Value(); v != 1 {
		t.Fatalf("deferred errors %d, want 1", v)
	}
}

func TestSpillRefusalFallsBackToDegrade(t *testing.T) {
	fs := &fakeSpill{refuse: errors.New("wal full")}
	c, s := spillPair(t, fs)
	f, err := c.Open(context.Background(), "burst")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x11}, policy.MinClass)
	if n, err := f.WriteAt(payload, 0); err != nil || n != len(payload) {
		t.Fatalf("degraded write: n=%d err=%v", n, err)
	}
	st := s.Stats()
	if st.Spilled != 0 || st.Degraded != 1 {
		t.Fatalf("stats: spilled=%d degraded=%d, want 0/1", st.Spilled, st.Degraded)
	}
	if v := s.metrics.spillRejects.Value(); v != 1 {
		t.Fatalf("spill rejects %d, want 1", v)
	}
	// The degraded path is synchronous: the bytes are already on the backend.
	got, ok := s.cfg.Backend.(*MemBackend).Bytes("burst")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("degraded write not on backend (ok=%v len=%d)", ok, len(got))
	}
	// No spill completion is pending, so fsync returns immediately clean.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillOrderingSerializesWithWAL pins the descriptor ordering contract
// across the spill tier's second executor: while any spilled record is
// still live in the WAL (not yet released by segment truncation), a
// subsequent write on the same descriptor must (a) route through the WAL
// too, even when BML admission succeeds, and (b) if the WAL refuses it,
// wait for the live records to be released before touching the backend by
// the sync path — otherwise two acknowledged writes to one offset could be
// applied inverted, or a crash replay could overwrite the newer one.
func TestSpillOrderingSerializesWithWAL(t *testing.T) {
	fs := &fakeSpill{}
	cfg := Config{
		Mode:       ModeAsync,
		Workers:    1,
		BMLBytes:   policy.MinClass,
		BMLTimeout: time.Millisecond,
		Backend:    NewMemBackend(),
		Spill:      fs,
	}
	c, s := pipePair(t, cfg)
	f, err := c.Open(context.Background(), "burst")
	if err != nil {
		t.Fatal(err)
	}

	// Write 1 misses admission (BML plugged) and spills.
	plug := s.bml.Get(policy.MinClass)
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xa1}, policy.MinClass), 0); err != nil {
		t.Fatal(err)
	}
	rec0 := fs.take(t, 0)

	// Write 2 would be admitted (BML free again), but record 1 is still
	// live in the WAL: it must route through the spiller, not the shard.
	s.bml.Put(plug)
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xb2}, policy.MinClass), 0); err != nil {
		t.Fatal(err)
	}
	rec1 := fs.take(t, 1)
	if st := s.Stats(); st.Spilled != 2 || st.StagedWrites != 0 {
		t.Fatalf("stats: spilled=%d staged=%d, want 2/0", st.Spilled, st.StagedWrites)
	}

	// Write 3 is refused by the WAL while records 1 and 2 are still live:
	// the fallback must wait for their release before writing through.
	fs.mu.Lock()
	fs.refuse = errors.New("wal full")
	fs.mu.Unlock()
	final := bytes.Repeat([]byte{0xc3}, policy.MinClass)
	done := make(chan error, 1)
	go func() {
		_, err := f.WriteAt(final, 0)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("refused write completed (err=%v) while spilled records were live", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Drain the WAL: apply, report, release — in append order. Only after
	// the last release may write 3 reach the backend.
	for _, rec := range []spillRec{rec0, rec1} {
		if err := applySpilled(s.cfg.Backend, rec); err != nil {
			t.Fatal(err)
		}
		rec.done(nil)
		rec.released()
	}
	if err := <-done; err != nil {
		t.Fatalf("write after release: %v", err)
	}
	// A write the spill tier refuses takes the synchronous degrade path,
	// never the staged one, even with the pool free after the wait.
	if st := s.Stats(); st.Degraded != 1 || st.StagedWrites != 0 {
		t.Fatalf("stats: degraded=%d staged=%d, want 1/0", st.Degraded, st.StagedWrites)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got, ok := s.cfg.Backend.(*MemBackend).Bytes("burst")
	if !ok || !bytes.Equal(got, final) {
		t.Fatalf("backend holds stale bytes (ok=%v first=%#x), want the last write", ok, got[0])
	}
}

// TestSpillDoesNotOvertakeStaged: a descriptor's first spilled record must
// not overtake an older staged write it overlaps. Staged write A is held at
// the backend; write B to the same bytes finds the pool full and spills, and
// a drainer applies B as soon as it is submitted. If B's submit did not wait
// for A, A would land on top of the later, acknowledged B.
func TestSpillDoesNotOvertakeStaged(t *testing.T) {
	fs := &fakeSpill{}
	mem := NewMemBackend()
	gate := &gateBackend{inner: mem, release: make(chan struct{})}
	c, s := pipePair(t, Config{
		Mode: ModeAsync, Workers: 1, BMLBytes: policy.MinClass, BMLTimeout: time.Millisecond,
		Backend: gate, Spill: fs,
	})
	open := gateOpener(t, gate)
	f, err := c.Open(context.Background(), "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	// A stages, takes the pool's one buffer and blocks at the backend.
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xa1}, policy.MinClass), 0); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.StagedWrites != 1 {
		t.Fatalf("write A: staged=%d, want 1", st.StagedWrites)
	}
	// The drainer: applies B to the backend behind the gate as soon as it is
	// submitted, as the WAL's drainer may.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		rec := fs.waitSubmits(t, 1)[0]
		rec.done(applySpilled(mem, rec))
		rec.released()
	}()
	want := bytes.Repeat([]byte{0xb2}, policy.MinClass)
	res := make(chan error, 1)
	go func() {
		_, err := f.WriteAt(want, 0)
		res <- err
	}()
	time.Sleep(20 * time.Millisecond) // room for B to overtake A
	open()
	if err := <-res; err != nil {
		t.Fatalf("write B: %v", err)
	}
	<-drained
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Spilled != 1 {
		t.Fatalf("write B: spilled=%d, want 1", st.Spilled)
	}
	if got, _ := mem.Bytes("ckpt"); !bytes.Equal(got, want) {
		t.Fatalf("backend holds %#x, want the later acked write %#x", got[0], want[0])
	}
}

// TestSpillAdmissionNeverWaits pins the admission rule of a server with a
// spill tier: a write that finds the staging pool full goes to the spill
// tier at once, even with BMLTimeout 0 (which would wait forever without
// one), and never counts as a BML stall.
func TestSpillAdmissionNeverWaits(t *testing.T) {
	const staged, spilled = 4, 8
	fs := &fakeSpill{}
	mem := NewMemBackend()
	gate := &gateBackend{inner: mem, release: make(chan struct{})}
	c, s := pipePair(t, Config{
		Mode: ModeAsync, Workers: 1, BMLBytes: staged * policy.MinClass, BMLTimeout: 0,
		Backend: gate, Spill: fs,
	})
	open := gateOpener(t, gate)
	f, err := c.Open(context.Background(), "ckpt")
	if err != nil {
		t.Fatal(err)
	}
	fill := func(i int) []byte { return bytes.Repeat([]byte{byte(0x10 + i)}, policy.MinClass) }
	// The first write blocks at the backend; the other three queue behind
	// it, and the four of them hold the whole pool.
	for i := 0; i < staged; i++ {
		if _, err := f.WriteAt(fill(i), int64(i*policy.MinClass)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.StagedWrites != staged {
		t.Fatalf("staged=%d, want %d", st.StagedWrites, staged)
	}
	res := make(chan error, spilled)
	for i := staged; i < staged+spilled; i++ {
		go func() {
			_, err := f.WriteAt(fill(i), int64(i*policy.MinClass))
			res <- err
		}()
	}
	deadline := time.After(5 * time.Second)
	for range spilled {
		select {
		case err := <-res:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("writes to a full pool waited for admission instead of spilling")
		}
	}
	if st := s.Stats(); st.Spilled != spilled || st.Degraded != 0 {
		t.Fatalf("stats: spilled=%d degraded=%d, want %d/0", st.Spilled, st.Degraded, spilled)
	}
	if st := s.BMLStats(); st.Stalls != 0 || st.Timeouts != 0 {
		t.Fatalf("BML stalls=%d timeouts=%d, want 0/0", st.Stalls, st.Timeouts)
	}
	// Drain the spilled records, open the backend, and read every acked
	// record back.
	for _, rec := range fs.waitSubmits(t, spilled) {
		rec.done(applySpilled(mem, rec))
		rec.released()
	}
	open()
	got := make([]byte, policy.MinClass)
	for i := 0; i < staged+spilled; i++ {
		if _, err := f.ReadAt(got, int64(i*policy.MinClass)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fill(i)) {
			t.Fatalf("record %d reads %#x, want %#x", i, got[0], fill(i)[0])
		}
	}
}

// TestStageAttribution pins where write latency is charged: a degraded
// (sync-path) write observes the backend stage histogram, a spilled write
// observes the spill stage and leaves the backend stage alone.
func TestStageAttribution(t *testing.T) {
	t.Run("degrade", func(t *testing.T) {
		c, s := spillPair(t, nil) // no spiller: admission miss degrades
		f, err := c.Open(context.Background(), "burst")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{1}, policy.MinClass), 0); err != nil {
			t.Fatal(err)
		}
		m := s.metrics
		if m.stageBackend.Count() != 1 || m.stageSpill.Count() != 0 {
			t.Fatalf("degrade: backend stage %d spill stage %d, want 1/0",
				m.stageBackend.Count(), m.stageSpill.Count())
		}
		if m.bmlDegraded.Value() != 1 {
			t.Fatalf("degraded counter %d, want 1", m.bmlDegraded.Value())
		}
	})
	t.Run("spill", func(t *testing.T) {
		fs := &fakeSpill{}
		c, s := spillPair(t, fs)
		f, err := c.Open(context.Background(), "burst")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{2}, policy.MinClass), 0); err != nil {
			t.Fatal(err)
		}
		m := s.metrics
		if m.stageSpill.Count() != 1 || m.stageBackend.Count() != 0 {
			t.Fatalf("spill: spill stage %d backend stage %d, want 1/0",
				m.stageSpill.Count(), m.stageBackend.Count())
		}
		if m.bmlDegraded.Value() != 0 {
			t.Fatalf("spilled write counted as degraded (%d)", m.bmlDegraded.Value())
		}
		fs.take(t, 0).done(nil)
	})
	// A pipelined write is measured when it is answered, not when the
	// handler moves on: the spill stage runs payload-received → acked, so it
	// contains the wait for the commit, and request latency still means
	// header decoded → reply written.
	t.Run("spill-pipelined", func(t *testing.T) {
		const commitWait = 20 * time.Millisecond
		fs := &fakeSpill{holdAcks: true}
		c, s := spillPair(t, fs)
		f, err := c.Open(context.Background(), "burst")
		if err != nil {
			t.Fatal(err)
		}
		res := writeResults(f, 1)
		rec := fs.waitSubmits(t, 1)[0]
		m := s.metrics
		wr := m.reqLatency[opIndex(OpPwrite)]
		time.Sleep(commitWait) // the record's wait for its commit turn
		if m.stageSpill.Count() != 0 || wr.Count() != 0 || m.spilled.Value() != 0 {
			t.Fatalf("unacked write already measured: spill stage %d, latency %d, spilled %d",
				m.stageSpill.Count(), wr.Count(), m.spilled.Value())
		}
		replies := m.stageReply.Count()
		rec.acked(nil)
		if err := <-res[0]; err != nil {
			t.Fatal(err)
		}
		// The ack writer observes just after the reply leaves.
		waitFor(t, 5*time.Second, "the ack writer to observe the reply", func() bool {
			return wr.Count() == 1 && m.stageReply.Count() == replies+1
		})
		if m.stageSpill.Count() != 1 || m.spilled.Value() != 1 {
			t.Fatalf("acked write: spill stage %d, spilled %d, want 1/1", m.stageSpill.Count(), m.spilled.Value())
		}
		if got := time.Duration(m.stageSpill.Sum()); got < commitWait {
			t.Fatalf("spill stage %v does not contain the %v commit wait", got, commitWait)
		}
		if wr.Sum() < m.stageSpill.Sum() {
			t.Fatalf("request latency %dns shorter than its spill stage %dns", wr.Sum(), m.stageSpill.Sum())
		}
		rec.done(nil)
	})
}

// TestSpillAcksArePipelined is the head-of-line regression at the handler:
// with no ack resolved, the handler must still read and submit every write
// the client has in flight, in wire order per descriptor — and a Sync issued
// behind them waits for them. Then acks resolve out of order and every
// write is answered exactly once.
func TestSpillAcksArePipelined(t *testing.T) {
	const n = 8
	fs := &fakeSpill{holdAcks: true}
	c, s := spillPair(t, fs)
	f, err := c.Open(context.Background(), "burst")
	if err != nil {
		t.Fatal(err)
	}
	res := writeResults(f, n)
	recs := fs.waitSubmits(t, n) // all submitted, none acked
	if got := s.Stats().Spilled; got != 0 {
		t.Fatalf("%d writes counted as spilled before any ack", got)
	}
	synced := make(chan error, 1)
	go func() { synced <- f.Sync() }()
	for i := n - 1; i >= 0; i-- { // acks resolve in reverse submit order
		select {
		case err := <-synced:
			t.Fatalf("fsync returned (%v) behind %d unresolved spilled writes", err, i+1)
		default:
		}
		recs[i].acked(nil)
		recs[i].done(nil)
	}
	for i := range res {
		if err := <-res[i]; err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := <-synced; err != nil {
		t.Fatalf("fsync behind pipelined acks: %v", err)
	}
	if got := s.Stats().Spilled; got != n {
		t.Fatalf("spilled=%d, want %d", got, n)
	}
}

// TestSpillPipelineBound: with maxPipelinedAcks writes unanswered the
// handler stops reading frames; one reply leaving admits exactly one more.
func TestSpillPipelineBound(t *testing.T) {
	const n = maxPipelinedAcks + 2
	fs := &fakeSpill{holdAcks: true}
	c, _ := spillPair(t, fs)
	f, err := c.Open(context.Background(), "burst")
	if err != nil {
		t.Fatal(err)
	}
	res := writeResults(f, n)
	recs := fs.waitSubmits(t, maxPipelinedAcks)
	time.Sleep(20 * time.Millisecond) // room for a handler that ignores the bound to overshoot
	fs.mu.Lock()
	got := len(fs.appends)
	fs.mu.Unlock()
	if got != maxPipelinedAcks {
		t.Fatalf("handler submitted %d writes with none answered, bound is %d", got, maxPipelinedAcks)
	}
	recs[0].acked(nil)
	recs[0].done(nil)
	fs.waitSubmits(t, maxPipelinedAcks+1)
	fs.mu.Lock()
	fs.holdAcks = false // the rest ack inline
	fs.mu.Unlock()
	for _, rec := range fs.waitSubmits(t, maxPipelinedAcks+1)[1:] {
		rec.acked(nil)
	}
	for i := range res {
		if err := <-res[i]; err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for _, rec := range fs.waitSubmits(t, n)[1:] {
		rec.done(nil)
	}
}

// TestSpillCommitFailureRepliesEIO: when a record's batch fails to commit,
// exactly that write is answered EIO — never acknowledged, never applied,
// no late fallback write — its bookkeeping unwinds so the descriptor still
// drains, and the next write spills normally.
func TestSpillCommitFailureRepliesEIO(t *testing.T) {
	fs := &fakeSpill{holdAcks: true}
	c, s := spillPair(t, fs)
	f, err := c.Open(context.Background(), "burst")
	if err != nil {
		t.Fatal(err)
	}
	res := writeResults(f, 3)
	recs := fs.waitSubmits(t, 3)
	commitErr := fmt.Errorf("%w: syncing batch: injected", EIO)
	for _, rec := range recs {
		i := int(rec.off / policy.MinClass)
		if i == 0 {
			rec.acked(nil)
			if err := <-res[i]; err != nil {
				t.Fatalf("committed write: %v", err)
			}
			rec.done(nil)
			rec.released()
			continue
		}
		rec.acked(commitErr)
		if err := <-res[i]; !errors.Is(err, EIO) {
			t.Fatalf("write %d on the failed batch: err = %v, want EIO", i, err)
		}
	}
	if st := s.Stats(); st.Spilled != 1 || st.Degraded != 0 {
		t.Fatalf("stats: spilled=%d degraded=%d, want 1/0 (no late fallback)", st.Spilled, st.Degraded)
	}
	if got, _ := s.cfg.Backend.(*MemBackend).Bytes("burst"); len(got) != 0 {
		t.Fatalf("%d bytes reached the backend: the failed records must not be applied (the fake never drains)", len(got))
	}
	// The failed writes were unwound: nothing in flight, nothing deferred.
	if err := f.Sync(); err != nil {
		t.Fatalf("fsync after commit failure: %v", err)
	}
	if v := s.metrics.deferredErrors.Value(); v != 0 {
		t.Fatalf("commit failure also raised %d deferred errors; the client already heard EIO", v)
	}
	fs.mu.Lock()
	fs.holdAcks = false
	fs.mu.Unlock()
	if _, err := f.WriteAt(bytes.Repeat([]byte{0x77}, policy.MinClass), 0); err != nil {
		t.Fatalf("write after commit failure: %v", err)
	}
	if st := s.Stats(); st.Spilled != 2 {
		t.Fatalf("spilled=%d after the follow-up write, want 2", st.Spilled)
	}
	fs.take(t, 3).done(nil)
}

// TestSpillConnDropWaitsForAcks: a connection that dies with acks
// outstanding is not torn down under them — ServeConn returns only once
// every submitted record has resolved and the ack writer has exited, and the
// staging pool is back to the plug alone.
func TestSpillConnDropWaitsForAcks(t *testing.T) {
	const n = 4
	fs := &fakeSpill{holdAcks: true}
	s := NewServer(Config{
		Mode: ModeAsync, Workers: 1, BMLBytes: policy.MinClass, BMLTimeout: time.Millisecond,
		Backend: NewMemBackend(), Spill: fs,
	})
	defer s.Close()
	plug := s.bml.Get(policy.MinClass)
	defer s.bml.Put(plug)
	cc, sc := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- s.ServeConn(sc) }()
	c := pipeClient(t, ClientConfig{}, cc)
	f, err := c.Open(context.Background(), "burst")
	if err != nil {
		t.Fatal(err)
	}
	res := writeResults(f, n)
	recs := fs.waitSubmits(t, n)
	_ = c.Close() // the connection drops with every ack outstanding
	for i := range res {
		if err := <-res[i]; err == nil {
			t.Fatalf("write %d succeeded on a dropped connection with its ack unresolved", i)
		}
	}
	select {
	case err := <-served:
		t.Fatalf("ServeConn returned (%v) with %d acks unresolved", err, n)
	case <-time.After(20 * time.Millisecond):
	}
	if used := s.bml.Used(); used != policy.MinClass {
		t.Fatalf("staging pool holds %d bytes with the handler gone, want the %d-byte plug alone", used, policy.MinClass)
	}
	for _, rec := range recs {
		rec.acked(nil)
		rec.done(nil)
	}
	// ServeConn joins the ack writer before returning, so its return is the
	// no-leak proof; -race would flag a writer touching the closed conn late.
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after every ack resolved")
	}
	if got := s.metrics.activeConns.Value(); got != 0 {
		t.Fatalf("%d connections still active", got)
	}
}
