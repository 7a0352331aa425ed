package stripetier

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// flakyMember wraps a backend with switchable failure injection, for
// deterministic degraded-mode tests (the seeded fault backend is exercised
// in the e2e test; here we want exact control of when a member is sick).
type flakyMember struct {
	inner    core.Backend
	fail     atomic.Bool // data ops return EIO
	failOpen atomic.Bool // opens return EIO
}

func (f *flakyMember) Open(name string, create bool) (core.Handle, error) {
	if f.failOpen.Load() {
		return nil, fmt.Errorf("%w: injected open failure", core.EIO)
	}
	h, err := f.inner.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &flakyHandle{f: f, inner: h}, nil
}

type flakyHandle struct {
	f     *flakyMember
	inner core.Handle
}

func (h *flakyHandle) WriteAt(b []byte, off int64) (int, error) {
	if h.f.fail.Load() {
		return 0, fmt.Errorf("%w: injected write failure", core.EIO)
	}
	return h.inner.WriteAt(b, off)
}

func (h *flakyHandle) ReadAt(b []byte, off int64) (int, error) {
	if h.f.fail.Load() {
		return 0, fmt.Errorf("%w: injected read failure", core.EIO)
	}
	return h.inner.ReadAt(b, off)
}

func (h *flakyHandle) Sync() error {
	if h.f.fail.Load() {
		return fmt.Errorf("%w: injected sync failure", core.EIO)
	}
	return h.inner.Sync()
}
func (h *flakyHandle) Size() (int64, error) { return h.inner.Size() }
func (h *flakyHandle) Close() error         { return h.inner.Close() }

// pattern fills a deterministic, offset-dependent byte string so stripe
// reassembly errors (wrong member, wrong offset) are always visible.
func pattern(off int64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(1 + (off+int64(i))%251)
	}
	return b
}

// newTestTier builds a tier over n flaky-wrapped MemBackends with a fast
// health config.
func newTestTier(t *testing.T, n, replicas int, stripeSize int64) (*Tier, []*flakyMember, []*core.MemBackend) {
	t.Helper()
	tier, flaky, mems, startLoop := newParkedTestTier(t, n, replicas, stripeSize)
	startLoop()
	return tier, flaky, mems
}

// newParkedTestTier is newTestTier with the repair loop held parked: kicks
// buffer until startLoop runs it (cleanup starts it too, so Close can join
// it). Nothing but the test's own calls then moves the tier.
func newParkedTestTier(t *testing.T, n, replicas int, stripeSize int64) (*Tier, []*flakyMember, []*core.MemBackend, func()) {
	t.Helper()
	mems := make([]*core.MemBackend, n)
	for i := range mems {
		mems[i] = core.NewMemBackend()
	}
	tier, flaky, startLoop := newParkedTier(t, mems, Config{
		StripeSize: stripeSize,
		Replicas:   replicas,
		Health:     testHealthCfg(),
	})
	return tier, flaky, mems, startLoop
}

// newParkedTier builds a tier over flaky-wrapped mems with its repair loop
// parked until startLoop (or cleanup) starts it. A test that closes the tier
// itself calls startLoop first: Close joins the loop.
func newParkedTier(t *testing.T, mems []*core.MemBackend, cfg Config) (tier *Tier, flaky []*flakyMember, startLoop func()) {
	t.Helper()
	flaky = make([]*flakyMember, len(mems))
	members := make([]core.Backend, len(mems))
	for i := range mems {
		flaky[i] = &flakyMember{inner: mems[i]}
		members[i] = flaky[i]
	}
	tier, err := newTier(members, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	startLoop = func() { once.Do(tier.start) }
	t.Cleanup(func() {
		startLoop()
		_ = tier.Close()
	})
	return tier, flaky, startLoop
}

func TestStripeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		members, replicas int
		stripe            int64
	}{
		{1, 1, 16}, {2, 1, 16}, {2, 2, 16}, {4, 2, 16}, {5, 3, 32}, {4, 4, 16},
	} {
		name := fmt.Sprintf("n%d_r%d_s%d", tc.members, tc.replicas, tc.stripe)
		t.Run(name, func(t *testing.T) {
			tier, _, _ := newTestTier(t, tc.members, tc.replicas, tc.stripe)
			h, err := tier.Open("obj", true)
			if err != nil {
				t.Fatal(err)
			}
			// Unaligned writes crossing several stripes, out of order.
			writes := []struct {
				off int64
				n   int
			}{{40, 30}, {0, 45}, {100, 7}, {45, 55}}
			max := int64(0)
			for _, w := range writes {
				data := pattern(w.off, w.n)
				n, err := h.WriteAt(data, w.off)
				if err != nil || n != w.n {
					t.Fatalf("WriteAt(%d, %d) = %d, %v", w.off, w.n, n, err)
				}
				if end := w.off + int64(w.n); end > max {
					max = end
				}
			}
			if sz, err := h.Size(); err != nil || sz != max {
				t.Fatalf("Size = %d, %v, want %d", sz, err, max)
			}
			// Full readback.
			got := make([]byte, max)
			n, err := h.ReadAt(got, 0)
			if err != nil || int64(n) != max {
				t.Fatalf("ReadAt full = %d, %v, want %d", n, err, max)
			}
			if !bytes.Equal(got, pattern(0, int(max))) {
				t.Fatal("full readback mismatch")
			}
			// Unaligned partial read crossing stripes.
			got = make([]byte, 50)
			if n, err := h.ReadAt(got, 13); err != nil || n != 50 {
				t.Fatalf("ReadAt(13, 50) = %d, %v", n, err)
			}
			if !bytes.Equal(got, pattern(13, 50)) {
				t.Fatal("partial readback mismatch")
			}
			// Read past EOF is short with nil error (single-target
			// semantics).
			got = make([]byte, 64)
			n, err = h.ReadAt(got, max-10)
			if err != nil || n != 10 {
				t.Fatalf("ReadAt past EOF = %d, %v, want 10, nil", n, err)
			}
			if err := h.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := h.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

func TestStripeOpenSemantics(t *testing.T) {
	tier, _, _ := newTestTier(t, 3, 2, 16)
	if _, err := tier.Open("missing", false); !errors.Is(err, core.ENOENT) {
		t.Fatalf("Open(missing) = %v, want ENOENT", err)
	}
	h, err := tier.Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(pattern(0, 40), 0); err != nil {
		t.Fatal(err)
	}
	h2, err := tier.Open("obj", false)
	if err != nil {
		t.Fatalf("Open(existing, create=false): %v", err)
	}
	got := make([]byte, 40)
	if n, err := h2.ReadAt(got, 0); err != nil || n != 40 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, pattern(0, 40)) {
		t.Fatal("readback through second handle mismatch")
	}
}

func TestStripeReadFailover(t *testing.T) {
	tier, flaky, _ := newTestTier(t, 3, 2, 16)
	h, err := tier.Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	const size = 96 // stripes 0..5, primaries rotate over the 3 members
	if _, err := h.WriteAt(pattern(0, size), 0); err != nil {
		t.Fatal(err)
	}
	// Member 0 starts failing reads; every stripe it serves as primary
	// (0 and 3) must transparently come from the replica.
	flaky[0].fail.Store(true)
	got := make([]byte, size)
	n, err := h.ReadAt(got, 0)
	if err != nil || n != size {
		t.Fatalf("ReadAt with sick primary = %d, %v", n, err)
	}
	if !bytes.Equal(got, pattern(0, size)) {
		t.Fatal("failover readback mismatch")
	}
	if fo := tier.Stats().ReadFailovers; fo == 0 {
		t.Fatal("no failovers counted")
	}
}

func TestStripeWriteAllReplicasDown(t *testing.T) {
	tier, flaky, _ := newTestTier(t, 2, 2, 16)
	flaky[0].fail.Store(true)
	flaky[1].fail.Store(true)
	h, err := tier.Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(pattern(0, 16), 0); !errors.Is(err, core.EIO) {
		t.Fatalf("write with all replicas down = %v, want EIO", err)
	}
	flaky[0].fail.Store(false)
	flaky[1].fail.Store(false)
	if _, err := h.WriteAt(pattern(0, 16), 0); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	// Reads with both members sick also error once data exists.
	flaky[0].fail.Store(true)
	flaky[1].fail.Store(true)
	buf := make([]byte, 16)
	if _, err := h.ReadAt(buf, 0); !errors.Is(err, core.EIO) {
		t.Fatalf("read with all replicas down = %v, want EIO", err)
	}
}

// TestStaleReplicaSkipped is the corruption guard: a write that misses a
// member queues that (stripe, member) for repair, and reads must not be
// served from the stale replica even after the member recovers, until the
// repair has actually run. It also pins the retry of a failed repair: the
// healthy primary serves every read, so no read ever skips the stale
// replica and kicks the loop for it — the logical clock has to.
func TestStaleReplicaSkipped(t *testing.T) {
	tier, flaky, mems, startLoop := newParkedTestTier(t, 2, 2, 16)
	h, err := tier.Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	// Seed both replicas, then make member 1 miss an overwrite.
	if _, err := h.WriteAt(bytes.Repeat([]byte{0xEE}, 16), 0); err != nil {
		t.Fatal(err)
	}
	flaky[1].fail.Store(true)
	want := pattern(1000, 16)
	if _, err := h.WriteAt(want, 0); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	st := tier.Stats()
	if st.DegradedWrites == 0 || st.PendingRepairs == 0 {
		t.Fatalf("degraded=%d pending=%d, want both > 0", st.DegradedWrites, st.PendingRepairs)
	}
	// The loop's first pass runs before member 1 heals: the copy fails and
	// the entry stays queued, while member 1, short of MaxConsecutiveErrs,
	// stays healthy.
	<-tier.repair.kick
	tier.repair.pass()
	if st := tier.Stats(); st.RepairFailures != 1 || st.PendingRepairs != 1 || st.MemberStates[1] != StateHealthy {
		t.Fatalf("after a failed repair pass: %+v, want 1 failure, 1 pending, member 1 healthy", st)
	}
	// Member 1 heals, but its copy of stripe 0 is stale (still 0xEE) and
	// the repair has not run again; reads of stripe 0 must come from
	// member 0 regardless.
	flaky[1].fail.Store(false)
	for i := 0; i < 50; i++ {
		got := make([]byte, 16)
		if n, err := h.ReadAt(got, 0); err != nil || n != 16 {
			t.Fatalf("read %d = %d, %v", i, n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %d returned stale replica data", i)
		}
	}
	if len(tier.repair.kick) == 0 {
		t.Fatal("50 reads after a failed repair queued no retry kick for the repair loop")
	}
	// Drive traffic until the repair drains (the health clock and probe
	// admission are op-driven), then verify member 1's bytes were fixed.
	startLoop()
	deadline := time.Now().Add(10 * time.Second)
	for tier.Stats().PendingRepairs > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("repair did not drain: %+v", tier.Stats())
		}
		buf := make([]byte, 16)
		if _, err := h.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := mems[1].Bytes("obj"); !ok || !bytes.Equal(got[:16], want) {
		t.Fatalf("member 1 not repaired: ok=%v got=%x", ok, got)
	}
	if tier.Stats().Repairs == 0 {
		t.Fatal("repairs counter did not move")
	}
}

// TestStripeEjectionRepairCycle drives the full degraded-mode story at the
// tier level: sick member ejected, writes continue degraded, member heals,
// probes re-admit it, repair restores every missed stripe.
func TestStripeEjectionRepairCycle(t *testing.T) {
	// The loop stays parked until the heal: its probes of the sick member
	// would otherwise race the state checks below.
	tier, flaky, mems, startLoop := newParkedTestTier(t, 4, 2, 16)
	h, err := tier.Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	flaky[2].fail.Store(true)
	// Write enough stripes that member 2 sees MaxConsecutiveErrs failures
	// and is ejected; every write must still succeed via the replica.
	const blocks = 32
	for i := 0; i < blocks; i++ {
		data := pattern(int64(i)*16, 16)
		if _, err := h.WriteAt(data, int64(i)*16); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if st := tier.MemberState(2); st != StateEjected {
		t.Fatalf("member 2 state %v after sustained failures, want ejected", st)
	}
	st := tier.Stats()
	if st.Ejections == 0 || st.DegradedWrites == 0 {
		t.Fatalf("ejections=%d degraded=%d, want both > 0", st.Ejections, st.DegradedWrites)
	}
	// Heal the member; keep traffic flowing so the logical clock advances
	// through the backoff, the probes, and the repairs. The reads touch only
	// stripe 0, whose chain excludes member 2: the loop must get to the
	// member on its own.
	flaky[2].fail.Store(false)
	startLoop()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := tier.Stats()
		if s.MemberStates[2] == StateHealthy && s.PendingRepairs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("member 2 never recovered: %+v", s)
		}
		buf := make([]byte, 16)
		if _, err := h.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	s := tier.Stats()
	if s.Readmissions == 0 || s.Repairs == 0 {
		t.Fatalf("readmissions=%d repairs=%d, want both > 0", s.Readmissions, s.Repairs)
	}
	// Every stripe member 2 replicates must now hold the written bytes at
	// its logical offset.
	data, ok := mems[2].Bytes("obj")
	if !ok {
		t.Fatal("member 2 holds no object")
	}
	for s := int64(0); s < blocks; s++ {
		inChain := false
		for _, m := range replicaChain(s, 4, 2) {
			if m == 2 {
				inChain = true
			}
		}
		if !inChain {
			continue
		}
		lo, hi := s*16, (s+1)*16
		if int64(len(data)) < hi {
			t.Fatalf("member 2 data ends at %d, stripe %d needs %d", len(data), s, hi)
		}
		if !bytes.Equal(data[lo:hi], pattern(lo, 16)) {
			t.Fatalf("member 2 stripe %d not repaired", s)
		}
	}
	// Full readback stays correct.
	got := make([]byte, blocks*16)
	if n, err := h.ReadAt(got, 0); err != nil || n != len(got) {
		t.Fatalf("final readback = %d, %v", n, err)
	}
	if !bytes.Equal(got, pattern(0, blocks*16)) {
		t.Fatal("final readback mismatch")
	}
}

// TestEjectedMemberReadmittedWithoutTraffic pins repair-loop liveness: a
// healed member whose stripes see no traffic must still be probed,
// re-admitted and repaired once its backoff runs out on the logical clock.
// The loop is parked from the start; its last pass before the heal runs
// while the member's reopenAt is still ahead, and afterwards only stripe 0
// — whose chain excludes the member — sees traffic. Without a kick when the
// clock reaches reopenAt, nothing would ever ask for the member again and
// its repairs would stay pending forever.
func TestEjectedMemberReadmittedWithoutTraffic(t *testing.T) {
	tier, flaky, mems, startLoop := newParkedTestTier(t, 4, 2, 16)
	h, err := tier.Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	flaky[2].fail.Store(true)
	const blocks = 8
	for i := int64(0); i < blocks; i++ {
		if _, err := h.WriteAt(pattern(i*16, 16), i*16); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if st := tier.MemberState(2); st != StateEjected {
		t.Fatalf("member 2 state %v after sustained failures, want ejected", st)
	}
	mh := &tier.health.members[2]
	mh.mu.Lock()
	reopenAt := mh.reopenAt
	mh.mu.Unlock()
	if now := tier.health.tick.Load(); now >= reopenAt {
		t.Fatalf("clock %d already at member 2's reopenAt %d: the loop's last pass would have probed it", now, reopenAt)
	}
	// The loop's last pass: it takes the pending kick and, with member 2
	// still backing off, leaves every entry queued.
	<-tier.repair.kick
	pending := tier.Stats().PendingRepairs
	if !tier.repair.pass() || tier.Stats().PendingRepairs != pending || pending == 0 {
		t.Fatalf("pass before the heal: pending %d -> %d, want the same non-zero set", pending, tier.Stats().PendingRepairs)
	}

	flaky[2].fail.Store(false)
	buf := make([]byte, 16)
	for tier.health.tick.Load() < reopenAt {
		if _, err := h.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(tier.repair.kick) == 0 {
		t.Fatal("clock reached member 2's reopenAt with repairs pending and no kick queued for the repair loop")
	}

	startLoop()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := tier.Stats()
		if s.MemberStates[2] == StateHealthy && s.PendingRepairs == 0 {
			if s.Readmissions != 1 || s.Repairs != uint64(pending) {
				t.Fatalf("readmissions=%d repairs=%d, want 1 and %d", s.Readmissions, s.Repairs, pending)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("member 2 never re-admitted without traffic: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	data, _ := mems[2].Bytes("obj")
	for s := int64(1); s < blocks; s++ {
		if s%4 != 1 && s%4 != 2 {
			continue // member 2 replicates stripes whose chain is [1 2] or [2 3]
		}
		lo := s * 16
		if int64(len(data)) < lo+16 || !bytes.Equal(data[lo:lo+16], pattern(lo, 16)) {
			t.Fatalf("member 2 stripe %d not repaired", s)
		}
	}
}

// TestStripeAllReplicasPendingDrains covers the all-replicas-pending
// deadlock: a write that fails on every replica (brief outage) queues all
// of them for repair, leaving no fresh copy anywhere. Once the outage
// clears, the pending set must converge on one surviving copy and drain —
// read traffic alone must be enough to drive it — instead of the stripe
// staying EIO forever.
func TestStripeAllReplicasPendingDrains(t *testing.T) {
	tier, flaky, _ := newTestTier(t, 2, 2, 16)
	h, err := tier.Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(0, 16)
	if _, err := h.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	// Outage: the overwrite fails on both replicas; the client sees the
	// error, and both members are queued as stale.
	flaky[0].fail.Store(true)
	flaky[1].fail.Store(true)
	if _, err := h.WriteAt(bytes.Repeat([]byte{0xAA}, 16), 0); !errors.Is(err, core.EIO) {
		t.Fatalf("write during outage = %v, want EIO", err)
	}
	if tier.Stats().PendingRepairs != 2 {
		t.Fatalf("pending=%d after all-replica failure, want 2", tier.Stats().PendingRepairs)
	}
	flaky[0].fail.Store(false)
	flaky[1].fail.Store(false)
	// Only reads from here on: they must kick the repair loop until the
	// set drains and then serve the last acknowledged bytes.
	deadline := time.Now().Add(10 * time.Second)
	got := make([]byte, 16)
	for {
		n, err := h.ReadAt(got, 0)
		if err == nil && n == 16 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stripe never became readable again: n=%d err=%v stats=%+v", n, err, tier.Stats())
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-drain read = %x, want last acknowledged write %x", got, want)
	}
	for tier.Stats().PendingRepairs > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pending set did not drain: %+v", tier.Stats())
		}
		if _, err := h.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStripeSparseHoleRead covers hole stripes: with more members than
// replicas, a sparse object can have a stripe whose chain members never
// received the object while later stripes hold data. Reads must zero-fill
// the hole and continue — matching single-backend sparse semantics — not
// end early at the hole.
func TestStripeSparseHoleRead(t *testing.T) {
	tier, _, _ := newTestTier(t, 4, 2, 16)
	h, err := tier.Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	// Only stripe 2 is written: its chain is members [2,3], so members 0
	// and 1 (stripe 0's whole chain) never see the object.
	data := pattern(32, 16)
	if _, err := h.WriteAt(data, 32); err != nil {
		t.Fatal(err)
	}
	want := append(make([]byte, 32), data...)
	// A fresh read handle exercises the all-ENOENT path (members 0 and 1
	// hold no object at all).
	h2, err := tier.Open("obj", false)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 48)
	if n, err := h2.ReadAt(got, 0); err != nil || n != 48 {
		t.Fatalf("fresh handle ReadAt = %d, %v, want 48, nil", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fresh handle: hole not zero-filled")
	}
	// The writing handle exercises the short-read path (its lazy opens
	// create empty member objects).
	got = make([]byte, 48)
	if n, err := h.ReadAt(got, 0); err != nil || n != 48 {
		t.Fatalf("create handle ReadAt = %d, %v, want 48, nil", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("create handle: hole not zero-filled")
	}
	// Reads at and past the logical size still end short with nil error.
	if n, err := h2.ReadAt(make([]byte, 16), 48); err != nil || n != 0 {
		t.Fatalf("ReadAt past EOF = %d, %v, want 0, nil", n, err)
	}
	if n, err := h2.ReadAt(make([]byte, 32), 40); err != nil || n != 8 {
		t.Fatalf("ReadAt across EOF = %d, %v, want 8, nil", n, err)
	}
}

// TestStripeSyncUnreachable pins Sync's degraded answer: with data written
// through member handles but every member ejected, Sync must not
// acknowledge durability it never attempted.
func TestStripeSyncUnreachable(t *testing.T) {
	// The loop stays parked: its repair attempts would feed the health
	// tracker results the ejection count below does not expect.
	tier, flaky, _, _ := newParkedTestTier(t, 2, 2, 16)
	h, err := tier.Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(pattern(0, 16), 0); err != nil {
		t.Fatal(err)
	}
	// Eject both members (MaxConsecutiveErrs failing writes each).
	flaky[0].fail.Store(true)
	flaky[1].fail.Store(true)
	for i := 0; i < 3; i++ {
		if _, err := h.WriteAt(pattern(0, 16), 0); !errors.Is(err, core.EIO) {
			t.Fatalf("write %d during outage = %v, want EIO", i, err)
		}
	}
	if tier.MemberState(0) != StateEjected || tier.MemberState(1) != StateEjected {
		t.Fatalf("states %v/%v, want both ejected", tier.MemberState(0), tier.MemberState(1))
	}
	if err := h.Sync(); !errors.Is(err, core.EIO) {
		t.Fatalf("Sync with no member reachable = %v, want EIO", err)
	}
	// A handle that never wrote anything has nothing to make durable.
	h2, err := tier.Open("empty", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Sync(); err != nil {
		t.Fatalf("Sync of never-written handle = %v, want nil", err)
	}
}

// TestRepairVersioning pins the pending-entry version mechanics that close
// the repair/write TOCTOU: enqueue and touch bump the version of a queued
// entry, touch never creates one, and a repair only deletes an entry whose
// version it saw unchanged.
func TestRepairVersioning(t *testing.T) {
	// The loop stays parked: a pass between two steps would repair the
	// entry (its survivor holds no object, so there is nothing to copy) and
	// delete it under the test.
	tier, _, _, _ := newParkedTestTier(t, 2, 2, 16)
	r := tier.repair
	k := repairKey{"o", 0, 1}
	r.enqueue("o", 0, 1)
	v1, ok := r.version(k)
	if !ok || v1 == 0 {
		t.Fatalf("version after enqueue = %d, %v", v1, ok)
	}
	r.touch("o", 0, 1)
	v2, ok := r.version(k)
	if !ok || v2 <= v1 {
		t.Fatalf("touch did not bump version: %d -> %d", v1, v2)
	}
	r.enqueue("o", 0, 1)
	v3, ok := r.version(k)
	if !ok || v3 <= v2 {
		t.Fatalf("re-enqueue did not bump version: %d -> %d", v2, v3)
	}
	// touch on a key that is not queued must not create an entry.
	r.touch("o", 0, 0)
	if _, ok := r.version(repairKey{"o", 0, 0}); ok {
		t.Fatal("touch created a pending entry")
	}
}

// gatedMember parks WriteAt while armed: it announces the write on entered
// and waits for release.
type gatedMember struct {
	core.Backend
	armed            atomic.Bool
	entered, release chan struct{}
}

type gatedHandle struct {
	core.Handle
	m *gatedMember
}

func (g *gatedMember) Open(name string, create bool) (core.Handle, error) {
	h, err := g.Backend.Open(name, create)
	if err != nil {
		return nil, err
	}
	return gatedHandle{h, g}, nil
}

func (h gatedHandle) WriteAt(b []byte, off int64) (int, error) {
	if h.m.armed.Load() {
		h.m.entered <- struct{}{}
		<-h.m.release
	}
	return h.Handle.WriteAt(b, off)
}

// TestMissedReplicaQueuedAfterSurvivorWrite: a replica that misses a write
// is queued for repair only after the rest of its chain holds the piece. A
// repair run between the miss and the survivor's write would copy the
// survivor's old bytes, mark the missed replica clean, and leave it — the
// chain's primary — serving the old bytes.
func TestMissedReplicaQueuedAfterSurvivorWrite(t *testing.T) {
	primary := &flakyMember{inner: core.NewMemBackend()}
	survivor := &gatedMember{Backend: core.NewMemBackend(), entered: make(chan struct{}), release: make(chan struct{})}
	tier, err := New([]core.Backend{primary, survivor}, Config{StripeSize: 16, Replicas: 2, Health: testHealthCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	h, err := tier.Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(bytes.Repeat([]byte{1}, 16), 0); err != nil {
		t.Fatal(err)
	}

	primary.fail.Store(true)
	survivor.armed.Store(true)
	want := bytes.Repeat([]byte{2}, 16)
	wrote := make(chan error, 1)
	go func() {
		_, err := h.WriteAt(want, 0)
		wrote <- err
	}()
	<-survivor.entered // the primary has missed the write; the survivor has not taken it
	primary.fail.Store(false)
	survivor.armed.Store(false)
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline) && tier.Stats().Repairs == 0; {
		tier.repair.kickNow()
		time.Sleep(time.Millisecond)
	}
	close(survivor.release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	waitPendingDrained(t, tier)
	got := make([]byte, 16)
	if _, err := h.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read %v (err %v), want %v", got, err, want)
	}
}

func TestStripeSizeAndNegativeOffsets(t *testing.T) {
	tier, _, _ := newTestTier(t, 2, 2, 16)
	h, err := tier.Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte{1}, -1); !errors.Is(err, core.EINVAL) {
		t.Fatalf("WriteAt(-1) = %v, want EINVAL", err)
	}
	if _, err := h.ReadAt(make([]byte, 1), -1); !errors.Is(err, core.EINVAL) {
		t.Fatalf("ReadAt(-1) = %v, want EINVAL", err)
	}
	if sz, err := h.Size(); err != nil || sz != 0 {
		t.Fatalf("Size of empty = %d, %v", sz, err)
	}
}

func TestStripeTierConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New with no members succeeded")
	}
	tier, err := New([]core.Backend{core.NewMemBackend()}, Config{Replicas: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	if tier.cfg.Replicas != 1 {
		t.Fatalf("replicas %d, want capped to member count 1", tier.cfg.Replicas)
	}
	if tier.cfg.StripeSize != 64<<10 {
		t.Fatalf("default stripe size %d, want 64 KiB", tier.cfg.StripeSize)
	}
}

// TestEnqueueRepairDrainIntoRepair pins the drain-into-repair entry point:
// EnqueueRepair must queue every chain member of every stripe overlapping
// the failed record — after a botched WAL drain the replicas hold an
// unknown mix of old and new bytes, so all of them are stale until the
// repair loop converges them — and the pending set must then drain via the
// stale-replica fallback without losing the stripes' readable bytes.
func TestEnqueueRepairDrainIntoRepair(t *testing.T) {
	// The loop stays parked while the entries are counted: a pass between
	// two enqueues would repair the first from its still-fresh replica.
	tier, _, _, startLoop := newParkedTestTier(t, 4, 2, 16)
	h, err := tier.Open("obj", true)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(0, 48)
	if _, err := h.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	// Degenerate ranges queue nothing.
	if n := tier.EnqueueRepair("", 0, 16); n != 0 {
		t.Fatalf("EnqueueRepair with empty name queued %d entries", n)
	}
	if n := tier.EnqueueRepair("obj", -1, 16); n != 0 {
		t.Fatalf("EnqueueRepair with negative offset queued %d entries", n)
	}
	if n := tier.EnqueueRepair("obj", 0, 0); n != 0 {
		t.Fatalf("EnqueueRepair with zero length queued %d entries", n)
	}
	// [8, 40) overlaps stripes 0, 1, 2: each chain has 2 replicas.
	if n := tier.EnqueueRepair("obj", 8, 32); n != 6 {
		t.Fatalf("EnqueueRepair(8, 32) queued %d entries, want 6", n)
	}
	for s := int64(0); s < 3; s++ {
		for _, m := range replicaChain(s, 4, 2) {
			if !tier.repair.isPending("obj", s, m) {
				t.Fatalf("stripe %d member %d not pending after EnqueueRepair", s, m)
			}
		}
	}
	// Re-enqueueing the same range bumps versions instead of growing the set.
	if n := tier.EnqueueRepair("obj", 8, 32); n != 6 {
		t.Fatalf("second EnqueueRepair queued %d entries, want 6", n)
	}
	if p := tier.Stats().PendingRepairs; p != 6 {
		t.Fatalf("pending=%d after duplicate enqueue, want 6", p)
	}
	// Every chain member is pending, so repairs must converge through the
	// stale-replica fallback; read traffic drives the loop until it drains.
	startLoop()
	deadline := time.Now().Add(10 * time.Second)
	got := make([]byte, 48)
	for tier.Stats().PendingRepairs > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pending set did not drain: %+v", tier.Stats())
		}
		_, _ = h.ReadAt(got, 0)
	}
	if n, err := h.ReadAt(got, 0); err != nil || n != 48 {
		t.Fatalf("post-repair read = %d, %v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-repair bytes differ from the acknowledged write")
	}
}
