package stripetier

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/fault"
)

// TestFailoverEndToEnd is the ISSUE's demo scenario over the full TCP
// stack: a forwarding server fronts a 4-member tier with 2 replicas while
// member 2 is scripted (via the seeded fault backend's op-index window) to
// fail 100% of its ops mid-run. The client must see zero errors, member 2
// must visibly eject and later re-admit, the repair counter must move, and
// every byte must read back intact.
func TestFailoverEndToEnd(t *testing.T) {
	const (
		stripeSize = 4096
		members    = 4
		blocks     = 64
	)
	backing := make([]*core.MemBackend, members)
	tierMembers := make([]core.Backend, members)
	for i := range tierMembers {
		backing[i] = core.NewMemBackend()
		if i == 2 {
			// Ops 10..39 on member 2 fail with EIO — a deterministic
			// outage window, no wall clock involved. The member's op
			// index freezes while it is ejected, so the probes that
			// eventually land past op 40 succeed and drive readmission.
			tierMembers[i] = fault.New(backing[i], fault.Config{
				Seed:    fault.DeriveSeed(7, i),
				ErrRate: 1,
				From:    10,
				Until:   40,
			})
		} else {
			tierMembers[i] = backing[i]
		}
	}
	tier, err := New(tierMembers, Config{
		StripeSize: stripeSize,
		Replicas:   2,
		Health:     testHealthCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	srv := core.NewServer(core.Config{Mode: core.ModeWorkQueue, Workers: 4, Backend: tier})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	cl, err := core.ClientConfig{}.Dial(context.Background(), "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f, err := cl.Open(context.Background(), "checkpoint/rank0000")
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: stream the checkpoint. Member 2 starts failing at its 10th
	// op; every client write must still succeed via the surviving replica.
	buf := make([]byte, stripeSize)
	for i := 0; i < blocks; i++ {
		off := int64(i) * stripeSize
		fill(buf, off)
		if n, err := f.WriteAt(buf, off); err != nil || n != stripeSize {
			t.Fatalf("write block %d: n=%d err=%v (client must never see the outage)", i, n, err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if st := tier.Stats(); st.Ejections == 0 || st.DegradedWrites == 0 {
		t.Fatalf("outage left no trace: ejections=%d degraded=%d", st.Ejections, st.DegradedWrites)
	}
	sawEjected := tier.MemberState(2) == StateEjected

	// Phase 2: read the checkpoint back, repeatedly. Reads fail over around
	// the ejected member and — being traffic — advance the logical clock
	// through the probe backoff; once member 2's fault window is exhausted
	// the probes succeed, it re-admits, and the repair loop restores the
	// stripes it missed.
	deadline := time.Now().Add(15 * time.Second)
	got := make([]byte, stripeSize)
	want := make([]byte, stripeSize)
	for {
		for i := 0; i < blocks; i++ {
			off := int64(i) * stripeSize
			if n, err := f.ReadAt(got, off); err != nil || n != stripeSize {
				t.Fatalf("read block %d: n=%d err=%v (client must never see the outage)", i, n, err)
			}
			fill(want, off)
			if !bytes.Equal(got, want) {
				t.Fatalf("read block %d: data mismatch", i)
			}
		}
		if tier.MemberState(2) == StateEjected {
			sawEjected = true
		}
		s := tier.Stats()
		if s.MemberStates[2] == StateHealthy && s.PendingRepairs == 0 && s.Repairs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("member 2 never recovered: %+v", s)
		}
	}
	if !sawEjected {
		t.Fatal("member 2 was never observed ejected")
	}
	s := tier.Stats()
	if s.Readmissions == 0 {
		t.Fatalf("no readmission recorded: %+v", s)
	}
	if s.ReadFailovers == 0 {
		t.Fatalf("no read failovers recorded: %+v", s)
	}

	// Member 2's backing store must hold the repaired bytes for every
	// stripe it replicates.
	data, ok := backing[2].Bytes("checkpoint/rank0000")
	if !ok {
		t.Fatal("member 2 holds no object after repair")
	}
	for st := int64(0); st < blocks; st++ {
		inChain := false
		for _, m := range replicaChain(st, members, 2) {
			if m == 2 {
				inChain = true
			}
		}
		if !inChain {
			continue
		}
		lo, hi := st*stripeSize, (st+1)*stripeSize
		if int64(len(data)) < hi {
			t.Fatalf("member 2 data ends at %d, stripe %d needs %d", len(data), st, hi)
		}
		fill(want, lo)
		if !bytes.Equal(data[lo:hi], want) {
			t.Fatalf("member 2 stripe %d stale after repair", st)
		}
	}
	s = tier.Stats()
	t.Logf("0 client errors, 0 mismatches over %d blocks; ejections=%d readmissions=%d read_failovers=%d degraded_writes=%d repairs=%d",
		blocks, s.Ejections, s.Readmissions, s.ReadFailovers, s.DegradedWrites, s.Repairs)
}

// fill writes the offset-dependent test pattern into buf.
func fill(buf []byte, off int64) {
	for i := range buf {
		buf[i] = byte(1 + (off+int64(i))%251)
	}
}
