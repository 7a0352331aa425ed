package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/fault"
)

// blockOf returns the deterministic 4 KiB payload client c writes at index i.
func blockOf(c, i int) []byte {
	b := make([]byte, 4096)
	for j := range b {
		b[j] = byte(1 + (c*131+i*31+j)%255) // never zero, so absence is detectable
	}
	return b
}

// TestChaosEndToEnd drives the full client/server stack over TCP with a
// seeded fault backend (1% transient errors, 5% latency spikes) plus a
// mid-run connection drop per client, under -race. It asserts:
//
//   - no hangs: the whole run completes within the watchdog budget;
//   - no lost acks / corruption: every block in the backend is either the
//     exact written payload or untouched (all-zero) — a zero block must be
//     accounted for by an injected write fault;
//   - deferred errors surface via the write acks, Fsync, PollError or Close
//     exactly once each: a drained descriptor's PollError returns nil right
//     after the pending error is consumed;
//   - the client-side fault counters move (reconnects per client).
func TestChaosEndToEnd(t *testing.T) {
	const (
		nClients = 6
		nOps     = 60
		blk      = 4096
	)
	mem := core.NewMemBackend()
	fb := fault.New(mem, fault.Config{
		Seed:        42,
		ErrRate:     0.01,
		LatencyRate: 0.05,
		Latency:     500 * time.Microsecond,
	})
	srv := core.NewServer(core.Config{
		Mode: core.ModeAsync, Workers: 4,
		BMLTimeout: 2 * time.Second, Backend: fb,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	var deferredSeen, opErrs atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := core.ClientConfig{
				Timeout:   15 * time.Second,
				RetryBase: time.Millisecond, RetryMax: 20 * time.Millisecond,
				ReconnectAttempts: 8,
				Seed:              int64(c) + 1,
			}.Dial(context.Background(), "tcp", l.Addr().String())
			if err != nil {
				t.Errorf("client %d dial: %v", c, err)
				return
			}
			defer cl.Close()
			f, err := cl.Open(context.Background(), fmt.Sprintf("chaos/%d", c))
			if err != nil {
				t.Errorf("client %d open: %v", c, err)
				return
			}
			for i := 0; i < nOps; i++ {
				if i == nOps/2 {
					cl.DropConnection() // mid-run transport failure
				}
				_, err := f.WriteAt(blockOf(c, i), int64(i)*blk)
				var de *core.DeferredError
				switch {
				case err == nil:
				case errors.As(err, &de):
					deferredSeen.Add(1)
				case errors.Is(err, core.EIO):
					opErrs.Add(1)
				default:
					t.Errorf("client %d op %d: unexpected error %v", c, i, err)
				}
			}
			// Drain, then consume any pending deferred error — each must
			// surface exactly once: the poll after a reported error (with no
			// new ops in flight) must be clean.
			if err := f.Sync(); err != nil {
				var de *core.DeferredError
				if errors.As(err, &de) {
					deferredSeen.Add(1)
				} else {
					t.Errorf("client %d sync: %v", c, err)
				}
			}
			if err := f.PollError(); err != nil {
				var de *core.DeferredError
				if !errors.As(err, &de) {
					t.Errorf("client %d poll: non-deferred error %v", c, err)
				} else {
					deferredSeen.Add(1)
				}
				if err2 := f.PollError(); err2 != nil {
					t.Errorf("client %d: deferred error surfaced twice: %v then %v", c, err, err2)
				}
			}
			if err := f.Close(); err != nil {
				var de *core.DeferredError
				if errors.As(err, &de) {
					deferredSeen.Add(1)
				} else {
					t.Errorf("client %d close: %v", c, err)
				}
			}
			if cl.Stats().Reconnects == 0 {
				t.Errorf("client %d: drop absorbed without a reconnect", c)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("chaos run hung")
	}

	// Verify content: every block is either exactly the written payload or
	// untouched; untouched blocks require injected write faults to account
	// for them.
	var zeroBlocks int
	for c := 0; c < nClients; c++ {
		data, ok := mem.Bytes(fmt.Sprintf("chaos/%d", c))
		if !ok {
			t.Fatalf("client %d file missing", c)
		}
		for i := 0; i < nOps && (i+1)*blk <= len(data); i++ {
			got := data[i*blk : (i+1)*blk]
			want := blockOf(c, i)
			if bytes.Equal(got, want) {
				continue
			}
			if bytes.Equal(got, make([]byte, blk)) {
				zeroBlocks++
				continue
			}
			t.Fatalf("client %d block %d corrupted (neither payload nor zero)", c, i)
		}
	}
	st := fb.Stats()
	if uint64(zeroBlocks) > st.Errors {
		t.Fatalf("%d blocks lost but only %d write faults injected (lost acks)", zeroBlocks, st.Errors)
	}
	if st.Errors > 0 && deferredSeen.Load()+opErrs.Load() == 0 {
		t.Errorf("%d faults injected but none surfaced to clients", st.Errors)
	}
	t.Logf("chaos: %d ops, %d injected errors, %d latency spikes; clients saw %d deferred + %d direct errors, %d zero blocks",
		st.Ops, st.Errors, st.Latencies, deferredSeen.Load(), opErrs.Load(), zeroBlocks)
}

// TestChaosServerShutdownUnderTraffic closes the server while clients are
// mid-flight: no panic, and every client unblocks with a clean error (or
// success) promptly.
func TestChaosServerShutdownUnderTraffic(t *testing.T) {
	srv := core.NewServer(core.Config{Mode: core.ModeAsync, Workers: 2})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := core.ClientConfig{Timeout: 10 * time.Second}.Dial(context.Background(), "tcp", l.Addr().String())
			if err != nil {
				return // raced the listener teardown
			}
			defer cl.Close()
			f, err := cl.Open(context.Background(), fmt.Sprintf("shutdown/%d", c))
			if err != nil {
				return
			}
			buf := make([]byte, 8192)
			for i := 0; i < 200; i++ {
				if _, err := f.WriteAt(buf, int64(i)*8192); err != nil {
					// ECLOSED (queue closed) or a transport error are both
					// clean outcomes; anything else is not.
					if !errors.Is(err, core.ECLOSED) && !errors.Is(err, core.ErrConnectionLost) &&
						!errors.Is(err, core.ErrClientClosed) && !errors.Is(err, core.ErrOpTimeout) {
						t.Errorf("client %d: unclean shutdown error %v", c, err)
					}
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("clients hung across server shutdown")
	}
}
