package wal

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// scanSegments CRC-scans every segment file in dir and returns the write
// records found, in file then log order.
func scanSegments(t *testing.T, dir string) (offs []int64, datas [][]byte) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Error(err)
			return nil, nil
		}
		sc := NewScanner(f)
		for {
			payload, err := sc.Next()
			if err != nil {
				break
			}
			_, off, data, derr := decodeRecord(payload)
			if derr != nil {
				t.Errorf("segment %s holds a mangled record: %v", p, derr)
				break
			}
			offs = append(offs, off)
			datas = append(datas, data)
		}
		f.Close()
	}
	return offs, datas
}

// TestSubmitPipelinesOneCaller: one goroutine submits N records without
// waiting for any ack. They land in submit order in one cohort with one
// fsync; each acked fires exactly once, and only once a CRC scan of the
// segment file already finds its record (acked ⇒ durable and readable).
func TestSubmitPipelinesOneCaller(t *testing.T) {
	const n, payloadLen = 8, 100
	dir := t.TempDir()
	be := newGateBackend() // holds the drain so the segment stays on disk
	lg, _, err := Open(Config{
		Dir: dir, Backend: be, Sync: SyncAlways,
		GroupLinger:   10 * time.Second, // commit must come from the byte-cap seal
		GroupMaxBytes: int64(n * frameLen("obj", payloadLen)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Phantom in-flight records: the cohort can never hold everything in
	// flight, so the committer lingers until the Nth submit seals it.
	lg.inflight.Add(n)
	var fired [n]atomic.Int32
	acks := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		err := lg.Submit("obj", int64(i*payloadLen), pattern(i, payloadLen), func(err error) {
			fired[i].Add(1)
			if err == nil {
				found := false
				offs, datas := scanSegments(t, dir)
				for j, off := range offs {
					if off == int64(i*payloadLen) && bytes.Equal(datas[j], pattern(i, payloadLen)) {
						found = true
					}
				}
				if !found {
					t.Errorf("record %d acked but a scan of the segment does not find it", i)
				}
			}
			acks <- err
		}, nil, nil)
		if err != nil {
			t.Fatalf("submit %d refused: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if err := <-acks; err != nil {
			t.Fatalf("ack: %v", err)
		}
	}
	st := lg.SnapshotStats()
	if st.Syncs != 1 || st.GroupBatches != 1 || lg.batchOps.Max() != n {
		t.Fatalf("%d unwaited submits from one caller: %d fsyncs, %d batches, largest %d; want 1, 1, %d",
			n, st.Syncs, st.GroupBatches, lg.batchOps.Max(), n)
	}
	offs, _ := scanSegments(t, dir)
	if len(offs) != n {
		t.Fatalf("segment holds %d records, want %d", len(offs), n)
	}
	for i, off := range offs {
		if off != int64(i*payloadLen) {
			t.Fatalf("log position %d holds the record submitted %dth: submit order is not log order", i, off/payloadLen)
		}
	}
	be.release()
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range fired {
		if got := fired[i].Load(); got != 1 {
			t.Fatalf("record %d acked %d times, want exactly once", i, got)
		}
	}
	got, _ := be.Bytes("obj")
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[i*payloadLen:(i+1)*payloadLen], pattern(i, payloadLen)) {
			t.Fatalf("record %d corrupted after drain", i)
		}
	}
}

// TestCloseResolvesEverySubmit: Close with submitted, uncommitted records
// (the committer is lingering on them) commits and acks each exactly once,
// drains them, and refuses later submits without touching their callbacks.
func TestCloseResolvesEverySubmit(t *testing.T) {
	const n, payloadLen = 5, 64
	be := core.NewMemBackend()
	lg, _, err := Open(Config{
		Dir: t.TempDir(), Backend: be, Sync: SyncAlways,
		GroupLinger: 10 * time.Second, // only Close's seal can end the linger
	})
	if err != nil {
		t.Fatal(err)
	}
	lg.inflight.Add(n)
	var acked, drained atomic.Int32
	for i := 0; i < n; i++ {
		err := lg.Submit("obj", int64(i*payloadLen), pattern(i, payloadLen),
			func(err error) {
				if err != nil {
					t.Errorf("ack: %v", err)
				}
				acked.Add(1)
			},
			func(error) { drained.Add(1) }, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if acked.Load() != n || drained.Load() != n {
		t.Fatalf("after Close: %d acked, %d drained, want %d each", acked.Load(), drained.Load(), n)
	}
	if got, _ := be.Bytes("obj"); len(got) != n*payloadLen {
		t.Fatalf("backend holds %d bytes, want %d", len(got), n*payloadLen)
	}
	err = lg.Submit("obj", 0, pattern(0, payloadLen), func(error) { t.Error("acked fired on a refused submit") }, nil, nil)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
}

// plugBackend is a MemBackend whose "plug" object blocks writes until
// released: one staged write to it pins a staging buffer for the test's
// duration while every other object drains freely.
type plugBackend struct {
	*core.MemBackend
	gate chan struct{}
}

func (p *plugBackend) Open(name string, create bool) (core.Handle, error) {
	h, err := p.MemBackend.Open(name, create)
	if err != nil || name != "plug" {
		return h, err
	}
	return &gateHandle{Handle: h, gate: p.gate}, nil
}

// framedConn reports every completed Write on a channel. Over a net.Pipe a
// Write returns only once the peer has read it all, and the client sends a
// 16 KiB request frame in one Write, so one report means the server's
// handler holds the whole request frame.
type framedConn struct {
	net.Conn
	wrote chan struct{}
}

func (c *framedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wrote <- struct{}{}
	return n, err
}

// TestPipelinedAcksOneConnection drives a real server + real log over a
// single connection. (1) The head-of-line regression: 8 writes in flight on
// one connection share group commits (batch mean > 2), which a handler
// parked on each record's fsync can never do. (2) Overlapping writes to one
// offset, sent in a known order with none awaited, read back
// last-writer-wins — through a ReadAt, a Sync and a Close each issued behind
// the unresolved acks.
func TestPipelinedAcksOneConnection(t *testing.T) {
	const (
		writers = 8
		record  = 16 << 10
		plugLen = 64 << 10
	)
	be := &plugBackend{MemBackend: core.NewMemBackend(), gate: make(chan struct{})}
	// Hold the first commit until the handler has submitted the whole burst:
	// that it can, with no ack out, is the property under test. At a parked
	// handler the wait times out and every batch is a singleton.
	var lg *Log
	var held atomic.Bool
	crash := func(point string) {
		if point != CrashBeforeBatchSync || !held.CompareAndSwap(false, true) {
			return
		}
		want := int64(writers * frameLen("data", record))
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
			if lg.SnapshotStats().LiveBytes >= want {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	var err error
	lg, _, err = Open(Config{Dir: t.TempDir(), Backend: be, Sync: SyncAlways, Crash: crash})
	if err != nil {
		t.Fatal(err)
	}
	// The pool admits the plug and a small read lease, never a record: every
	// data write misses admission (at once) and spills. One worker stays
	// parked on the plug; the other serves the reads.
	s := core.NewServer(core.Config{
		Mode: core.ModeAsync, Workers: 2,
		BMLBytes: plugLen + 8<<10, BMLTimeout: time.Nanosecond,
		Backend: be, Spill: lg,
	})
	cc, sc := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- s.ServeConn(sc) }()
	fc := &framedConn{Conn: cc, wrote: make(chan struct{}, 256)}
	c, err := core.ClientConfig{}.Client(fc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(be.gate)
		_ = c.Close()
		<-served
		_ = s.Close()
		_ = lg.Close()
	})
	ctx := context.Background()
	plug, err := c.Open(ctx, "plug")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plug.WriteAt(pattern(0, plugLen), 0); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open(ctx, "data")
	if err != nil {
		t.Fatal(err)
	}

	// (1) One burst of concurrent writes at disjoint offsets.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := f.WriteAt(pattern(w, record), int64(w*record)); err != nil {
				t.Errorf("burst write %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	if got := s.Stats().Spilled; got != writers {
		t.Fatalf("%d of %d burst writes spilled", got, writers)
	}
	batches, records := lg.batchOps.Count(), lg.batchOps.Sum()
	if mean := float64(records) / float64(batches); mean <= 2 {
		t.Fatalf("one connection with %d writes in flight committed %d records in %d batches (mean %.2f), want > 2",
			writers, records, batches, mean)
	}

	// (2) Overlapping writes: sendOrdered puts `writers` same-offset writes on
	// the wire one after another, each sent only once the handler holds the
	// previous frame, and waits for none of the replies.
	sendOrdered := func(off int64, gen int) *sync.WaitGroup {
		for len(fc.wrote) > 0 {
			<-fc.wrote
		}
		var sent sync.WaitGroup
		for w := 0; w < writers; w++ {
			sent.Add(1)
			go func(w int) {
				defer sent.Done()
				if _, err := f.WriteAt(pattern(gen+w, record), off); err != nil {
					t.Errorf("overlapping write %d: %v", w, err)
				}
			}(w)
			<-fc.wrote // the whole frame
		}
		return &sent
	}
	const off = int64(writers * record)
	head := make([]byte, 1<<10) // a lease small enough to be admitted beside the plug

	pending := sendOrdered(off, 100)
	if _, err := f.ReadAt(head, off); err != nil {
		t.Fatalf("read behind unresolved acks: %v", err)
	}
	if want := pattern(100+writers-1, record)[:len(head)]; !bytes.Equal(head, want) {
		t.Fatal("read behind unresolved acks did not observe the last writer")
	}
	pending.Wait()

	pending = sendOrdered(off, 200)
	if err := f.Sync(); err != nil {
		t.Fatalf("sync behind unresolved acks: %v", err)
	}
	if got, _ := be.Bytes("data"); !bytes.Equal(got[off:off+record], pattern(200+writers-1, record)) {
		t.Fatal("sync behind unresolved acks returned before the last writer was applied")
	}
	pending.Wait()

	pending = sendOrdered(off, 300)
	if err := f.Close(); err != nil {
		t.Fatalf("close behind unresolved acks: %v", err)
	}
	if got, _ := be.Bytes("data"); !bytes.Equal(got[off:off+record], pattern(300+writers-1, record)) {
		t.Fatal("close behind unresolved acks returned before the last writer was applied")
	}
	pending.Wait()
	if got := s.Stats().Spilled; got != 4*writers {
		t.Fatalf("spilled=%d, want every one of the %d writes", got, 4*writers)
	}
}
