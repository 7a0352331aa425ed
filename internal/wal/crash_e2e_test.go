package wal

// End-to-end crash/recovery drills: run fwdd as a real process, SIGKILL it
// at deterministic WAL crash points mid-burst (internal/core/fault.CrashSet),
// restart it on the same -wal-dir, and verify every acknowledged spilled
// write is byte-exact on the backend.
//
// The burst is forced down the spill path deterministically: the BML is one
// buffer class wide of exactly 16 slots (-bml 1 MiB, 64 KiB writes), a
// "plug" file fills all 16 slots, and a fault-injected backend latency keeps
// the single worker stuck so no slot frees until long after the burst — so
// every "data" write finds the pool full and spills to the WAL at once. Under -wal-sync always an acknowledged spill is fsynced, so
// the acked set is exactly what recovery must reproduce.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
)

const (
	e2ePayload = 64 << 10 // one BML class exactly
	e2ePlugs   = 16       // fills the 1 MiB pool
)

var (
	fwddOnce sync.Once
	fwddBin  string
	fwddErr  error
)

// buildFwdd compiles cmd/fwdd once per test process.
func buildFwdd(t *testing.T) string {
	t.Helper()
	fwddOnce.Do(func() {
		dir, err := os.MkdirTemp("", "fwdd-e2e-")
		if err != nil {
			fwddErr = err
			return
		}
		fwddBin = filepath.Join(dir, "fwdd")
		root, err := filepath.Abs("../..")
		if err != nil {
			fwddErr = err
			return
		}
		cmd := exec.Command("go", "build", "-o", fwddBin, "repro/cmd/fwdd")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			fwddErr = fmt.Errorf("building fwdd: %v\n%s", err, out)
		}
	})
	if fwddErr != nil {
		t.Fatal(fwddErr)
	}
	return fwddBin
}

// e2eClient is how every drill connection is configured.
var e2eClient = core.ClientConfig{Timeout: 5 * time.Second}

var listenRe = regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)`)

// daemon is one fwdd incarnation with captured stderr.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	exit chan error

	mu  sync.Mutex
	log bytes.Buffer
}

func (d *daemon) stderr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// startFwdd launches fwdd and waits for its listen line.
func startFwdd(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{
		cmd:  exec.Command(buildFwdd(t), args...),
		exit: make(chan error, 1),
	}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.cmd.Process.Kill() })
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line)
			d.log.WriteByte('\n')
			d.mu.Unlock()
			if !sent {
				if m := listenRe.FindStringSubmatch(line); m != nil {
					addrc <- m[1]
					sent = true
				}
			}
		}
		d.exit <- d.cmd.Wait()
	}()
	select {
	case d.addr = <-addrc:
	case err := <-d.exit:
		t.Fatalf("fwdd exited before listening: %v\nstderr:\n%s", err, d.stderr())
	case <-time.After(20 * time.Second):
		t.Fatalf("fwdd never reported a listen address\nstderr:\n%s", d.stderr())
	}
	return d
}

// waitExit blocks until the daemon exits and returns the wait error.
func (d *daemon) waitExit(t *testing.T, timeout time.Duration) error {
	t.Helper()
	select {
	case err := <-d.exit:
		return err
	case <-time.After(timeout):
		t.Fatalf("fwdd did not exit in %v\nstderr:\n%s", timeout, d.stderr())
		return nil
	}
}

// sigkilled reports whether the exited daemon died from SIGKILL (self-kill
// at a crash point) rather than a clean exit.
func sigkilled(d *daemon) bool {
	ps := d.cmd.ProcessState
	if ps == nil {
		return false
	}
	if ws, ok := ps.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL {
		return true
	}
	return ps.ExitCode() == 137 // the os.Exit fallback in fault.CrashSet
}

// crashArgs builds the shared fwdd argument list for one incarnation.
func crashArgs(root, walDir, sync string, segBytes int64, plugLat time.Duration, crash string) []string {
	args := []string{
		"-listen", "127.0.0.1:0",
		"-mode", "async",
		"-workers", "1",
		"-bml", "1",
		"-bml-timeout", "5ms",
		"-backend", "file",
		"-root", root,
		"-wal-dir", walDir,
		"-wal-sync", sync,
		"-wal-segment", fmt.Sprint(segBytes),
	}
	if plugLat > 0 {
		args = append(args, "-fault", fmt.Sprintf("lat=1:%s,seed=1", plugLat))
	}
	if crash != "" {
		args = append(args, "-crash", crash)
	}
	return args
}

// runBurst plugs the BML, then writes nData patterned 64 KiB records to
// "data" until the daemon dies, returning which records were acknowledged.
func runBurst(t *testing.T, addr string, nData int) []bool {
	t.Helper()
	c, err := e2eClient.Dial(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	plug, err := c.Open(context.Background(), "plug")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e2ePlugs; i++ {
		if _, err := plug.WriteAt(pattern(i, e2ePayload), int64(i*e2ePayload)); err != nil {
			t.Fatalf("plug write %d: %v", i, err)
		}
	}
	data, err := c.Open(context.Background(), "data")
	if err != nil {
		t.Fatal(err)
	}
	acked := make([]bool, nData)
	for i := 0; i < nData; i++ {
		if _, err := data.WriteAt(pattern(100+i, e2ePayload), int64(i*e2ePayload)); err != nil {
			break // the daemon died under us; everything before i is acked
		}
		acked[i] = true
	}
	return acked
}

// runBurstConcurrent plugs the BML, then lets `workers` goroutines write
// disjoint regions of "data" until the daemon dies — one connection each,
// or, with shared, all through one connection, where only pipelined acks
// let their records share a cohort. Each worker's WriteAt return is its
// ack, recorded per record.
func runBurstConcurrent(t *testing.T, addr string, workers, perWorker int, shared bool) []bool {
	t.Helper()
	c, err := e2eClient.Dial(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	plug, err := c.Open(context.Background(), "plug")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e2ePlugs; i++ {
		if _, err := plug.WriteAt(pattern(i, e2ePayload), int64(i*e2ePayload)); err != nil {
			t.Fatalf("plug write %d: %v", i, err)
		}
	}
	acked := make([]bool, workers*perWorker)
	var sharedConn *core.Client
	if shared {
		if sharedConn, err = e2eClient.Dial(context.Background(), "tcp", addr); err != nil {
			t.Fatal(err)
		}
		defer sharedConn.Close()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := sharedConn
			if wc == nil {
				var err error
				if wc, err = e2eClient.Dial(context.Background(), "tcp", addr); err != nil {
					return // the daemon died before this worker connected
				}
				defer wc.Close()
			}
			f, err := wc.Open(context.Background(), "data")
			if err != nil {
				return
			}
			for i := 0; i < perWorker; i++ {
				idx := w*perWorker + i
				if _, err := f.WriteAt(pattern(100+idx, e2ePayload), int64(idx*e2ePayload)); err != nil {
					return // death under us; this worker's later records are unacked
				}
				acked[idx] = true
			}
		}(w)
	}
	wg.Wait()
	return acked
}

// verifyRecovered reads every acknowledged record back from a restarted
// daemon and checks it byte for byte.
func verifyRecovered(t *testing.T, addr string, acked []bool) int {
	t.Helper()
	c, err := e2eClient.Dial(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open(context.Background(), "data")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("fsync after restart: %v", err)
	}
	buf := make([]byte, e2ePayload)
	verified := 0
	for i, ok := range acked {
		if !ok {
			continue
		}
		if _, err := f.ReadAt(buf, int64(i*e2ePayload)); err != nil {
			t.Fatalf("record %d: acknowledged before the crash but unreadable after recovery: %v", i, err)
		}
		if !bytes.Equal(buf, pattern(100+i, e2ePayload)) {
			t.Fatalf("record %d: acknowledged bytes differ after recovery", i)
		}
		verified++
	}
	return verified
}

// TestCrashRecoveryE2E is the acceptance drill: SIGKILL fwdd mid-burst at
// each injected crash point, restart on the same -wal-dir, and require
// byte-exact recovery of every acknowledged write.
func TestCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-level crash drills in -short mode")
	}
	cases := []struct {
		name     string
		crash    string
		sync     string // -wal-sync; "" means always
		segBytes int64
		plugLat  time.Duration
		nData    int
		// concurrent drives the burst with 8 writers so spilled records
		// actually share cohorts — one connection each, or with oneConn all 8
		// on a single connection, so acked ⇒ durable is proven for pipelined
		// acks. Otherwise one sequential writer: every cohort is a singleton.
		concurrent bool
		oneConn    bool
		// wantUnacked requires the crash to interrupt the burst itself
		// (commit-side points); drain-side points fire after the burst.
		wantUnacked bool
		wantTorn    bool
	}{
		// One writer, killed one byte short of finishing the 8th record's
		// write: the tail is torn, records 1..7 were acknowledged and must
		// survive.
		{name: "mid-batch-append-sequential", crash: "mid-batch-append:8", segBytes: 8 << 20,
			plugLat: 3 * time.Second, nData: 24, wantUnacked: true, wantTorn: true},
		// Killed after the 8th record was synced but before its reply: the
		// acked prefix plus one unacked record recover.
		{name: "after-batch-sync-before-ack-sequential", crash: "after-batch-sync-before-ack:8", segBytes: 8 << 20,
			plugLat: 3 * time.Second, nData: 24, wantUnacked: true},
		// One record per segment; killed when the drainer finished the first
		// segment but before removing it — replay must be idempotent.
		{name: "before-truncate", crash: "before-truncate:1", segBytes: 4 << 10,
			plugLat: 1200 * time.Millisecond, nData: 12},
		// Killed right after the first segment was removed: its record must
		// already be fsynced on the backend (the drainer's durability rule).
		{name: "after-truncate", crash: "after-truncate:1", segBytes: 4 << 10,
			plugLat: 1200 * time.Millisecond, nData: 12},
		// 8 concurrent writers, shared cohorts, killed in the 9th batch. Each
		// writer has one record in flight, so a batch holds at most 8: 72
		// records make at least 9 batches, and batches 1..8 cannot all hold
		// first records only, so some writer's record was acknowledged
		// before batch 9 — every run has acked burst records to verify.
		// Killed one byte short of finishing batch 9's write: the cohort is
		// torn on disk and none of its members were acknowledged, so
		// recovery discards the tear and every acked record still reads
		// back.
		{name: "mid-batch-append", crash: "mid-batch-append:9", segBytes: 8 << 20,
			plugLat: 3 * time.Second, nData: 72, concurrent: true,
			wantUnacked: true, wantTorn: true},
		// Killed after batch 9 reached the file but before its fsync:
		// earlier (acked) cohorts must survive; batch 9 was never acked and
		// may or may not replay.
		{name: "before-batch-sync", crash: "before-batch-sync:9", segBytes: 8 << 20,
			plugLat: 3 * time.Second, nData: 72, concurrent: true,
			wantUnacked: true},
		// Killed after batch 9's fsync but before any member's ack:
		// the whole cohort is durable yet unacknowledged — all-or-nothing at
		// the ack level means recovery may replay all of it, never half.
		{name: "after-batch-sync-before-ack", crash: "after-batch-sync-before-ack:9", segBytes: 8 << 20,
			plugLat: 3 * time.Second, nData: 72, concurrent: true,
			wantUnacked: true},
		// The same three batch-level points with the 8 writers sharing one
		// connection: their records meet in a cohort only because the
		// handler submits without waiting, and every reply the client saw
		// was written after its cohort's fsync.
		{name: "mid-batch-append-one-conn", crash: "mid-batch-append:9", segBytes: 8 << 20,
			plugLat: 3 * time.Second, nData: 72, concurrent: true, oneConn: true,
			wantUnacked: true, wantTorn: true},
		{name: "before-batch-sync-one-conn", crash: "before-batch-sync:9", segBytes: 8 << 20,
			plugLat: 3 * time.Second, nData: 72, concurrent: true, oneConn: true,
			wantUnacked: true},
		{name: "after-batch-sync-before-ack-one-conn", crash: "after-batch-sync-before-ack:9", segBytes: 8 << 20,
			plugLat: 3 * time.Second, nData: 72, concurrent: true, oneConn: true,
			wantUnacked: true},
		// fwdd's default policy commits through the same path: most commits
		// skip the fsync, the torn cohort is still unacknowledged, and a
		// process kill (the page cache survives it) loses no acked record.
		{name: "mid-batch-append-interval", crash: "mid-batch-append:9", sync: SyncInterval, segBytes: 8 << 20,
			plugLat: 3 * time.Second, nData: 72, concurrent: true,
			wantUnacked: true, wantTorn: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			root, walDir := t.TempDir(), t.TempDir()
			if tc.sync == "" {
				tc.sync = SyncAlways
			}

			// Incarnation 1: crash point armed, backend latency holding the
			// plug in place.
			d1 := startFwdd(t, crashArgs(root, walDir, tc.sync, tc.segBytes, tc.plugLat, tc.crash)...)
			var acked []bool
			if tc.concurrent {
				acked = runBurstConcurrent(t, d1.addr, 8, tc.nData/8, tc.oneConn)
			} else {
				acked = runBurst(t, d1.addr, tc.nData)
			}
			if err := d1.waitExit(t, 30*time.Second); err == nil {
				t.Fatalf("fwdd exited cleanly; want death at crash point %s", tc.crash)
			}
			if !sigkilled(d1) {
				t.Fatalf("fwdd died but not by SIGKILL: %v\nstderr:\n%s",
					d1.cmd.ProcessState, d1.stderr())
			}
			nAcked := 0
			for _, ok := range acked {
				if ok {
					nAcked++
				}
			}
			if nAcked == 0 {
				t.Fatalf("no data writes acknowledged before the crash\nstderr:\n%s", d1.stderr())
			}
			if tc.wantUnacked && nAcked == tc.nData {
				t.Fatalf("crash %s did not interrupt the burst (%d/%d acked)",
					tc.crash, nAcked, tc.nData)
			}

			// Incarnation 2: same backend root and WAL dir, no crash points,
			// no chaos — recovery replays survivors before listening.
			d2 := startFwdd(t, crashArgs(root, walDir, tc.sync, tc.segBytes, 0, "")...)
			verified := verifyRecovered(t, d2.addr, acked)
			t.Logf("%s: %d/%d acked records byte-exact after kill+restart", tc.name, verified, tc.nData)
			if tc.wantTorn && !regexp.MustCompile(`\b[1-9]\d* torn tails discarded`).MatchString(d2.stderr()) {
				t.Fatalf("recovery log reports no torn tail after %s\nstderr:\n%s", tc.crash, d2.stderr())
			}
			_ = d2.cmd.Process.Signal(syscall.SIGTERM)
			if err := d2.waitExit(t, 30*time.Second); err != nil {
				t.Fatalf("restarted fwdd did not shut down cleanly: %v\nstderr:\n%s", err, d2.stderr())
			}
		})
	}
}

// TestFwddRejectsBadFlags: flag combinations that would arm a WAL feature
// which can never act must be refused with exit status 2 before anything
// touches the WAL directory. A -crash spec naming a point the WAL never
// fires — a typo, or a point a later change retired — would arm a drill
// that cannot kill and reads as a pass; the refusal names the points that
// exist. A spill tier under a mode that acks no write early would be
// opened and replayed, then ignored by the server.
func TestFwddRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-level drills in -short mode")
	}
	for _, tc := range []struct {
		args []string
		want []string // each must appear in the output
	}{
		{[]string{"-crash", "no-such-point"}, CrashPoints},
		{[]string{"-crash", "before-batch-snyc:3"}, CrashPoints},
		{[]string{"-crash", "before-truncate:1,after-trunctae:1"}, CrashPoints},
		{[]string{"-mode", "direct"}, []string{"-mode async"}},
		{[]string{"-mode", "workqueue"}, []string{"-mode async"}},
	} {
		walDir := filepath.Join(t.TempDir(), "wal")
		args := append([]string{"-listen", "127.0.0.1:0", "-wal-dir", walDir}, tc.args...)
		// A daemon that accepts the flags serves until the deadline kills it.
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		out, err := exec.CommandContext(ctx, buildFwdd(t), args...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("fwdd %v: %v, want exit status 2\noutput:\n%s", tc.args, err, out)
		}
		for _, w := range tc.want {
			if !bytes.Contains(out, []byte(w)) {
				t.Fatalf("fwdd %v: rejection does not mention %q\noutput:\n%s", tc.args, w, out)
			}
		}
		if _, err := os.Stat(walDir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("fwdd %v: WAL directory touched before the refusal (stat: %v)", tc.args, err)
		}
	}
}
