package core

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// startMetricsServer runs a server on a TCP loopback and returns it with a
// connected client.
func startMetricsServer(t *testing.T, mode Mode) (*Server, *Client) {
	t.Helper()
	srv := NewServer(Config{Mode: mode, Workers: 2, BMLBytes: 64 << 20})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	cl, err := ClientConfig{}.Dial(context.Background(), "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return srv, cl
}

// findOpCounter extracts one labeled series value from a registry snapshot.
func findOpCounter(t *testing.T, snaps []telemetry.FamilySnapshot, family, label, value string) int64 {
	t.Helper()
	f := telemetry.Find(snaps, family)
	if f == nil {
		t.Fatalf("family %s not in snapshot", family)
	}
	for _, s := range f.Series {
		if s.Labels[label] == value && s.Value != nil {
			return *s.Value
		}
	}
	t.Fatalf("series %s{%s=%q} not in snapshot", family, label, value)
	return 0
}

// TestMetricsMatchWorkload runs a known mixed workload and checks that the
// registry's counters agree with it exactly — the /metrics numbers must be
// trustworthy before anyone tunes from them.
func TestMetricsMatchWorkload(t *testing.T) {
	const (
		files     = 3
		writesPer = 5
		readsPer  = 2
		msg       = 8 << 10
	)
	srv, cl := startMetricsServer(t, ModeAsync)

	var wg sync.WaitGroup
	for i := 0; i < files; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := cl.Open(context.Background(), fmt.Sprintf("m/%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, msg)
			for w := 0; w < writesPer; w++ {
				if _, err := f.Write(buf); err != nil {
					t.Error(err)
					return
				}
			}
			if err := f.Sync(); err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < readsPer; r++ {
				if _, err := f.ReadAt(buf, 0); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := f.Stat(); err != nil {
				t.Error(err)
				return
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	snaps := srv.Metrics().Snapshot()
	for _, tc := range []struct {
		op   string
		want int64
	}{
		{"open", files},
		{"write", files * writesPer},
		{"pread", files * readsPer},
		{"fsync", files},
		{"stat", files},
		{"close", files},
	} {
		if got := findOpCounter(t, snaps, "iofwd_requests_total", "op", tc.op); got != tc.want {
			t.Errorf("iofwd_requests_total{op=%q} = %d, want %d", tc.op, got, tc.want)
		}
	}

	st := srv.Stats()
	if want := uint64(files * writesPer * msg); st.BytesWritten != want {
		t.Errorf("BytesWritten = %d, want %d", st.BytesWritten, want)
	}
	if want := uint64(files * readsPer * msg); st.BytesRead != want {
		t.Errorf("BytesRead = %d, want %d", st.BytesRead, want)
	}
	if want := uint64(files * writesPer); st.StagedWrites != want {
		t.Errorf("StagedWrites = %d, want %d", st.StagedWrites, want)
	}
	if st.Conns != 1 {
		t.Errorf("Conns = %d, want 1", st.Conns)
	}

	// ServerStats and the registry must agree (one source of truth).
	var ops int64
	if f := telemetry.Find(snaps, "iofwd_requests_total"); f != nil {
		for _, s := range f.Series {
			if s.Value != nil {
				ops += *s.Value
			}
		}
	}
	if uint64(ops) != st.Ops {
		t.Errorf("registry ops %d != Stats().Ops %d", ops, st.Ops)
	}

	// Gauges must have returned to idle after the workload drained.
	if got := findOpCounter(t, snaps, "iofwd_inflight_staged_ops", "", ""); got != 0 {
		t.Errorf("inflight staged ops = %d after drain, want 0", got)
	}
	if got := findOpCounter(t, snaps, "iofwd_open_descriptors", "", ""); got != 0 {
		t.Errorf("open descriptors = %d after close, want 0", got)
	}
}

// TestMetricsStageHistograms checks the per-stage histograms observe the
// right number of events on the paper's stage boundaries.
func TestMetricsStageHistograms(t *testing.T) {
	const writes = 6
	srv, cl := startMetricsServer(t, ModeAsync)
	f, err := cl.Open(context.Background(), "stages")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4<<10)
	for i := 0; i < writes; i++ {
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// The close reply reaches the client just before the server observes
	// its reply stage.
	waitFor(t, 5*time.Second, "the close reply's stage observation", func() bool {
		return srv.metrics.stageReply.Count() >= writes+3
	})

	snaps := srv.Metrics().Snapshot()
	hf := telemetry.Find(snaps, "iofwd_stage_latency_ns")
	if hf == nil {
		t.Fatal("stage latency family missing")
	}
	got := map[string]uint64{}
	for _, s := range hf.Series {
		if s.Histogram != nil {
			got[s.Labels["stage"]] = s.Histogram.Count
		}
	}
	// Every staged write passes recv and backend exactly once, and the queue
	// once unless the handler ran it inline. The first write always queues:
	// its descriptor has no backend history yet.
	for _, stage := range []string{"recv", "backend"} {
		if got[stage] != writes {
			t.Errorf("stage %q count = %d, want %d", stage, got[stage], writes)
		}
	}
	if got["queue"] < 1 || got["queue"] > writes {
		t.Errorf("stage \"queue\" count = %d, want 1..%d", got["queue"], writes)
	}
	// One reply per request: open + writes + fsync + close.
	if want := uint64(writes + 3); got["reply"] != want {
		t.Errorf("stage \"reply\" count = %d, want %d", got["reply"], want)
	}

	// Request latency histogram counts must match the op counters.
	lf := telemetry.Find(snaps, "iofwd_request_latency_ns")
	for _, s := range lf.Series {
		if s.Labels["op"] == "write" && s.Histogram.Count != writes {
			t.Errorf("write latency count = %d, want %d", s.Histogram.Count, writes)
		}
	}
}

// TestMetricsPrometheusEndToEnd asserts the wire format a scraper sees
// carries the series the acceptance criteria name.
func TestMetricsPrometheusEndToEnd(t *testing.T) {
	srv, cl := startMetricsServer(t, ModeWorkQueue)
	f, err := cl.Open(context.Background(), "prom")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 1<<10)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`iofwd_requests_total{op="write"} 1`,
		`iofwd_requests_total{op="open"} 1`,
		`iofwd_request_latency_ns_count{op="write"} 1`,
		`iofwd_request_bytes_sum{op="write"} 1024`,
		"# TYPE iofwd_queue_depth gauge",
		"# TYPE iofwd_bml_used_bytes gauge",
		"iofwd_bml_capacity_bytes",
		"# TYPE iofwd_stage_latency_ns histogram",
		`iofwd_worker_batch_ops_count`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}
}
