package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func collectOps(w workload, seed int64, conn, lane, n int) []op {
	s := newOpStream(w, seed, conn, lane)
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := collectOps(w, 1, 1, 0, 500), collectOps(w, 1, 1, 0, 500)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: op %d differs between two streams of seed 1: %v vs %v", w.name, i, a[i], b[i])
			}
		}
		c := collectOps(w, 2, 1, 0, 500)
		same := true
		for i := range a {
			same = same && a[i] == c[i]
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 generate the same 500 ops", w.name)
		}
	}
}

// Verification keeps one generation per record without a lock, which is
// sound only if no record is ever written by two goroutines.
func TestEachRecordHasOneWriter(t *testing.T) {
	for _, w := range workloads {
		if w.slots()%int64(w.depth) != 0 {
			t.Fatalf("%s: %d records do not divide into %d lanes", w.name, w.slots(), w.depth)
		}
		owner := make(map[int64]int)
		for lane := 0; lane < w.depth; lane++ {
			for _, o := range collectOps(w, 1, 0, lane, int(2*w.slots())/w.depth) {
				if o.slot < 0 || o.slot >= w.slots() {
					t.Fatalf("%s: slot %d outside the ring of %d", w.name, o.slot, w.slots())
				}
				if prev, ok := owner[o.slot]; ok && prev != lane {
					t.Fatalf("%s: record %d written by lanes %d and %d", w.name, o.slot, prev, lane)
				}
				owner[o.slot] = lane
			}
		}
	}
}

func TestMixedWorkloadReadShare(t *testing.T) {
	w, _ := findWorkload("mixed_rw_64k")
	reads := 0
	ops := collectOps(w, 1, 0, 0, 20000)
	for _, o := range ops {
		if o.kind == opRead {
			reads++
		}
	}
	if got := float64(reads) / float64(len(ops)); math.Abs(got-0.7) > 0.02 {
		t.Errorf("read share %.3f, want 0.70 +- 0.02", got)
	}
}

func TestPayloadIsAFunctionOfSeedConnOffsetGeneration(t *testing.T) {
	p := newPattern(1, 0, 4096)
	if !bytes.Equal(p.payload(8192, 3), newPattern(1, 0, 4096).payload(8192, 3)) {
		t.Error("same (seed, conn, offset, generation) gave different payloads")
	}
	for name, other := range map[string][]byte{
		"generation": p.payload(8192, 4),
		"offset":     p.payload(12288, 3),
		"conn":       newPattern(1, 1, 4096).payload(8192, 3),
		"seed":       newPattern(2, 0, 4096).payload(8192, 3),
	} {
		if bytes.Equal(p.payload(8192, 3), other) {
			t.Errorf("payload does not depend on the %s", name)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {99, 0.90, false}, {100, 0.90, true}, {20, 0.50, true}, {19, 0.50, false},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestHistogramQuantilesWithinOnePercent(t *testing.T) {
	var a, b latHist
	for v := int64(1); v <= 100000; v++ {
		if v%2 == 0 {
			a.record(v * 10)
		} else {
			b.record(v * 10)
		}
	}
	a.merge(&b)
	if a.count != 100000 {
		t.Fatalf("count %d after merge, want 100000", a.count)
	}
	for q, want := range map[float64]float64{0.5: 500000, 0.99: 990000} {
		if got := a.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
	if got, want := a.mean(), 500005.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("mean %v, want %v", got, want)
	}
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1 << 20, 1<<40 + 12345, math.MaxUint64} {
		lo, hi := histBounds(histIndex(v))
		if v < lo || (v >= hi && hi > lo) {
			t.Errorf("value %d indexed into bucket [%d, %d)", v, lo, hi)
		}
	}
}

// Two canned /statz snapshots as fwdd serves them, reduced to the families
// the harness reads plus one it must ignore.
const statzBefore = `[
 {"name":"iofwd_requests_total","kind":"counter","series":[
   {"labels":{"op":"pwrite"},"value":100},{"labels":{"op":"pread"},"value":50},{"labels":{"op":"open"},"value":2}]},
 {"name":"iofwd_stage_latency_ns","kind":"histogram","series":[
   {"labels":{"stage":"recv"},"histogram":{"count":100,"sum":1000000,"max":1,"p50":1,"p90":1,"p99":1}},
   {"labels":{"stage":"queue"},"histogram":{"count":150,"sum":3000000,"max":1,"p50":1,"p90":1,"p99":1}},
   {"labels":{"stage":"backend"},"histogram":{"count":150,"sum":1500000,"max":1,"p50":1,"p90":1,"p99":1}},
   {"labels":{"stage":"reply"},"histogram":{"count":152,"sum":1520000,"max":1,"p50":1,"p90":1,"p99":1}},
   {"labels":{"stage":"spill"},"histogram":{"count":0,"sum":0,"max":0,"p50":0,"p90":0,"p99":0}}]},
 {"name":"iofwd_zero_copy_replies_total","kind":"counter","series":[{"value":50}]},
 {"name":"iofwd_bml_allocs_total","kind":"counter","series":[{"value":150}]},
 {"name":"iofwd_bml_fresh_total","kind":"counter","series":[{"value":10}]},
 {"name":"iofwd_bml_stalls_total","kind":"counter","series":[{"value":0}]},
 {"name":"iofwd_bml_stall_wait_ns","kind":"histogram","series":[{"histogram":{"count":0,"sum":0,"max":0,"p50":0,"p90":0,"p99":0}}]},
 {"name":"iofwd_bml_peak_bytes","kind":"gauge","series":[{"value":1048576}]},
 {"name":"iofwd_worker_batch_ops","kind":"histogram","series":[{"histogram":{"count":100,"sum":150,"max":4,"p50":1,"p90":2,"p99":4}}]},
 {"name":"iofwd_steals_total","kind":"counter","series":[{"value":5}]},
 {"name":"iofwd_queue_peak_depth","kind":"gauge","series":[{"value":7}]},
 {"name":"iofwd_bml_spilled_total","kind":"counter","series":[{"value":0}]},
 {"name":"iofwd_wal_syncs_total","kind":"counter","series":[{"value":0}]},
 {"name":"iofwd_wal_commit_batch_ops","kind":"histogram","series":[{"histogram":{"count":0,"sum":0,"max":0,"p50":0,"p90":0,"p99":0}}]},
 {"name":"iofwd_wal_compacted_bytes_total","kind":"counter","series":[{"value":0}]},
 {"name":"iofwd_active_connections","kind":"gauge","series":[{"value":2}]}
]`

const statzAfter = `[
 {"name":"iofwd_requests_total","kind":"counter","series":[
   {"labels":{"op":"pwrite"},"value":400},{"labels":{"op":"pread"},"value":750},{"labels":{"op":"open"},"value":2}]},
 {"name":"iofwd_stage_latency_ns","kind":"histogram","series":[
   {"labels":{"stage":"recv"},"histogram":{"count":400,"sum":7000000,"max":1,"p50":1,"p90":1,"p99":1}},
   {"labels":{"stage":"queue"},"histogram":{"count":1150,"sum":13000000,"max":1,"p50":1,"p90":1,"p99":1}},
   {"labels":{"stage":"backend"},"histogram":{"count":1150,"sum":6500000,"max":1,"p50":1,"p90":1,"p99":1}},
   {"labels":{"stage":"reply"},"histogram":{"count":1152,"sum":21520000,"max":1,"p50":1,"p90":1,"p99":1}},
   {"labels":{"stage":"spill"},"histogram":{"count":200,"sum":60000000,"max":1,"p50":1,"p90":1,"p99":1}}]},
 {"name":"iofwd_zero_copy_replies_total","kind":"counter","series":[{"value":750}]},
 {"name":"iofwd_bml_allocs_total","kind":"counter","series":[{"value":1150}]},
 {"name":"iofwd_bml_fresh_total","kind":"counter","series":[{"value":60}]},
 {"name":"iofwd_bml_stalls_total","kind":"counter","series":[{"value":100}]},
 {"name":"iofwd_bml_stall_wait_ns","kind":"histogram","series":[{"histogram":{"count":100,"sum":5000000,"max":1,"p50":1,"p90":1,"p99":1}}]},
 {"name":"iofwd_bml_peak_bytes","kind":"gauge","series":[{"value":3145728}]},
 {"name":"iofwd_worker_batch_ops","kind":"histogram","series":[{"histogram":{"count":600,"sum":1150,"max":4,"p50":1,"p90":2,"p99":4}}]},
 {"name":"iofwd_steals_total","kind":"counter","series":[{"value":25}]},
 {"name":"iofwd_queue_peak_depth","kind":"gauge","series":[{"value":9}]},
 {"name":"iofwd_bml_spilled_total","kind":"counter","series":[{"value":200}]},
 {"name":"iofwd_wal_syncs_total","kind":"counter","series":[{"value":80}]},
 {"name":"iofwd_wal_commit_batch_ops","kind":"histogram","series":[{"histogram":{"count":80,"sum":200,"max":4,"p50":1,"p90":2,"p99":4}}]},
 {"name":"iofwd_wal_compacted_bytes_total","kind":"counter","series":[{"value":409600}]},
 {"name":"iofwd_active_connections","kind":"gauge","series":[{"value":2}]}
]`

func cannedStatz(t *testing.T, doc string) statz {
	t.Helper()
	var fams []telemetry.FamilySnapshot
	if err := json.Unmarshal([]byte(doc), &fams); err != nil {
		t.Fatal(err)
	}
	return indexStatz(fams)
}

func TestStatzDeltaAgainstCannedSnapshots(t *testing.T) {
	d := statzDelta{before: cannedStatz(t, statzBefore), after: cannedStatz(t, statzAfter)}
	// The interval holds 300 writes and 700 reads: 1000 client ops of 4 KiB.
	proc0 := procSample{cpu: 1 * time.Second, syscalls: 1000}
	proc1 := procSample{cpu: 1*time.Second + 50*time.Millisecond, syscalls: 5000}
	got := serverLayerMetrics(d, proc0, proc1, 1000, 4096)
	want := map[string]float64{
		"stage_recv_us":             20,     // 6e6 ns / 300
		"stage_queue_us":            10,     // 10e6 / 1000
		"stage_backend_us":          5,      // 5e6 / 1000
		"stage_reply_us":            20,     // 20e6 / 1000
		"stage_spill_us":            300,    // 60e6 / 200
		"zero_copy_reply_frac":      0.7,    // 700 / 1000 requests (open count unchanged)
		"server_cpu_us_per_op":      50,     // 50 ms / 1000
		"server_syscalls_per_op":    4,      // 4000 / 1000
		"bml_fresh_frac":            0.05,   // 50 / 1000
		"bml_stall_frac":            0.1,    // 100 / 1000
		"bml_stall_wait_us_per_op":  5,      // 5e6 ns / 1000
		"bml_peak_mib":              3,      // gauge: later value
		"sched_batch_ops_mean":      2,      // 1000 / 500
		"sched_steals_per_kop":      20,     // 20 / 1000 * 1000
		"queue_peak_depth":          9,      // gauge: later value
		"spill_frac":                2. / 3, // 200 / 300 writes
		"wal_fsyncs_per_op":         0.08,
		"wal_commit_batch_ops_mean": 2.5,
		"wal_compacted_frac":        0.5, // 409600 / (200 * 4096)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || math.Abs(g-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("serverLayerMetrics produced %s, which this test does not pin", k)
		}
	}
	if got, want := serverStageSumUS(d, 1000), (6e6+10e6+5e6+20e6+60e6)/1000/1e3; math.Abs(got-want) > 1e-9 {
		t.Errorf("serverStageSumUS = %v, want %v", got, want)
	}

	unreadable := serverLayerMetrics(d, procSample{syscalls: -1}, procSample{syscalls: -1}, 1000, 4096)
	if unreadable["server_syscalls_per_op"] != -1 {
		t.Errorf("unreadable /proc/<pid>/io gave server_syscalls_per_op = %v, want -1", unreadable["server_syscalls_per_op"])
	}
}

func TestProcParsers(t *testing.T) {
	stat := "4242 (fw dd) x) S 1 4242 4242 0 -1 4194560 500 0 0 0 123 77 0 0 20 0 9 0 100 1000 200 18446744073709551615"
	cpu, err := parseProcStatCPU(stat)
	if err != nil || cpu != 2*time.Second {
		t.Errorf("parseProcStatCPU = %v, %v; want 2s (123+77 ticks)", cpu, err)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("parseProcStatCPU accepted a malformed line")
	}
	io := "rchar: 10\nwchar: 20\nsyscr: 300\nsyscw: 45\nread_bytes: 0\n"
	if got := parseProcIO(io); got != 345 {
		t.Errorf("parseProcIO = %d, want 345", got)
	}
	if got := parseProcIO("rchar: 10\n"); got != -1 {
		t.Errorf("parseProcIO without syscr/syscw = %d, want -1", got)
	}
}

func TestFilesystemUnderDir(t *testing.T) {
	mounts := "overlay / overlay rw 0 0\n/dev/vda /root ext4 rw 0 0\ntmpfs /root/tmpfs tmpfs rw 0 0\n"
	for dir, want := range map[string]string{
		"/root/repo/.bench_build": "ext4 on /root",
		"/root/tmpfs/x":           "tmpfs on /root/tmpfs",
		"/rootless":               "overlay on /",
	} {
		if got := fsUnder(mounts, dir); got != want {
			t.Errorf("fsUnder(%q) = %q, want %q", dir, got, want)
		}
	}
}

// BENCHMARK.json and the code must name the same workloads and metrics,
// with the same unit and direction, in both directions.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(sp.Workloads), len(workloads))
	}
	for i, sw := range sp.Workloads {
		if !name.MatchString(sw.Name) || len(sw.Why) > 200 || strings.Contains(sw.Why, "\n") {
			t.Errorf("workload %q: bad name or why", sw.Name)
		}
		if i < len(workloads) && (sw.Name != workloads[i].name || sw.Why != workloads[i].why) {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q", i, sw.Name, sw.Why, workloads[i].name, workloads[i].why)
		}
	}

	check := func(kind string, declared []specMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(declared), len(defs))
		}
		seen := make(map[string]bool)
		for i, m := range declared {
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q: bad or repeated name, or bad unit %q", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if i < len(defs) && (m.Name != defs[i].Name || m.Unit != defs[i].Unit || m.Better != defs[i].Better) {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, the code %s/%s/%s",
					kind, i, m.Name, m.Unit, m.Better, defs[i].Name, defs[i].Unit, defs[i].Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s metric %q: bound missing, unexpected, or outside (0, 0.25]", kind, m.Name)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd, true)
	check("per_layer", sp.PerLayer, perLayer, false)

	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", sp.RunSeconds)
	}
}

// emit is the runtime half of the same contract: it refuses a declared
// metric the code did not measure and a measured one nobody declared.
func TestEmitRejectsMissingAndUndeclaredMetrics(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "us"}, {Name: "b", Unit: "s"}}
	if got := emit(defs, map[string]float64{"a": 1, "b": 2}); got["b"] != (metricValue{Value: 2, Unit: "s"}) {
		t.Errorf("emit = %v", got)
	}
	for what, vals := range map[string]map[string]float64{
		"missing":    {"a": 1},
		"undeclared": {"a": 1, "b": 2, "c": 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("emit accepted a %s metric", what)
				}
			}()
			emit(defs, vals)
		}()
	}
}
