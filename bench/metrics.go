package main

// metricDef names one metric the harness emits. The same names, units and
// directions are declared in BENCHMARK.json (bench_test.go pins the two
// against each other); the regression bounds live only there.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Layer  string // per-layer metrics: the module measured
}

// endToEnd are the metrics a client of the forwarder sees, measured in the
// untraced timed window. The failure share is the fifth end-to-end number:
// it is expected to be exactly 0, so it travels as the result's
// attempted/failed counts instead of as a bounded metric.
var endToEnd = []metricDef{
	{Name: "goodput_mib_s", Unit: "MiB/s", Better: "higher"},
	{Name: "op_p50_us", Unit: "us", Better: "lower"},
	{Name: "op_p99_us", Unit: "us", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayer are the traced-pass metrics, one block per module of the
// forwarding path. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	// core conn recv/reply + codec (server.go, protocol.go)
	{Name: "stage_recv_us", Unit: "us", Better: "lower", Layer: "conn"},
	{Name: "stage_reply_us", Unit: "us", Better: "lower", Layer: "conn"},
	{Name: "server_syscalls_per_op", Unit: "count", Better: "lower", Layer: "conn"},
	{Name: "server_cpu_us_per_op", Unit: "us", Better: "lower", Layer: "conn"},
	{Name: "zero_copy_reply_frac", Unit: "ratio", Better: "higher", Layer: "conn"},
	// core BML (bml.go)
	{Name: "bml_fresh_frac", Unit: "ratio", Better: "lower", Layer: "bml"},
	{Name: "bml_stall_frac", Unit: "ratio", Better: "lower", Layer: "bml"},
	{Name: "bml_stall_wait_us_per_op", Unit: "us", Better: "lower", Layer: "bml"},
	{Name: "bml_peak_mib", Unit: "MiB", Better: "lower", Layer: "bml"},
	// core scheduler (sched.go)
	{Name: "stage_queue_us", Unit: "us", Better: "lower", Layer: "sched"},
	{Name: "sched_batch_ops_mean", Unit: "count", Better: "higher", Layer: "sched"},
	{Name: "sched_steals_per_kop", Unit: "count", Better: "lower", Layer: "sched"},
	{Name: "queue_peak_depth", Unit: "count", Better: "lower", Layer: "sched"},
	// core backend (backend.go)
	{Name: "stage_backend_us", Unit: "us", Better: "lower", Layer: "backend"},
	// wal
	{Name: "spill_frac", Unit: "ratio", Better: "lower", Layer: "wal"},
	{Name: "stage_spill_us", Unit: "us", Better: "lower", Layer: "wal"},
	{Name: "wal_fsyncs_per_op", Unit: "count", Better: "lower", Layer: "wal"},
	{Name: "wal_commit_batch_ops_mean", Unit: "count", Better: "higher", Layer: "wal"},
	{Name: "wal_compacted_frac", Unit: "ratio", Better: "higher", Layer: "wal"},
	{Name: "drain_s", Unit: "s", Better: "lower", Layer: "wal"},
	// core client (client.go, congestion.go)
	{Name: "client_cwnd_mean", Unit: "count", Better: "higher", Layer: "client"},
	{Name: "client_srtt_us", Unit: "us", Better: "lower", Layer: "client"},
	{Name: "client_retries_per_op", Unit: "count", Better: "lower", Layer: "client"},
	{Name: "client_coalesced_per_op", Unit: "count", Better: "higher", Layer: "client"},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Layer: "client"},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Layer: "client"},
	// isolated layers at the workload's record size (same process, no daemon)
	{Name: "iso_bml_getput_mib_s", Unit: "MiB/s", Better: "higher", Layer: "bml"},
	{Name: "iso_backend_mem_write_mib_s", Unit: "MiB/s", Better: "higher", Layer: "backend"},
	{Name: "iso_conn_roundtrip_mib_s", Unit: "MiB/s", Better: "higher", Layer: "conn"},
	{Name: "iso_wal_append_mib_s", Unit: "MiB/s", Better: "higher", Layer: "wal"},
	// derived
	{Name: "unattributed_us", Unit: "us", Better: "lower", Layer: "derived"},
	{Name: "efficiency", Unit: "ratio", Better: "higher", Layer: "derived"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower", Layer: "derived"},
}

// metricValue is one emitted number in the result's wire form.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit builds the wire form of vals for the metrics in defs. Declared and
// measured names must agree in both directions; a difference is a bug in
// the harness, so it panics.
func emit(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			panic("bench: metric " + d.Name + " declared but not measured")
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			panic("bench: metric " + name + " measured but not declared")
		}
	}
	return out
}
