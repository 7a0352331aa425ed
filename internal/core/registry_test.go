package core_test

import (
	"net"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/core/fault"
	"repro/internal/stripetier"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// literalFamilies is every metric name registered by a string literal in
// the forwarding stack's non-test code (core server and client, the chaos
// backend, the WAL and the stripe tier).
var literalFamilies = []string{
	// internal/core: server
	"iofwd_requests_total", "iofwd_request_latency_ns", "iofwd_request_bytes",
	"iofwd_stage_latency_ns", "iofwd_worker_batch_ops", "iofwd_worker_batches_total",
	"iofwd_zero_copy_replies_total", "iofwd_bytes_written_total", "iofwd_bytes_read_total",
	"iofwd_staged_writes_total", "iofwd_connections_total", "iofwd_reply_errors_total",
	"iofwd_active_connections", "iofwd_open_descriptors", "iofwd_inflight_staged_ops",
	"iofwd_deferred_errors_total", "iofwd_shed_total", "iofwd_bml_degraded_total",
	"iofwd_panics_total", "iofwd_queue_rejects_total", "iofwd_bml_spilled_total",
	"iofwd_bml_spill_rejects_total", "iofwd_bml_used_bytes", "iofwd_bml_capacity_bytes",
	"iofwd_bml_peak_bytes", "iofwd_bml_allocs_total", "iofwd_bml_fresh_total",
	"iofwd_bml_stalls_total", "iofwd_bml_stall_wait_ns", "iofwd_bml_admission_timeouts_total",
	"iofwd_bml_waiters", "iofwd_queue_depth", "iofwd_queue_peak_depth", "iofwd_steals_total",
	"iofwd_shard_depth",
	// internal/core: client
	"iofwd_retries_total", "iofwd_timeouts_total", "iofwd_reconnects_total",
	"iofwd_replays_total", "iofwd_lost_ops_total", "iofwd_coalesced_writes_total",
	// internal/core/fault
	"iofwd_fault_injected_total", "iofwd_fault_ops_total",
	// internal/wal
	"iofwd_wal_appends_total", "iofwd_wal_append_errors_total", "iofwd_wal_replayed_total",
	"iofwd_wal_replay_errors_total", "iofwd_wal_torn_discarded_total", "iofwd_wal_drained_total",
	"iofwd_wal_drain_errors_total", "iofwd_wal_truncated_segments_total", "iofwd_wal_syncs_total",
	"iofwd_wal_fsyncs_total", "iofwd_wal_commit_batch_ops", "iofwd_wal_commit_batch_bytes",
	"iofwd_wal_compacted_bytes_total", "iofwd_wal_drain_repair_enqueues_total",
	"iofwd_wal_bytes", "iofwd_wal_drain_lag_records", "iofwd_wal_segments",
	// internal/stripetier
	"iofwd_stripe_member_state", "iofwd_stripe_member_ops_total",
	"iofwd_stripe_reads_failed_over_total", "iofwd_stripe_repairs_total",
	"iofwd_stripe_repair_failures_total", "iofwd_stripe_degraded_writes_total",
	"iofwd_stripe_ejections_total", "iofwd_stripe_readmissions_total",
	"iofwd_stripe_journal_errors_total", "iofwd_stripe_repair_pending",
}

// TestRegisteredMetricNamesValidate registers every metric family the stack
// has on one registry, the way fwdd wires them (plus the client families),
// so a name that two packages register under different kinds panics here
// (Registry.Register rejects the conflict), and holds every family to
// telemetry.ValidateName: iofwd_ snake_case, _total counters,
// unit-suffixed histograms, _state only on gauges.
func TestRegisteredMetricNamesValidate(t *testing.T) {
	reg := telemetry.NewRegistry()
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("registering the stack's families on one registry panicked: %v", r)
			}
		}()
		s := core.NewServer(core.Config{Mode: core.ModeAsync, Metrics: reg})
		t.Cleanup(func() { s.Close() })

		nc, peer := net.Pipe()
		t.Cleanup(func() { peer.Close() })
		cl, err := core.ClientConfig{Metrics: reg, Window: core.WindowConfig{Max: 8}}.Client(nc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })

		fault.New(core.NewMemBackend(), fault.Config{}).Register(reg)
		members := make([]core.Backend, 4)
		for i := range members {
			fb := fault.New(core.NewMemBackend(), fault.Config{})
			fb.Register(reg, telemetry.L("member", strconv.Itoa(i)))
			members[i] = fb
		}
		tier, err := stripetier.New(members, stripetier.Config{Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tier.Close() })
		tier.Register(reg)

		lg, _, err := wal.Open(wal.Config{Dir: t.TempDir(), Backend: tier})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lg.Close() })
		lg.Register(reg)
	}()

	got := make(map[string]bool)
	for _, f := range reg.Snapshot() {
		got[f.Name] = true
		kind, ok := telemetry.KindFromString(f.Kind)
		if !ok {
			t.Errorf("metric %q has unknown kind %q", f.Name, f.Kind)
			continue
		}
		if err := telemetry.ValidateName(f.Name, kind); err != nil {
			t.Errorf("registered metric fails naming convention: %v", err)
		}
	}
	for _, name := range literalFamilies {
		if !got[name] {
			t.Errorf("family %s is registered in the stack's code but not by this test", name)
		}
	}
}
