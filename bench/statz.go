package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// series is one /statz series reduced to what deltas need: a counter or
// gauge value, or a histogram's count and sum.
type series struct {
	value float64
	count float64
	sum   float64
}

// statz indexes a /statz snapshot by `family{label="value",...}` (labels
// sorted by name; no braces when unlabelled).
type statz map[string]series

func indexStatz(fams []telemetry.FamilySnapshot) statz {
	out := make(statz)
	for _, f := range fams {
		for _, s := range f.Series {
			var v series
			if s.Value != nil {
				v.value = float64(*s.Value)
			}
			if s.Histogram != nil {
				v.count, v.sum = float64(s.Histogram.Count), float64(s.Histogram.Sum)
			}
			out[seriesKey(f.Name, s.Labels)] = v
		}
	}
	return out
}

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	names := make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k + `="` + labels[k] + `"`)
	}
	b.WriteByte('}')
	return b.String()
}

// statzDelta is what the daemon did between two snapshots. Counters and
// histograms are differenced; gauges (the peak marks) read the later one.
type statzDelta struct{ before, after statz }

func (d statzDelta) counter(key string) float64 {
	return d.after[key].value - d.before[key].value
}

func (d statzDelta) gauge(key string) float64 { return d.after[key].value }

// histSum and histCount difference a histogram series; histMean is their
// ratio, 0 when nothing was observed in the interval.
func (d statzDelta) histSum(key string) float64   { return d.after[key].sum - d.before[key].sum }
func (d statzDelta) histCount(key string) float64 { return d.after[key].count - d.before[key].count }
func (d statzDelta) histMean(key string) float64 {
	return ratio(d.histSum(key), d.histCount(key))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func stageKey(stage string) string { return `iofwd_stage_latency_ns{stage="` + stage + `"}` }

var serverStages = []string{"recv", "queue", "backend", "reply", "spill"}

// serverLayerMetrics turns the daemon-side deltas of one pass into the
// per-layer metrics they feed. ops is the number of client operations in
// the pass and record their size; proc0/proc1 bracket the same interval.
func serverLayerMetrics(d statzDelta, proc0, proc1 procSample, ops float64, record int) map[string]float64 {
	const us = 1e3 // ns per µs
	m := make(map[string]float64)

	for _, st := range serverStages {
		m["stage_"+st+"_us"] = d.histMean(stageKey(st)) / us
	}

	var requests, writes float64
	for k := range d.after {
		if strings.HasPrefix(k, "iofwd_requests_total{") {
			requests += d.counter(k)
		}
	}
	for _, o := range []string{"write", "pwrite"} {
		writes += d.counter(`iofwd_requests_total{op="` + o + `"}`)
	}
	m["zero_copy_reply_frac"] = ratio(d.counter("iofwd_zero_copy_replies_total"), requests)
	m["server_cpu_us_per_op"] = ratio(float64((proc1.cpu-proc0.cpu)/time.Microsecond), ops)
	m["server_syscalls_per_op"] = -1 // /proc/<pid>/io unreadable
	if proc0.syscalls >= 0 && proc1.syscalls >= 0 {
		m["server_syscalls_per_op"] = ratio(float64(proc1.syscalls-proc0.syscalls), ops)
	}

	allocs := d.counter("iofwd_bml_allocs_total")
	m["bml_fresh_frac"] = ratio(d.counter("iofwd_bml_fresh_total"), allocs)
	m["bml_stall_frac"] = ratio(d.counter("iofwd_bml_stalls_total"), allocs)
	m["bml_stall_wait_us_per_op"] = ratio(d.histSum("iofwd_bml_stall_wait_ns"), ops) / us
	m["bml_peak_mib"] = d.gauge("iofwd_bml_peak_bytes") / (1 << 20)

	m["sched_batch_ops_mean"] = d.histMean("iofwd_worker_batch_ops")
	m["sched_steals_per_kop"] = ratio(d.counter("iofwd_steals_total"), ops) * 1000
	m["queue_peak_depth"] = d.gauge("iofwd_queue_peak_depth")

	spilled := d.counter("iofwd_bml_spilled_total")
	m["spill_frac"] = ratio(spilled, writes)
	m["wal_fsyncs_per_op"] = ratio(d.counter("iofwd_wal_syncs_total"), ops)
	m["wal_commit_batch_ops_mean"] = d.histMean("iofwd_wal_commit_batch_ops")
	m["wal_compacted_frac"] = ratio(d.counter("iofwd_wal_compacted_bytes_total"), spilled*float64(record))
	return m
}

// serverStageSumUS is the per-op sum of every server stage's time in the
// interval: what unattributed_us subtracts from the client's mean latency.
func serverStageSumUS(d statzDelta, ops float64) float64 {
	var ns float64
	for _, st := range serverStages {
		ns += d.histSum(stageKey(st))
	}
	return ratio(ns, ops) / 1e3
}
