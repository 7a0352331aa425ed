package core

import (
	"strconv"

	"repro/internal/telemetry"
)

// The server's telemetry mirrors the paper's measurement methodology: the
// forwarding path is cut at the stage boundaries of Figures 4-6 and each
// stage is observed separately, so the bottleneck (ION contention in the
// paper) is visible from a running server instead of requiring offline
// experiments.
//
// Stage boundaries (metric label "stage"):
//
//	recv     — CN→ION transfer: header decoded until the payload is fully
//	           received into a staging buffer (includes BML admission wait,
//	           the paper's staging back-pressure)
//	queue    — work-queue wait: task enqueued until a worker starts it
//	backend  — terminal I/O service time at the backend (GPFS / DA role)
//	reply    — response frame written back toward the CN
//
// Naming scheme: iofwd_<subsystem>_<name>_<unit>; latencies are raw
// nanoseconds, sizes are bytes. Per-operation families are labeled with
// op="open|close|write|...".

// opCount sizes the per-op metric arrays; index 0 collects unknown ops.
const opCount = int(OpErrPoll) + 1

// opIndex maps an operation to its metric slot.
func opIndex(op Op) int {
	if op >= OpOpen && int(op) < opCount {
		return int(op)
	}
	return 0
}

// serverMetrics holds every instrument the server touches on the hot path,
// pre-resolved at construction so request handling never does a registry
// (map) lookup.
type serverMetrics struct {
	reg *telemetry.Registry

	// Per-op families, indexed by opIndex.
	requests   [opCount]*telemetry.Counter
	reqLatency [opCount]*telemetry.Histogram

	// Payload-size distributions.
	writeBytes *telemetry.Histogram
	readBytes  *telemetry.Histogram

	// Stage latency histograms (see the stage table above).
	stageRecv    *telemetry.Histogram
	stageQueue   *telemetry.Histogram
	stageBackend *telemetry.Histogram
	stageReply   *telemetry.Histogram
	stageSpill   *telemetry.Histogram

	// Scheduler behaviour.
	batchSize *telemetry.Histogram
	batches   *telemetry.Counter

	// Zero-copy reply frames written (reads whose payload left in a single
	// BML-leased frame write).
	zeroCopyReplies *telemetry.Counter

	// Cumulative counters (the ServerStats source of truth).
	bytesWritten *telemetry.Counter
	bytesRead    *telemetry.Counter
	staged       *telemetry.Counter
	conns        *telemetry.Counter
	replyErrors  *telemetry.Counter

	// Descriptor-database state.
	activeConns    *telemetry.Gauge
	openDescs      *telemetry.Gauge
	inflightStaged *telemetry.Gauge
	deferredErrors *telemetry.Counter

	// Failure paths (the fault-tolerance layer).
	bmlDegraded  *telemetry.Counter
	workerPanics *telemetry.Counter
	connPanics   *telemetry.Counter
	queueRejects *telemetry.Counter

	// Spill tier (the WAL overflow behind BML; see internal/wal).
	spilled      *telemetry.Counter
	spillRejects *telemetry.Counter
}

// opLabelName returns the op label value for metric slot i.
func opLabelName(i int) string {
	if i == 0 {
		return "other"
	}
	return Op(i).String()
}

// newServerMetrics registers the server's metric families on reg. Each
// Server needs its own Registry: families are registered once per server.
func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	m := &serverMetrics{reg: reg}
	for i := 0; i < opCount; i++ {
		op := telemetry.L("op", opLabelName(i))
		m.requests[i] = reg.Counter("iofwd_requests_total",
			"Forwarded operations handled, by op type.", op)
		m.reqLatency[i] = reg.Histogram("iofwd_request_latency_ns",
			"End-to-end server-side request latency (header decoded to reply written), by op type.", op)
	}
	m.writeBytes = reg.Histogram("iofwd_request_bytes",
		"Payload size per operation, by op type.", telemetry.L("op", "write"))
	m.readBytes = reg.Histogram("iofwd_request_bytes",
		"Payload size per operation, by op type.", telemetry.L("op", "read"))

	stage := func(s string) *telemetry.Histogram {
		return reg.Histogram("iofwd_stage_latency_ns",
			"Per-stage forwarding-path latency: recv (CN→ION receive incl. BML wait), queue (work-queue wait), backend (terminal I/O service), reply (response write).",
			telemetry.L("stage", s))
	}
	m.stageRecv = stage("recv")
	m.stageQueue = stage("queue")
	m.stageBackend = stage("backend")
	m.stageReply = stage("reply")
	m.stageSpill = stage("spill")

	m.batchSize = reg.Histogram("iofwd_worker_batch_ops",
		"Tasks dequeued per worker wakeup (the event-loop multiplexing depth).")
	m.batches = reg.Counter("iofwd_worker_batches_total",
		"Worker wakeups that dequeued at least one task.")
	m.zeroCopyReplies = reg.Counter("iofwd_zero_copy_replies_total",
		"Read replies whose payload was read straight into a BML-leased frame and written to the wire in one call (zero-copy reply path).")

	m.bytesWritten = reg.Counter("iofwd_bytes_written_total",
		"Payload bytes received for write operations.")
	m.bytesRead = reg.Counter("iofwd_bytes_read_total",
		"Payload bytes returned by read operations.")
	m.staged = reg.Counter("iofwd_staged_writes_total",
		"Writes acknowledged before execution (asynchronous data staging).")
	m.conns = reg.Counter("iofwd_connections_total",
		"Client connections accepted.")
	m.replyErrors = reg.Counter("iofwd_reply_errors_total",
		"Replies carrying a non-OK errno (including deferred errors).")

	m.activeConns = reg.Gauge("iofwd_active_connections",
		"Client connections currently being served.")
	m.openDescs = reg.Gauge("iofwd_open_descriptors",
		"Descriptors currently open across all connections.")
	m.inflightStaged = reg.Gauge("iofwd_inflight_staged_ops",
		"Staged operations accepted but not yet executed.")
	m.deferredErrors = reg.Counter("iofwd_deferred_errors_total",
		"Staged operations that failed after acknowledgement (reported on a later op).")

	m.bmlDegraded = reg.Counter("iofwd_bml_degraded_total",
		"Writes that fell back to the synchronous path with an unpooled buffer after staging-pool admission timed out.")
	m.workerPanics = reg.Counter("iofwd_panics_total",
		"Panics recovered without killing the process, by scope (worker = pool task, conn = connection handler, including data ops it ran inline).",
		telemetry.L("scope", "worker"))
	m.connPanics = reg.Counter("iofwd_panics_total",
		"Panics recovered without killing the process, by scope (worker = pool task, conn = connection handler, including data ops it ran inline).",
		telemetry.L("scope", "conn"))
	m.queueRejects = reg.Counter("iofwd_queue_rejects_total",
		"Operations refused with ECLOSED because they raced server shutdown (closed work queue).")
	m.spilled = reg.Counter("iofwd_bml_spilled_total",
		"Writes that missed staging-pool admission and were absorbed by the write-ahead spill tier.")
	m.spillRejects = reg.Counter("iofwd_bml_spill_rejects_total",
		"Writes the spill tier refused (full or closed); they degraded to the synchronous path instead.")
	return m
}

// wire registers the instruments owned by the server's component structures
// (BML pool, task queue) once those exist.
func (m *serverMetrics) wire(s *Server) {
	reg := m.reg
	reg.GaugeFunc("iofwd_bml_used_bytes",
		"Staging-pool bytes currently reserved.", s.bml.Used)
	reg.GaugeFunc("iofwd_bml_capacity_bytes",
		"Staging-pool capacity (the BML cap).", s.bml.Capacity)
	reg.MustRegister("iofwd_bml_peak_bytes",
		"Staging-pool reservation high-water mark.", &s.bml.peak)
	reg.MustRegister("iofwd_bml_allocs_total",
		"Staging buffers handed out.", &s.bml.allocs)
	reg.MustRegister("iofwd_bml_fresh_total",
		"Staging buffer requests that required a new allocation.", &s.bml.fresh)
	reg.MustRegister("iofwd_bml_stalls_total",
		"Staging buffer requests that blocked on the capacity cap.", &s.bml.stalls)
	reg.MustRegister("iofwd_bml_stall_wait_ns",
		"Time spent blocked waiting for staging-pool capacity.", &s.bml.stallWait)
	reg.MustRegister("iofwd_bml_admission_timeouts_total",
		"Staging buffer requests that gave up waiting (BMLTimeout) and degraded.", &s.bml.timeouts)
	reg.GaugeFunc("iofwd_bml_waiters",
		"Requests currently blocked on staging-pool admission.", s.bml.Waiters)
	if s.sched != nil {
		q := s.sched
		reg.GaugeFunc("iofwd_queue_depth",
			"Tasks currently waiting across all scheduler shards (atomic aggregate).",
			q.aggDepth.Load)
		reg.MustRegister("iofwd_queue_peak_depth",
			"Aggregate scheduler occupancy high-water mark.", &q.peak)
		q.steals = reg.Counter("iofwd_steals_total",
			"Half-batches an idle worker stole from the busiest sibling shard.")
		for i, sh := range q.shards {
			reg.GaugeFunc("iofwd_shard_depth",
				"Tasks currently queued on one scheduler shard, by shard index.",
				sh.depth.Load, telemetry.L("shard", strconv.Itoa(i)))
		}
	}
}
