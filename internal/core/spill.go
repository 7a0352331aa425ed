package core

// Spiller is the disk-backed overflow tier behind the BML staging pool
// (implemented by internal/wal.Log). When a write finds the staging pool
// full, the server offers it here at once instead of waiting for a buffer
// or degrading to the synchronous path: an accepted record is durably
// logged and the write is acknowledged as soon as it is durable,
// burst-buffer style.
//
// Submit is a pure enqueue, in the paper's sense (§IV): take the payload,
// queue the work, unblock the requester's path. It returns once the record's
// place in the log is fixed and data has been copied out — the connection
// handler goes straight back to reading the next frame — and everything that
// takes time happens behind it:
//
//   - Submit order on one descriptor is log order, drain order and crash
//     replay order (per-descriptor FIFO).
//   - acked is invoked exactly once: with nil when the record is durable to
//     the log's sync policy (acked ⇒ durable; the server writes the client's
//     reply from here, never earlier), or with the commit error when the
//     batch it shared failed to reach the disk. A failed record is not in the
//     log and will never be applied; the server answers that write with EIO
//     and unwinds its bookkeeping. acked may run on the spiller's committer
//     goroutine or inline before Submit returns, so it must not block — it
//     must never write to a client socket itself, or one stalled client
//     would stall every connection's durability.
//   - done is invoked exactly once, after a nil ack, with the terminal
//     backend write's result; the server routes it into the descriptor's
//     deferred-error bookkeeping, so spilled writes report failures on a
//     later operation exactly like staged ones.
//   - released, when non-nil, is invoked at most once, strictly after done,
//     when the record's durable copy has left the log (its segment was
//     truncated after the backend was flushed). Until it fires, a crash
//     recovery could re-apply the record; the server therefore keeps routing
//     the descriptor's subsequent writes through the spill tier — whose
//     per-name FIFO keeps them ordered, both live and across a replay —
//     rather than racing them on another executor (see descriptor ordering
//     contract in descdb.go).
//
// A non-nil return is a refusal (full, closed, oversize): the record was not
// taken, no callback will ever be invoked, and the server falls back to the
// synchronous degrade path.
type Spiller interface {
	Submit(name string, off int64, data []byte, acked, done func(error), released func()) error
}
