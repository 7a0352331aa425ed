// Package core is a real, runnable I/O-forwarding library implementing the
// system the paper describes — not a simulation. A client ships POSIX-like
// I/O calls over a framed binary protocol to a forwarding server, which
// executes them against a pluggable backend.
//
// Every data op takes one request pipeline: the per-connection handler
// decodes it and receives its payload into a buffer from the buffer
// management layer (BML), the op executes, and the handler replies. The
// paper's three execution models are two decisions on that pipeline —
// where an op executes (the paper's I/O scheduling, Section IV, figure 7)
// and when a write's reply leaves (asynchronous data staging, figure 8):
//
//	mode           executes on             reply leaves       write buffer returned by
//	ModeDirect     handler                 after the backend  handler
//	ModeWorkQueue  pool (inline: handler)  after the backend  handler
//	ModeAsync      pool (inline: handler)  after staging      worker (inline: handler)
//
// ModeDirect is stock ZOID's thread-per-client design (paper II-B2). The
// pool modes queue ops on sharded per-worker queues drained by a fixed pool
// that dequeues several requests per wakeup — except an op the pool would
// only slow down, which runs inline on the handler when all of these hold:
//
//	the scheduler is open
//	its descriptor's last backend call beat a hand-off (20 µs; none yet = slow)
//	its descriptor has no staged or spilled op in flight
//	its descriptor's home shard has no queued task
//	one of Workers inline tokens is free
//
// The hand-off it saves measures 26–41 µs at depth 1 on 2 vCPUs. A staged
// write that runs inline is still acknowledged first. A backend that stalls
// after fast calls holds one such op, and its connection, until the stall
// ends; the slow call then sends the descriptor's ops back to the pool.
// Under ModeAsync a staged write is acknowledged as soon as it is queued; a
// descriptor database tracks in-progress operations, and errors from staged
// writes are reported on subsequent operations on the same descriptor, on
// Fsync, or on Close. When the BML memory cap is reached, staging blocks
// until completed operations return buffers — unless a spill tier is
// configured.
//
// Reads reply after the backend in every mode, with their data in a leased
// BML frame the handler returns. Without a spill tier, a write that times
// out on BML admission (Config.BMLTimeout) runs on the handler, after the
// staged writes it overlaps, and replies with FlagDegraded. With one
// (Config.Spill, ModeAsync only), a write never waits for admission: one
// that finds the pool full goes to the spill tier at once, and runs on the
// handler only if the tier refuses it.
// Opens, closes, and stats always run on the handler.
//
// Backends supply the terminal I/O: OS files (FileBackend), memory
// (MemBackend), a discard target (NullBackend), and a rate-limited wrapper
// (SinkBackend) that emulates the slow external sink — a 10 GbE link or a
// busy filesystem — so the benchmarks show the same mechanism crossovers on
// a laptop that the paper shows on Intrepid.
package core
