package main

import (
	"encoding/binary"
	"fmt"
	"path/filepath"

	"repro/internal/core"
)

// workload is one traffic shape and the fwdd it runs against. Names are the
// contract later issues cite; why is the one line BENCHMARK.json carries.
type workload struct {
	name string
	why  string

	record   int     // bytes per operation
	depth    int     // writer goroutines per connection, each closed-loop
	window   int     // core.WindowConfig.Max on the shared client (0 = off)
	ring     int64   // per-connection file size; offsets wrap inside it
	readFrac float64 // share of ReadAt in the op mix (0 = write only)
	// spills marks the workload whose writes go through the WAL: it gets a
	// WAL directory, its post-window drain is timed, and every written
	// record is verified instead of a sample.
	spills bool
	// serverArgs are the fwdd flags after the common -listen/-metrics pair.
	serverArgs func(walDir string) []string
}

// burstSinkRate is fwdd's -sink-rate (MiB/s) on burst_spill_16k: below the
// acked-burst goodput of the reference box (so the backend is outrun and
// spill_frac stays above 0.9) and above half of it (so the post-window
// drain finishes within one window length). See README.md.
const burstSinkRate = 48

var memServer = func(string) []string { return []string{"-mode", "async", "-backend", "mem"} }

var workloads = []workload{
	{
		name:   "small_write_4k",
		why:    "4 KiB writes at depth 1: per-op cost (frame syscalls, codec, scheduler hand-off, allocations) does nearly all the work",
		record: 4 << 10, depth: 1, ring: 64 << 20,
		serverArgs: memServer,
	},
	{
		name:   "stream_write_1m",
		why:    "1 MiB writes at depth 4: payload receive, BML staging and the backend copy dominate, so a per-op saving should not move it",
		record: 1 << 20, depth: 4, ring: 256 << 20,
		serverArgs: memServer,
	},
	{
		name:   "mixed_rw_64k",
		why:    "70% reads / 30% writes of 64 KiB at random offsets: reads take the zero-copy reply path and order behind staged writes",
		record: 64 << 10, depth: 1, ring: 64 << 20, readFrac: 0.7,
		serverArgs: memServer,
	},
	{
		name:   "burst_spill_16k",
		why:    "16 KiB checkpoint burst that outruns a rate-limited backend: BML admission misses and the WAL group-commit fsync path does the work",
		record: 16 << 10, depth: 8, window: 8, ring: 16 << 20, spills: true,
		serverArgs: func(walDir string) []string {
			return []string{"-mode", "async", "-backend", "sink", "-sink-rate", fmt.Sprint(burstSinkRate),
				"-bml", "1", "-bml-timeout", "5ms", "-wal-dir", filepath.Join(walDir, "wal"), "-wal-sync", "always"}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) slots() int64 { return w.ring / int64(w.record) }

// clientConfig is the core.ClientConfig every connection of w dials with.
// Coalescing stays off: the benchmark counts wire operations.
func (w workload) clientConfig() core.ClientConfig {
	return core.ClientConfig{
		Timeout: opTimeout,
		Window:  core.WindowConfig{Max: w.window},
	}
}

// mix64 is the splitmix64 finalizer: the one hash every seeded choice
// (offsets, op mix, payload) goes through.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

type opKind uint8

const (
	opWrite opKind = iota
	opRead
)

func (k opKind) String() string {
	if k == opRead {
		return "read"
	}
	return "write"
}

// op is one generated operation: what to do and which record of the ring.
type op struct {
	kind opKind
	slot int64
}

// opStream generates one writer's operations. It is a pure function of
// (seed, conn, lane, index): fwdd sees only the operations, never the seed.
type opStream struct {
	w     workload
	state uint64 // per-writer key derived from (seed, conn, lane)
	lane  int64
	start int64 // first row of the sequential walk
	i     int64 // operations generated so far
}

func newOpStream(w workload, seed int64, conn, lane int) *opStream {
	key := mix64(mix64(uint64(seed))^uint64(conn)<<32^uint64(lane)) | 1
	rows := w.slots() / int64(w.depth)
	return &opStream{w: w, state: key, lane: int64(lane), start: int64(mix64(key) % uint64(rows))}
}

// next returns the writer's next operation. Write-only workloads walk the
// ring sequentially from a seeded start, lane-interleaved so each record
// belongs to exactly one writer; the mixed workload draws kind and record
// at random. Either way a record is only ever written by one goroutine, so
// its generations are totally ordered without a lock.
func (s *opStream) next() op {
	i := s.i
	s.i++
	if s.w.readFrac == 0 {
		rows := s.w.slots() / int64(s.w.depth)
		return op{kind: opWrite, slot: (s.start+i)%rows*int64(s.w.depth) + s.lane}
	}
	r := mix64(s.state + uint64(i))
	o := op{kind: opWrite, slot: int64((r >> 32) % uint64(s.w.slots()))}
	if float64(r&0xffffffff)/(1<<32) < s.w.readFrac {
		o.kind = opRead
	}
	return o
}

// payloadShifts is how many distinct 8-byte-aligned windows of a
// connection's pattern a record can be cut from.
const payloadShifts = 8192

// pattern is one connection's payload source: seeded pseudo-random bytes,
// one record plus the shift range long. A record's payload is a window of
// it chosen by (offset, generation), so payloads cost the load generator no
// per-op work yet differ between neighbours and between rewrites.
type pattern struct {
	bytes  []byte
	record int
}

func newPattern(seed int64, conn, record int) *pattern {
	b := make([]byte, record+8*payloadShifts)
	x := mix64(mix64(uint64(seed)) ^ uint64(conn)<<32 ^ 0x70617474)
	for i := 0; i+8 <= len(b); i += 8 {
		x = mix64(x)
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return &pattern{bytes: b, record: record}
}

// payload returns the bytes written at byte offset off on the gen-th write
// of that record: a pure function of (seed, conn, offset, generation).
func (p *pattern) payload(off int64, gen uint32) []byte {
	shift := 8 * int(mix64(uint64(off)^uint64(gen)<<48)%payloadShifts)
	return p.bytes[shift : shift+p.record]
}
