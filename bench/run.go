package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// opTimeout bounds every client operation so a wedged daemon fails the run
// instead of hanging it.
const opTimeout = 30 * time.Second

// verifySample is how many records per connection are read back and
// compared after the window (all written records on the spilling workload).
const verifySample = 256

// span is one traced operation, written to <workload>.trace.jsonl.
type span struct {
	Workload string `json:"workload"`
	Conn     int    `json:"conn"`
	Seq      int64  `json:"seq"`
	Kind     string `json:"kind"`
	Bytes    int    `json:"bytes"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Err      string `json:"err,omitempty"`
}

// connState is one connection: its client, its file, the payload pattern
// and how many times each record of its ring has been written.
type connState struct {
	id     int
	client *core.Client
	file   *core.File
	pat    *pattern
	// gens[slot] is the generation of the last acknowledged write. Each
	// slot is written by one goroutine only (see opStream.next).
	gens []uint32
}

// writer is one closed-loop load goroutine: it issues its next operation
// only after the previous reply, as a compute node blocked in write().
type writer struct {
	conn   *connState
	stream *opStream
	rbuf   []byte // read target, mixed workload only
}

// rig is one workload wired to one running daemon.
type rig struct {
	w       workload
	seed    int64
	d       *daemon
	conns   []*connState
	writers []*writer
}

// sliceLen is the length of the slices a load interval is cut into. The
// reported goodput and percentiles are medians over the slices, so a
// transient disturbance (a GC cycle, a neighbour on the host) moves one
// slice and not the result.
const sliceLen = time.Second

// slice is what completed inside one slice of a load interval.
type slice struct {
	bytes int64
	lat   latHist
}

// phase is what one load interval measured.
type phase struct {
	ops, failed       int64
	sliceDur          time.Duration
	slices            []slice
	lat               latHist // all ops
	readLat, writeLat latHist // traced passes only
	spans             []span  // traced passes only
}

// overSlices returns the median over the interval's slices of f.
func (p *phase) overSlices(f func(*slice) float64) float64 {
	v := make([]float64, len(p.slices))
	for i := range p.slices {
		v[i] = f(&p.slices[i])
	}
	return median(v)
}

func (p *phase) sliceGoodput(s *slice) float64 {
	return float64(s.bytes) / (1 << 20) / p.sliceDur.Seconds()
}

func (p *phase) goodputMiBs() float64 { return p.overSlices(p.sliceGoodput) }

func (p *phase) quantileUS(q float64) float64 {
	return p.overSlices(func(s *slice) float64 { return s.lat.quantile(q) / 1e3 })
}

// minSliceSamples is the smallest slice's latency sample count: what decides
// which percentile the interval supports.
func (p *phase) minSliceSamples() uint64 {
	n := p.slices[0].lat.count
	for i := range p.slices {
		n = min(n, p.slices[i].lat.count)
	}
	return n
}

// setup brings a workload from nothing to "next op is timed": spawn fwdd,
// wait for it to listen, dial, open, pre-extend (and for the mixed
// workload pre-fill) each connection's ring, then warm up. Its duration is
// setup_s.
func setup(ctx context.Context, w workload, seed int64, fwdd, dir string, nconn int, warmup time.Duration) (*rig, error) {
	d, err := startDaemon(ctx, fwdd, dir, nconn, w.serverArgs(dir))
	if err != nil {
		return nil, err
	}
	r := &rig{w: w, seed: seed, d: d}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	for c := 0; c < nconn; c++ {
		cl, err := w.clientConfig().Dial(ctx, "tcp", d.addr)
		if err != nil {
			return nil, fmt.Errorf("dial fwdd: %w", err)
		}
		cs := &connState{id: c, client: cl, pat: newPattern(seed, c, w.record), gens: make([]uint32, w.slots())}
		r.conns = append(r.conns, cs)
		if cs.file, err = cl.Open(ctx, fmt.Sprintf("%s.%d", w.name, c)); err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		for lane := 0; lane < w.depth; lane++ {
			wr := &writer{conn: cs, stream: newOpStream(w, seed, c, lane)}
			if w.readFrac > 0 {
				wr.rbuf = make([]byte, w.record)
			}
			r.writers = append(r.writers, wr)
		}
	}
	if err := r.extend(ctx); err != nil {
		return nil, err
	}
	if p := r.load(ctx, warmup, false); p.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed", p.failed, p.ops)
	}
	ok = true
	return r, nil
}

// eachConn runs f on every connection at once and returns the first error.
func (r *rig) eachConn(f func(*connState) error) error {
	errs := make(chan error, len(r.conns)) // one slot per connection
	for _, cs := range r.conns {
		go func(cs *connState) { errs <- f(cs) }(cs)
	}
	var first error
	for range r.conns {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// extend writes each ring's last record first, so the backend file has its
// final size before any other write (a MemBackend write past the end
// regrows the whole file), then fills the rest where the workload reads.
func (r *rig) extend(ctx context.Context) error {
	return r.eachConn(func(cs *connState) error {
		last := r.w.slots() - 1
		if err := cs.write(ctx, r.w, last); err != nil {
			return fmt.Errorf("pre-extend: %w", err)
		}
		for s := int64(0); r.w.readFrac > 0 && s < last; s++ {
			if err := cs.write(ctx, r.w, s); err != nil {
				return fmt.Errorf("pre-fill: %w", err)
			}
		}
		return nil
	})
}

// write issues the next generation of one record and, once acknowledged,
// remembers it for verification.
func (cs *connState) write(ctx context.Context, w workload, slot int64) error {
	off := slot * int64(w.record)
	gen := cs.gens[slot] + 1
	n, err := cs.file.WriteAtCtx(ctx, cs.pat.payload(off, gen), off)
	if err != nil {
		return err
	}
	if n != w.record {
		return fmt.Errorf("short write: %d of %d bytes", n, w.record)
	}
	cs.gens[slot] = gen
	return nil
}

// do runs one generated operation.
func (wr *writer) do(ctx context.Context, w workload, o op) error {
	if o.kind == opWrite {
		return wr.conn.write(ctx, w, o.slot)
	}
	n, err := wr.conn.file.ReadAtCtx(ctx, wr.rbuf, o.slot*int64(w.record))
	if err != nil {
		return err
	}
	if n != w.record {
		return fmt.Errorf("short read: %d of %d bytes", n, w.record)
	}
	return nil
}

// load drives every writer closed-loop for dur. Untraced, an operation
// costs the generator two clock reads, two histogram increments and three
// counter adds; traced, it also appends a span and splits latency by kind.
// An operation belongs to the slice it completes in; one that completes
// after dur counts as attempted but lies in no slice.
func (r *rig) load(ctx context.Context, dur time.Duration, traced bool) *phase {
	type result struct {
		ops, failed     int64
		slices          []slice
		lat, rlat, wlat latHist
		spans           []span
	}
	nslices := max(1, int(dur/sliceLen))
	sliceDur := dur / time.Duration(nslices)
	results := make([]result, len(r.writers))
	for i := range results {
		results[i].slices = make([]slice, nslices)
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	start := time.Now()
	timer := time.AfterFunc(dur, func() { stop.Store(true) })
	defer timer.Stop()
	defer context.AfterFunc(ctx, func() { stop.Store(true) })()
	for i, wr := range r.writers {
		wg.Add(1)
		go func(res *result, wr *writer) {
			defer wg.Done()
			for !stop.Load() {
				o := wr.stream.next()
				t0 := time.Now()
				err := wr.do(ctx, r.w, o)
				t1 := time.Now()
				ns := t1.Sub(t0).Nanoseconds()
				res.ops++
				res.lat.record(ns)
				if err != nil {
					res.failed++
				} else if i := int(t1.Sub(start) / sliceDur); i < nslices {
					res.slices[i].bytes += int64(r.w.record)
					res.slices[i].lat.record(ns)
				}
				if traced {
					if o.kind == opRead {
						res.rlat.record(ns)
					} else {
						res.wlat.record(ns)
					}
					sp := span{
						Workload: r.w.name, Conn: wr.conn.id, Seq: wr.stream.i - 1, Kind: o.kind.String(),
						Bytes: r.w.record, StartNS: t0.Sub(start).Nanoseconds(), EndNS: t1.Sub(start).Nanoseconds(),
					}
					if err != nil {
						sp.Err = err.Error()
					}
					res.spans = append(res.spans, sp)
				}
			}
		}(&results[i], wr)
	}
	wg.Wait()
	p := &phase{sliceDur: sliceDur, slices: make([]slice, nslices)}
	for i := range results {
		res := &results[i]
		p.ops += res.ops
		p.failed += res.failed
		for j := range res.slices {
			p.slices[j].bytes += res.slices[j].bytes
			p.slices[j].lat.merge(&res.slices[j].lat)
		}
		p.lat.merge(&res.lat)
		p.readLat.merge(&res.rlat)
		p.writeLat.merge(&res.wlat)
		p.spans = append(p.spans, res.spans...)
	}
	return p
}

// drain syncs every file: on the spilling workload that waits until the WAL
// has applied every acknowledged record to the backend.
func (r *rig) drain(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	err := r.eachConn(func(cs *connState) error {
		if err := cs.file.SyncCtx(ctx); err != nil {
			return fmt.Errorf("sync: %w", err)
		}
		return nil
	})
	return time.Since(start), err
}

// verify reads records back and compares them with the payload of their
// last acknowledged generation. It returns how many it checked and how
// many differed. The sample is seeded; the spilling workload checks every
// written record, because a lost or reordered WAL record can hide anywhere.
func (r *rig) verify(ctx context.Context) (checked, bad int64, err error) {
	var nchecked, nbad atomic.Int64
	err = r.eachConn(func(cs *connState) error {
		var written []int64
		for s, g := range cs.gens {
			if g > 0 {
				written = append(written, int64(s))
			}
		}
		if !r.w.spills && len(written) > verifySample {
			key := mix64(mix64(uint64(r.seed)) ^ uint64(cs.id)<<32 ^ 0x766572)
			for i := 0; i < verifySample; i++ { // seeded partial shuffle
				j := i + int(mix64(key+uint64(i))%uint64(len(written)-i))
				written[i], written[j] = written[j], written[i]
			}
			written = written[:verifySample]
		}
		buf := make([]byte, r.w.record)
		for _, s := range written {
			off := s * int64(r.w.record)
			n, err := cs.file.ReadAtCtx(ctx, buf, off)
			if err != nil {
				return fmt.Errorf("verify read: %w", err)
			}
			nchecked.Add(1)
			if n != r.w.record || !bytes.Equal(buf, cs.pat.payload(off, cs.gens[s])) {
				nbad.Add(1)
			}
		}
		return nil
	})
	return nchecked.Load(), nbad.Load(), err
}

// clientTotals reads every connection's Client.Stats: the congestion state
// (instantaneous) as a mean over connections, the counters as sums.
type clientTotals struct{ cwnd, srttUS, retries, coalesced float64 }

func (r *rig) clientTotals() clientTotals {
	var t clientTotals
	n := float64(len(r.conns))
	for _, cs := range r.conns {
		st := cs.client.Stats()
		t.cwnd += st.Cwnd / n
		t.srttUS += float64(st.SRTT) / float64(time.Microsecond) / n
		t.retries += float64(st.Retries)
		t.coalesced += float64(st.CoalescedWrites)
	}
	return t
}

// close tears the rig down: clients first, then the daemon and its scratch
// directory. Safe on a partly built rig.
func (r *rig) close() {
	for _, cs := range r.conns {
		cs.client.Close()
	}
	r.d.stop()
}

// tracedPass runs one traced load interval bracketed by /statz and /proc
// snapshots of the daemon, and turns the deltas into per-layer metrics.
func (r *rig) tracedPass(ctx context.Context, dur time.Duration) (*phase, map[string]float64, error) {
	before := r.clientTotals()
	st0, err := r.d.statzSnapshot(ctx)
	if err != nil {
		return nil, nil, err
	}
	proc0, err := r.d.procSample()
	if err != nil {
		return nil, nil, err
	}

	// Congestion state is instantaneous, so it is sampled through the pass.
	var cwndSum, srttSum, samples float64
	sampled := make(chan struct{})
	stopSampling := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				t := r.clientTotals()
				cwndSum, srttSum, samples = cwndSum+t.cwnd, srttSum+t.srttUS, samples+1
			case <-stopSampling:
				return
			}
		}
	}()
	p := r.load(ctx, dur, true)
	close(stopSampling)
	<-sampled

	proc1, err := r.d.procSample()
	if err != nil {
		return nil, nil, err
	}
	st1, err := r.d.statzSnapshot(ctx)
	if err != nil {
		return nil, nil, err
	}
	after := r.clientTotals()

	ops := float64(p.ops)
	delta := statzDelta{before: st0, after: st1}
	m := serverLayerMetrics(delta, proc0, proc1, ops, r.w.record)
	m["client_cwnd_mean"] = ratio(cwndSum, samples)
	m["client_srtt_us"] = ratio(srttSum, samples)
	m["client_retries_per_op"] = ratio(after.retries-before.retries, ops)
	m["client_coalesced_per_op"] = ratio(after.coalesced-before.coalesced, ops)
	m["read_p50_us"] = p.readLat.quantile(0.5) / 1e3
	m["write_p50_us"] = p.writeLat.quantile(0.5) / 1e3
	m["unattributed_us"] = p.lat.mean()/1e3 - serverStageSumUS(delta, ops)
	return p, m, nil
}

// writeTrace writes the traced pass's spans, ordered by start, as JSON lines.
func writeTrace(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
