package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Mode selects the server's execution model: where a data op executes and
// when its reply leaves (see the table in the package comment).
type Mode int

// Execution modes.
const (
	// ModeDirect executes operations on the per-connection handler.
	ModeDirect Mode = iota
	// ModeWorkQueue executes operations on the worker pool; replies leave
	// after the backend call.
	ModeWorkQueue
	// ModeAsync is ModeWorkQueue plus asynchronous data staging: a write
	// that gets a staging buffer is acknowledged once staged.
	ModeAsync
)

func (m Mode) String() string {
	switch m {
	case ModeDirect:
		return "direct"
	case ModeWorkQueue:
		return "workqueue"
	case ModeAsync:
		return "async"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config configures a Server.
type Config struct {
	// Mode selects the execution model; the default is ModeDirect. It is
	// resolved once, in NewServer: ModeDirect starts no worker pool, and only
	// ModeAsync stages writes and keeps Spill.
	Mode Mode
	// Workers is the worker-pool size (paper default: 4); ModeDirect starts
	// no pool and ignores it.
	Workers int
	// Batch is the maximum number of tasks a worker dequeues per wakeup.
	Batch int
	// BMLBytes caps staging memory; writes block when it is exhausted.
	BMLBytes int64
	// Backend executes the terminal I/O; the default is NewMemBackend().
	Backend Backend
	// Filters, when non-nil, processes every write payload on the
	// forwarding node before it reaches the backend (the paper's data
	// filtering / in-situ analytics offload). Filters must not grow the
	// payload.
	Filters *FilterChain
	// Metrics, when non-nil, is the telemetry registry the server
	// registers its instruments on (a fresh one is created otherwise).
	// Each Server needs its own registry.
	Metrics *telemetry.Registry
	// BMLTimeout, on a server without a spill tier and when > 0, bounds
	// the wait for staging-pool admission; past it a write degrades to the
	// synchronous path with an unpooled buffer (reply carries FlagDegraded)
	// instead of blocking forever on BML exhaustion. 0 keeps the paper's
	// pure back-pressure behaviour. A server with a spill tier never waits
	// for admission, so it ignores BMLTimeout.
	BMLTimeout time.Duration
	// Spill, when non-nil, absorbs every write that does not stage into a
	// durable write-ahead tier (internal/wal): a write that finds the
	// staging pool full, or whose descriptor still has spilled records
	// live in the tier, is logged locally at once, acknowledged with
	// FlagStaged|FlagSpilled, and drained to the backend in the
	// background. A Spill refusal (full/closed) falls back to the
	// synchronous degrade path, so the write never blocks on the pool or
	// the tier. Spill is ignored unless Mode is ModeAsync.
	Spill Spiller
}

// ServerStats are cumulative server counters.
type ServerStats struct {
	Ops          uint64
	BytesWritten uint64
	BytesRead    uint64
	StagedWrites uint64
	WorkerBatch  uint64
	Conns        uint64
	// Degraded counts writes that bypassed staging and ran synchronously:
	// after a BML admission timeout, or after the spill tier refused them.
	Degraded uint64
	// Spilled counts writes absorbed by the write-ahead spill tier instead
	// of staging.
	Spilled uint64
	// WorkerPanics counts backend panics recovered by the worker pool.
	WorkerPanics uint64
}

// Server is a forwarding server.
type Server struct {
	cfg     Config
	bml     *BML
	sched   *scheduler
	metrics *serverMetrics

	mu        sync.Mutex
	listeners []net.Listener
	closed    bool
	workerWG  sync.WaitGroup
}

// NewServer builds a server and starts its worker pool if the mode needs
// one. The pool has defaultShards(Workers) scheduler shards.
func NewServer(cfg Config) *Server { return newServer(cfg, 0) }

// newServer is NewServer with the shard count pinned when shards > 0, for
// tests that place descriptors on particular shards.
func newServer(cfg Config, shards int) *Server {
	if cfg.Backend == nil {
		cfg.Backend = NewMemBackend()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	if cfg.BMLBytes <= 0 {
		cfg.BMLBytes = 256 << 20
	}
	if cfg.Mode != ModeAsync {
		cfg.Spill = nil // only a mode that acks early has writes to spill
	}
	cfg.BMLTimeout = max(cfg.BMLTimeout, 0) // a negative one waits forever, as 0 does
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{cfg: cfg, bml: NewBML(cfg.BMLBytes), metrics: newServerMetrics(reg)}
	if cfg.Mode != ModeDirect {
		if shards <= 0 {
			shards = defaultShards(cfg.Workers)
		}
		s.sched = newScheduler(shards, cfg.Workers)
	}
	s.metrics.wire(s)
	if s.sched != nil {
		for i := 0; i < cfg.Workers; i++ {
			s.workerWG.Add(1)
			go s.worker(i)
		}
	}
	return s
}

// Metrics returns the server's telemetry registry (serve it at /metrics —
// see cmd/fwdd).
func (s *Server) Metrics() *telemetry.Registry { return s.metrics.reg }

// BMLStats exposes the staging pool counters.
func (s *Server) BMLStats() BMLStats { return s.bml.Stats() }

// Stats returns a snapshot of the server counters, read from the telemetry
// registry's atomics (the single source of truth the /metrics endpoint also
// exports).
func (s *Server) Stats() ServerStats {
	m := s.metrics
	var ops uint64
	for i := range m.requests {
		ops += m.requests[i].Value()
	}
	return ServerStats{
		Ops:          ops,
		BytesWritten: m.bytesWritten.Value(),
		BytesRead:    m.bytesRead.Value(),
		StagedWrites: m.staged.Value(),
		WorkerBatch:  m.batches.Value(),
		Conns:        m.conns.Value(),
		Degraded:     m.bmlDegraded.Value(),
		Spilled:      m.spilled.Value(),
		WorkerPanics: m.workerPanics.Value(),
	}
}

// Serve accepts connections until the listener fails or the server closes.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ECLOSED
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		//lint:allow goroleak per-connection handlers exit on their conn's EOF/error; Close closes the listeners and in-flight conns are interrupted by their next I/O
		go func() { _ = s.ServeConn(c) }()
	}
}

// Close stops accepting, drains the worker pool, and releases resources.
// In-flight connections are interrupted by their next I/O.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ls := s.listeners
	s.mu.Unlock()
	for _, l := range ls {
		_ = l.Close()
	}
	if s.sched != nil {
		s.sched.close()
		s.workerWG.Wait()
	}
	return nil
}

// ServeConn handles one client connection until EOF or error. It is
// exported so tests and in-process users can serve a net.Pipe end directly.
// It returns only after every pipelined spill ack has resolved and the ack
// writer has exited, so nothing of the connection outlives it.
func (s *Server) ServeConn(nc net.Conn) error {
	s.metrics.conns.Inc()
	s.metrics.activeConns.Inc()
	defer s.metrics.activeConns.Dec()
	c := &serverConn{srv: s, nc: nc, rd: bufio.NewReaderSize(nc, readBufSize), out: nc, db: newDescDB(s.metrics)}
	err := c.serve()
	c.teardown()
	_ = nc.Close()
	if err == io.EOF || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// serve runs the handler loop; on a server with a spill tier it brackets the
// loop with the ack writer's start and join.
func (c *serverConn) serve() error {
	if c.srv.cfg.Spill == nil {
		return c.run()
	}
	c.acks = make(chan pipelinedAck, maxPipelinedAcks)
	c.slots = make(chan struct{}, maxPipelinedAcks)
	var ackWriter sync.WaitGroup
	ackWriter.Add(1)
	go func() {
		defer ackWriter.Done()
		c.writeAcks()
	}()
	err := c.run()
	// The spill tier resolves every submitted record exactly once, so taking
	// every slot waits out the unresolved acks; after that no sender is left
	// and the queue can close.
	for i := 0; i < maxPipelinedAcks; i++ {
		c.slots <- struct{}{}
	}
	close(c.acks)
	ackWriter.Wait()
	return err
}

// maxPipelinedAcks bounds how many spilled writes one connection may have
// submitted to the spill tier and not yet answered; at the bound the handler
// stops reading frames until a reply leaves. It bounds the memory the
// connection's uncommitted records pin in the spill tier's cohorts, and —
// acks being a channel of exactly this capacity — guarantees the spill
// tier's committer never blocks handing an ack over. 16 is twice the
// per-connection depth of the burst benchmark; a client with a deeper window
// is served 16 spilled writes at a time.
const maxPipelinedAcks = 16

// pipelinedAck is the reply to one spilled write, built when the spill tier
// resolves the record and written by the connection's ack writer.
type pipelinedAck struct {
	reqID uint64
	flags uint16
	errno Errno
	n     int64
	op    int       // opIndex, for the request-latency histogram
	start time.Time // header decoded
	acked time.Time // record resolved: the reply stage runs from here
}

// readBufSize is the size of a connection's read buffer: a header plus a
// 16 KiB payload, so a 4 KiB or 16 KiB write frame arrives in one read.
const readBufSize = headerSize + 16<<10

// serverConn is the per-connection handler — the role of the per-CN ZOID
// thread. It decodes requests sequentially; whether it executes them itself
// or hands them to the worker pool depends on the server mode. Replies to
// spilled writes are pipelined: the handler submits the record and goes back
// to reading, and the ack writer sends the reply once the spill tier has
// made the record durable — so replies can leave out of request order (the
// client demultiplexes by request id).
type serverConn struct {
	srv *Server
	nc  net.Conn
	db  *descDB
	// rd buffers every read of nc (headers, open paths, payloads and
	// discards); only the handler touches it. Once rd is empty it reads a
	// payload remainder of at least readBufSize straight into the caller's
	// buffer, so a large payload copies only its buffered prefix and a tail
	// shorter than the buffer.
	rd *bufio.Reader

	// wmu is the reply lock: a response frame is written whole under it, so
	// the handler's inline replies and the ack writer's batches never
	// interleave on the wire. out is nc's write side and whb the header
	// array reply encodes into; every use of either holds wmu.
	wmu sync.Mutex
	out io.Writer
	whb [headerSize]byte
	rhb [headerSize]byte // run's header reads; only the handler touches it

	// Pipelined spill acks; nil on a server without a spill tier. slots
	// holds one token per spilled write submitted and not yet answered; acks
	// carries resolved replies from the spill tier to the ack writer.
	acks  chan pipelinedAck
	slots chan struct{}
	// spare is the unpooled payload buffer (see unpooled); only the handler
	// touches it.
	spare []byte
	// observed is set by handleWrite when the current op's latency is not
	// dispatch's to observe: a spilled write's reply was left to the ack
	// writer, which observes it then, and an inline staged write observed
	// it at its reply, before running.
	observed bool
}

func (c *serverConn) run() (err error) {
	// A panic in a handler (a filter, a backend open/sync/close) costs this
	// connection, never the process; the deferred teardown in
	// ServeConn still drains and closes the connection's descriptors.
	defer func() {
		if r := recover(); r != nil {
			c.srv.metrics.connPanics.Inc()
			err = fmt.Errorf("%w: connection handler recovered panic: %v", EIO, r)
		}
	}()
	var h header
	for {
		if err := readHeader(c.rd, &c.rhb, &h); err != nil {
			return err
		}
		if err := c.dispatch(&h); err != nil {
			return err
		}
	}
}

// teardown drains and closes every descriptor left open by the client.
func (c *serverConn) teardown() {
	for _, d := range c.db.all() {
		d.drain()
		_ = d.handle.Close()
		c.db.remove(d.fd)
	}
}

// reply sends a payload-free response frame. value carries op-specific
// results (fd, size, byte count); read data leaves through replyFrame.
func (c *serverConn) reply(reqID uint64, flags uint16, errno Errno, value int64) error {
	h := header{
		op:      0, // responses reuse the header with op 0
		flags:   flags,
		reqID:   reqID,
		offset:  uint64(value),
		pathLen: uint16(errno),
	}
	m := c.srv.metrics
	if errno != EOK {
		m.replyErrors.Inc()
	}
	t0 := time.Now()
	c.wmu.Lock()
	err := writeFrame(c.out, c.whb[:], &h, "", nil)
	c.wmu.Unlock()
	m.stageReply.Observe(time.Since(t0).Nanoseconds())
	return err
}

// send writes already-encoded response frames under the reply lock.
func (c *serverConn) send(frames []byte) error {
	c.wmu.Lock()
	_, err := c.out.Write(frames)
	c.wmu.Unlock()
	return err
}

// writeAcks is the connection's ack writer: it drains the completion queue
// the spill tier fills, encodes every ack that is ready into one buffer and
// sends them with a single write, then frees their slots. It runs on its
// own goroutine because the spill tier's committer must never write to a
// client socket — one stalled client would stall every connection's
// durability. Exits when ServeConn closes the queue.
func (c *serverConn) writeAcks() {
	m := c.srv.metrics
	batch := make([]pipelinedAck, 0, maxPipelinedAcks)
	wire := make([]byte, 0, maxPipelinedAcks*headerSize)
	for a := range c.acks {
		batch = append(batch[:0], a)
	gather:
		for {
			select {
			case a, ok := <-c.acks:
				if !ok {
					break gather
				}
				batch = append(batch, a)
			default:
				break gather
			}
		}
		wire = wire[:len(batch)*headerSize]
		for i, a := range batch {
			h := header{flags: a.flags, reqID: a.reqID, offset: uint64(a.n), pathLen: uint16(a.errno)}
			h.encode((*[headerSize]byte)(wire[i*headerSize:]))
			if a.errno != EOK {
				m.replyErrors.Inc()
			}
		}
		err := c.send(wire)
		now := time.Now()
		for _, a := range batch {
			m.stageReply.Observe(now.Sub(a.acked).Nanoseconds())
			m.reqLatency[a.op].Observe(now.Sub(a.start).Nanoseconds())
			<-c.slots
		}
		if err != nil {
			// The handler learns of a dead connection from its next read;
			// make sure there is one to fail.
			_ = c.nc.Close()
		}
	}
}

// replyFrame sends a response whose payload already sits in a BML-leased
// reply frame (from Lease): the header is encoded into the frame's reserved
// header room and header+payload leave in a single connection write. The
// frame is returned to the pool here, exactly once, after the wire write.
func (c *serverConn) replyFrame(reqID uint64, flags uint16, errno Errno, frame []byte, n int) error {
	h := header{
		op:      0, // responses reuse the header with op 0
		flags:   flags,
		reqID:   reqID,
		offset:  uint64(int64(n)),
		length:  uint32(n),
		pathLen: uint16(errno),
	}
	h.encode((*[headerSize]byte)(frame))
	m := c.srv.metrics
	if errno != EOK {
		m.replyErrors.Inc()
	}
	m.zeroCopyReplies.Inc() // before the write: the client may act on the reply at once
	t0 := time.Now()
	err := c.send(frame[:headerSize+n])
	m.stageReply.Observe(time.Since(t0).Nanoseconds())
	c.srv.bml.Put(frame)
	return err
}

// deferredFlags folds a descriptor's pending deferred error into a reply.
func deferredFlags(d *descriptor) (uint16, Errno) {
	if err := d.takeError(); err != nil {
		return FlagDeferredErr, toErrno(errors.Unwrap(err))
	}
	return 0, EOK
}

// dispatch times the whole request (header decoded to reply written) into
// the per-op latency histogram around handleOp, unless handleWrite already
// saw to it (see observed).
func (c *serverConn) dispatch(h *header) error {
	m := c.srv.metrics
	i := opIndex(h.op)
	m.requests[i].Inc()
	start := time.Now()
	err := c.handleOp(h, start)
	if c.observed {
		c.observed = false
		return err
	}
	m.reqLatency[i].Observe(time.Since(start).Nanoseconds())
	return err
}

func (c *serverConn) handleOp(h *header, start time.Time) error {
	s := c.srv
	switch h.op {
	case OpOpen:
		if h.pathLen == 0 || h.pathLen > MaxPath {
			return c.reply(h.reqID, 0, EINVAL, 0)
		}
		path := make([]byte, h.pathLen)
		if _, err := io.ReadFull(c.rd, path); err != nil {
			return err
		}
		handle, err := s.cfg.Backend.Open(string(path), true)
		if err != nil {
			return c.reply(h.reqID, 0, toErrno(err), 0)
		}
		d := c.db.open(string(path), handle)
		return c.reply(h.reqID, 0, EOK, int64(d.fd))

	case OpClose:
		d, ok := c.db.lookup(h.fd)
		if !ok {
			return c.reply(h.reqID, 0, EBADF, 0)
		}
		d.drain()
		flags, errno := deferredFlags(d)
		if err := d.handle.Close(); err != nil && errno == EOK {
			errno = toErrno(err)
		}
		c.db.remove(h.fd)
		return c.reply(h.reqID, flags, errno, 0)

	case OpWrite, OpPwrite:
		return c.handleWrite(h, start)

	case OpRead, OpPread:
		return c.handleRead(h)

	case OpFsync:
		d, ok := c.db.lookup(h.fd)
		if !ok {
			return c.reply(h.reqID, 0, EBADF, 0)
		}
		d.drain()
		flags, errno := deferredFlags(d)
		if err := d.handle.Sync(); err != nil && errno == EOK {
			errno = toErrno(err)
		}
		return c.reply(h.reqID, flags, errno, 0)

	case OpStat:
		d, ok := c.db.lookup(h.fd)
		if !ok {
			return c.reply(h.reqID, 0, EBADF, 0)
		}
		size, err := d.handle.Size()
		return c.reply(h.reqID, 0, toErrno(err), size)

	case OpFlush:
		for _, d := range c.db.all() {
			d.drain()
		}
		return c.reply(h.reqID, 0, EOK, 0)

	case OpErrPoll:
		d, ok := c.db.lookup(h.fd)
		if !ok {
			return c.reply(h.reqID, 0, EBADF, 0)
		}
		flags, errno := deferredFlags(d)
		return c.reply(h.reqID, flags, errno, 0)
	}
	return c.reply(h.reqID, 0, EINVAL, 0)
}

// handleWrite receives the payload into a BML buffer, then spills, stages,
// or executes it. start is the dispatch timestamp; the recv stage is
// measured from it to payload-received (BML admission wait included — that
// is the staging back-pressure the paper describes).
func (c *serverConn) handleWrite(h *header, start time.Time) error {
	s := c.srv
	m := s.metrics
	if h.length > MaxPayload {
		return fmt.Errorf("%w: oversized write %d", EINVAL, h.length)
	}
	d, ok := c.db.lookup(h.fd)
	if !ok {
		// Drain the payload to keep the stream in sync.
		if _, err := c.rd.Discard(int(h.length)); err != nil {
			return err
		}
		return c.reply(h.reqID, 0, EBADF, 0)
	}
	// Receive into a staging buffer. Without a spill tier, allocation
	// blocks under the BML cap, which back-pressures the client exactly as
	// the paper describes; with BMLTimeout set, exhaustion instead degrades
	// this write to the synchronous path with an unpooled buffer, so one
	// stalled backend cannot wedge every forwarder on admission forever.
	// With a spill tier a write never waits: it stages only if a buffer is
	// free right now and none of the descriptor's spilled records is live
	// (see the ordering note below); otherwise it goes to the spill tier.
	var buf []byte
	var pooled bool
	if s.cfg.Spill == nil {
		buf, pooled = s.bml.getTimeout(int(h.length), s.cfg.BMLTimeout)
	} else if !d.spillPending() {
		buf, pooled = s.bml.tryGet(int(h.length))
	}
	if !pooled {
		buf = c.unpooled(int(h.length))
	}
	putBuf := func() {
		if pooled {
			s.bml.Put(buf)
		}
	}
	if _, err := io.ReadFull(c.rd, buf); err != nil {
		putBuf()
		return err
	}
	recvd := time.Now()
	m.stageRecv.Observe(recvd.Sub(start).Nanoseconds())
	m.writeBytes.Observe(int64(h.length))
	// Forwarding-node data filtering happens before offsets are reserved,
	// so reduced output still lands contiguously under cursor writes.
	if s.cfg.Filters != nil {
		filtered, ferr := s.cfg.Filters.Apply(d.name, int64(h.offset), buf)
		if ferr != nil {
			putBuf()
			return c.reply(h.reqID, 0, toErrno(ferr), 0)
		}
		if len(filtered) > len(buf) {
			putBuf()
			return c.reply(h.reqID, 0, EINVAL, 0)
		}
		if len(filtered) == 0 {
			buf = buf[:0]
		} else if &filtered[0] != &buf[0] || len(filtered) != len(buf) {
			n := copy(buf, filtered)
			buf = buf[:n]
		}
	}
	var off int64
	var opNum uint64
	if h.op == OpPwrite {
		off = int64(h.offset)
		opNum = d.at()
	} else {
		off, opNum = d.nextOffset(int64(len(buf)))
	}
	n := int64(h.length)
	m.bytesWritten.Add(uint64(n))

	// A write that did not stage is first offered to the spill tier (when
	// one is configured): the payload is durably logged locally and
	// acknowledged, and the background drainer applies it to the backend
	// later — burst absorption instead of sync collapse. The spill
	// registers with the descriptor's in-flight bookkeeping exactly like a
	// staged op, so reads, fsync, and close drain it and its failure
	// surfaces as a deferred error.
	//
	// The handler only submits: Submit fixes the record's place in the log
	// and copies the payload out, and the handler returns to the next frame
	// while the reply waits for the record to become durable — a connection
	// with several writes in flight feeds them all to one group commit.
	//
	// Ordering: the spill drainer is a second executor outside the
	// descriptor's scheduler shard, so while any of the descriptor's
	// spilled records are still live in the WAL (replayable by a crash
	// recovery), subsequent writes also route through the WAL: its
	// per-name FIFO keeps two acknowledged writes to the same offset
	// ordered, both live and across a restart replay. spillStart happens
	// at submit, so that holds for writes behind an unresolved ack. The
	// descriptor's first live record must not overtake its queued staged
	// writes either, so it first waits out the ones it overlaps; with no
	// record live, only staged ops can be in flight.
	if s.cfg.Spill != nil && !pooled {
		c.slots <- struct{}{} // parks while maxPipelinedAcks are unanswered
		if !d.spillPending() {
			d.drainOverlap(off, off+n)
		}
		d.start(off, off+n)
		d.spillStart()
		reqID, op := h.reqID, opIndex(h.op) // h is reused for the next frame
		serr := s.cfg.Spill.Submit(d.name, off, buf, func(err error) {
			ack := pipelinedAck{reqID: reqID, n: n, op: op, start: start, acked: time.Now()}
			m.stageSpill.Observe(ack.acked.Sub(recvd).Nanoseconds())
			if err != nil {
				// The record's batch never reached the disk: it is not in the
				// log and will not be applied. Answer EIO and unwind so
				// drain/close do not wait for it. No late fallback write — a
				// successor may already have committed on a newer segment and
				// must not be overtaken.
				d.spillRelease()
				d.complete(opNum, nil)
				ack.errno, ack.n = toErrno(err), 0
			} else {
				m.spilled.Inc()
				// Deferred flags are folded in only now, after the record
				// landed.
				ack.flags, ack.errno = deferredFlags(d)
				ack.flags |= FlagStaged | FlagSpilled
			}
			c.acks <- ack // never blocks: this write holds one of cap(acks) slots
		}, func(e error) { d.complete(opNum, e) }, d.spillRelease)
		if serr == nil { // the spiller copied the payload into its log buffer
			c.observed = true
			return nil
		}
		<-c.slots
		d.spillRelease()       // undo spillStart: the record never entered the log
		d.complete(opNum, nil) // undo start: ditto
		m.spillRejects.Inc()
		// Refused while older spilled records are still live: this write
		// must not overtake them on the sync or staged path (a recovery
		// replay could also undo it), so wait for the WAL to apply, flush,
		// and truncate them first.
		d.waitSpillReleased()
	}

	// The one decision staging adds: a pooled write under ModeAsync is
	// acknowledged as soon as it is queued, and the worker that runs it
	// returns its buffer and records its outcome for a later op to report.
	// A write claimInline admits is acknowledged the same way and then run
	// by the handler, which returns its buffer and records its outcome.
	if pooled && s.cfg.Mode == ModeAsync {
		flags, errno := deferredFlags(d)
		inline := s.sched.claimInline(d)
		d.start(off, off+n)
		t := task{d: d, op: OpWrite, buf: buf, off: off, opNum: opNum, enq: recvd}
		if !inline {
			q := t // only a queued task outlives this frame
			if err := s.sched.put(&q); err != nil {
				d.complete(opNum, nil) // undo start: the op never entered the queue
				putBuf()
				m.queueRejects.Inc()
				return c.reply(h.reqID, flags, ECLOSED, 0)
			}
		}
		m.staged.Inc()
		err := c.reply(h.reqID, flags|FlagStaged, errno, n)
		if inline {
			m.reqLatency[opIndex(h.op)].Observe(time.Since(start).Nanoseconds())
			c.observed = true
			s.execute(&t, time.Now(), m.connPanics)
			s.sched.releaseInline()
		}
		return err
	}

	// Every other write runs to completion before its reply. A degraded
	// (unpooled) write runs on the handler — the synchronous path BMLTimeout
	// and a spill refusal promise — so only pool buffers ever reach a
	// worker, and the connection's unpooled buffer is free again by the
	// next frame. Running outside the shard, it first waits out the staged
	// writes it overlaps, which would otherwise land after it.
	var flags uint16
	if !pooled {
		m.bmlDegraded.Inc()
		flags = FlagDegraded
		d.drainOverlap(off, off+n)
	}
	_, err, qerr := s.exec(task{d: d, op: OpWrite, buf: buf, off: off, enq: recvd}, !pooled)
	putBuf()
	if qerr != nil {
		return c.reply(h.reqID, 0, toErrno(qerr), 0)
	}
	return c.reply(h.reqID, flags, toErrno(err), n)
}

// unpooled returns an n-byte buffer for a payload that takes no staging
// buffer (spilled or degraded). Submit copies the payload out and a
// degraded write finishes before the next frame, so a payload that fits the
// read buffer's size reuses one buffer the connection keeps; a larger one
// is allocated per write.
func (c *serverConn) unpooled(n int) []byte {
	if n > readBufSize {
		return make([]byte, n)
	}
	if c.spare == nil {
		c.spare = make([]byte, readBufSize)
	}
	return c.spare[:n]
}

// handleRead executes a read and replies with its data; reads block for the
// data in every mode. They first drain the descriptor's staged and spilled
// writes, so the client observes its own writes, and fold in any deferred
// error those left — both no-ops in a mode that never stages.
//
// The reply is zero-copy: the backend reads directly into the payload region
// of a BML-leased reply frame, the response header is encoded into the
// frame's header room, and the whole frame goes out in one connection write
// before the frame returns to the pool — no scratch buffer, no payload copy,
// no separate header write.
func (c *serverConn) handleRead(h *header) error {
	s := c.srv
	m := s.metrics
	if h.length > MaxPayload {
		return fmt.Errorf("%w: oversized read %d", EINVAL, h.length)
	}
	d, ok := c.db.lookup(h.fd)
	if !ok {
		return c.reply(h.reqID, 0, EBADF, 0)
	}
	// A read whose padded reply frame could never be admitted by the staging
	// pool is refused before the cursor moves, instead of panicking in the
	// pool allocator.
	if !s.bml.LeaseFits(int(h.length)) {
		return c.reply(h.reqID, 0, EINVAL, 0)
	}
	var off int64
	if h.op == OpPread {
		off = int64(h.offset)
		d.at()
	} else {
		off, _ = d.nextOffset(int64(h.length))
	}
	d.drain()
	flags, derrno := deferredFlags(d)
	frame := s.bml.Lease(int(h.length))
	buf := frame[headerSize : headerSize+int(h.length)]
	n, err, qerr := s.exec(task{d: d, op: OpRead, buf: buf, off: off, enq: time.Now()}, false)
	if qerr != nil {
		s.bml.Put(frame) // nothing was read: no zero-copy reply
		return c.reply(h.reqID, flags, toErrno(qerr), 0)
	}
	m.readBytes.Observe(int64(n))
	m.bytesRead.Add(uint64(n))
	errno := toErrno(err)
	if derrno != EOK && errno == EOK {
		errno = derrno
	}
	return c.replyFrame(h.reqID, flags, errno, frame, n)
}
