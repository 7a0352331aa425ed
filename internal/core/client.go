package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Client is the compute-node side of the forwarding protocol — the role of
// the compute node kernel, which ships every I/O call to the I/O node. A
// Client multiplexes concurrent requests from many goroutines over one
// connection.
//
// A configured Client (see ClientConfig) is fault-tolerant: Timeout bounds
// every operation, ReconnectAttempts re-establishes a failed transport with
// exponential backoff plus jitter (re-opening descriptors and replaying
// idempotent in-flight operations; non-idempotent ones fail fast with
// ErrConnectionLost), Window caps the operations in flight, and Coalesce
// merges adjacent positional writes into single wire operations while the
// cap is full. Every public operation takes a context.Context; cancellation
// and deadlines propagate to admission waits, reconnect parks and response
// waits.
//
// A Client starts no goroutine to read. The connection is read only by a
// caller holding the reader token: it reads replies until its own arrives,
// delivering the others to their waiting callers on the way, and then
// passes the token on. At depth 1 a reply therefore wakes the goroutine that
// sent the request and nothing else, as a compute node's reply returns to the
// thread blocked in its own system call.
type Client struct {
	cfg ClientConfig // normalized
	met clientMetrics

	adm    *admission // nil: no in-flight cap
	coal   *coalescer // nil: write coalescing disabled
	coalWG sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand

	wmu sync.Mutex // serializes request frames on the current conn
	wb  []byte     // send's frame buffer, frameCopyMax long; guarded by wmu

	mu      sync.Mutex
	nc      net.Conn
	gen     uint64 // connection generation, bumped on every failover
	nextID  uint64
	nextFD  uint64
	pending map[uint64]*pendingCall
	files   map[uint64]*openFile // client-visible fd -> remote state
	ready   chan struct{}        // closed while a conn is installed
	lastErr error                // terminal failure; nil while usable
	closed  bool

	// tok is the reader token, a channel of capacity 1 that holds it while
	// nobody reads. The fields below are its holder's: rd buffers the
	// generation-rgen connection rnc, stop disarms the holder's context
	// interrupt (nil when none is armed), cut records that the interrupt
	// fired, and intr carries the interrupt's completion (see arm).
	// interrupt is interruptRead bound once, so arming allocates no closure.
	tok       chan struct{}
	rd        *bufio.Reader
	rnc       net.Conn
	rgen      uint64
	stop      func() bool
	cut       bool
	intr      chan struct{}
	interrupt func()
}

// openFile tracks one client-visible descriptor so it can be re-opened on a
// fresh connection after failover. serverFD is the descriptor on the
// *current* connection; it equals the client fd until the first reconnect.
type openFile struct {
	name     string
	serverFD uint64
}

// pendingCall is one in-flight request. The original arguments are retained
// so idempotent calls can be replayed verbatim on a new connection. sentAt
// timestamps the first transmission for the smoothed RTT; replayed marks
// calls re-sent after a failover, whose round trips straddle a reconnect and
// are not sampled (Karn's algorithm). resp is filled by the reader token's
// holder and delivered as &resp, so a call allocates no separate response.
// The holder returns its own call's &resp directly; every other call's it
// sends on ch.
//
// dst is the caller's buffer of a read (nil for every other op): the token
// holder reads a reply payload that fits straight into it. Ownership rule:
// once a holder has removed a call from c.pending (the claim), it owns dst
// until it delivers the call, and it delivers or unclaims every claim
// before it gives the token back. Hence a caller whose context ends may
// return early only if its own delete removed the call; otherwise it waits
// for the delivery, which comes after the rest of one frame or when the
// connection fails. A payload read that fails after the claim is a
// transport failure: the holder puts the call back into c.pending before
// connFailed, so it is replayed or failed like any other in-flight op —
// unless its caller abandoned it, in which case the holder just releases
// it.
type pendingCall struct {
	ch        chan callResult
	op        Op
	fd        uint64 // client-visible fd
	offset    uint64
	length    uint32
	path      string
	payload   []byte
	dst       []byte
	resp      response
	sentAt    time.Time
	replayed  bool // written under Client.mu; read after receiving on ch
	abandoned bool // under Client.mu: the caller's context ended after the claim
}

type callResult struct {
	resp *response
	err  error
}

// deliver hands the call its one result. ch has capacity 1 and a call is
// delivered only by whoever removed it from c.pending, so the send never
// blocks — which is what lets connFailed and failLocked deliver under
// c.mu. A second delivery would break that rule and panics rather than
// blocking with the lock held.
func (pc *pendingCall) deliver(r callResult) {
	select {
	case pc.ch <- r:
	default:
		panic("core: pending call delivered twice")
	}
}

type response struct {
	flags   uint16
	errno   Errno
	value   int64
	payload []byte
}

// clientMetrics are the client-side counters; they are always counted and
// additionally exported when ClientConfig.Metrics supplies a registry.
type clientMetrics struct {
	timeouts   telemetry.Counter
	reconnects telemetry.Counter
	replays    telemetry.Counter
	lostOps    telemetry.Counter
	coalesced  telemetry.Counter
}

func (m *clientMetrics) register(reg *telemetry.Registry) {
	reg.MustRegister("iofwd_timeouts_total",
		"Operations abandoned because the per-op deadline expired.", &m.timeouts)
	reg.MustRegister("iofwd_reconnects_total",
		"Successful transport re-establishments after a connection failure.", &m.reconnects)
	reg.MustRegister("iofwd_replays_total",
		"Idempotent in-flight operations replayed on a fresh connection.", &m.replays)
	reg.MustRegister("iofwd_lost_ops_total",
		"Non-idempotent in-flight operations failed with ErrConnectionLost on a connection failure.", &m.lostOps)
}

// newClient builds the Client from a normalized config around an
// established connection; both constructor surfaces (ClientConfig and the
// deprecated options) funnel through here.
func (cfg ClientConfig) newClient(nc net.Conn) *Client {
	n := cfg.normalized()
	c := &Client{
		cfg:     n,
		rng:     rand.New(rand.NewSource(n.Seed)),
		nc:      nc,
		nextID:  1,
		nextFD:  3, // mirrors the server's numbering until the first failover
		wb:      make([]byte, frameCopyMax),
		pending: make(map[uint64]*pendingCall),
		files:   make(map[uint64]*openFile),
		ready:   make(chan struct{}),
		tok:     make(chan struct{}, 1),
		rd:      bufio.NewReaderSize(nc, readBufSize),
		rnc:     nc,
		intr:    make(chan struct{}, 1),
	}
	close(c.ready)
	c.tok <- struct{}{}
	c.interrupt = c.interruptRead
	if n.Window.Max > 0 {
		c.adm = newAdmission(n.Window.Max)
		if n.Coalesce.MaxBytes > 0 {
			c.coal = newCoalescer(c, n.Coalesce)
		}
	}
	if n.Metrics != nil {
		c.met.register(n.Metrics)
		if c.adm != nil {
			// Only a capped client can coalesce; an uncapped one keeps the
			// plain fault-counter surface.
			n.Metrics.MustRegister("iofwd_coalesced_writes_total",
				"Positional writes merged into an adjacent in-flight frame instead of taking their own wire operation.", &c.met.coalesced)
		}
	}
	return c
}

// ClientStats is a point-in-time snapshot of the client's fault counters
// and admission state. The admission fields (Cwnd, SRTT, Inflight) are zero
// when Window.Max is 0.
type ClientStats struct {
	// Retries counts operations the client reissued. The only reissue is a
	// replay after a reconnect, so it equals Replays.
	Retries    uint64
	Timeouts   uint64
	Reconnects uint64
	Replays    uint64
	LostOps    uint64

	CoalescedWrites uint64
	// Cwnd is the in-flight cap, WindowConfig.Max.
	Cwnd float64
	// SRTT is a 1/8-gain moving average of clean, non-replayed round trips.
	SRTT     time.Duration
	Inflight int
}

// Stats returns a snapshot of the client's counters and admission state.
func (c *Client) Stats() ClientStats {
	s := ClientStats{
		Retries:         c.met.replays.Value(),
		Timeouts:        c.met.timeouts.Value(),
		Reconnects:      c.met.reconnects.Value(),
		Replays:         c.met.replays.Value(),
		LostOps:         c.met.lostOps.Value(),
		CoalescedWrites: c.met.coalesced.Value(),
	}
	if c.adm != nil {
		var limit int
		limit, s.SRTT, s.Inflight = c.adm.snapshot()
		s.Cwnd = float64(limit)
	}
	return s
}

// lead is the reader token's holder reading replies for pc, which it sent
// as request id. It reads frames off the installed connection through rd
// and delivers each to its caller, claiming a reply's call before reading
// the payload, so a read reply lands in the caller's buffer (see pendingCall
// for the ownership rule); a payload with no buffer to land in — an unknown
// or late id, a non-read op, a reply longer than the caller's slice — gets a
// fresh slice. It returns done with pc's result when pc's reply arrives
// (after delivering every frame already whole in rd, with no channel hop for
// its own), when pc was delivered before it took the token, or when ctx ends
// (see arm). It returns not done when the connection failed, and the gate to
// wait on when no connection is installed. The caller gives the token back.
func (c *Client) lead(ctx context.Context, id uint64, pc *pendingCall) (res callResult, done bool, gate <-chan struct{}) {
	select {
	case res = <-pc.ch:
		return res, true, nil
	default:
	}
	c.mu.Lock()
	gen, nc, ready, failed := c.gen, c.nc, c.ready, c.lastErr != nil
	c.mu.Unlock()
	if failed {
		// failLocked delivered every call in c.pending, and every claim is
		// settled before its holder gives the token back.
		return <-pc.ch, true, nil
	}
	select {
	case <-ready:
	default:
		return res, false, ready // a reconnect is under way: nothing to read
	}
	if c.rgen != gen {
		c.rd.Reset(nc)
		c.rnc, c.rgen = nc, gen
	}
	c.arm(ctx)
	defer c.disarm()
	for own := false; !own || c.frameBuffered(); {
		h, err := c.nextHeader()
		if err != nil {
			if c.interrupted(err) {
				return c.abandon(ctx, id, pc), true, nil
			}
			c.connFailed(gen, err)
			return res, false, nil
		}
		c.mu.Lock()
		cp := c.pending[h.reqID] // the claim; nil for a late reply
		delete(c.pending, h.reqID)
		c.mu.Unlock()
		if err := c.readPayload(cp, &h); err != nil {
			switch {
			case cp == pc && c.cut:
				pc.deliver(callResult{err: err}) // its caller is leaving: no replay into dst
			case cp != nil:
				c.unclaim(h.reqID, cp)
			}
			c.connFailed(gen, err)
			if c.cut {
				return c.abandon(ctx, id, pc), true, nil
			}
			return res, false, nil
		}
		switch {
		case cp == pc && !c.cut:
			own = true // deliver the frames already whole in rd, then return
		case cp != nil:
			cp.deliver(callResult{resp: &cp.resp})
		}
		if c.cut {
			return c.abandon(ctx, id, pc), true, nil
		}
	}
	return callResult{resp: &pc.resp}, true, nil
}

// nextHeader reads and decodes the next frame header. It peeks before it
// consumes, so a read the context interrupt cuts short leaves a partial
// header in rd and the stream stays in sync for the next holder.
func (c *Client) nextHeader() (h header, err error) {
	hb, err := c.rd.Peek(headerSize)
	if err == nil {
		err = decodeHeader((*[headerSize]byte)(hb), &h)
		_, _ = c.rd.Discard(headerSize)
	}
	return h, err
}

// readPayload reads h's payload and, for a claimed call cp, fills its
// response. A context interrupt mid-payload does not stop it: the holder
// finishes the frame, so the stream stays in sync and dst is released.
func (c *Client) readPayload(cp *pendingCall, h *header) error {
	var payload []byte
	if h.length > 0 {
		if cp != nil && int(h.length) <= len(cp.dst) {
			payload = cp.dst[:h.length]
		} else {
			payload = make([]byte, h.length)
		}
		for got := 0; ; {
			n, err := io.ReadFull(c.rd, payload[got:])
			if err == nil {
				break
			}
			if !c.interrupted(err) {
				return err
			}
			got += n
		}
	}
	if cp != nil {
		cp.resp = response{flags: h.flags, errno: Errno(h.pathLen), value: int64(h.offset), payload: payload}
	}
	return nil
}

// frameBuffered reports whether rd holds a whole frame, which can be read
// without blocking.
func (c *Client) frameBuffered() bool {
	if c.rd.Buffered() < headerSize {
		return false
	}
	hb, _ := c.rd.Peek(headerSize)
	var h header
	return decodeHeader((*[headerSize]byte)(hb), &h) == nil && c.rd.Buffered() >= headerSize+int(h.length)
}

// arm makes the end of the holder's ctx interrupt its blocked read:
// interruptRead sets a read deadline in the past on rnc. A cancel-free ctx
// arms nothing.
func (c *Client) arm(ctx context.Context) {
	c.cut = false
	if ctx.Done() != nil {
		c.stop = context.AfterFunc(ctx, c.interrupt)
	}
}

// interruptRead runs on its own goroutine when the holder's ctx ends.
func (c *Client) interruptRead() {
	_ = c.rnc.SetReadDeadline(time.Unix(1, 0))
	c.intr <- struct{}{}
}

// disarm stops the interrupt. One that has already run has set rnc's
// deadline: disarm waits for it to finish and clears the deadline, so no
// interrupt outlives its holder.
func (c *Client) disarm() {
	if c.stop != nil && !c.stop() {
		<-c.intr
		_ = c.rnc.SetReadDeadline(time.Time{})
	}
	c.stop = nil
}

// interrupted reports whether a read failed because the holder's interrupt
// fired. It disarms the interrupt (clearing the deadline, so a frame cut
// short can be finished) and records the cut.
func (c *Client) interrupted(err error) bool {
	if c.stop == nil || !errors.Is(err, os.ErrDeadlineExceeded) {
		return false
	}
	c.disarm()
	c.cut = true
	return true
}

// unclaim hands a call back after its payload read failed, ending the token
// holder's ownership of dst: into c.pending for connFailed to replay or
// fail, or straight to its caller if the caller abandoned it or the client
// has failed. Only the token's holder calls connFailed, so the generation
// cannot have moved on since the claim.
func (c *Client) unclaim(id uint64, pc *pendingCall) {
	c.mu.Lock()
	err := c.lastErr
	if err == nil && pc.abandoned {
		err = ErrConnectionLost
	}
	if err == nil {
		c.pending[id] = pc
	}
	c.mu.Unlock()
	if err != nil {
		pc.deliver(callResult{err: err})
	}
}

// idempotentOp reports whether an in-flight op may be replayed on a fresh
// connection without risking duplicate effects: positional reads and writes
// and stat are safe; cursor ops, open/close/fsync/flush/errpoll are not
// (cursor position and deferred-error state do not survive failover).
func idempotentOp(op Op) bool {
	switch op {
	case OpPread, OpPwrite, OpStat:
		return true
	}
	return false
}

// connFailed handles a transport failure observed on generation gen: it
// either fails everything (no redialer / client closed) or starts a
// reconnect, failing non-idempotent in-flight ops fast and keeping
// idempotent ones for replay. Only the reader token's holder calls it.
func (c *Client) connFailed(gen uint64, cause error) {
	c.mu.Lock()
	if c.gen != gen || c.lastErr != nil {
		c.mu.Unlock()
		return
	}
	_ = c.nc.Close()
	if c.closed {
		c.failLocked(fmt.Errorf("%w: %v", ErrClientClosed, cause))
		c.mu.Unlock()
		return
	}
	if c.cfg.Redial == nil {
		c.failLocked(fmt.Errorf("%w: %v", ErrConnectionLost, cause))
		c.mu.Unlock()
		return
	}
	// Failover: invalidate the generation, block new calls on a fresh
	// ready gate, split the in-flight set.
	c.gen++
	c.ready = make(chan struct{})
	var replay []*pendingCall
	var replayIDs []uint64
	for id, pc := range c.pending {
		if idempotentOp(pc.op) {
			pc.replayed = true // exclude its round trip from the smoothed RTT
			replay = append(replay, pc)
			replayIDs = append(replayIDs, id)
			continue
		}
		delete(c.pending, id)
		c.met.lostOps.Inc()
		pc.deliver(callResult{err: fmt.Errorf("%w: %v", ErrConnectionLost, cause)})
	}
	files := make([]*openFile, 0, len(c.files))
	for _, f := range c.files {
		files = append(files, f)
	}
	c.mu.Unlock()
	//lint:allow goroleak reconnect is one-shot and self-terminating: it exits after redial success, retry exhaustion, or observing the client closed
	go c.reconnect(cause, files, replay, replayIDs)
}

// failLocked delivers a terminal error to every in-flight call, to all
// parked admission waiters, and to all future calls. Callers hold c.mu.
func (c *Client) failLocked(err error) {
	c.lastErr = err
	if c.adm != nil {
		c.adm.close(err)
	}
	for id, pc := range c.pending {
		delete(c.pending, id)
		pc.deliver(callResult{err: err})
	}
	select {
	case <-c.ready:
	default:
		close(c.ready) // wake calls parked on the reconnect gate
	}
}

// backoff returns the jittered exponential delay for 1-based attempt k:
// base·2^(k-1) capped at max, scaled by a uniform factor in [0.5, 1.5).
func (c *Client) backoff(k int, base, max time.Duration) time.Duration {
	d := base << uint(k-1)
	if d > max || d <= 0 {
		d = max
	}
	c.rngMu.Lock()
	f := 0.5 + c.rng.Float64()
	c.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// reconnect re-establishes the transport with exponential backoff + jitter,
// re-opens every descriptor the client holds, installs the new connection,
// and replays the retained idempotent in-flight calls.
func (c *Client) reconnect(cause error, files []*openFile, replay []*pendingCall, replayIDs []uint64) {
	for attempt := 1; attempt <= c.cfg.ReconnectAttempts; attempt++ {
		time.Sleep(c.backoff(attempt, c.cfg.RetryBase, c.cfg.RetryMax))
		c.mu.Lock()
		if c.closed || c.lastErr != nil {
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		nc, err := c.cfg.Redial()
		if err != nil {
			continue
		}
		if err := reopenFiles(nc, files); err != nil {
			_ = nc.Close()
			continue
		}
		// Install the new connection and release parked callers.
		c.mu.Lock()
		if c.closed || c.lastErr != nil {
			c.mu.Unlock()
			_ = nc.Close()
			return
		}
		c.nc = nc
		c.gen++
		// Count the reconnect before the gate opens, so a parked call that
		// finishes on the new connection already sees it in Stats.
		c.met.reconnects.Inc()
		close(c.ready)
		c.mu.Unlock()
		// Replay idempotent in-flight ops with their original request ids;
		// their callers, woken by the gate, take the token and read the
		// replies off the new connection.
		for i, pc := range replay {
			c.met.replays.Inc()
			if err := c.send(nc, replayIDs[i], pc); err != nil {
				// The fresh connection died already; the next token holder
				// reads the failure and drives the next failover, which
				// re-collects this pending.
				break
			}
		}
		return
	}
	c.mu.Lock()
	c.failLocked(fmt.Errorf("%w: reconnect failed after %d attempts: %v",
		ErrConnectionLost, c.cfg.ReconnectAttempts, cause))
	c.mu.Unlock()
}

// reopenFiles performs a synchronous open exchange for every retained
// descriptor on a candidate connection, before it is installed, so no token
// holder reads it yet.
// Request ids live far above the call namespace to stay unique.
func reopenFiles(nc net.Conn, files []*openFile) error {
	id := uint64(1) << 62
	var hb [headerSize]byte
	var h header
	for _, f := range files {
		id++
		req := header{op: OpOpen, reqID: id, pathLen: uint16(len(f.name))}
		if err := writeFrame(nc, hb[:], &req, f.name, nil); err != nil {
			return err
		}
		if err := readHeader(nc, &hb, &h); err != nil {
			return err
		}
		if h.length > 0 {
			if _, err := io.CopyN(io.Discard, nc, int64(h.length)); err != nil {
				return err
			}
		}
		if Errno(h.pathLen) != EOK {
			return Errno(h.pathLen)
		}
		f.serverFD = h.offset
	}
	return nil
}

// send writes one request frame (with the fd translated to the current
// connection's descriptor) under the write mutex: a frame up to
// frameCopyMax leaves in one Write, a larger one as header and payload.
func (c *Client) send(nc net.Conn, id uint64, pc *pendingCall) error {
	fd := pc.fd
	c.mu.Lock()
	if f, ok := c.files[pc.fd]; ok {
		fd = f.serverFD
	}
	c.mu.Unlock()
	h := header{op: pc.op, reqID: id, fd: fd, offset: pc.offset,
		length: pc.length, pathLen: uint16(len(pc.path))}
	c.wmu.Lock()
	err := writeFrame(nc, c.wb, &h, pc.path, pc.payload)
	c.wmu.Unlock()
	return err
}

// ctxErr converts a finished context into the client's error vocabulary: a
// deadline maps to ErrOpTimeout (counted as a timeout, exactly like the old
// deadline-channel path), a cancellation wraps context.Canceled so
// errors.Is(err, context.Canceled) holds for callers.
func (c *Client) ctxErr(ctx context.Context, op Op, what string) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		c.met.timeouts.Inc()
		return fmt.Errorf("%w: %s %s: %w", ErrOpTimeout, op, what, ctx.Err())
	}
	return fmt.Errorf("core: %s canceled while %s: %w", op, what, ctx.Err())
}

// call performs one request/response exchange: in-flight cap admission,
// the reconnect-gate wait, registration, send, and the response wait, all
// under ctx, with ClientConfig.Timeout layered on as a derived deadline, so
// the op fails when either the caller's context or the per-op budget
// expires. A clean response that was not replayed across a reconnect is an
// RTT sample. dst is a read's destination (nil for every other op): a reply
// payload that fits is read straight into it.
func (c *Client) call(ctx context.Context, op Op, fd uint64, offset uint64, length uint32, path string, payload, dst []byte) (*response, error) {
	if c.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.Timeout)
		defer cancel()
	}
	if c.adm != nil {
		if err := c.adm.acquire(ctx); err != nil {
			if ctx.Err() != nil {
				return nil, c.ctxErr(ctx, op, "waiting for a window slot")
			}
			return nil, err
		}
		defer c.adm.release()
	}
	pc := &pendingCall{
		ch: make(chan callResult, 1),
		op: op, fd: fd, offset: offset, length: length, path: path, payload: payload, dst: dst,
	}
	// Admission: wait for an installed connection (reconnects park callers
	// here) or a terminal error, then register the call under the lock.
	c.mu.Lock()
	for {
		if c.lastErr != nil {
			err := c.lastErr
			c.mu.Unlock()
			return nil, err
		}
		ready := c.ready
		select {
		case <-ready:
		default:
			c.mu.Unlock()
			select {
			case <-ready:
			case <-ctx.Done():
				return nil, c.ctxErr(ctx, op, "waiting for reconnection")
			}
			c.mu.Lock()
			continue
		}
		break
	}
	id := c.nextID
	c.nextID++
	pc.sentAt = time.Now()
	c.pending[id] = pc
	nc := c.nc
	c.mu.Unlock()

	if err := c.send(nc, id, pc); err != nil {
		// A write failure is a transport failure. Closing nc hands it to
		// the token holder, the only caller of connFailed (so no failover
		// can split c.pending while a holder has a claimed call); connFailed
		// then decides this call's outcome (replay or typed error) like any
		// other in-flight op.
		_ = nc.Close()
	}
	res := c.await(ctx, id, pc)
	// pc.replayed was written under c.mu before the replay was re-sent; the
	// claim of its reply under c.mu orders that write before this read.
	if c.adm != nil && res.err == nil && !pc.replayed {
		c.adm.sample(time.Since(pc.sentAt))
	}
	return res.resp, res.err
}

// await waits for pc's result in one select on its own channel, the reader
// token and ctx. A caller that takes the token reads replies itself (lead);
// if the connection failed or is not installed yet, it gives the token back
// and waits again, on the ready gate if a reconnect is under way.
func (c *Client) await(ctx context.Context, id uint64, pc *pendingCall) callResult {
	for {
		select {
		case res := <-pc.ch:
			return res
		case <-c.tok:
		case <-ctx.Done():
			return c.abandon(ctx, id, pc)
		}
		res, done, gate := c.lead(ctx, id, pc)
		c.tok <- struct{}{}
		if done {
			return res
		}
		if gate != nil {
			select {
			case res := <-pc.ch:
				return res
			case <-gate:
			case <-ctx.Done():
				return c.abandon(ctx, id, pc)
			}
		}
	}
}

// abandon ends the wait of a call whose ctx ended. If a token holder has
// claimed its reply, that holder owns dst until it delivers, so a read waits
// for the delivery: the rest of one frame, or the connection's failure.
func (c *Client) abandon(ctx context.Context, id uint64, pc *pendingCall) callResult {
	c.mu.Lock()
	_, mine := c.pending[id]
	delete(c.pending, id) // a late reply is dropped by the token holder
	pc.abandoned = !mine
	c.mu.Unlock()
	if !mine && pc.dst != nil {
		<-pc.ch
	}
	return callResult{err: c.ctxErr(ctx, pc.op, "awaiting a response")}
}

// respErr converts a response's status into a Go error, reconstructing
// deferred-error reporting.
func respErr(fd uint64, r *response) error {
	if r.errno == EOK {
		return nil
	}
	if r.flags&FlagDeferredErr != 0 {
		return &DeferredError{FD: fd, Err: r.errno}
	}
	return r.errno
}

// Open opens (creating if needed) the named remote object. ctx bounds the
// exchange alongside ClientConfig.Timeout.
func (c *Client) Open(ctx context.Context, name string) (*File, error) {
	if len(name) == 0 || len(name) > MaxPath {
		return nil, EINVAL
	}
	r, err := c.call(ctx, OpOpen, 0, 0, 0, name, nil, nil)
	if err != nil {
		return nil, err
	}
	if r.errno != EOK {
		return nil, r.errno
	}
	c.mu.Lock()
	fd := c.nextFD
	c.nextFD++
	c.files[fd] = &openFile{name: name, serverFD: uint64(r.value)}
	c.mu.Unlock()
	return &File{c: c, fd: fd, name: name}, nil
}

// Flush blocks until every staged operation on this connection has
// completed on the server.
func (c *Client) Flush(ctx context.Context) error {
	r, err := c.call(ctx, OpFlush, 0, 0, 0, "", nil, nil)
	if err != nil {
		return err
	}
	return respErr(0, r)
}

// DropConnection forcibly closes the client's transport without closing the
// Client — a network-failure injection hook for chaos testing (see
// chaos_test.go). With reconnection enabled the client redials,
// re-opens its descriptors, and replays idempotent in-flight operations.
// A token holder reading the connection fails over when its read fails; an
// idle client has no reader, so DropConnection takes the token and fails
// over itself, before the next call.
func (c *Client) DropConnection() {
	c.mu.Lock()
	nc, gen, ready := c.nc, c.gen, c.ready
	c.mu.Unlock()
	_ = nc.Close()
	select {
	case <-ready:
	default:
		return // a reconnect is already under way
	}
	c.failIdle(gen, net.ErrClosed)
}

// failIdle fails generation gen over if nobody holds the reader token, as
// the holder would have. Taking the token never blocks, and so neither does
// giving it back.
func (c *Client) failIdle(gen uint64, cause error) {
	select {
	case <-c.tok:
		c.connFailed(gen, cause)
		c.tok <- struct{}{}
	default:
	}
}

// Close tears down the connection. Outstanding staged writes are drained by
// the server before their descriptors disappear. Calls after Close fail
// with an error wrapping ErrClientClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	nc := c.nc
	// Both the typed root and the errno are wrapped (%w twice), so callers
	// classify the shutdown either way: errors.Is(err, ErrClientClosed) and
	// errors.Is(err, ECLOSED) both hold.
	c.failLocked(fmt.Errorf("%w: %w", ErrClientClosed, ECLOSED))
	c.mu.Unlock()
	err := nc.Close()
	// Join the coalescer senders. failLocked already failed their merged
	// calls (and closed the cap), and nc is closed above, so no sender
	// can still be blocked on the network.
	c.coalWG.Wait()
	return err
}

// File is an open remote descriptor.
type File struct {
	c    *Client
	fd   uint64
	name string
}

// Name returns the path the file was opened with.
func (f *File) Name() string { return f.name }

// WriteCtx appends b at the server-side cursor. Under an
// asynchronous-staging server the data has been copied and queued when
// WriteCtx returns, not yet executed; a returned *DeferredError reports a
// *previous* staged write's failure while the current write was still
// accepted. Cursor writes are never coalesced and never replayed across a
// reconnect: they are not idempotent.
func (f *File) WriteCtx(ctx context.Context, b []byte) (int, error) {
	if len(b) > MaxPayload {
		return 0, EINVAL
	}
	r, err := f.c.call(ctx, OpWrite, f.fd, 0, uint32(len(b)), "", b, nil)
	if err != nil {
		return 0, err
	}
	return int(r.value), respErr(f.fd, r)
}

// Write appends b at the server-side cursor with no caller context.
func (f *File) Write(b []byte) (int, error) {
	return f.WriteCtx(context.Background(), b)
}

// WriteAtCtx writes b at the given offset. Positional writes are
// idempotent: after a connection failure with reconnection enabled, an
// in-flight WriteAtCtx is replayed on the new connection instead of
// failing. With coalescing enabled and the in-flight cap full, adjacent
// writes on the same descriptor may be merged into one wire operation;
// completion (including per-sub-write short counts and errors) is split
// back per caller.
func (f *File) WriteAtCtx(ctx context.Context, b []byte, off int64) (int, error) {
	if len(b) > MaxPayload || off < 0 {
		return 0, EINVAL
	}
	if co := f.c.coal; co != nil {
		if n, err, handled := co.writeAt(ctx, f.fd, b, off); handled {
			return n, err
		}
	}
	r, err := f.c.call(ctx, OpPwrite, f.fd, uint64(off), uint32(len(b)), "", b, nil)
	if err != nil {
		return 0, err
	}
	return int(r.value), respErr(f.fd, r)
}

// WriteAt writes b at the given offset with no caller context.
func (f *File) WriteAt(b []byte, off int64) (int, error) {
	return f.WriteAtCtx(context.Background(), b, off)
}

// ReadCtx fills b from the server-side cursor. Reads always block for the
// data and are ordered behind staged writes on the same descriptor. The
// reply is read from the connection straight into b, so b may be partly
// written even when ReadCtx fails; on an error its contents are unspecified.
func (f *File) ReadCtx(ctx context.Context, b []byte) (int, error) {
	if len(b) > MaxPayload {
		return 0, EINVAL
	}
	r, err := f.c.call(ctx, OpRead, f.fd, 0, uint32(len(b)), "", nil, b)
	if err != nil {
		return 0, err
	}
	return landed(b, r.payload), respErr(f.fd, r)
}

// Read fills b from the server-side cursor with no caller context.
func (f *File) Read(b []byte) (int, error) {
	return f.ReadCtx(context.Background(), b)
}

// ReadAtCtx fills b from the given offset. ReadAtCtx is idempotent and
// replayed across reconnects like WriteAtCtx. The reply is read from the
// connection straight into b, so b may be partly written even when
// ReadAtCtx fails; on an error its contents are unspecified, as for
// io.ReaderAt.
func (f *File) ReadAtCtx(ctx context.Context, b []byte, off int64) (int, error) {
	if len(b) > MaxPayload || off < 0 {
		return 0, EINVAL
	}
	r, err := f.c.call(ctx, OpPread, f.fd, uint64(off), uint32(len(b)), "", nil, b)
	if err != nil {
		return 0, err
	}
	return landed(b, r.payload), respErr(f.fd, r)
}

// landed returns how many reply bytes b holds: the token holder read a
// payload that fits straight into b, so only a fallback payload (longer than b) is
// copied, truncated to len(b).
func landed(b, payload []byte) int {
	if len(payload) > 0 && len(b) > 0 && &payload[0] == &b[0] {
		return len(payload)
	}
	return copy(b, payload)
}

// ReadAt fills b from the given offset with no caller context.
func (f *File) ReadAt(b []byte, off int64) (int, error) {
	return f.ReadAtCtx(context.Background(), b, off)
}

// SyncCtx drains staged operations on this descriptor and syncs the
// backend; it reports any deferred error.
func (f *File) SyncCtx(ctx context.Context) error {
	r, err := f.c.call(ctx, OpFsync, f.fd, 0, 0, "", nil, nil)
	if err != nil {
		return err
	}
	return respErr(f.fd, r)
}

// Sync drains staged operations and syncs the backend with no caller
// context.
func (f *File) Sync() error {
	return f.SyncCtx(context.Background())
}

// StatCtx returns the remote object's current size.
func (f *File) StatCtx(ctx context.Context) (int64, error) {
	r, err := f.c.call(ctx, OpStat, f.fd, 0, 0, "", nil, nil)
	if err != nil {
		return 0, err
	}
	return r.value, respErr(f.fd, r)
}

// Stat returns the remote object's current size with no caller context.
func (f *File) Stat() (int64, error) {
	return f.StatCtx(context.Background())
}

// PollError retrieves (and clears) a pending deferred error without
// performing I/O.
func (f *File) PollError() error {
	r, err := f.c.call(context.Background(), OpErrPoll, f.fd, 0, 0, "", nil, nil)
	if err != nil {
		return err
	}
	return respErr(f.fd, r)
}

// Close drains staged operations, closes the remote descriptor, and
// reports any unconsumed deferred error.
func (f *File) Close() error {
	r, err := f.c.call(context.Background(), OpClose, f.fd, 0, 0, "", nil, nil)
	if err != nil {
		return err
	}
	f.c.mu.Lock()
	delete(f.c.files, f.fd)
	f.c.mu.Unlock()
	return respErr(f.fd, r)
}
