package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Client is the compute-node side of the forwarding protocol — the role of
// the compute node kernel, which ships every I/O call to the I/O node. A
// Client multiplexes concurrent requests from many goroutines over one
// connection.
//
// A configured Client (see ClientConfig) is fault-tolerant and adaptive:
// Timeout bounds every operation, MaxRetries retries operations the server
// shed with EAGAIN, ReconnectAttempts re-establishes a failed transport
// with exponential backoff plus jitter (re-opening descriptors and
// replaying idempotent in-flight operations; non-idempotent ones fail fast
// with ErrConnectionLost), Window gates admission through an AIMD
// congestion window fed by an EWMA RTT estimator, and Coalesce merges
// adjacent positional writes into single wire operations when the window
// is full. Every public operation takes a context.Context; cancellation
// and deadlines propagate to admission waits, reconnect parks, retry
// backoffs, and response waits.
type Client struct {
	cfg ClientConfig // normalized
	met clientMetrics

	cg     *congestion // nil: congestion control disabled (legacy admission)
	coal   *coalescer  // nil: write coalescing disabled
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
// timestamps the first transmission for the RTT estimator and the
// congestion epoch filter; replayed marks calls re-sent after a failover,
// whose round trips straddle a reconnect and must not feed the estimator
// (Karn's algorithm). resp is filled by readLoop and delivered as &resp, so
// a call allocates no separate response.
//
// dst is the caller's buffer of a read (nil for every other op): readLoop
// reads a reply payload that fits straight into it. Ownership rule: once
// readLoop has removed a call from c.pending (the claim), it owns dst until
// it sends on ch. Hence a caller whose context ends may return early only
// if its own delete removed the call; otherwise it waits for the delivery,
// which comes after the rest of one frame or when the connection fails. A
// payload read that fails after the claim is a transport failure: readLoop
// puts the call back into c.pending before connFailed, so it is replayed or
// failed like any other in-flight op — unless its caller abandoned it, in
// which case readLoop just releases it.
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
	retries    telemetry.Counter
	timeouts   telemetry.Counter
	reconnects telemetry.Counter
	replays    telemetry.Counter
	lostOps    telemetry.Counter

	coalesced     telemetry.Counter
	cwndDecreases telemetry.Counter
	rttNS         telemetry.Histogram
	cwnd          telemetry.Gauge
}

func (m *clientMetrics) register(reg *telemetry.Registry) {
	reg.MustRegister("iofwd_retries_total",
		"Operations retried by the client (EAGAIN backoff retries and post-reconnect replays).", &m.retries)
	reg.MustRegister("iofwd_timeouts_total",
		"Operations abandoned because the per-op deadline expired.", &m.timeouts)
	reg.MustRegister("iofwd_reconnects_total",
		"Successful transport re-establishments after a connection failure.", &m.reconnects)
	reg.MustRegister("iofwd_replays_total",
		"Idempotent in-flight operations replayed on a fresh connection.", &m.replays)
	reg.MustRegister("iofwd_lost_ops_total",
		"Non-idempotent in-flight operations failed with ErrConnectionLost on a connection failure.", &m.lostOps)
}

// registerCongestion exports the congestion-control families; registered
// only when the window is enabled so legacy clients keep their exact
// metric surface. The RTT family is iofwd_client_rtt_ns, not _seconds:
// the repo's histograms carry explicit unit suffixes (_ns/_bytes/_ops)
// enforced by telemetry.ValidateName.
func (m *clientMetrics) registerCongestion(reg *telemetry.Registry) {
	reg.MustRegister("iofwd_client_cwnd",
		"Current AIMD congestion window in in-flight operation slots.", &m.cwnd)
	reg.MustRegister("iofwd_client_rtt_ns",
		"Per-operation round-trip times feeding the EWMA estimator (replayed operations excluded).", &m.rttNS)
	reg.MustRegister("iofwd_cwnd_decreases_total",
		"Multiplicative window decreases triggered by EAGAIN sheds or operation timeouts.", &m.cwndDecreases)
	reg.MustRegister("iofwd_coalesced_writes_total",
		"Positional writes merged into an adjacent in-flight frame instead of taking their own wire operation.", &m.coalesced)
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
	}
	close(c.ready)
	if n.Window.Max > 0 {
		c.cg = newCongestion(n.Window, &c.met)
		if n.Coalesce.MaxBytes > 0 {
			c.coal = newCoalescer(c, n.Coalesce)
		}
	}
	if n.Metrics != nil {
		c.met.register(n.Metrics)
		if c.cg != nil {
			c.met.registerCongestion(n.Metrics)
		}
	}
	//lint:allow goroleak readLoop exits on its conn's read error; Client.Close closes nc, which unblocks and ends it
	go c.readLoop(nc, c.gen)
	return c
}

// ClientStats is a point-in-time snapshot of the client's fault counters
// and congestion-control state. The congestion fields (Cwnd, SRTT, RTTVar,
// Inflight) are zero when the window is disabled.
type ClientStats struct {
	Retries    uint64
	Timeouts   uint64
	Reconnects uint64
	Replays    uint64
	LostOps    uint64

	CoalescedWrites uint64
	CwndDecreases   uint64
	Cwnd            float64
	SRTT            time.Duration
	RTTVar          time.Duration
	Inflight        int
}

// Stats returns a snapshot of the client's counters and congestion state.
func (c *Client) Stats() ClientStats {
	s := ClientStats{
		Retries:         c.met.retries.Value(),
		Timeouts:        c.met.timeouts.Value(),
		Reconnects:      c.met.reconnects.Value(),
		Replays:         c.met.replays.Value(),
		LostOps:         c.met.lostOps.Value(),
		CoalescedWrites: c.met.coalesced.Value(),
		CwndDecreases:   c.met.cwndDecreases.Value(),
	}
	if c.cg != nil {
		s.Cwnd, s.SRTT, s.RTTVar, s.Inflight = c.cg.snapshot()
	}
	return s
}

// readLoop demultiplexes responses to their callers by request id. One loop
// runs per connection generation; a stale loop exits silently. It claims a
// reply's call before reading the payload, so a read reply lands in the
// caller's buffer (see pendingCall for the ownership rule); a payload with
// no buffer to land in — an unknown or late id, a non-read op, a reply
// longer than the caller's slice — gets a fresh slice.
func (c *Client) readLoop(nc net.Conn, gen uint64) {
	var hb [headerSize]byte
	var h header
	for {
		if err := readHeader(nc, &hb, &h); err != nil {
			c.connFailed(gen, err)
			return
		}
		c.mu.Lock()
		if c.gen != gen {
			c.mu.Unlock()
			return
		}
		pc := c.pending[h.reqID]
		delete(c.pending, h.reqID)
		c.mu.Unlock()
		var payload []byte
		if h.length > 0 {
			if pc != nil && int(h.length) <= len(pc.dst) {
				payload = pc.dst[:h.length]
			} else {
				payload = make([]byte, h.length)
			}
			if _, err := io.ReadFull(nc, payload); err != nil {
				if pc != nil {
					c.unclaim(h.reqID, pc)
				}
				c.connFailed(gen, err)
				return
			}
		}
		if pc != nil {
			pc.resp = response{flags: h.flags, errno: Errno(h.pathLen), value: int64(h.offset), payload: payload}
			pc.deliver(callResult{resp: &pc.resp})
		}
	}
}

// unclaim hands a call back after its payload read failed, ending readLoop's
// ownership of dst: into c.pending for connFailed to replay or fail, or
// straight to its caller if the caller abandoned it or the client has
// failed. Only readLoop calls connFailed for its own generation, so the
// generation cannot have moved on since the claim.
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
// idempotent ones for replay.
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
			pc.replayed = true // exclude its round trip from the RTT estimator
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
	if c.cg != nil {
		c.cg.close(err)
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
		gen := c.gen
		close(c.ready)
		c.mu.Unlock()
		c.met.reconnects.Inc()
		//lint:allow goroleak replacement readLoop exits on its conn's read error; Client.Close closes the live nc, which unblocks and ends it
		go c.readLoop(nc, gen)
		// Replay idempotent in-flight ops with their original request ids;
		// responses route through the new readLoop to the original callers.
		for i, pc := range replay {
			c.met.retries.Inc()
			c.met.replays.Inc()
			if err := c.send(nc, replayIDs[i], pc); err != nil {
				// The fresh connection died already; its readLoop will
				// drive the next failover, which re-collects this pending.
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
// descriptor on a candidate connection, before any readLoop owns it.
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

// call sends one request and waits for its response. The context governs
// every wait on the way — window admission, the reconnect gate, the
// response, and retry backoff — and ClientConfig.Timeout is layered on as a
// derived deadline, so the op fails when either the caller's context or the
// per-op budget expires. EAGAIN (shed) responses are retried with backoff
// for safely retryable data operations. dst is a read's destination (nil
// for every other op): a reply payload that fits is read straight into it.
func (c *Client) call(ctx context.Context, op Op, fd uint64, offset uint64, length uint32, path string, payload, dst []byte) (*response, error) {
	if c.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.Timeout)
		defer cancel()
	}
	for attempt := 0; ; attempt++ {
		r, err := c.callOnce(ctx, op, fd, offset, length, path, payload, dst)
		if err != nil {
			return nil, err
		}
		if r.errno != EAGAIN || attempt >= c.cfg.MaxRetries || !retryableErrno(op) {
			return r, nil
		}
		c.met.retries.Inc()
		wait := time.NewTimer(c.backoff(attempt+1, c.cfg.RetryBase, c.cfg.RetryMax))
		select {
		case <-wait.C:
		case <-ctx.Done():
			wait.Stop()
			return nil, c.ctxErr(ctx, op, "retrying a shed operation")
		}
	}
}

// retryableErrno reports whether an EAGAIN reply to op is safe to reissue:
// the server sheds before reserving a cursor or staging anything, so every
// data operation qualifies.
func retryableErrno(op Op) bool {
	switch op {
	case OpWrite, OpPwrite, OpRead, OpPread, OpStat:
		return true
	}
	return false
}

// callOnce performs a single request/response exchange: window admission,
// the reconnect-gate wait, registration, send, and the response wait, all
// under ctx. It also feeds the congestion controller — a clean response is
// an ack (with an RTT sample unless the op was replayed across a
// reconnect), an EAGAIN or a deadline expiry is a congestion signal.
func (c *Client) callOnce(ctx context.Context, op Op, fd uint64, offset uint64, length uint32, path string, payload, dst []byte) (*response, error) {
	if c.cg != nil {
		if err := c.cg.acquire(ctx); err != nil {
			if ctx.Err() != nil {
				return nil, c.ctxErr(ctx, op, "waiting for a window slot")
			}
			return nil, err
		}
		defer c.cg.release()
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
		// the generation's readLoop, the only caller of connFailed for its
		// own connection (so no failover can split c.pending while readLoop
		// holds a claimed call); connFailed then decides this call's outcome
		// (replay or typed error) like any other in-flight op.
		_ = nc.Close()
	}
	select {
	case res := <-pc.ch:
		if c.cg != nil && res.err == nil {
			if res.resp.errno == EAGAIN {
				c.cg.onCongestion(pc.sentAt)
			} else {
				// pc.replayed was written under c.mu before the replay was
				// re-sent; the response delivery on pc.ch orders that write
				// before this read.
				c.cg.onAck(time.Since(pc.sentAt), !pc.replayed)
			}
		}
		return res.resp, res.err
	case <-ctx.Done():
		c.mu.Lock()
		_, mine := c.pending[id]
		delete(c.pending, id) // a late response is dropped by readLoop
		pc.abandoned = !mine
		c.mu.Unlock()
		if !mine && dst != nil {
			<-pc.ch // readLoop claimed the reply and owns dst until it delivers
		}
		if c.cg != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			c.cg.onCongestion(pc.sentAt)
		}
		return nil, c.ctxErr(ctx, op, "awaiting a response")
	}
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
func (c *Client) DropConnection() {
	c.mu.Lock()
	nc := c.nc
	c.mu.Unlock()
	if nc != nil {
		_ = nc.Close()
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
	// calls (and closed the window), and nc is closed above, so no sender
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
// failing. With coalescing enabled and the congestion window full,
// adjacent writes on the same descriptor may be merged into one wire
// operation; completion (including per-sub-write short counts and errors)
// is split back per caller.
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

// landed returns how many reply bytes b holds: readLoop read a payload that
// fits straight into b, so only a fallback payload (longer than b) is
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
