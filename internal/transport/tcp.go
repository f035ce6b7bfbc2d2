package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"selfserv/internal/message"
)

// maxFrame bounds a single wire frame; SELF-SERV control messages are
// small (variable bags), so even a generous batch fits in 16 MiB, and
// the bound protects listeners from corrupt length prefixes.
const maxFrame = 16 << 20

// tcpHeader is the frame header on the socket: the payload's length,
// big-endian. The shared sender leaves room for it in front of every
// payload it encodes (pipeline.room).
const tcpHeader = 4

// readBufSize is the buffer each inbound connection reads into
// (nextFrame): a few hundred chain hops or a dozen wide batches per
// read(2), and what an idle connection costs the listener.
const readBufSize = 16 << 10

// tcpWriteTimeout bounds one socket write; a peer that stops reading for
// longer counts as failed and the connection is re-established.
const tcpWriteTimeout = 10 * time.Second

// dialTimeout bounds connection establishment, first dial and redial.
const dialTimeout = 5 * time.Second

// errRetired is the internal signal that a cached connection was evicted
// between lookup and enqueue; the send path retries with a fresh one.
var errRetired = errors.New("transport: connection retired")

// TCP is a Network transmitting length-prefixed frames over TCP
// connections, the Go equivalent of the paper's documents "exchanged
// through Java sockets". A frame's payload is one message frame
// (message.MarshalBatch; Send's is the batch of one).
//
// Outbound connections are cached per destination and shared by all
// Senders. Each cached connection owns a BOUNDED write queue drained by
// one writer goroutine: a send enqueues a frame (blocking or shedding
// per FlowOptions when the queue is full — so a slow peer stalls only
// its own connection, never sends to other destinations) and the writer
// re-establishes failed connections with jittered exponential backoff,
// re-sending the failed frame first so per-sender FIFO order survives
// reconnects. Every accepted frame is its own wire write. Idle
// connections age out (FlowOptions.IdleTimeout) and the cache is capped
// (FlowOptions.MaxConns).
//
// The Sender, admission, receive lanes and stats are the shared
// pipeline's; this file is the socket beneath them.
type TCP struct {
	pipeline
	bo *backoff

	mu        sync.Mutex
	listeners map[string]*tcpEndpoint
	conns     map[string]*tcpConn
	ever      map[string]bool // destinations connected at least once
	closed    bool
	stop      chan struct{} // closed by Close; stops janitor and writer backoffs
	writerWG  sync.WaitGroup
}

// NewTCP returns an empty TCP network. An optional FlowOptions tunes
// flow control and connection lifecycle; omitted, the documented
// defaults apply (256-frame queues, block policy, 5s send deadline, no
// idle eviction, no conn cap).
func NewTCP(flow ...FlowOptions) *TCP {
	var fo FlowOptions
	if len(flow) > 0 {
		fo = flow[0]
	}
	fo = fo.withDefaults()
	t := &TCP{
		bo:        newBackoff(fo),
		listeners: map[string]*tcpEndpoint{},
		conns:     map[string]*tcpConn{},
		ever:      map[string]bool{},
		stop:      make(chan struct{}),
	}
	t.pipeline = newPipeline(fo, t, tcpHeader)
	if fo.IdleTimeout > 0 {
		go t.janitor()
	}
	return t
}

// tcpConn is one cached outbound connection: a bounded frame queue, the
// writer goroutine draining it, and the current socket. The lifecycle
// invariant: a connection is evicted (retired) only when no sender is
// inside enqueue AND no frame is queued or being written, so eviction
// never drops an accepted frame.
type tcpConn struct {
	net  *TCP
	addr string
	dst  *nodeCounters // destination-keyed flow counters

	queue chan []byte // length-prefixed frames, in acceptance order
	// space is the admission semaphore bounding accepted-but-unwritten
	// frames at QueueLen: a send takes a slot before enqueueing and the
	// writer frees it only AFTER the frame hit the wire — so the frame
	// being written still counts against the bound (the queue channel
	// alone would free its slot the moment the writer takes the frame).
	space chan struct{}
	stop  chan struct{} // closed on retire; writer exits, waiters bail

	// Frames accepted but not yet written are counted on dst.queueDepth
	// (one live connection per destination, so the Stats gauge is also
	// the eviction guard); it only moves while pending > 0 or under
	// stateMu, so idle() reads it consistently.
	stateMu sync.Mutex
	retired bool
	pending int // senders currently inside enqueue
	lastUse time.Time

	sockMu sync.Mutex
	c      net.Conn // nil while disconnected
	dialed bool     // a socket existed before (re-dial counts as reconnect)
}

// MintAddr implements Network: TCP listen addresses are loopback
// ephemeral binds; the logical hint has no wire meaning.
func (t *TCP) MintAddr(string) string { return "127.0.0.1:0" }

// Listen implements Network. addr is "host:port"; "127.0.0.1:0" binds an
// ephemeral port, reported by the endpoint's Addr.
func (t *TCP) Listen(addr string, h Handler) (Endpoint, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for %q", addr)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	t.mu.Unlock()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &tcpEndpoint{net: t, ln: ln, addr: ln.Addr().String(), accepted: map[net.Conn]struct{}{}}
	ep.rc = t.node(ep.addr)
	ctx := context.Background()
	// The messages of a frame reach the handler sequentially, in batch
	// order; the lane delivers its frames in arrival order.
	ep.lanes = newRecvLanes(ep.rc, func(f inFrame) {
		h(ctx, f.first)
		for _, m := range f.rest {
			h(ctx, m)
		}
	}, nil)
	t.mu.Lock()
	t.listeners[ep.addr] = ep
	t.mu.Unlock()
	go ep.acceptLoop()
	return ep, nil
}

// accept implements wire: it writes the payload's length into the room
// the sender left in front of it and places the frame in the
// destination's bounded write queue. A nil return means the frame is
// accepted: the writer goroutine will deliver it (re-dialing with backoff
// as needed), in acceptance order. Beyond the admission errors, a failed
// FIRST dial is ErrUnknownAddress.
func (t *TCP) accept(ctx context.Context, to string, f outFrame) error {
	frame := lengthPrefix(f.data)
	for {
		tc, err := t.conn(ctx, to)
		if err != nil {
			return err
		}
		err = tc.enqueue(ctx, frame)
		if errors.Is(err, errRetired) {
			continue // evicted between lookup and enqueue: retry on a fresh conn
		}
		if err != nil {
			return err
		}
		f.charge(len(frame))
		return nil
	}
}

// lengthPrefix fills in the header of a frame that was encoded with room
// for it (message.MarshalWithRoom) and returns it.
func lengthPrefix(frame []byte) []byte {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-tcpHeader))
	return frame
}

// enqueue places frame in the connection's bounded queue, applying the
// full-queue policy. Admission is the space semaphore (not the queue
// channel), so the frame the writer is still writing keeps counting
// against the bound. While a sender waits here the connection counts as
// in use and cannot be evicted.
func (tc *tcpConn) enqueue(ctx context.Context, frame []byte) error {
	tc.stateMu.Lock()
	if tc.retired {
		tc.stateMu.Unlock()
		return errRetired
	}
	tc.pending++
	tc.lastUse = time.Now()
	tc.stateMu.Unlock()
	defer func() {
		tc.stateMu.Lock()
		tc.pending--
		tc.stateMu.Unlock()
	}()

	if err := tc.net.flow.admit(ctx, tc.addr, tc.dst, tc.space, tc.stop, errRetired); err != nil {
		return err
	}
	// A slot is held, so the buffered channel always has room.
	tc.dst.queueDepth.Add(1)
	tc.queue <- frame
	return nil
}

// idle reports that no sender is inside enqueue and no frame is queued or
// being written — the only state a connection may be evicted in, so
// eviction never drops an accepted frame. Caller holds tc.stateMu.
func (tc *tcpConn) idle() bool { return tc.pending == 0 && tc.dst.queueDepth.Load() == 0 }

// writeLoop drains the queue one frame per wire write, re-establishing
// the connection with jittered backoff on failure. The failing frame
// stays first in line, so the receiver observes the sender's acceptance
// order across any number of reconnects. A frame's slot is freed only
// once it has been written.
func (tc *tcpConn) writeLoop() {
	defer tc.net.writerWG.Done()
	for {
		var f []byte
		select {
		case <-tc.stop:
			return
		case f = <-tc.queue:
		}
		tc.writeFrame(f)
		tc.stateMu.Lock()
		tc.dst.queueDepth.Add(-1)
		tc.lastUse = time.Now()
		tc.stateMu.Unlock()
		<-tc.space
	}
}

// writeFrame writes one frame, retrying with backoff until it succeeds
// or the connection is retired. Accepted frames are only ever dropped at
// retirement (network Close), never silently mid-stream.
func (tc *tcpConn) writeFrame(frame []byte) {
	for attempt := 0; ; attempt++ {
		select {
		case <-tc.stop:
			return
		default:
		}
		if attempt > 0 {
			if !tc.sleep(tc.net.bo.delay(attempt)) {
				return
			}
		}
		c := tc.socket()
		if c == nil {
			nc, err := tc.redial()
			if err != nil {
				continue
			}
			c = nc
		}
		_ = c.SetWriteDeadline(time.Now().Add(tcpWriteTimeout))
		if _, err := c.Write(frame); err == nil {
			return
		}
		tc.dropSocket(c)
	}
}

// sleep waits d, abandoned early when the connection retires or the
// network closes. Returns false when abandoned.
func (tc *tcpConn) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-tc.stop:
		return false
	case <-tc.net.stop:
		return false
	}
}

func (tc *tcpConn) socket() net.Conn {
	tc.sockMu.Lock()
	defer tc.sockMu.Unlock()
	return tc.c
}

// redial re-establishes the socket after a write failure, counting a
// reconnect on the destination's stats.
func (tc *tcpConn) redial() (net.Conn, error) {
	tc.stateMu.Lock()
	retired := tc.retired
	tc.stateMu.Unlock()
	if retired {
		return nil, errRetired
	}
	d := net.Dialer{Timeout: dialTimeout}
	c, err := d.Dial("tcp", tc.addr)
	if err != nil {
		return nil, err
	}
	// Only the connection's single writer goroutine dials, so tc.c is
	// nil here; the lock only orders this store against retire.
	tc.sockMu.Lock()
	tc.c = c
	if tc.dialed {
		tc.dst.reconnects.Add(1)
	}
	tc.dialed = true
	tc.sockMu.Unlock()
	// A retire racing the dial closes tc.c under sockMu; re-check so a
	// socket established after that close cannot leak past Close.
	tc.stateMu.Lock()
	retired = tc.retired
	tc.stateMu.Unlock()
	if retired {
		tc.dropSocket(c)
		return nil, errRetired
	}
	return c, nil
}

// dropSocket closes and forgets the current socket (failed write).
func (tc *tcpConn) dropSocket(c net.Conn) {
	tc.sockMu.Lock()
	if tc.c == c {
		tc.c = nil
	}
	tc.sockMu.Unlock()
	c.Close()
}

// conn returns the cached connection for to, dialing it on first use.
// The first dial is synchronous so a send to an address nobody listens
// on fails fast with ErrUnknownAddress (the pre-flow-control contract).
func (t *TCP) conn(ctx context.Context, to string) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := t.conns[to]; ok {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()

	d := net.Dialer{Timeout: dialTimeout}
	c, err := d.DialContext(ctx, "tcp", to)
	if err != nil {
		return nil, fmt.Errorf("%w: %s (%v)", ErrUnknownAddress, to, err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.conns[to]; ok {
		t.mu.Unlock()
		c.Close()
		return existing, nil
	}
	if t.flow.MaxConns > 0 && len(t.conns) >= t.flow.MaxConns {
		t.evictLRULocked()
	}
	tc := &tcpConn{
		net:  t,
		addr: to,
		dst:  t.node(to),
		// Admission is bounded by the space semaphore (QueueLen slots,
		// freed only after a frame is written), so the frame the writer is
		// writing still counts; the channel merely carries what was
		// admitted and can never block a slot holder.
		queue:   make(chan []byte, t.flow.QueueLen),
		space:   make(chan struct{}, t.flow.QueueLen),
		stop:    make(chan struct{}),
		lastUse: time.Now(),
		c:       c,
		dialed:  true,
	}
	if t.ever[to] {
		// A fresh dial to a destination seen before: the previous cached
		// connection was evicted or lost — this is a reconnect, and the
		// eviction must be transparent to callers.
		tc.dst.reconnects.Add(1)
	}
	t.ever[to] = true
	t.conns[to] = tc
	t.writerWG.Add(1)
	t.mu.Unlock()
	go tc.writeLoop()
	return tc, nil
}

// evictLRULocked retires the least-recently-used idle connection to keep
// the cache under MaxConns. Busy connections are never evicted, so the
// cap is a soft bound when every destination is busy. Caller holds t.mu.
func (t *TCP) evictLRULocked() {
	var victim *tcpConn
	var oldest time.Time
	for _, tc := range t.conns {
		tc.stateMu.Lock()
		if tc.idle() && (victim == nil || tc.lastUse.Before(oldest)) {
			victim, oldest = tc, tc.lastUse
		}
		tc.stateMu.Unlock()
	}
	if victim != nil && victim.retire(false) {
		delete(t.conns, victim.addr)
	}
}

// retire stops the connection — writer exits, waiting senders bail out
// with errRetired, socket closed — and reports whether it did. Unless
// force is set (network Close: accepted frames drop) it refuses a
// connection that is no longer idle.
func (tc *tcpConn) retire(force bool) bool {
	tc.stateMu.Lock()
	if tc.retired || (!force && !tc.idle()) {
		tc.stateMu.Unlock()
		return false
	}
	tc.retired = true
	close(tc.stop)
	tc.stateMu.Unlock()
	tc.sockMu.Lock()
	if tc.c != nil {
		tc.c.Close()
		tc.c = nil
	}
	tc.sockMu.Unlock()
	return true
}

// janitor ages out idle connections every IdleTimeout/4.
func (t *TCP) janitor() {
	interval := t.flow.IdleTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
			t.mu.Lock()
			for _, tc := range t.conns {
				tc.stateMu.Lock()
				stale := time.Since(tc.lastUse) >= t.flow.IdleTimeout
				tc.stateMu.Unlock()
				if stale && tc.retire(false) {
					delete(t.conns, tc.addr)
				}
			}
			t.mu.Unlock()
		}
	}
}

// ConnCount reports the number of cached outbound connections — the
// observable for idle-eviction and max-conns tests and monitoring.
func (t *TCP) ConnCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// Close implements Network. Accepted-but-unwritten frames are dropped
// (the network is going away); writers and the janitor stop.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.stop)
	eps := make([]*tcpEndpoint, 0, len(t.listeners))
	for _, ep := range t.listeners {
		eps = append(eps, ep)
	}
	t.listeners = map[string]*tcpEndpoint{}
	conns := t.conns
	t.conns = map[string]*tcpConn{}
	t.mu.Unlock()
	for _, tc := range conns {
		tc.retire(true)
	}
	t.writerWG.Wait()
	for _, ep := range eps {
		ep.closeListener()
	}
	return nil
}

// inFrame is one decoded inbound frame on its way to the handler. A
// frame of one — every notification a chain hop sends — is first alone;
// only a batch brings a slice.
type inFrame struct {
	first *message.Message
	rest  []*message.Message
}

// tcpEndpoint is one listener plus its bounded receive lanes. Inbound
// frames are decoded on the connection's read loop, then handed to the
// lane of the frame's logical source (recvLanes). A full lane blocks the
// read loop: backpressure flows through the kernel socket to the
// sender's bounded write queue instead of materializing as goroutines
// here.
type tcpEndpoint struct {
	net   *TCP
	ln    net.Listener
	addr  string        // ln.Addr().String(), formatted once
	rc    *nodeCounters // this endpoint's receive-side counters
	lanes *recvLanes[inFrame]

	mu       sync.Mutex
	closed   bool
	accepted map[net.Conn]struct{}
	wg       sync.WaitGroup
}

func (e *tcpEndpoint) Addr() string { return e.addr }

// Close is registration-scoped: a stale handle closed again after the
// address was re-listened must not unregister the live listener.
func (e *tcpEndpoint) Close() error {
	e.net.mu.Lock()
	if e.net.listeners[e.addr] == e {
		delete(e.net.listeners, e.addr)
	}
	e.net.mu.Unlock()
	e.closeListener()
	return nil
}

func (e *tcpEndpoint) closeListener() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	conns := make([]net.Conn, 0, len(e.accepted))
	for c := range e.accepted {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	e.ln.Close()
	// Unblock readLoops blocked feeding a full lane — frames still queued
	// are dropped, the endpoint is going away — and those waiting on peers
	// that keep their cached outbound connections open.
	e.lanes.stop()
	for _, c := range conns {
		c.Close()
	}
	e.wg.Wait()
	e.lanes.reap()
}

func (e *tcpEndpoint) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.accepted[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer func() {
				e.mu.Lock()
				delete(e.accepted, conn)
				e.mu.Unlock()
				conn.Close()
			}()
			e.readLoop(bufio.NewReaderSize(conn, readBufSize))
		}()
	}
}

// errFrameLength reports a length prefix no sender of this package
// writes: the stream is corrupt or foreign.
var errFrameLength = errors.New("transport: frame length out of range")

// nextFrame returns the payload of the next frame on br, the
// connection's one read buffer: a read(2) takes whatever the socket holds
// — a header with its payload, several frames sent back to back — and the
// payload is handed out as a slice of that buffer, valid until the next
// call (the decoder copies what it keeps). Only a frame the buffer cannot
// hold gets a slice of its own.
func nextFrame(br *bufio.Reader) ([]byte, error) {
	header, err := br.Peek(tcpHeader)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(header))
	if n == 0 || n > maxFrame {
		return nil, errFrameLength
	}
	if tcpHeader+n > br.Size() {
		br.Discard(tcpHeader)
		payload := make([]byte, n)
		_, err := io.ReadFull(br, payload)
		return payload, err
	}
	frame, err := br.Peek(tcpHeader + n)
	br.Discard(len(frame))
	return frame[tcpHeader:], err
}

// readLoop decodes the connection's frames and queues each on its
// sender's lane; it returns — and the connection is dropped — when the
// stream ends or stops being a sequence of frames.
func (e *tcpEndpoint) readLoop(br *bufio.Reader) {
	for {
		payload, err := nextFrame(br)
		if err != nil {
			return
		}
		first, rest, err := message.UnmarshalFrame(payload)
		if err != nil {
			// The length prefix held, so the stream is still in step: count
			// the frame, say so, keep the connection.
			e.rc.recordUndecodable(e.addr, len(payload), err)
			continue
		}
		e.rc.recordIn(1+len(rest), len(payload)+tcpHeader)
		e.lanes.put(first.From, inFrame{first, rest})
	}
}
