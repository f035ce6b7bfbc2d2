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
	"syscall"
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

// TCP is a Network transmitting length-prefixed frames over TCP
// connections, the Go equivalent of the paper's documents "exchanged
// through Java sockets". A frame's payload is one message frame
// (message.MarshalBatch; Send's is the batch of one).
//
// Outbound connections are cached per destination and shared by all
// Senders. Each cached connection bounds its accepted-but-unwritten
// frames at FlowOptions.QueueLen: a send takes a slot (waiting up to
// FlowOptions.SendDeadline when all are held — so a slow peer stalls
// only its own connection, never sends to other destinations). When its
// frame is the only one held, the sender writes it itself, with one
// non-blocking write; otherwise, or when the socket takes only part of
// it, one writer goroutine writes it in acceptance order. The writer
// also re-establishes failed connections with jittered exponential
// backoff, re-sending the failed frame first so per-sender FIFO order
// survives reconnects. Every accepted frame goes on the wire alone. A
// cached connection lives until Close: the network keeps one per peer it
// has sent to.
//
// The Sender, admission, receive lanes and stats are the shared
// pipeline's; this file is the socket beneath them.
type TCP struct {
	pipeline
	bo *backoff

	mu        sync.Mutex
	listeners map[string]*tcpEndpoint
	conns     map[string]*tcpConn
	closed    bool
	stop      chan struct{} // closed by Close; stops writers, their backoffs and blocked senders
	writerWG  sync.WaitGroup
}

// NewTCP returns an empty TCP network. An optional FlowOptions tunes
// flow control; omitted, the documented defaults apply (256-frame
// queues, 5s send deadline).
func NewTCP(flow ...FlowOptions) *TCP {
	var fo FlowOptions
	if len(flow) > 0 {
		fo = flow[0]
	}
	t := &TCP{
		bo:        newBackoff(),
		listeners: map[string]*tcpEndpoint{},
		conns:     map[string]*tcpConn{},
		stop:      make(chan struct{}),
	}
	t.pipeline = newPipeline(fo.withDefaults(), t, tcpHeader)
	return t
}

// tcpConn is one cached outbound connection: a bounded frame queue, the
// writer goroutine draining it, and the current socket. It lives until
// the network closes, which drops whatever is still queued.
type tcpConn struct {
	net  *TCP
	addr string
	dst  *nodeCounters // destination-keyed flow counters; queueDepth counts accepted-but-unwritten frames

	queue chan *frameBuf // length-prefixed frames for the writer, in acceptance order
	// kick wakes the writer for a tail (below): it carries no frame, so
	// the queue holds no more entries than there are slots held.
	kick chan struct{}
	// space is the admission semaphore bounding accepted-but-unwritten
	// frames at QueueLen: a send takes a slot before it writes or
	// enqueues, and whoever writes the frame's last byte frees it — so
	// the frame being written still counts against the bound (the queue
	// channel alone would free its slot the moment the writer takes the
	// frame), and a held slot means a frame is ahead of the next one.
	space chan struct{}

	// wmu is held by whoever writes the socket: a sender's direct write
	// (taken with TryLock, so a sender never waits for it) or the writer,
	// for each frame it writes and the redials that frame needs.
	wmu sync.Mutex
	// raw is the current socket's, for the direct write; nil while
	// disconnected. Guarded by wmu.
	raw syscall.RawConn
	// tail is a frame a direct write left part-written, from byte
	// tailOff on: the writer finishes it before any queued frame. Guarded
	// by wmu.
	tail    *frameBuf
	tailOff int
	// The direct write's arguments and result, for writeFD — a method
	// value made once per connection, so the write allocates nothing.
	// Guarded by wmu.
	wbuf    []byte
	wn      int
	writeFD func(fd uintptr) bool

	sockMu sync.Mutex
	c      net.Conn // nil while disconnected
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
	// A Close that ran while the socket was bound has already taken the
	// listeners it shuts: this one would outlive it.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ep.closeListener()
		return nil, ErrClosed
	}
	t.listeners[ep.addr] = ep
	t.mu.Unlock()
	go ep.acceptLoop()
	return ep, nil
}

// accept implements wire: it writes the payload's length into the room
// the sender left in front of it, takes a slot of the destination's
// bounded queue under the full-queue policy, and writes the frame itself
// when nothing is ahead of it (tryDirect) or hands it to the writer. A
// nil return means the frame is accepted: it is on the wire, or the
// writer goroutine will deliver it (re-dialing with backoff as needed),
// in acceptance order. Beyond the admission errors, a failed FIRST dial
// is ErrUnknownAddress.
func (t *TCP) accept(ctx context.Context, to string, f outFrame) error {
	tc, err := t.conn(ctx, to)
	if err != nil {
		return err
	}
	if err := t.flow.admit(ctx, to, tc.dst, tc.space, t.stop, ErrClosed); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(f.buf.b, uint32(len(f.buf.b)-tcpHeader))
	f.charge(len(f.buf.b))
	tc.dst.queueDepth.Add(1)
	if !tc.tryDirect(f.buf) {
		// A slot is held, so the buffered channel always has room.
		tc.queue <- f.buf
	}
	return nil
}

// tryDirect writes fb on the sender's goroutine when nothing is ahead of
// it: its slot is the only one held, so no frame is queued, being
// written or part-written. The write is one non-blocking write(2), so a
// slow peer never holds the sender: a full socket buffer (nothing
// written) leaves the frame to the caller to queue, and a partial write
// leaves its tail to the writer, which writes it before any queued frame.
// Reports whether the frame is taken care of.
func (tc *tcpConn) tryDirect(fb *frameBuf) bool {
	if !tc.wmu.TryLock() {
		return false
	}
	defer tc.wmu.Unlock()
	if len(tc.space) != 1 || tc.raw == nil {
		return false
	}
	tc.wbuf, tc.wn = fb.b, 0
	err := tc.raw.Write(tc.writeFD)
	n := tc.wn
	tc.wbuf = nil
	switch {
	case err != nil || n <= 0:
		// EAGAIN, or a socket the writer will find broken and redial.
		return false
	case n == len(fb.b):
		tc.written(fb)
	default:
		tc.tail, tc.tailOff = fb, n
		select {
		case tc.kick <- struct{}{}:
		default: // the writer is woken already
		}
	}
	return true
}

// writeOnce is the direct write's one write(2) on the socket's
// descriptor (writeFD): -1 on an error. It never waits for the socket to
// become writable.
func (tc *tcpConn) writeOnce(fd uintptr) bool {
	tc.wn, _ = syscall.Write(int(fd), tc.wbuf)
	return true
}

// written frees the slot of a frame whose last byte is on the wire, and
// its buffer.
func (tc *tcpConn) written(fb *frameBuf) {
	tc.dst.queueDepth.Add(-1)
	<-tc.space
	fb.free()
}

// writeLoop drains the queue one frame per wire write, re-establishing
// the connection with jittered backoff on failure. A tail a direct write
// left goes first, then the frame taken off the queue. The failing frame
// stays first in line, so the receiver observes the sender's acceptance
// order across any number of reconnects. A frame's slot is freed only
// once it has been written.
func (tc *tcpConn) writeLoop() {
	defer tc.net.writerWG.Done()
	for {
		var fb *frameBuf
		select {
		case <-tc.net.stop:
			return
		case fb = <-tc.queue:
		case <-tc.kick:
		}
		tc.wmu.Lock()
		if tail := tc.tail; tail != nil {
			tc.tail = nil
			tc.writeFrame(tail.b, tc.tailOff)
			tc.written(tail)
		}
		if fb != nil {
			tc.writeFrame(fb.b, 0)
			tc.written(fb)
		}
		tc.wmu.Unlock()
	}
}

// writeFrame writes one frame from byte off on, retrying with backoff
// until it succeeds or the network closes. A retry is on a new
// connection and sends the whole frame. Accepted frames are only ever
// dropped at Close, never silently mid-stream. Caller holds wmu.
func (tc *tcpConn) writeFrame(frame []byte, off int) {
	for attempt := 0; ; attempt++ {
		if tc.net.isClosing() {
			return
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
		if _, err := c.Write(frame[off:]); err == nil {
			return
		}
		tc.dropSocket(c)
		off = 0
	}
}

// sleep waits d, abandoned early when the network closes. Returns false
// when abandoned.
func (tc *tcpConn) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-tc.net.stop:
		return false
	}
}

// isClosing reports whether Close has begun.
func (t *TCP) isClosing() bool {
	select {
	case <-t.stop:
		return true
	default:
		return false
	}
}

func (tc *tcpConn) socket() net.Conn {
	tc.sockMu.Lock()
	defer tc.sockMu.Unlock()
	return tc.c
}

// redial re-establishes the socket after a write failure, counting a
// reconnect on the destination's stats. Caller holds wmu.
func (tc *tcpConn) redial() (net.Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	c, err := d.Dial("tcp", tc.addr)
	if err != nil {
		return nil, err
	}
	// Only the connection's single writer goroutine dials, so tc.c is
	// nil here; the lock only orders this store against closeSocket.
	tc.sockMu.Lock()
	tc.c = c
	tc.sockMu.Unlock()
	tc.raw = rawConn(c)
	tc.dst.reconnects.Add(1)
	// Close signals stop before it closes tc.c under sockMu; re-check so
	// a socket established after that close cannot leak past Close.
	if tc.net.isClosing() {
		tc.dropSocket(c)
		return nil, ErrClosed
	}
	return c, nil
}

// dropSocket closes and forgets the current socket (failed write).
// Caller holds wmu.
func (tc *tcpConn) dropSocket(c net.Conn) {
	tc.sockMu.Lock()
	if tc.c == c {
		tc.c = nil
	}
	tc.sockMu.Unlock()
	tc.raw = nil
	c.Close()
}

// rawConn returns the descriptor access of a dialed socket, for the
// direct write.
func rawConn(c net.Conn) syscall.RawConn {
	raw, _ := c.(*net.TCPConn).SyscallConn() // fails only on a nil conn
	return raw
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
	tc := &tcpConn{
		net:  t,
		addr: to,
		dst:  t.node(to),
		// Admission is bounded by the space semaphore (QueueLen slots,
		// freed only after a frame is written), so the frame the writer is
		// writing still counts; the channel merely carries what was
		// admitted and can never block a slot holder.
		queue: make(chan *frameBuf, t.flow.QueueLen),
		kick:  make(chan struct{}, 1),
		space: make(chan struct{}, t.flow.QueueLen),
		raw:   rawConn(c),
		c:     c,
	}
	tc.writeFD = tc.writeOnce
	t.conns[to] = tc
	t.writerWG.Add(1)
	t.mu.Unlock()
	go tc.writeLoop()
	return tc, nil
}

// closeSocket closes the current socket for good (network Close).
func (tc *tcpConn) closeSocket() {
	tc.sockMu.Lock()
	if tc.c != nil {
		tc.c.Close()
		tc.c = nil
	}
	tc.sockMu.Unlock()
}

// ConnCount reports the number of cached outbound connections: one per
// destination this network has sent to since it was built.
func (t *TCP) ConnCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// Close implements Network. Accepted-but-unwritten frames are dropped
// (the network is going away); writers stop and blocked senders get
// ErrClosed.
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
		tc.closeSocket()
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
