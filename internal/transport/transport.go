// Package transport moves SELF-SERV control documents between peers.
//
// The paper exchanges XML documents over Java sockets; here the same
// control messages travel as binary records (package message). This
// package is one send/receive pipeline and two wires beneath it. The pipeline
// (pipeline.go, flow.go) is the Network contract itself — the one Sender
// implementation, full-queue admission, the bounded receive lanes, the
// stats book — and every frame is one binary record frame of package
// message (one layout, a single message being a batch of one), so costs
// and observable behaviour are equal on both networks by construction.
// Each accepted frame goes on the wire alone, as its sender encoded it: the
// receiver picks a frame's lane by its first message's sender, so a frame
// carrying two senders' messages would break per-sender FIFO. A wire adds
// only what differs: TCP (tcp.go, the production path) the connection
// cache, direct write, writer, redial and read loop around
// length-prefixed frames on net.Conn; InMem (inmem.go, tests and
// benchmarks) the Hold/Cut stall queue, seeded per-message drops and
// Synchronous delivery.
//
// The contract is sender-oriented and batched:
//
//   - Listen registers an inbound Handler under an address the Network
//     understands; MintAddr produces such addresses from logical hints,
//     so callers never branch on the concrete implementation.
//   - Open mints a Sender — a first-class outbound handle bound to one
//     logical source address. Per-sender state (its stats counters) lives
//     behind the handle; nothing travels through context values.
//   - SendBatch is the primitive delivery operation: all messages of a
//     batch travel in ONE wire frame and are handed to the receiving
//     Handler sequentially, in slice order. Send is the batch of one.
//
// See docs/transport.md for the frame format and the pipeline/wire split.
package transport

import (
	"context"
	"errors"
	"log"
	"sort"
	"sync"
	"sync/atomic"

	"selfserv/internal/message"
)

// Handler consumes inbound messages. The messages of one frame are
// delivered sequentially on one goroutine (preserving batch order);
// distinct frames may be delivered concurrently, so handlers must be
// safe for concurrent use.
//
// A handler borrows m, and m.Vars with it, for the length of the call:
// the receive lane decodes its next message into the same struct and its
// next bag into the same map, cleared (docs/transport.md, "Who owns a
// delivered message"). A handler that needs the message later keeps a
// copy of the struct; one that keeps the bag takes it — it sets m.Vars to
// nil, or to an empty map the handler owns and gives up, before it
// returns — and the lane decodes its next bag into whatever m.Vars then
// holds. Every string field is a substring of the delivery's own copy of
// its record, so the strings, and a taken bag's keys and values, are the
// handler's to keep.
type Handler func(ctx context.Context, m *message.Message)

// ErrUnknownAddress reports a Send to an address nobody listens on.
var ErrUnknownAddress = errors.New("transport: unknown address")

// ErrClosed reports use of a closed network or endpoint.
var ErrClosed = errors.New("transport: closed")

// Network delivers one-way messages to named endpoints.
type Network interface {
	// Listen registers a handler under addr. For the TCP network the
	// address is "host:port" ("host:0" picks a free port; the returned
	// endpoint reports the bound address). For the in-memory network it
	// is an arbitrary non-empty name. MintAddr produces a valid addr for
	// either.
	Listen(addr string, h Handler) (Endpoint, error)
	// MintAddr turns a logical name hint into a listen address this
	// network accepts: the in-memory network uses the hint itself, the
	// TCP network ignores it and mints a loopback ephemeral bind. It
	// exists so deployment code never type-switches on the transport.
	MintAddr(hint string) string
	// Opener mints first-class Senders (see Open).
	Opener
	// Send delivers m to the endpoint listening on to, unattributed to
	// any sender (tooling and tests; coordinators use a Sender).
	// Delivery is asynchronous: a nil error means the message was
	// accepted for delivery, not yet handled.
	Send(ctx context.Context, to string, m *message.Message) error
	// SendBatch delivers ms to the endpoint listening on to as ONE wire
	// frame, atomically: either the whole batch is accepted or none of
	// it. The receiver's handler sees the messages sequentially in slice
	// order (per-destination FIFO within the batch). An empty batch is a
	// no-op.
	SendBatch(ctx context.Context, to string, ms []*message.Message) error
	// Stats returns a snapshot of per-address traffic counters.
	Stats() Stats
	// Close shuts down all endpoints.
	Close() error
}

// Opener mints Senders. Every Network is an Opener; the split lets code
// that only sends (coordinators, wrappers) hold the narrow capability.
type Opener interface {
	// Open returns a Sender whose outbound traffic is attributed to the
	// logical source address from. Handles are cheap and long-lived: a
	// coordinator opens one at start-up and reuses it for every round.
	Open(from string) Sender
}

// Sender is a first-class outbound handle bound to one source address —
// the Network v2 replacement for tagging contexts with a sender name.
// The one implementation (sender, pipeline.go) pins its stats counters at
// Open time, so the hot send path never takes the stats map lock.
//
// Send and SendBatch encode the frame before they return and keep
// neither m, ms nor anything they point at afterwards: the caller owns
// them again on return, whatever the error, and may overwrite them (the
// engine's outboxes reuse one message storage for every round). A
// wrapping Sender reads them only during the call.
type Sender interface {
	// From returns the logical source address the handle was opened with.
	From() string
	// Send delivers one message (the batch of one).
	Send(ctx context.Context, to string, m *message.Message) error
	// SendBatch delivers ms as one frame; see Network.SendBatch.
	SendBatch(ctx context.Context, to string, ms []*message.Message) error
}

// Endpoint is a registered listener.
type Endpoint interface {
	// Addr is the address peers use to reach this endpoint.
	Addr() string
	// Close unregisters the endpoint.
	Close() error
}

// NodeStats counts traffic seen by one address. FramesOut counts wire
// frames (one per Send or SendBatch); MsgsOut counts the messages inside
// them — the gap between the two is the coalescing win.
//
// The flow-control counters (QueueDepth, SendBlocked, Reconnects) are
// keyed by the DESTINATION address: they describe the path TOWARD this
// node, which is where a slow or flaky peer shows up.
type NodeStats struct {
	MsgsIn    int64
	MsgsOut   int64
	BytesIn   int64
	BytesOut  int64
	FramesOut int64
	// QueueDepth is the number of frames currently accepted for this
	// destination but not yet written to the wire (a snapshot, bounded
	// by FlowOptions.QueueLen).
	QueueDepth int64
	// SendBlocked counts sends toward this destination that found the
	// write queue full (whether or not space came before the deadline).
	SendBlocked int64
	// Reconnects counts connections to this destination re-established
	// after a failed write (on InMem: each Restore of a Cut).
	Reconnects int64
	// RecvLanes is the number of bounded receive delivery lanes of the
	// most recent listening endpoint at this address (8); zero for
	// addresses that never listened, and in the in-memory network's
	// Synchronous mode, where the sender's goroutine is the lane.
	RecvLanes int64
	// DecodeErrors counts inbound frames this node's listener received
	// whole but could not decode (message.ErrCorrupt: damaged bytes, or a
	// peer running a build with another wire format). Such a frame is
	// dropped — counted here and logged, its connection kept — so a
	// mixed-build fleet shows up as this counter moving, not as silence.
	DecodeErrors int64
	// RecvQueueDepth is the number of inbound frames accepted by this
	// node's read side but not yet handed to the handler (a snapshot,
	// bounded by RecvLanes × 256). A persistently deep receive queue
	// identifies a node whose handlers can't keep up with fan-in — the
	// receive-side twin of QueueDepth.
	RecvQueueDepth int64
	// Failovers counts delegated invocations re-routed away from this
	// destination after a failure (recorded by the community/engine layer
	// via AvailabilityRecorder; the transport only keeps the book).
	Failovers int64
	// ShedRequests counts requests toward this destination refused by
	// per-tenant admission control (see package limits; recorded via
	// AvailabilityRecorder).
	ShedRequests int64
	// BreakerOpens counts circuit-breaker trips for the path toward this
	// destination — transport send breakers (FlowOptions.Breaker) and any
	// higher-layer breakers reported via AvailabilityRecorder.
	BreakerOpens int64
}

// Stats is a snapshot of traffic by address.
type Stats struct {
	Nodes map[string]NodeStats
}

// Total sums the per-node counters.
func (s Stats) Total() NodeStats {
	var t NodeStats
	for _, n := range s.Nodes {
		t.MsgsIn += n.MsgsIn
		t.MsgsOut += n.MsgsOut
		t.BytesIn += n.BytesIn
		t.BytesOut += n.BytesOut
		t.FramesOut += n.FramesOut
		t.QueueDepth += n.QueueDepth
		t.SendBlocked += n.SendBlocked
		t.Reconnects += n.Reconnects
		t.RecvLanes += n.RecvLanes
		t.DecodeErrors += n.DecodeErrors
		t.RecvQueueDepth += n.RecvQueueDepth
		t.Failovers += n.Failovers
		t.ShedRequests += n.ShedRequests
		t.BreakerOpens += n.BreakerOpens
	}
	return t
}

// Busiest returns the address with the highest MsgsIn+MsgsOut and its
// counters. Ties break alphabetically so results are deterministic.
func (s Stats) Busiest() (string, NodeStats) {
	names := make([]string, 0, len(s.Nodes))
	for n := range s.Nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	bestName, best := "", NodeStats{}
	for _, n := range names {
		ns := s.Nodes[n]
		if bestName == "" || ns.MsgsIn+ns.MsgsOut > best.MsgsIn+best.MsgsOut {
			bestName, best = n, ns
		}
	}
	return bestName, best
}

// nodeCounters is the live, lock-free counter set behind one address's
// NodeStats. Counters are atomic so concurrent senders never serialize
// on a shared stats lock (the pre-v2 design funnelled every send through
// one mutex).
type nodeCounters struct {
	msgsIn    atomic.Int64
	msgsOut   atomic.Int64
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	framesOut atomic.Int64
	// Flow-control counters for the path TOWARD this address.
	queueDepth  atomic.Int64
	sendBlocked atomic.Int64
	reconnects  atomic.Int64
	// Receive-side counters for this address's own listening endpoint.
	recvLanes      atomic.Int64
	recvQueueDepth atomic.Int64
	decodeErrors   atomic.Int64
	// Availability counters for the path toward this address (breaker
	// trips from the send path; failovers and sheds reported by higher
	// layers via AvailabilityRecorder).
	failovers    atomic.Int64
	shedRequests atomic.Int64
	breakerOpens atomic.Int64
}

func (c *nodeCounters) snapshot() NodeStats {
	return NodeStats{
		MsgsIn:         c.msgsIn.Load(),
		MsgsOut:        c.msgsOut.Load(),
		BytesIn:        c.bytesIn.Load(),
		BytesOut:       c.bytesOut.Load(),
		FramesOut:      c.framesOut.Load(),
		QueueDepth:     c.queueDepth.Load(),
		SendBlocked:    c.sendBlocked.Load(),
		Reconnects:     c.reconnects.Load(),
		RecvLanes:      c.recvLanes.Load(),
		DecodeErrors:   c.decodeErrors.Load(),
		RecvQueueDepth: c.recvQueueDepth.Load(),
		Failovers:      c.failovers.Load(),
		ShedRequests:   c.shedRequests.Load(),
		BreakerOpens:   c.breakerOpens.Load(),
	}
}

// statsBook maps addresses to their counters. The RWMutex guards only
// the map shape; all counting is atomic. Senders resolve their own
// counters once at Open time and bypass even the read lock.
type statsBook struct {
	mu    sync.RWMutex
	nodes map[string]*nodeCounters
}

func newStatsBook() *statsBook {
	return &statsBook{nodes: map[string]*nodeCounters{}}
}

// node returns the counter set for addr, creating it on first use.
func (b *statsBook) node(addr string) *nodeCounters {
	b.mu.RLock()
	n, ok := b.nodes[addr]
	b.mu.RUnlock()
	if ok {
		return n
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if n, ok := b.nodes[addr]; ok {
		return n
	}
	n = &nodeCounters{}
	b.nodes[addr] = n
	return n
}

// recordIn counts msgs delivered messages in one frame of bytes bytes on
// the receiver's counters (pinned by its listener: no book lookup).
func (c *nodeCounters) recordIn(msgs, bytes int) {
	c.msgsIn.Add(int64(msgs))
	c.bytesIn.Add(int64(bytes))
}

// recordUndecodable counts one inbound frame the listener at addr could
// not decode and says so — never dropped silently. Every frame is
// counted; the log line is written for the 1st, 2nd, 4th, 8th… so a peer
// streaming garbage cannot flood the log.
func (c *nodeCounters) recordUndecodable(addr string, bytes int, err error) {
	if n := c.decodeErrors.Add(1); n&(n-1) == 0 {
		log.Printf("transport: %s dropped an undecodable %d-byte frame (%d so far): %v", addr, bytes, n, err)
	}
}

// AvailabilityRecorder lets higher layers (communities, engine hosts)
// attribute availability events — failovers, admission-control sheds,
// breaker trips — to the destination-keyed node stats, so one Stats
// snapshot tells the whole churn story. Both networks embed the stats
// book, which implements it; callers discover it by type assertion and
// degrade to no-ops when absent.
type AvailabilityRecorder interface {
	// RecordFailover counts one delegation re-routed away from addr.
	RecordFailover(addr string)
	// RecordShed counts one request toward addr refused by per-tenant
	// admission control.
	RecordShed(addr string)
	// RecordBreakerOpen counts one higher-layer breaker trip for addr.
	RecordBreakerOpen(addr string)
}

// The book implements AvailabilityRecorder for both networks.
func (b *statsBook) RecordFailover(addr string)    { b.node(addr).failovers.Add(1) }
func (b *statsBook) RecordShed(addr string)        { b.node(addr).shedRequests.Add(1) }
func (b *statsBook) RecordBreakerOpen(addr string) { b.node(addr).breakerOpens.Add(1) }

// Stats implements Network on both networks (promoted from the embedded
// book): a snapshot of per-address traffic counters.
func (b *statsBook) Stats() Stats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := Stats{Nodes: make(map[string]NodeStats, len(b.nodes))}
	for k, v := range b.nodes {
		out.Nodes[k] = v.snapshot()
	}
	return out
}
