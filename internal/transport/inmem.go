package transport

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"selfserv/internal/message"
)

// InMemOptions configures fault injection on an in-memory network.
type InMemOptions struct {
	// DropRate in [0,1) silently drops that fraction of messages. Drop
	// decisions are per message, in send order, even inside a batch —
	// one RNG draw per message — so a batched round drops exactly the
	// messages the equivalent sequential sends would drop under the same
	// seed. A dropped message still counts as sent by the sender but
	// never counts in the receiver's MsgsIn. Byte accounting is per
	// frame: BytesIn records the whole frame when at least one of its
	// messages survives (a partially-dropped batch still delivers the
	// full frame's bytes), and nothing when the entire frame is lost.
	// Used for availability experiments.
	DropRate float64
	// Seed makes drop decisions reproducible. Zero uses a fixed default.
	Seed int64
	// Synchronous delivers messages on the caller's goroutine.
	// Deterministic ordering for tests; production-shaped runs
	// should leave it false.
	Synchronous bool
	// Flow tunes the bounded per-destination queue that materializes
	// while a destination is stalled by Hold or Cut (queue capacity,
	// send deadline) and the send breakers: every
	// FlowOptions field applies in memory as on TCP.
	Flow FlowOptions
}

// InMem is a process-local Network. Every frame goes through the shared
// pipeline — marshalled and unmarshalled exactly as on the TCP path,
// batches included — so serialization bugs and costs are identical; only
// the socket is elided.
//
// What this wire adds is the deterministic fault harness for the
// flow-control contract: Hold stalls a destination (the slow-peer
// injection — frames queue in a bounded per-destination queue exactly as
// TCP frames queue behind a non-reading peer), Cut severs it (the
// disconnect injection), and Release/Restore drain the queued frames in
// acceptance order, so per-sender FIFO across an outage is testable
// without clocks or real sockets. Drop draws stay per message in send
// order even for queued frames, so batched ≡ sequential holds under one
// seed with faults active.
type InMem struct {
	pipeline
	opts InMemOptions

	mu        sync.RWMutex
	addrs     map[string]*inmemAddr
	closed    bool
	stop      chan struct{} // closed by Close; wakes senders blocked on a full queue
	rng       *rand.Rand
	rngMu     sync.Mutex
	deliverWG sync.WaitGroup
}

// inmemAddr is everything the network holds about one address, created
// by its first Listen, Hold or Cut. The record pins the address's
// counters (as senders pin theirs at Open), so a send resolves handler,
// fault state, lanes and stats with ONE map lookup under n.mu. h, ver
// and stall are guarded by n.mu; rc and lanes never change once set.
type inmemAddr struct {
	addr string
	rc   *nodeCounters
	// lanes is the receive side in async mode, built by the first Listen.
	// It outlives re-registrations (queued jobs carry their own handler)
	// and stops at network Close. Nil in Synchronous mode, where the
	// sender's goroutine is the lane.
	lanes *recvLanes[inmemJob]
	h     Handler     // the live registration; nil while nobody listens
	ver   uint64      // bumped per registration: scopes Endpoint.Close
	stall *inmemStall // nil until the first Hold/Cut
}

// inmemJob is one frame on its way to a handler: the decoded-on-delivery
// payload, its send-time drop draws, the handler it was accepted for and
// the address record that handler listens at. done, when non-nil, is
// closed after delivery (Release waits on it so drains stay synchronous
// to their caller). It is the lanes' queue element and crosses the send
// path by value, so it stays small.
type inmemJob struct {
	ctx   context.Context
	buf   *frameBuf // freed once decoded (deliverPayload)
	msgs  int
	drops []bool
	h     Handler
	to    *inmemAddr
	done  chan struct{}
}

// NewInMem returns an in-memory network with the given options.
func NewInMem(opts InMemOptions) *InMem {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	n := &InMem{
		opts:  opts,
		addrs: map[string]*inmemAddr{},
		stop:  make(chan struct{}),
		rng:   rand.New(rand.NewSource(seed)),
	}
	n.pipeline = newPipeline(opts.Flow.withDefaults(), n, 0)
	return n
}

// inmemStall is the fault state of one destination: while stalled, frames
// are accepted into a bounded FIFO queue (or refused by the flow
// rule) instead of being delivered.
type inmemStall struct {
	space   chan struct{} // queue admission semaphore, QueueLen slots
	drainMu sync.Mutex    // serializes Release/Restore drains

	mu      sync.Mutex
	stalled bool
	cut     bool
	queue   []inmemFrame
}

// inmemFrame is one accepted-but-undelivered frame in a stall queue.
// kept counts the messages that survived their send-time drop draws; the
// receiver's stats record it at DELIVERY time (the drain), matching TCP's
// read-side accounting — a frame dropped at Close never counts as
// received. key is the frame's lane key: the drain routes each frame
// through its sender's lane in async mode, so per-sender FIFO holds
// across a stall exactly as it holds live.
type inmemFrame struct {
	inmemJob // ctx and done are set by the drain
	kept     int
	key      string
}

// MintAddr implements Network: any non-empty name is a valid in-memory
// address, so the logical hint is used as-is.
func (n *InMem) MintAddr(hint string) string {
	if hint == "" {
		return "node"
	}
	return hint
}

// recordLocked returns addr's record, creating it on first use. Caller
// holds n.mu for writing.
func (n *InMem) recordLocked(addr string) *inmemAddr {
	a := n.addrs[addr]
	if a == nil {
		a = &inmemAddr{addr: addr, rc: n.node(addr)}
		n.addrs[addr] = a
	}
	return a
}

// Listen implements Network.
func (n *InMem) Listen(addr string, h Handler) (Endpoint, error) {
	if addr == "" {
		return nil, fmt.Errorf("transport: empty address")
	}
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for %q", addr)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	a := n.recordLocked(addr)
	if a.h != nil {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	a.h = h
	a.ver++
	if !n.opts.Synchronous && a.lanes == nil {
		a.lanes = newRecvLanes(a.rc, n.deliverPayload, func(job inmemJob) {
			if job.done != nil {
				close(job.done)
			}
			n.deliverWG.Done()
		})
	}
	return &inmemEndpoint{net: n, addr: addr, ver: a.ver}, nil
}

// Hold stalls deliveries to addr: the slow-peer injection. Subsequent
// frames to addr are accepted into its bounded queue (blocking up to
// InMemOptions.Flow's send deadline when full) until Release. Deterministic
// and clock-free: a test decides exactly when the peer is slow and when
// it drains.
func (n *InMem) Hold(addr string) { n.stallAddr(addr, false) }

// Cut severs the link to addr: the disconnect injection. Semantics of
// queueing are identical to Hold (frames queue as they would queue in a
// reconnecting TCP sender); Restore re-links, counts one reconnect in
// the destination's stats, and drains in order.
func (n *InMem) Cut(addr string) { n.stallAddr(addr, true) }

func (n *InMem) stallAddr(addr string, cut bool) {
	n.mu.Lock()
	a := n.recordLocked(addr)
	if a.stall == nil {
		a.stall = &inmemStall{space: make(chan struct{}, n.flow.QueueLen)}
	}
	st := a.stall
	n.mu.Unlock()
	st.mu.Lock()
	st.stalled = true
	st.cut = st.cut || cut
	st.mu.Unlock()
}

// Release ends a Hold: queued frames are delivered synchronously on the
// caller's goroutine, in acceptance order (per-sender FIFO), then direct
// delivery resumes. Sends racing the drain keep queueing behind it, so
// nothing ever overtakes a queued frame. A no-op if addr was never
// stalled.
func (n *InMem) Release(addr string) { n.unstall(addr, false) }

func (n *InMem) unstall(addr string, reconnect bool) {
	n.mu.RLock()
	a := n.addrs[addr]
	var st *inmemStall
	if a != nil {
		st = a.stall
	}
	n.mu.RUnlock()
	if st == nil {
		return
	}
	st.drainMu.Lock()
	defer st.drainMu.Unlock()

	st.mu.Lock()
	if !st.stalled {
		st.mu.Unlock()
		return
	}
	wasCut := st.cut
	st.mu.Unlock()
	if reconnect && wasCut {
		a.rc.reconnects.Add(1)
	}
	// Drain with stalled still set: a handler reached during the drain
	// (or a concurrent sender) that sends to addr again enqueues BEHIND
	// the remaining queued frames instead of overtaking them. Each frame
	// is delivered to the handler it was accepted for (inmemJob.h), so a
	// re-registration mid-stall splits the backlog between the two.
	for {
		st.mu.Lock()
		if len(st.queue) == 0 {
			st.stalled = false
			st.cut = false
			st.mu.Unlock()
			return
		}
		f := st.queue[0]
		st.queue = st.queue[1:]
		st.mu.Unlock()
		<-st.space
		a.rc.queueDepth.Add(-1)
		if !n.deliverDrained(a, f) {
			return // network closed mid-drain: remaining frames drop, as at Close
		}
	}
}

// deliverDrained hands one drained frame over. In Synchronous mode it
// delivers inline on the caller's goroutine (acceptance order, the
// documented Release contract). In async mode it routes the frame
// through the sender's receive lane — behind any live frames already
// queued there, preserving per-sender FIFO — and waits for the delivery
// before returning, so Release stays synchronous to its caller either
// way. Returns false when the network closed underneath the drain.
func (n *InMem) deliverDrained(a *inmemAddr, f inmemFrame) bool {
	job := f.inmemJob
	job.ctx = context.Background()
	if n.opts.Synchronous {
		a.rc.recordIn(f.kept, len(f.buf.b))
		n.deliverPayload(job)
		return true
	}
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		return false
	}
	n.deliverWG.Add(1)
	n.mu.RUnlock()
	a.rc.recordIn(f.kept, len(f.buf.b))
	job.done = make(chan struct{})
	a.lanes.put(f.key, job)
	<-job.done
	return true
}

// accept implements wire: it simulates one wire frame, into the bounded
// queue of a stalled destination or — the no-fault path — straight to
// delivery. In async mode the delivery is registered (deliverWG) in the
// same critical section that resolves the address and checks closed: an
// Add racing Close's Wait is undefined, so the counter is bumped
// strictly before Close can observe it — and once it is in, Wait cannot
// return before the frame reaches its lane and is delivered, so the
// lane's worker is still draining. An outcome that puts no job on a lane
// gives the count back.
func (n *InMem) accept(ctx context.Context, to string, f outFrame) error {
	async := !n.opts.Synchronous
	var h Handler
	var st *inmemStall
	n.mu.RLock()
	a := n.addrs[to]
	closed := n.closed
	if a != nil {
		h, st = a.h, a.stall
	}
	async = async && !closed && h != nil
	if async {
		n.deliverWG.Add(1)
	}
	n.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if h == nil {
		return fmt.Errorf("%w: %q", ErrUnknownAddress, to)
	}
	if st != nil && st.isStalled() {
		if done, err := n.offerStalled(ctx, a, st, to, &f, h); done || err != nil {
			if async {
				n.deliverWG.Done()
			}
			return err
		}
	}
	// The sender pays for the whole frame regardless of drops. The drop
	// coin is tossed at send time, one draw per message in send order —
	// stable RNG consumption, so a batch loses exactly what the
	// equivalent sequential sends would lose under the same seed.
	f.charge(len(f.buf.b))
	drops, kept := n.drawDrops(f.msgs)
	if kept == 0 {
		if async {
			n.deliverWG.Done() // no delivery will happen
		}
		f.buf.free()
		return nil
	}
	a.rc.recordIn(kept, len(f.buf.b))
	job := inmemJob{ctx: ctx, buf: f.buf, msgs: f.msgs, drops: drops, h: h, to: a}
	if async {
		// The decode happens on the lane worker (as TCP's happens off the
		// sender's goroutine), keeping the sender's critical path free of it.
		a.lanes.put(f.key, job)
	} else {
		// Inline on the caller's goroutine, exactly as the
		// pre-flow-control network did.
		n.deliverPayload(job)
	}
	return nil
}

// offerStalled routes a frame into the bounded queue of a stalled
// destination, under the shared full-queue rule. Returns done=true when
// the frame was consumed (queued, fully dropped, or refused with err);
// done=false means the destination was released meanwhile and the caller
// should deliver directly.
func (n *InMem) offerStalled(ctx context.Context, a *inmemAddr, st *inmemStall, to string, f *outFrame, h Handler) (bool, error) {
	if err := n.flow.admit(ctx, to, a.rc, st.space, n.stop, ErrClosed); err != nil {
		return true, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.stalled {
		<-st.space // released while we waited for space: give the slot back
		return false, nil
	}
	// Accepted. The sender pays now, and the drop coins are tossed now —
	// at send time, in send order — so the RNG stream is identical
	// whether or not the destination happens to be stalled. The RECEIVER
	// pays only at the drain (see inmemFrame.kept).
	f.charge(len(f.buf.b))
	drops, kept := n.drawDrops(f.msgs)
	if kept == 0 {
		<-st.space // the whole frame was lost: nothing to queue
		f.buf.free()
		return true, nil
	}
	st.queue = append(st.queue, inmemFrame{
		inmemJob: inmemJob{buf: f.buf, msgs: f.msgs, drops: drops, h: h, to: a},
		kept:     kept, key: f.key,
	})
	a.rc.queueDepth.Add(1)
	return true, nil
}

func (st *inmemStall) isStalled() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stalled
}

// deliverPayload decodes one frame and hands its surviving messages to
// its handler sequentially. The decoder copies what it keeps, so the
// frame's buffer goes back to the pool before any handler runs. A frame
// that does not decode is counted on the listener and dropped, as the TCP
// read loop does.
func (n *InMem) deliverPayload(job inmemJob) {
	first, rest, err := message.UnmarshalFrame(job.buf.b) // no slice for a frame of one
	size := len(job.buf.b)
	job.buf.free()
	if err != nil {
		job.to.rc.recordUndecodable(job.to.addr, size, err)
		return
	}
	if job.drops == nil || !job.drops[0] {
		job.h(job.ctx, first)
	}
	for i, m := range rest {
		if job.drops == nil || !job.drops[i+1] {
			job.h(job.ctx, m)
		}
	}
}

// drawDrops tosses one seeded drop coin per message, in send order.
func (n *InMem) drawDrops(msgs int) ([]bool, int) {
	if n.opts.DropRate <= 0 {
		return nil, msgs
	}
	drops := make([]bool, msgs)
	kept := msgs
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	for i := range drops {
		if n.rng.Float64() < n.opts.DropRate {
			drops[i] = true
			kept--
		}
	}
	return drops, kept
}

// Close implements Network. It waits for in-flight asynchronous
// deliveries — including everything already accepted onto a receive
// lane — to finish so tests can assert on final state, then stops the
// lane workers. Frames still queued behind a Hold/Cut are dropped (the
// network is going away), as TCP drops its accepted-but-unwritten
// frames at Close.
func (n *InMem) Close() error {
	n.mu.Lock()
	if !n.closed {
		n.closed = true
		close(n.stop) // wake senders blocked on a full queue
	}
	addrs := n.addrs
	n.addrs = map[string]*inmemAddr{}
	n.mu.Unlock()
	// Every accepted job did its deliverWG.Add BEFORE enqueueing (under
	// the closed-check), so once Wait returns no sender can still be
	// about to enqueue and every lane is empty — stopping the workers
	// then drops nothing.
	n.deliverWG.Wait()
	for _, a := range addrs {
		if a.lanes != nil {
			a.lanes.stop()
			a.lanes.reap()
		}
	}
	return nil
}

type inmemEndpoint struct {
	net  *InMem
	addr string
	ver  uint64 // the registration this handle stands for
}

func (e *inmemEndpoint) Addr() string { return e.addr }

// Close is registration-scoped: closing a stale handle again after the
// address was re-listened (a killed peer's handle, once the restarted
// peer is back under the same name) leaves the live listener alone.
func (e *inmemEndpoint) Close() error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if a := e.net.addrs[e.addr]; a != nil && a.ver == e.ver {
		a.h = nil
	}
	return nil
}
