package transport

// The executable flow-control & connection-lifecycle contract.
//
// Any Network implementation must pass this suite: a bounded write
// queue that never exceeds its cap, a full queue that blocks and fails
// with ErrSendDeadline, slow peers that stall only their own
// destination, and per-sender FIFO delivery across reconnects. The
// faults are injected deterministically: InMem through its Hold/Cut
// switches, TCP through a raw frame-reading peer whose consumption (and
// very existence) the test controls. All tests are race-clean (the
// Makefile race target runs this package).

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfserv/internal/message"
)

// testFlow is the flow configuration the contract tests use: a tiny
// queue so bounds are reachable, and a short send deadline.
func testFlow(queue int) FlowOptions {
	return FlowOptions{
		QueueLen:     queue,
		SendDeadline: 150 * time.Millisecond,
	}
}

// seqMsg builds a message whose Seq identifies it. pad inflates the
// payload so TCP kernel buffers saturate after a handful of frames.
func seqMsg(seq, pad int) *message.Message {
	m := &message.Message{Type: message.TypeNotify, From: "tester", To: "peer", Seq: seq}
	if pad > 0 {
		b := make([]byte, pad)
		for i := range b {
			b[i] = 'x'
		}
		m.Vars = map[string]string{"pad": string(b)}
	}
	return m
}

// stalledPeer is a destination that does NOT consume frames until
// Drain — the slow-peer injection, implementation-appropriate.
type stalledPeer interface {
	Addr() string
	// Drain resumes consumption, waits for want messages (plus a grace
	// period to catch stragglers), and returns them in arrival order.
	Drain(t *testing.T, want int) []*message.Message
}

// faultImpl adapts one Network implementation to the fault harness.
type faultImpl struct {
	name string
	// pad is the per-message padding needed to make "queue fills" a
	// small number of frames (TCP must saturate kernel buffers too).
	pad int
	// newNet builds the sender-side network under the given flow config.
	newNet func(flow FlowOptions) Network
	// newStalled creates a destination that is stalled from birth.
	newStalled func(t *testing.T, n Network) stalledPeer
}

func faultImpls() []faultImpl {
	return []faultImpl{
		{
			name: "inmem",
			pad:  0,
			newNet: func(flow FlowOptions) Network {
				return NewInMem(InMemOptions{Synchronous: true, Flow: flow})
			},
			newStalled: func(t *testing.T, n Network) stalledPeer {
				return newInmemStalled(t, n.(*InMem))
			},
		},
		{
			name: "tcp",
			pad:  256 << 10,
			newNet: func(flow FlowOptions) Network {
				return NewTCP(flow)
			},
			newStalled: func(t *testing.T, n Network) stalledPeer {
				return newRawPeer(t, "127.0.0.1:0")
			},
		},
	}
}

// --- InMem stalled peer: Hold/Release ---

type inmemStalled struct {
	n    *InMem
	addr string
	mu   sync.Mutex
	got  []*message.Message
}

func newInmemStalled(t *testing.T, n *InMem) *inmemStalled {
	t.Helper()
	p := &inmemStalled{n: n, addr: "stalled-peer"}
	_, err := n.Listen(p.addr, func(_ context.Context, m *message.Message) {
		p.mu.Lock()
		p.got = append(p.got, m)
		p.mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	n.Hold(p.addr)
	return p
}

func (p *inmemStalled) Addr() string { return p.addr }

func (p *inmemStalled) Drain(t *testing.T, want int) []*message.Message {
	t.Helper()
	p.n.Release(p.addr) // drains synchronously
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.got) != want {
		t.Fatalf("drained %d messages, want %d", len(p.got), want)
	}
	return append([]*message.Message(nil), p.got...)
}

// --- TCP stalled peer: a raw listener that accepts but does not read
// until Drain, so frames pile up in kernel buffers and then in the
// sender's bounded queue ---

type rawPeer struct {
	t  *testing.T
	ln net.Listener

	mu       sync.Mutex
	conns    []net.Conn
	got      []*message.Message
	frames   [][]byte // raw payloads, one per wire frame, in arrival order
	draining bool
	closed   bool
}

func newRawPeer(t *testing.T, addr string) *rawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("raw listen: %v", err)
	}
	p := &rawPeer{t: t, ln: ln}
	t.Cleanup(p.close)
	go p.acceptLoop(ln)
	return p
}

func (p *rawPeer) acceptLoop(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			return
		}
		p.conns = append(p.conns, c)
		draining := p.draining
		p.mu.Unlock()
		if draining {
			go p.readFrames(c)
		}
	}
}

func (p *rawPeer) Addr() string { return p.ln.Addr().String() }

// readFrames decodes length-prefixed frames off one connection,
// appending their messages in wire order.
func (p *rawPeer) readFrames(c net.Conn) {
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(c, lenBuf[:]); err != nil {
			return
		}
		payload := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
		if _, err := io.ReadFull(c, payload); err != nil {
			return
		}
		ms, err := message.UnmarshalBatch(payload)
		if err != nil {
			continue
		}
		p.mu.Lock()
		p.got = append(p.got, ms...)
		p.frames = append(p.frames, payload)
		p.mu.Unlock()
	}
}

func (p *rawPeer) Drain(t *testing.T, want int) []*message.Message {
	t.Helper()
	p.mu.Lock()
	p.draining = true
	conns := append([]net.Conn(nil), p.conns...)
	p.mu.Unlock()
	for _, c := range conns {
		go p.readFrames(c)
	}
	waitFor(t, func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.got) >= want
	}, fmt.Sprintf("%d drained messages", want))
	time.Sleep(50 * time.Millisecond) // catch any frame beyond want
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.got) != want {
		t.Fatalf("drained %d messages, want exactly %d", len(p.got), want)
	}
	return append([]*message.Message(nil), p.got...)
}

// cut severs the peer: the listener and every accepted connection die,
// as if the host vanished. restore (re-listen on the same port) brings
// it back.
func (p *rawPeer) cut() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

func (p *rawPeer) restore(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", p.Addr())
	if err != nil {
		t.Fatalf("re-listen %s: %v", p.Addr(), err)
	}
	p.mu.Lock()
	p.ln = ln
	p.mu.Unlock()
	go p.acceptLoop(ln)
}

func (p *rawPeer) close() {
	p.mu.Lock()
	p.closed = true
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

// assertSeqs fails unless the messages carry exactly want sequence
// numbers, in order.
func assertSeqs(t *testing.T, got []*message.Message, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d messages, want %d", len(got), len(want))
	}
	for i, m := range got {
		if m.Seq != want[i] {
			seqs := make([]int, len(got))
			for j, g := range got {
				seqs[j] = g.Seq
			}
			t.Fatalf("delivery order %v, want %v", seqs, want)
		}
	}
}

// TestContractSlowPeerFillAndDrain pins the bounded-queue core of the
// contract: a peer that stops consuming fills its queue to the cap and
// not a frame beyond it (the next send fails with ErrSendDeadline), the
// queue depth stat never exceeds the cap, and once the peer drains,
// every ACCEPTED frame arrives in acceptance order — nothing lost,
// nothing reordered, and the refused frame is gone for good.
func TestContractSlowPeerFillAndDrain(t *testing.T) {
	const queueLen = 4
	for _, impl := range faultImpls() {
		t.Run(impl.name, func(t *testing.T) {
			n := impl.newNet(testFlow(queueLen))
			defer n.Close()
			peer := impl.newStalled(t, n)
			ctx := context.Background()

			var accepted []int
			sawFull := false
			for i := 0; i < 64; i++ {
				err := n.Send(ctx, peer.Addr(), seqMsg(i, impl.pad))
				switch {
				case err == nil:
					accepted = append(accepted, i)
				case errors.Is(err, ErrSendDeadline):
					sawFull = true
				default:
					t.Fatalf("send %d: %v", i, err)
				}
				if d := n.Stats().Nodes[peer.Addr()].QueueDepth; d > queueLen {
					t.Fatalf("queue depth %d exceeds cap %d", d, queueLen)
				}
				if sawFull {
					break
				}
			}
			if !sawFull {
				t.Fatal("queue never filled: no ErrSendDeadline after 64 sends to a stalled peer")
			}
			st := n.Stats().Nodes[peer.Addr()]
			if st.SendBlocked == 0 {
				t.Fatalf("SendBlocked = 0 after a refused send; stats = %+v", st)
			}

			got := peer.Drain(t, len(accepted))
			assertSeqs(t, got, accepted)
			waitFor(t, func() bool { return n.Stats().Nodes[peer.Addr()].QueueDepth == 0 }, "queue drained to zero")
		})
	}
}

// TestContractSendDeadlineExpiry pins the full-queue wait: a send finding
// the queue full blocks for the send deadline, fails with
// ErrSendDeadline, and its frame is NOT delivered — while every send
// accepted before it arrives in order. Deadline expiry cannot reorder
// or truncate the accepted prefix.
func TestContractSendDeadlineExpiry(t *testing.T) {
	const queueLen = 3
	for _, impl := range faultImpls() {
		t.Run(impl.name, func(t *testing.T) {
			n := impl.newNet(testFlow(queueLen))
			defer n.Close()
			peer := impl.newStalled(t, n)
			ctx := context.Background()

			var accepted []int
			var expired int = -1
			start := time.Time{}
			for i := 0; i < 64; i++ {
				begin := time.Now()
				err := n.Send(ctx, peer.Addr(), seqMsg(i, impl.pad))
				if err == nil {
					accepted = append(accepted, i)
					continue
				}
				if !errors.Is(err, ErrSendDeadline) {
					t.Fatalf("send %d: %v, want ErrSendDeadline", i, err)
				}
				expired, start = i, begin
				break
			}
			if expired < 0 {
				t.Fatal("no send expired after 64 sends to a stalled peer")
			}
			if waited := time.Since(start); waited < 100*time.Millisecond {
				t.Fatalf("expired send waited only %v, want ~the 150ms send deadline", waited)
			}
			if st := n.Stats().Nodes[peer.Addr()]; st.SendBlocked == 0 {
				t.Fatalf("SendBlocked = 0 after a blocked send; stats = %+v", st)
			}

			// The drain sees exactly the accepted prefix; the expired
			// frame never surfaces, before or after.
			got := peer.Drain(t, len(accepted))
			assertSeqs(t, got, accepted)
		})
	}
}

// TestContractSlowPeerIsolation pins that backpressure is per
// destination: with one peer's queue full to the point of refusing
// sends, traffic to a second, healthy peer flows untouched.
func TestContractSlowPeerIsolation(t *testing.T) {
	const queueLen = 2
	for _, impl := range faultImpls() {
		t.Run(impl.name, func(t *testing.T) {
			n := impl.newNet(testFlow(queueLen))
			defer n.Close()
			slow := impl.newStalled(t, n)

			var mu sync.Mutex
			var live []*message.Message
			liveAddr := ""
			switch net := n.(type) {
			case *InMem:
				ep, err := net.Listen("live-peer", func(_ context.Context, m *message.Message) {
					mu.Lock()
					live = append(live, m)
					mu.Unlock()
				})
				if err != nil {
					t.Fatal(err)
				}
				liveAddr = ep.Addr()
			default:
				ep, err := n.Listen("127.0.0.1:0", func(_ context.Context, m *message.Message) {
					mu.Lock()
					live = append(live, m)
					mu.Unlock()
				})
				if err != nil {
					t.Fatal(err)
				}
				liveAddr = ep.Addr()
			}

			ctx := context.Background()
			// Fill the slow peer until a send expires WITH its queue at
			// the cap (an early expiry can be a transient burst the writer
			// then flushes into still-roomy kernel buffers).
			wedged := false
			for i := 0; i < 300 && !wedged; i++ {
				err := n.Send(ctx, slow.Addr(), seqMsg(i, impl.pad))
				if err != nil && !errors.Is(err, ErrSendDeadline) {
					t.Fatalf("send %d: %v", i, err)
				}
				wedged = errors.Is(err, ErrSendDeadline) &&
					n.Stats().Nodes[slow.Addr()].QueueDepth == queueLen
			}
			if !wedged {
				t.Fatal("slow peer never wedged at its queue cap")
			}

			// The healthy destination is unaffected: its sends succeed
			// (a transient own-queue burst under the tiny test cap waits
			// for its writer) and all deliver. If the slow peer's
			// backpressure leaked across destinations, these sends would
			// expire.
			const liveN = 10
			for i := 0; i < liveN; i++ {
				if err := n.Send(ctx, liveAddr, seqMsg(100+i, 0)); err != nil {
					t.Fatalf("send to live peer: %v", err)
				}
			}
			waitFor(t, func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(live) == liveN
			}, "deliveries to the live peer while the slow peer is stalled")

			// And the slow peer's queue still respects its bound. Only
			// InMem pins the exact depth: real kernel buffers keep
			// absorbing frames as they autotune, so TCP's queue may have
			// partially drained into them — the CAP is the contract.
			d := n.Stats().Nodes[slow.Addr()].QueueDepth
			if d > queueLen {
				t.Fatalf("slow peer queue depth = %d exceeds cap %d", d, queueLen)
			}
			if impl.name == "inmem" && d != queueLen {
				t.Fatalf("slow peer queue depth = %d, want the cap %d", d, queueLen)
			}
		})
	}
}

// TestContractStaleHandleCloseKeepsLiveListener pins that Endpoint.Close
// is registration-scoped: a peer is killed (its endpoint closed), the
// restarted peer re-listens on the same address, and a holder of the
// dead peer's handle closes it AGAIN. The live listener must stay
// reachable, and must still belong to its network — Network.Close shuts
// it (on TCP: the port is free again, the stale Close did not orphan it).
func TestContractStaleHandleCloseKeepsLiveListener(t *testing.T) {
	impls := append(faultImpls(), faultImpl{
		name:   "inmem-lanes",
		newNet: func(flow FlowOptions) Network { return NewInMem(InMemOptions{Flow: flow}) },
	})
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			n := impl.newNet(testFlow(8))
			defer n.Close()
			killed, err := n.Listen(n.MintAddr("a"), func(context.Context, *message.Message) {
				t.Error("delivery to the killed registration")
			})
			if err != nil {
				t.Fatal(err)
			}
			addr := killed.Addr()
			killed.Close()
			var got atomic.Int64
			if _, err := n.Listen(addr, func(context.Context, *message.Message) { got.Add(1) }); err != nil {
				t.Fatalf("re-listen on %s: %v", addr, err)
			}
			killed.Close() // the stale handle

			if err := n.Send(context.Background(), addr, seqMsg(0, 0)); err != nil {
				t.Fatalf("send to the live listener after a stale Close: %v", err)
			}
			waitFor(t, func() bool { return got.Load() == 1 }, "delivery to the live listener")

			n.Close()
			if _, isTCP := n.(*TCP); isTCP {
				ln, err := net.Listen("tcp", addr)
				if err != nil {
					t.Fatalf("port still bound after Network.Close: the stale Close orphaned the live listener: %v", err)
				}
				ln.Close()
			}
		})
	}
}

// TestInMemNoReorderAcrossReconnect pins per-sender FIFO across a link
// outage, deterministically: frames accepted before, during, and after
// a Cut arrive exactly once, in acceptance order, after Restore — a
// disconnect delays delivery but never reorders or duplicates it.
func TestInMemNoReorderAcrossReconnect(t *testing.T) {
	n := NewInMem(InMemOptions{Synchronous: true, Flow: testFlow(64)})
	defer n.Close()
	var got []*message.Message
	ep, err := n.Listen("peer", func(_ context.Context, m *message.Message) { got = append(got, m) })
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := make([]int, 0, 30)
	for i := 0; i < 10; i++ { // before the outage
		if err := n.Send(ctx, ep.Addr(), seqMsg(i, 0)); err != nil {
			t.Fatal(err)
		}
		want = append(want, i)
	}
	n.Cut(ep.Addr())
	for i := 10; i < 20; i++ { // during: accepted into the queue
		if err := n.Send(ctx, ep.Addr(), seqMsg(i, 0)); err != nil {
			t.Fatal(err)
		}
		want = append(want, i)
	}
	if len(got) != 10 {
		t.Fatalf("deliveries during the outage: got %d, want 10", len(got))
	}
	n.Restore(ep.Addr())
	for i := 20; i < 30; i++ { // after
		if err := n.Send(ctx, ep.Addr(), seqMsg(i, 0)); err != nil {
			t.Fatal(err)
		}
		want = append(want, i)
	}
	assertSeqs(t, got, want)
	if r := n.Stats().Nodes[ep.Addr()].Reconnects; r != 1 {
		t.Fatalf("Reconnects = %d, want 1", r)
	}
}

// TestTCPNoReorderAcrossReconnect is the real-socket version: the peer
// dies mid-stream and comes back on the same port; the sender's writer
// re-dials with backoff and resumes from the first unwritten frame.
// Frames already handed to the dead kernel socket may be lost, but what
// arrives is strictly increasing (per-sender FIFO, no duplicates), and
// everything accepted after the peer returned arrives.
func TestTCPNoReorderAcrossReconnect(t *testing.T) {
	n := NewTCP(testFlow(64))
	defer n.Close()
	peer := newRawPeer(t, "127.0.0.1:0")
	peer.mu.Lock()
	peer.draining = true // consume from the start
	peer.mu.Unlock()

	ctx := context.Background()
	const total = 60
	for i := 0; i < total; i++ {
		if i == 20 {
			// Cut only a connection the peer already holds: until frame 19
			// has arrived its accept loop may not have registered the
			// connection yet, and cut would then close nothing — no
			// outage, no reconnect.
			waitFor(t, func() bool {
				peer.mu.Lock()
				defer peer.mu.Unlock()
				return len(peer.got) == 20
			}, "frame 19 at the peer before the cut")
			peer.cut()
		}
		if i == 40 {
			peer.restore(t)
		}
		if err := n.Send(ctx, peer.Addr(), seqMsg(i, 0)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	waitFor(t, func() bool {
		peer.mu.Lock()
		defer peer.mu.Unlock()
		return len(peer.got) > 0 && peer.got[len(peer.got)-1].Seq == total-1
	}, "the final frame after reconnect")

	peer.mu.Lock()
	got := append([]*message.Message(nil), peer.got...)
	peer.mu.Unlock()
	seen := map[int]bool{}
	prev := -1
	for _, m := range got {
		if m.Seq <= prev {
			t.Fatalf("reordered or duplicated delivery: %d after %d", m.Seq, prev)
		}
		prev = m.Seq
		seen[m.Seq] = true
	}
	// Everything accepted after the peer was back must have arrived.
	for i := 40; i < total; i++ {
		if !seen[i] {
			t.Fatalf("frame %d (sent after restore) never arrived", i)
		}
	}
	if r := n.Stats().Nodes[peer.Addr()].Reconnects; r < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", r)
	}
}

// TestReconnectBackoffIsJitteredPerNetwork pins the reconnect schedule —
// backoffBase doubling up to backoffMax, each delay jittered to 50-100%
// of its nominal value — and that two networks built back to back draw
// different jitter, so daemons re-dialing one restarted peer spread out.
func TestReconnectBackoffIsJitteredPerNetwork(t *testing.T) {
	a, b := NewTCP(), NewTCP()
	defer a.Close()
	defer b.Close()
	same := true
	for attempt := 1; attempt <= 12; attempt++ {
		nominal := min(backoffBase<<(attempt-1), backoffMax)
		da, db := a.bo.delay(attempt), b.bo.delay(attempt)
		for _, d := range []time.Duration{da, db} {
			if d < nominal/2 || d > nominal {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, nominal/2, nominal)
			}
		}
		same = same && da == db
	}
	if same {
		t.Fatal("two networks drew the same 12 reconnect delays: their jitter is not seeded apart")
	}
}

// TestInMemBlockedSendCompletesOnDrain pins the happy side of the block
// policy: a sender blocked on a full queue is released (with a nil
// error) when the peer drains, and its message lands AFTER everything
// queued before it — blocking preserves acceptance order.
func TestInMemBlockedSendCompletesOnDrain(t *testing.T) {
	n := NewInMem(InMemOptions{Synchronous: true, Flow: FlowOptions{
		QueueLen: 2, SendDeadline: 5 * time.Second,
	}})
	defer n.Close()
	var mu sync.Mutex
	var got []*message.Message
	ep, err := n.Listen("peer", func(_ context.Context, m *message.Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n.Hold(ep.Addr())
	for i := 0; i < 2; i++ {
		if err := n.Send(ctx, ep.Addr(), seqMsg(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- n.Send(ctx, ep.Addr(), seqMsg(2, 0)) }()
	waitFor(t, func() bool { return n.Stats().Nodes[ep.Addr()].SendBlocked >= 1 }, "the third send to block")
	n.Release(ep.Addr())
	if err := <-blocked; err != nil {
		t.Fatalf("blocked send after drain: %v", err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 3
	}, "all three deliveries")
	mu.Lock()
	assertSeqs(t, got, []int{0, 1, 2})
	mu.Unlock()
}

// TestInMemCloseWakesBlockedSender pins shutdown behaviour: a sender
// blocked on a stalled peer's full queue is woken promptly by Close
// with ErrClosed — it does not sit out its whole send deadline.
func TestInMemCloseWakesBlockedSender(t *testing.T) {
	n := NewInMem(InMemOptions{Synchronous: true, Flow: FlowOptions{
		QueueLen: 1, SendDeadline: 30 * time.Second,
	}})
	ep, err := n.Listen("peer", func(context.Context, *message.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n.Hold(ep.Addr())
	if err := n.Send(ctx, ep.Addr(), seqMsg(0, 0)); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- n.Send(ctx, ep.Addr(), seqMsg(1, 0)) }()
	waitFor(t, func() bool { return n.Stats().Nodes[ep.Addr()].SendBlocked >= 1 }, "the send to block")
	n.Close()
	select {
	case err := <-blocked:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked send after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake the blocked sender")
	}
}

// TestInMemQueuedFramesNotCountedUntilDelivered pins the receiver-side
// accounting: frames queued behind a Hold count as received only when
// the drain actually hands them to the handler — a frame dropped at
// Close never inflates MsgsIn (matching TCP's read-side accounting).
func TestInMemQueuedFramesNotCountedUntilDelivered(t *testing.T) {
	n := NewInMem(InMemOptions{Synchronous: true, Flow: testFlow(8)})
	defer n.Close()
	ep, err := n.Listen("peer", func(context.Context, *message.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n.Hold(ep.Addr())
	for i := 0; i < 3; i++ {
		if err := n.Send(ctx, ep.Addr(), seqMsg(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if in := n.Stats().Nodes[ep.Addr()].MsgsIn; in != 0 {
		t.Fatalf("MsgsIn = %d while everything is still queued, want 0", in)
	}
	n.Release(ep.Addr())
	if in := n.Stats().Nodes[ep.Addr()].MsgsIn; in != 3 {
		t.Fatalf("MsgsIn = %d after the drain, want 3", in)
	}
}

// TestInMemDrainDeliversToTheAcceptingRegistration pins that a queued
// frame belongs to the registration it was accepted for: frames queued
// behind a Hold before and after a re-Listen are drained, in order, to
// the old and the new handler respectively.
func TestInMemDrainDeliversToTheAcceptingRegistration(t *testing.T) {
	n := NewInMem(InMemOptions{Synchronous: true, Flow: testFlow(16)})
	defer n.Close()

	var oldGot, newGot []*message.Message
	ep, err := n.Listen("peer", func(_ context.Context, m *message.Message) { oldGot = append(oldGot, m) })
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n.Hold("peer")
	for i := 0; i < 2; i++ {
		if err := n.Send(ctx, "peer", seqMsg(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	ep.Close()
	if _, err := n.Listen("peer", func(_ context.Context, m *message.Message) { newGot = append(newGot, m) }); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		if err := n.Send(ctx, "peer", seqMsg(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	n.Release("peer")

	assertSeqs(t, oldGot, []int{0, 1})
	assertSeqs(t, newGot, []int{2, 3})
}

// TestInMemPerSenderFIFOThroughLanes pins the receive-lane half of the
// delivery contract on the in-memory network in its production shape
// (asynchronous delivery): frames from one sender arrive in send order
// ACROSS frames — not just within a batch — because every sender hashes
// onto one bounded lane that delivers sequentially. Two interleaved
// senders keep their own orders independently, and a Cut/Restore outage
// in the middle must not reorder either stream: drained frames route
// through the same lanes, behind anything already queued there.
func TestInMemPerSenderFIFOThroughLanes(t *testing.T) {
	n := NewInMem(InMemOptions{Flow: testFlow(64)}) // async: lanes active
	defer n.Close()
	var mu sync.Mutex
	var got []*message.Message
	ep, err := n.Listen("peer", func(_ context.Context, m *message.Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if lanes := n.Stats().Nodes[ep.Addr()].RecvLanes; lanes != recvLaneCount {
		t.Fatalf("RecvLanes = %d, want %d", lanes, recvLaneCount)
	}

	alice := n.Open("alice")
	bob := n.Open("bob")
	ctx := context.Background()
	const per = 30
	send := func(s Sender, base, lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			m := seqMsg(base+i, 0)
			m.From = s.From()
			if err := s.Send(ctx, ep.Addr(), m); err != nil {
				t.Fatalf("%s send %d: %v", s.From(), i, err)
			}
		}
	}
	// Interleaved live traffic, then an outage with traffic queued behind
	// it, then live again.
	send(alice, 0, 0, 10)
	send(bob, 1000, 0, 10)
	n.Cut(ep.Addr())
	send(alice, 0, 10, 20)
	send(bob, 1000, 10, 20)
	n.Restore(ep.Addr())
	send(alice, 0, 20, per)
	send(bob, 1000, 20, per)

	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2*per
	}, "all deliveries")
	mu.Lock()
	defer mu.Unlock()
	var aliceSeqs, bobSeqs []int
	for _, m := range got {
		if m.Seq >= 1000 {
			bobSeqs = append(bobSeqs, m.Seq)
		} else {
			aliceSeqs = append(aliceSeqs, m.Seq)
		}
	}
	for i, s := range aliceSeqs {
		if s != i {
			t.Fatalf("alice's stream reordered: %v", aliceSeqs)
		}
	}
	for i, s := range bobSeqs {
		if s != 1000+i {
			t.Fatalf("bob's stream reordered: %v", bobSeqs)
		}
	}
	if r := n.Stats().Nodes[ep.Addr()].Reconnects; r != 1 {
		t.Fatalf("Reconnects = %d, want 1", r)
	}
	waitFor(t, func() bool { return n.Stats().Nodes[ep.Addr()].RecvQueueDepth == 0 }, "receive lanes drained")
}

// TestTCPPerSenderFIFOThroughLanes is the real-socket twin, in two
// phases. First, two senders share one connection while bob's lane is
// blocked in the handler with bob's second message queued behind it;
// alice's and bob's interleaved messages that follow must leave bob's in
// order behind that one and alice's flowing — a frame is delivered on
// its own sender's lane, never on the lane of a frame written next to
// it. Then the receiver dies mid-stream and comes back on the same port
// (sender reconnects, fresh endpoint, fresh lanes), and what arrives is
// strictly increasing with everything sent after the restart present —
// per-sender FIFO across frames, connections, and reconnects. Frames
// written into the dying socket may be lost; loss is allowed,
// reordering is not.
func TestTCPPerSenderFIFOThroughLanes(t *testing.T) {
	n := NewTCP(testFlow(64))
	defer n.Close()
	recv := NewTCP()
	defer recv.Close()

	var mu sync.Mutex
	var got []*message.Message
	bobBlocked, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // before recv.Close, which waits for the lane workers
	handler := func(_ context.Context, m *message.Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
		if m.From == "bob" && m.Seq == 0 {
			close(bobBlocked)
			<-release
		}
	}
	from := func(sender string) []int {
		mu.Lock()
		defer mu.Unlock()
		var seqs []int
		for _, m := range got {
			if m.From == sender {
				seqs = append(seqs, m.Seq)
			}
		}
		return seqs
	}
	ep, err := recv.Listen("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	addr := ep.Addr()
	if lanes := recv.Stats().Nodes[addr].RecvLanes; lanes != recvLaneCount {
		t.Fatalf("RecvLanes = %d, want %d", lanes, recvLaneCount)
	}

	ctx := context.Background()
	alice, bob := n.Open("alice"), n.Open("bob")
	if laneFor("alice", recvLaneCount) == laneFor("bob", recvLaneCount) {
		t.Fatal("alice and bob hash onto one lane: the test needs two")
	}
	send := func(s Sender, seq int) {
		t.Helper()
		m := seqMsg(seq, 0)
		m.From = s.From()
		if err := s.Send(ctx, addr, m); err != nil {
			t.Fatalf("%s send %d: %v", s.From(), seq, err)
		}
	}
	send(bob, 0)
	select {
	case <-bobBlocked:
	case <-time.After(5 * time.Second):
		t.Fatal("bob's first message never reached the handler")
	}
	send(bob, 1)
	waitFor(t, func() bool { return recv.Stats().Nodes[addr].RecvQueueDepth == 2 },
		"bob's second message queued behind the first")
	const per = 10
	for i := 0; i < per; i++ {
		send(alice, i)
		send(bob, 2+i)
	}
	waitFor(t, func() bool { return len(from("alice")) == per }, "alice's messages past bob's blocked lane")
	unblock()
	waitFor(t, func() bool { return len(from("bob")) == per+2 }, "bob's messages")
	for _, sender := range []string{"alice", "bob"} {
		seqs := from(sender)
		for i, s := range seqs {
			if s != i {
				t.Fatalf("%s's messages arrived %v, want them in send order", sender, seqs)
			}
		}
	}
	mu.Lock()
	got = nil
	mu.Unlock()

	const total = 60
	for i := 0; i < total; i++ {
		if i == 20 {
			ep.Close() // the receiver dies...
		}
		if i == 40 {
			ep, err = recv.Listen(addr, handler) // ...and returns on the same port
			if err != nil {
				t.Fatalf("re-listen: %v", err)
			}
		}
		if err := n.Send(ctx, addr, seqMsg(i, 0)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) > 0 && got[len(got)-1].Seq == total-1
	}, "the final frame after the receiver restart")

	mu.Lock()
	defer mu.Unlock()
	prev := -1
	seen := map[int]bool{}
	for _, m := range got {
		if m.Seq <= prev {
			t.Fatalf("reordered or duplicated delivery: %d after %d", m.Seq, prev)
		}
		prev = m.Seq
		seen[m.Seq] = true
	}
	for i := 40; i < total; i++ {
		if !seen[i] {
			t.Fatalf("frame %d (sent after the restart) never arrived", i)
		}
	}
}

// TestInMemBatchedEqualsSequentialUnderFaults pins that fault injection
// composes with the batching determinism contract: under one seed, with
// the destination stalled and restored mid-traffic, a batched sender
// loses exactly the messages the equivalent sequential sender loses,
// and the survivors arrive in the same order.
func TestInMemBatchedEqualsSequentialUnderFaults(t *testing.T) {
	run := func(batched bool) []string {
		n := NewInMem(InMemOptions{Synchronous: true, DropRate: 0.3, Seed: 99,
			Flow: testFlow(32)})
		defer n.Close()
		var got []string
		ep, err := n.Listen("peer", func(_ context.Context, m *message.Message) {
			got = append(got, m.Vars["v"])
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		mk := func(i int) *message.Message {
			return &message.Message{Type: message.TypeNotify, Vars: map[string]string{"v": strconv.Itoa(i)}}
		}
		// Wave 1 delivered live, wave 2 queued behind a Cut and drained
		// by Restore, wave 3 live again.
		send := func(lo, hi int) {
			if batched {
				ms := make([]*message.Message, 0, hi-lo)
				for i := lo; i < hi; i++ {
					ms = append(ms, mk(i))
				}
				if err := n.SendBatch(ctx, ep.Addr(), ms); err != nil {
					t.Fatal(err)
				}
				return
			}
			for i := lo; i < hi; i++ {
				if err := n.Send(ctx, ep.Addr(), mk(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		send(0, 10)
		n.Cut(ep.Addr())
		send(10, 20)
		n.Restore(ep.Addr())
		send(20, 30)
		return got
	}

	seq := run(false)
	bat := run(true)
	if len(seq) != len(bat) {
		t.Fatalf("sequential delivered %d, batched %d — drop draws diverged under faults", len(seq), len(bat))
	}
	for i := range seq {
		if seq[i] != bat[i] {
			t.Fatalf("delivery %d: sequential %q, batched %q", i, seq[i], bat[i])
		}
	}
	if len(seq) == 30 || len(seq) == 0 {
		t.Fatalf("want a partial loss under DropRate=0.3, delivered %d/30", len(seq))
	}
}

// TestTCPStreamIntegrityThroughDirectWrites pins the direct write
// (tcpConn.tryDirect) against the writer it shares the socket with.
// Several senders share one connection to a peer that reads in small,
// slow bites, with frames of a few KiB — small enough for the buffer
// pool, large enough that the socket buffer fills mid-frame — so frames
// written by their sender, frames a direct write left part-written and
// frames queued to the writer interleave on one stream. Every accepted
// frame must arrive whole, byte for byte, and in its sender's order, and
// QueueDepth must never exceed QueueLen and must come back to 0.
func TestTCPStreamIntegrityThroughDirectWrites(t *testing.T) {
	const (
		queueLen = 8
		senders  = 4
		perSend  = 250
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	// pad is the frame body of sender s's message seq: its length and
	// bytes both depend on the pair, so a frame cut short, spliced into
	// another or encoded over before its tail was written shows.
	pad := func(s, seq int) string {
		b := make([]byte, 1024+(seq*7919+s*104729)%(10<<10))
		for i := range b {
			b[i] = byte('a' + (s*31+seq+i)%26)
		}
		return string(b)
	}

	type arrival struct{ from, seq int }
	got := make(chan arrival, senders*perSend)
	readErr := make(chan error, 1)
	fail := func(err error) {
		select {
		case readErr <- err:
		default:
		}
	}
	// Every connection is read, and one that ends on a frame boundary is
	// no error: the test's only connection is dialed before any send.
	read := func(c net.Conn) {
		defer c.Close()
		slow := &slowReader{c: c}
		var header [tcpHeader]byte
		for {
			if _, err := io.ReadFull(slow, header[:]); err != nil {
				if !errors.Is(err, io.EOF) {
					fail(fmt.Errorf("reading a header: %w", err))
				}
				return
			}
			payload := make([]byte, binary.BigEndian.Uint32(header[:]))
			if _, err := io.ReadFull(slow, payload); err != nil {
				fail(fmt.Errorf("stream ended inside a %d-byte frame: %w", len(payload), err))
				return
			}
			m, err := message.Unmarshal(payload)
			if err != nil {
				fail(fmt.Errorf("frame of %d bytes: %w", len(payload), err))
				return
			}
			s, _ := strconv.Atoi(m.From[len("sender-"):])
			if m.Vars["pad"] != pad(s, m.Seq) {
				fail(fmt.Errorf("%s's frame %d arrived with other bytes than it was sent with", m.From, m.Seq))
				return
			}
			got <- arrival{s, m.Seq}
		}
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c.(*net.TCPConn).SetReadBuffer(64 << 10)
			go read(c)
		}
	}()

	n := NewTCP(FlowOptions{QueueLen: queueLen, SendDeadline: 30 * time.Second})
	defer n.Close()
	ctx := context.Background()
	// Small socket buffers on both ends, so a frame often finds less room
	// than it needs: that is the partial direct write.
	tc, err := n.conn(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.c.(*net.TCPConn).SetWriteBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	var over atomic.Int64 // the deepest queue the sampler saw beyond the bound
	stopSampling := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			if d := n.Stats().Nodes[addr].QueueDepth; d > queueLen {
				over.Store(d)
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			snd := n.Open(fmt.Sprintf("sender-%d", s))
			for seq := 0; seq < perSend; seq++ {
				m := &message.Message{Type: message.TypeNotify, From: snd.From(), To: "peer", Seq: seq,
					Vars: map[string]string{"pad": pad(s, seq)}}
				if err := snd.Send(ctx, addr, m); err != nil {
					t.Errorf("sender-%d send %d: %v", s, seq, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	next := make([]int, senders)
	for i := 0; i < senders*perSend; i++ {
		select {
		case a := <-got:
			if a.seq != next[a.from] {
				t.Fatalf("sender-%d's frame %d arrived where %d was due", a.from, a.seq, next[a.from])
			}
			next[a.from]++
		case err := <-readErr:
			t.Fatalf("after %d frames: %v", i, err)
		case <-time.After(20 * time.Second):
			t.Fatalf("only %d of %d frames arrived", i, senders*perSend)
		}
	}
	waitFor(t, func() bool { return n.Stats().Nodes[addr].QueueDepth == 0 }, "queue depth back to 0")
	close(stopSampling)
	<-sampled
	if d := over.Load(); d != 0 {
		t.Fatalf("queue depth reached %d, over its bound of %d", d, queueLen)
	}
}

// slowReader reads in bites of at most 4 KiB and pauses after every
// sixteenth, so the sender's socket buffer keeps filling up.
type slowReader struct {
	c     net.Conn
	reads int
}

func (r *slowReader) Read(p []byte) (int, error) {
	r.reads++
	if r.reads%16 == 0 {
		time.Sleep(time.Millisecond)
	}
	return r.c.Read(p[:min(len(p), 4<<10)])
}
