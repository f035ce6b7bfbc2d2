package transport

// The send-path circuit-breaker contract, run against both Network
// implementations like the rest of the fault suite. Deterministic: the
// breaker clock is injected, and queue pressure is created with the
// suite's stalled peers.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"selfserv/internal/circuit"
)

type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock { return &testClock{now: time.Unix(7000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// breakerFlow is testFlow plus a tight breaker: two consecutive send
// failures toward a destination (two send-deadline expiries, or two
// failed dials) trip it.
func breakerFlow(queue int, clk *testClock) FlowOptions {
	flow := testFlow(queue)
	flow.Breaker = &circuit.Options{
		Window: 2, MinSamples: 2, Threshold: 1.0,
		OpenFor: time.Minute, Now: clk.Now,
	}
	return flow
}

// TestContractBreakerFailsFastWithoutQueueSlots pins the wedged-peer
// story: a destination whose bounded queue stays full past two send
// deadlines in a row trips its breaker; while the breaker is open,
// further sends fail instantly with circuit.ErrOpen and never touch the
// queue (SendBlocked stops moving — no slots burned, no deadline waits);
// after the cool-down and the peer's recovery, the half-open probe send
// closes the breaker and traffic flows again.
func TestContractBreakerFailsFastWithoutQueueSlots(t *testing.T) {
	const queueLen = 4
	for _, impl := range faultImpls() {
		t.Run(impl.name, func(t *testing.T) {
			clk := newTestClock()
			n := impl.newNet(breakerFlow(queueLen, clk))
			defer n.Close()
			peer := impl.newStalled(t, n)
			ctx := context.Background()

			// Fill the stalled peer's bounded queue until two consecutive
			// send-deadline expiries trip the breaker.
			var accepted []int
			fails := 0
			for i := 0; fails < 2 && i < 64; i++ {
				err := n.Send(ctx, peer.Addr(), seqMsg(i, impl.pad))
				switch {
				case err == nil:
					accepted = append(accepted, i)
					fails = 0
				case errors.Is(err, ErrSendDeadline):
					fails++
				default:
					t.Fatalf("send %d: %v", i, err)
				}
			}
			if fails != 2 {
				t.Fatal("queue never refused two sends in a row")
			}
			st := n.Stats().Nodes[peer.Addr()]
			if st.BreakerOpens != 1 {
				t.Fatalf("BreakerOpens = %d, want 1; stats = %+v", st.BreakerOpens, st)
			}
			blockedBefore := st.SendBlocked

			// Open: instant refusals, no queue interaction.
			for i := 0; i < 5; i++ {
				err := n.Send(ctx, peer.Addr(), seqMsg(100+i, impl.pad))
				if !errors.Is(err, circuit.ErrOpen) {
					t.Fatalf("send while open = %v, want circuit.ErrOpen", err)
				}
			}
			st = n.Stats().Nodes[peer.Addr()]
			if st.SendBlocked != blockedBefore {
				t.Fatalf("open breaker burned queue slots: SendBlocked %d -> %d",
					blockedBefore, st.SendBlocked)
			}

			// The peer drains every accepted frame — in order, nothing from
			// the refused sends — and the cool-down elapses: the next send
			// is the half-open probe, succeeds, and re-closes the breaker.
			got := peer.Drain(t, len(accepted))
			assertSeqs(t, got, accepted)
			clk.Advance(2 * time.Minute)
			for i := 0; i < 3; i++ {
				if err := n.Send(ctx, peer.Addr(), seqMsg(200+i, impl.pad)); err != nil {
					t.Fatalf("send %d after recovery: %v", i, err)
				}
			}
		})
	}
}

// TestContractBreakerOnDeadDestination: sends to a destination nobody
// listens on fail with ErrUnknownAddress and feed the breaker; once it
// opens, further sends are refused with circuit.ErrOpen without
// re-resolving (for TCP: without re-dialing) the dead peer.
func TestContractBreakerOnDeadDestination(t *testing.T) {
	for _, impl := range faultImpls() {
		t.Run(impl.name, func(t *testing.T) {
			clk := newTestClock()
			n := impl.newNet(breakerFlow(4, clk))
			defer n.Close()
			ctx := context.Background()

			// A dead address for either implementation: nothing listens on
			// a fresh loopback port / an unregistered in-memory name.
			dead := "nobody-home"
			if _, ok := n.(*TCP); ok {
				dead = "127.0.0.1:9" // discard port, nothing listens in tests
			}

			for i := 0; i < 2; i++ {
				if err := n.Send(ctx, dead, seqMsg(i, 0)); !errors.Is(err, ErrUnknownAddress) {
					t.Fatalf("send %d to dead destination = %v, want ErrUnknownAddress", i, err)
				}
			}
			if err := n.Send(ctx, dead, seqMsg(2, 0)); !errors.Is(err, circuit.ErrOpen) {
				t.Fatalf("send after breaker trip = %v, want circuit.ErrOpen", err)
			}
			if got := n.Stats().Nodes[dead].BreakerOpens; got != 1 {
				t.Fatalf("BreakerOpens = %d, want 1", got)
			}
		})
	}
}

// TestAvailabilityRecorder: both implementations expose the recorder,
// and recorded events surface in destination-keyed stats and totals.
func TestAvailabilityRecorder(t *testing.T) {
	nets := map[string]Network{
		"inmem": NewInMem(InMemOptions{}),
		"tcp":   NewTCP(),
	}
	for name, n := range nets {
		t.Run(name, func(t *testing.T) {
			defer n.Close()
			rec, ok := n.(AvailabilityRecorder)
			if !ok {
				t.Fatalf("%T does not implement AvailabilityRecorder", n)
			}
			rec.RecordFailover("hostB")
			rec.RecordFailover("hostB")
			rec.RecordShed("hostB")
			rec.RecordBreakerOpen("hostC")
			st := n.Stats()
			b := st.Nodes["hostB"]
			if b.Failovers != 2 || b.ShedRequests != 1 {
				t.Fatalf("hostB stats = %+v", b)
			}
			if c := st.Nodes["hostC"]; c.BreakerOpens != 1 {
				t.Fatalf("hostC stats = %+v", c)
			}
			tot := st.Total()
			if tot.Failovers != 2 || tot.ShedRequests != 1 || tot.BreakerOpens != 1 {
				t.Fatalf("totals = %+v", tot)
			}
		})
	}
}
