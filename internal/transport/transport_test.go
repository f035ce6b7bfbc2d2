package transport

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfserv/internal/message"
)

// harness abstracts over the two Network implementations so the same
// contract tests run against both.
type harness struct {
	name string
	// newNet builds a fresh network.
	newNet func() Network
	// addrFor produces a listen address for logical node i.
	addrFor func(i int) string
}

func harnesses() []harness {
	return []harness{
		{
			name:    "inmem",
			newNet:  func() Network { return NewInMem(InMemOptions{}) },
			addrFor: func(i int) string { return fmt.Sprintf("node-%d", i) },
		},
		{
			name:    "tcp",
			newNet:  func() Network { return NewTCP() },
			addrFor: func(i int) string { return "127.0.0.1:0" },
		},
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestContractDeliver(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			n := h.newNet()
			defer n.Close()

			var mu sync.Mutex
			var got []*message.Message
			ep, err := n.Listen(h.addrFor(1), func(_ context.Context, m *message.Message) {
				mu.Lock()
				got = append(got, keep(m))
				mu.Unlock()
			})
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			msg := &message.Message{
				Type: message.TypeNotify, Composite: "C", Instance: "i1",
				From: "a", To: "b", Vars: map[string]string{"x": "1"},
			}
			if err := n.Send(context.Background(), ep.Addr(), msg); err != nil {
				t.Fatalf("Send: %v", err)
			}
			waitFor(t, func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(got) == 1
			}, "delivery")
			mu.Lock()
			defer mu.Unlock()
			if got[0].Vars["x"] != "1" || got[0].Instance != "i1" {
				t.Fatalf("delivered %+v", got[0])
			}
		})
	}
}

func TestContractManyToOneOrdering(t *testing.T) {
	// Deliveries are concurrent, but none may be lost.
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			n := h.newNet()
			defer n.Close()
			var count atomic.Int64
			ep, err := n.Listen(h.addrFor(1), func(_ context.Context, m *message.Message) {
				count.Add(1)
			})
			if err != nil {
				t.Fatal(err)
			}
			const senders, per = 8, 50
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						m := &message.Message{Type: message.TypeNotify, Seq: i, From: fmt.Sprintf("s%d", s)}
						if err := n.Send(context.Background(), ep.Addr(), m); err != nil {
							t.Errorf("Send: %v", err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			waitFor(t, func() bool { return count.Load() == senders*per }, "all deliveries")
		})
	}
}

func TestContractUnknownAddress(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			n := h.newNet()
			defer n.Close()
			var bad string
			if h.name == "tcp" {
				bad = "127.0.0.1:1" // almost certainly nothing listens here
			} else {
				bad = "nobody"
			}
			err := n.Send(context.Background(), bad, &message.Message{Type: message.TypeStart})
			if !errors.Is(err, ErrUnknownAddress) {
				t.Fatalf("Send to unknown = %v, want ErrUnknownAddress", err)
			}
		})
	}
}

func TestContractCloseRejectsSend(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			n := h.newNet()
			ep, err := n.Listen(h.addrFor(1), func(context.Context, *message.Message) {})
			if err != nil {
				t.Fatal(err)
			}
			addr := ep.Addr()
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			err = n.Send(context.Background(), addr, &message.Message{Type: message.TypeStart})
			if err == nil {
				t.Fatal("Send after Close succeeded")
			}
		})
	}
}

func TestContractStats(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			n := h.newNet()
			defer n.Close()
			var seen atomic.Int64
			ep, err := n.Listen(h.addrFor(1), func(context.Context, *message.Message) { seen.Add(1) })
			if err != nil {
				t.Fatal(err)
			}
			s := n.Open("sender-A")
			if s.From() != "sender-A" {
				t.Fatalf("Open attributed to %q", s.From())
			}
			ctx := context.Background()
			for i := 0; i < 3; i++ {
				if err := s.Send(ctx, ep.Addr(), &message.Message{Type: message.TypeNotify}); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, func() bool { return seen.Load() == 3 }, "deliveries")
			st := n.Stats()
			in := st.Nodes[ep.Addr()]
			if in.MsgsIn != 3 || in.BytesIn == 0 {
				t.Fatalf("receiver stats = %+v", in)
			}
			out := st.Nodes["sender-A"]
			if out.MsgsOut != 3 || out.BytesOut != in.BytesIn {
				t.Fatalf("sender stats = %+v (receiver %+v)", out, in)
			}
			if out.FramesOut != 3 {
				t.Fatalf("FramesOut = %d, want 3 (one frame per single send)", out.FramesOut)
			}
			total := st.Total()
			if total.MsgsIn != 3 || total.MsgsOut != 3 {
				t.Fatalf("total = %+v", total)
			}
			name, busiest := st.Busiest()
			if busiest.MsgsIn+busiest.MsgsOut == 0 || name == "" {
				t.Fatalf("busiest = %q %+v", name, busiest)
			}
		})
	}
}

func TestInMemSynchronousDeterminism(t *testing.T) {
	n := NewInMem(InMemOptions{Synchronous: true})
	defer n.Close()
	var order []int
	ep, _ := n.Listen("sink", func(_ context.Context, m *message.Message) {
		order = append(order, m.Seq) // safe: synchronous delivery, single sender
	})
	for i := 0; i < 10; i++ {
		if err := n.Send(context.Background(), ep.Addr(), &message.Message{Type: message.TypeNotify, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range order {
		if s != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestInMemDropRate(t *testing.T) {
	n := NewInMem(InMemOptions{DropRate: 0.5, Seed: 42, Synchronous: true})
	defer n.Close()
	delivered := 0
	ep, _ := n.Listen("sink", func(context.Context, *message.Message) { delivered++ })
	const total = 1000
	for i := 0; i < total; i++ {
		if err := n.Send(context.Background(), ep.Addr(), &message.Message{Type: message.TypeNotify}); err != nil {
			t.Fatal(err)
		}
	}
	if delivered < total/3 || delivered > 2*total/3 {
		t.Fatalf("delivered %d of %d with 50%% drop", delivered, total)
	}
	// Deterministic under the same seed.
	n2 := NewInMem(InMemOptions{DropRate: 0.5, Seed: 42, Synchronous: true})
	defer n2.Close()
	delivered2 := 0
	ep2, _ := n2.Listen("sink", func(context.Context, *message.Message) { delivered2++ })
	for i := 0; i < total; i++ {
		_ = n2.Send(context.Background(), ep2.Addr(), &message.Message{Type: message.TypeNotify})
	}
	if delivered2 != delivered {
		t.Fatalf("same seed delivered %d then %d", delivered, delivered2)
	}
}

func TestInMemDuplicateListen(t *testing.T) {
	n := NewInMem(InMemOptions{})
	defer n.Close()
	if _, err := n.Listen("a", func(context.Context, *message.Message) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a", func(context.Context, *message.Message) {}); err == nil {
		t.Fatal("duplicate Listen succeeded")
	}
	if _, err := n.Listen("", func(context.Context, *message.Message) {}); err == nil {
		t.Fatal("empty address accepted")
	}
	if _, err := n.Listen("b", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestEndpointCloseStopsDelivery(t *testing.T) {
	n := NewInMem(InMemOptions{Synchronous: true})
	defer n.Close()
	got := 0
	ep, _ := n.Listen("x", func(context.Context, *message.Message) { got++ })
	if err := n.Send(context.Background(), "x", &message.Message{Type: message.TypeNotify}); err != nil {
		t.Fatal(err)
	}
	ep.Close()
	err := n.Send(context.Background(), "x", &message.Message{Type: message.TypeNotify})
	if !errors.Is(err, ErrUnknownAddress) {
		t.Fatalf("Send after endpoint close = %v", err)
	}
	if got != 1 {
		t.Fatalf("got %d deliveries", got)
	}
}

func TestTCPReconnectAfterReceiverRestart(t *testing.T) {
	n := NewTCP()
	defer n.Close()
	recv := NewTCP()
	var count atomic.Int64
	ep, err := recv.Listen("127.0.0.1:0", func(context.Context, *message.Message) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	addr := ep.Addr()
	if err := n.Send(context.Background(), addr, &message.Message{Type: message.TypeNotify}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return count.Load() == 1 }, "first delivery")

	// Restart the receiver on the same port; the sender's cached
	// connection is now stale and must be re-dialed transparently.
	ep.Close()
	ep2, err := recv.Listen(addr, func(context.Context, *message.Message) { count.Add(1) })
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer ep2.Close()
	// Sends are fire-and-forget: a write into the stale connection can be
	// silently buffered by the OS before the reset is detected, so the
	// contract is "eventually delivered under retry", not exactly-once.
	deadline := time.Now().Add(5 * time.Second)
	for count.Load() < 2 && time.Now().Before(deadline) {
		_ = n.Send(context.Background(), addr, &message.Message{Type: message.TypeNotify})
		time.Sleep(20 * time.Millisecond)
	}
	if count.Load() < 2 {
		t.Fatal("message never delivered after receiver restart")
	}
	recv.Close()
}

func TestAnonymousSendHasNoSenderAttribution(t *testing.T) {
	// Network.Send (no handle) counts receiver traffic but attributes no
	// sender — only Senders opened via the Opener carry attribution.
	n := NewInMem(InMemOptions{Synchronous: true})
	defer n.Close()
	ep, _ := n.Listen("sink", func(context.Context, *message.Message) {})
	if err := n.Send(context.Background(), ep.Addr(), &message.Message{Type: message.TypeNotify}); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if got := st.Nodes[ep.Addr()]; got.MsgsIn != 1 {
		t.Fatalf("receiver stats = %+v", got)
	}
	if total := st.Total(); total.MsgsOut != 0 || total.FramesOut != 0 {
		t.Fatalf("anonymous send attributed outbound traffic: %+v", total)
	}
}

// keep copies a delivered message and takes its bag. A handler borrows
// m and m.Vars for the length of the call (Handler), so a test that looks
// at deliveries after the handler returns keeps a copy of the struct and
// takes the bag: the strings are the delivery's own, the struct and a
// bag left behind are the lane's.
func keep(m *message.Message) *message.Message {
	kept := *m
	m.Vars = nil
	return &kept
}

// withSync is harnesses() plus the Synchronous in-memory network, whose
// deliveries run inline on the sender and get a Message each.
func withSync() []harness {
	hs := harnesses()
	return append(hs, harness{
		name:    "inmem-sync",
		newNet:  func() Network { return NewInMem(InMemOptions{Synchronous: true}) },
		addrFor: hs[0].addrFor,
	})
}

// TestHandlerOwnsTheBagAndTheStringsNotTheMessage pins the contract the
// engine's bag hand-over rests on (docs/transport.md, "Who owns a
// delivered message"): a delivery lends its *Message and the bag in its
// Vars for the call, and a handler keeps a bag by taking it. Four messages
// — two frames of one and one batch of two — each arrive with exactly the
// variables sent, whatever the handler wrote into a bag it left. The
// handler takes the first bag and keeps it; leaves the second, written;
// takes the third and gives up an empty map of its own in its place; and
// leaves the fourth. A taken bag is nobody else's: it keeps the handler's
// writes after every later delivery and is neither the sender's map nor
// a later delivery's. On the receive lanes a bag left behind, and the map
// given up, is the one the next delivery decodes into; a Synchronous
// delivery gets a Message, and so a bag, each. The strings the handler
// kept from one delivery still read what was sent after every later
// delivery has reused the Message and the frame buffers.
func TestHandlerOwnsTheBagAndTheStringsNotTheMessage(t *testing.T) {
	for _, h := range withSync() {
		t.Run(h.name, func(t *testing.T) {
			lanes := h.name != "inmem-sync"
			n := h.newNet()
			defer n.Close()
			type kept struct {
				vars                         map[string]string
				instance, from, to, errorMsg string
			}
			var mu sync.Mutex
			var got []kept
			var taken []map[string]string
			var arrived []string
			var lentNext map[string]string // the map the next lane delivery must decode into
			given := map[string]string{}   // the handler's own, given up at the third delivery
			ep, err := n.Listen(h.addrFor(1), func(_ context.Context, m *message.Message) {
				mu.Lock()
				defer mu.Unlock()
				i := len(got)
				arrived = append(arrived, fmt.Sprint(m.Vars))
				if lanes && lentNext != nil && reflect.ValueOf(m.Vars).Pointer() != reflect.ValueOf(lentNext).Pointer() {
					t.Errorf("delivery %d decoded into a new map, not the one the last delivery left", i)
				}
				m.Vars["x"] = "written by the handler"
				m.Vars["more"] = "and kept"
				got = append(got, kept{m.Vars, m.Instance, m.From, m.To, m.Error})
				switch i {
				case 0:
					taken, m.Vars = append(taken, m.Vars), nil
				case 2:
					taken, m.Vars = append(taken, m.Vars), given
				}
				lentNext = m.Vars
			})
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			// Same-length strings on every message, so a later delivery
			// decoded over an earlier one's bytes would show.
			sent := func(i int) *message.Message {
				return &message.Message{
					Type: message.TypeNotify, Composite: "C", Instance: fmt.Sprintf("i%d", i),
					From: "a", To: fmt.Sprintf("b%d", i), Error: fmt.Sprintf("e%d", i), Vars: map[string]string{"x": "1"},
				}
			}
			ms := []*message.Message{sent(0), sent(1), sent(2), sent(3)}
			ctx := context.Background()
			for _, m := range ms[:2] {
				if err := n.Send(ctx, ep.Addr(), m); err != nil {
					t.Fatalf("Send: %v", err)
				}
			}
			if err := n.SendBatch(ctx, ep.Addr(), ms[2:]); err != nil {
				t.Fatalf("SendBatch: %v", err)
			}
			waitFor(t, func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(got) == 4
			}, "four deliveries")
			mu.Lock()
			defer mu.Unlock()
			for i, k := range got {
				if arrived[i] != "map[x:1]" {
					t.Errorf("delivery %d arrived with %s, want map[x:1]: an earlier delivery's bag showed through", i, arrived[i])
				}
				want := ms[i]
				if k.instance != want.Instance || k.from != want.From || k.to != want.To || k.errorMsg != want.Error {
					t.Errorf("delivery %d's kept strings now read %q %q %q %q, want %q %q %q %q",
						i, k.instance, k.from, k.to, k.errorMsg, want.Instance, want.From, want.To, want.Error)
				}
			}
			for i, bag := range taken {
				if len(bag) != 2 || bag["x"] != "written by the handler" || bag["more"] != "and kept" {
					t.Errorf("taken bag %d lost the handler's writes: %v", i, bag)
				}
				for _, m := range ms {
					if reflect.ValueOf(bag).Pointer() == reflect.ValueOf(m.Vars).Pointer() {
						t.Errorf("taken bag %d is a sender's own map", i)
					}
				}
				for j, k := range got[2*i+1:] {
					if reflect.ValueOf(bag).Pointer() == reflect.ValueOf(k.vars).Pointer() {
						t.Errorf("taken bag %d is the later delivery %d's bag too", i, 2*i+1+j)
					}
				}
			}
			if lanes && reflect.ValueOf(got[3].vars).Pointer() != reflect.ValueOf(given).Pointer() {
				t.Error("the map the handler gave up is not the one the next delivery decoded into")
			}
			for i, m := range ms {
				if len(m.Vars) != 1 || m.Vars["x"] != "1" {
					t.Errorf("the sender's message %d was written: %v", i, m.Vars)
				}
			}
		})
	}
}

// TestALentMessageCarriesNothingOfTheLastRecord: a lane decodes every
// delivery into the one Message it lends, so each record replaces every
// field, and into the bag the last delivery left, so the bag holds the
// record's variables and no others. A fault carrying Error, ReplyTo and
// two variables and then a notify carrying neither and one other
// variable, as two frames and as one batch, must reach the handler as
// exactly what was sent. The handler leaves every bag to the lane.
func TestALentMessageCarriesNothingOfTheLastRecord(t *testing.T) {
	fault := &message.Message{
		Type: message.TypeFault, Composite: "C", Instance: "i1", From: "a", To: message.WrapperID,
		Seq: 3, Version: 2, Vars: map[string]string{"x": "1", "y": "2"}, Error: "boom", ReplyTo: "somewhere",
	}
	notify := &message.Message{Type: message.TypeNotify, Composite: "C", Instance: "i1", From: "a", To: "b", Vars: map[string]string{"z": "3"}}
	for _, h := range withSync() {
		t.Run(h.name, func(t *testing.T) {
			n := h.newNet()
			defer n.Close()
			type delivery struct {
				m    message.Message
				vars map[string]string
			}
			got := make(chan delivery, 4)
			ep, err := n.Listen(h.addrFor(1), func(_ context.Context, m *message.Message) {
				got <- delivery{*m, maps.Clone(m.Vars)} // the bag is the lane's again on return
			})
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			s, ctx := n.Open("a"), context.Background()
			if err := s.Send(ctx, ep.Addr(), fault); err != nil {
				t.Fatal(err)
			}
			if err := s.Send(ctx, ep.Addr(), notify); err != nil {
				t.Fatal(err)
			}
			if err := s.SendBatch(ctx, ep.Addr(), []*message.Message{fault, notify}); err != nil {
				t.Fatal(err)
			}
			for i, want := range []*message.Message{fault, notify, fault, notify} {
				select {
				case d := <-got:
					if !maps.Equal(d.vars, want.Vars) {
						t.Errorf("delivery %d arrived with bag %v, want %v", i, d.vars, want.Vars)
					}
					m, w := d.m, *want
					m.Vars, w.Vars = nil, nil
					if !reflect.DeepEqual(m, w) {
						t.Errorf("delivery %d = %+v, want %+v", i, m, w)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("delivery %d never arrived", i)
				}
			}
		})
	}
}

// TestDeliveredFrameCostsItsRecordAndATakenBag pins what a delivery
// allocates on either wire's receive lanes. A warm frame of one whose bag
// the handler leaves costs its record copy and nothing else: not the
// Message nor the bag (the lane's, decoded into again), not the frame
// buffer (the sender's, or on TCP the read loop's copy, both pooled), not
// a slice. One whose bag the handler takes costs the two objects of the
// small map the lane makes to replace it as well — a coordinator's first
// arrival hands the lane a spare map instead.
func TestDeliveredFrameCostsItsRecordAndATakenBag(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops frame buffers on purpose")
	}
	m := &message.Message{
		Type: message.TypeNotify, Composite: "Chain8", Instance: "i12345",
		From: "s3", To: "s4", Version: 1, Vars: map[string]string{"x": "3"},
	}
	ctx := context.Background()
	for _, h := range harnesses() {
		for _, c := range []struct {
			take bool
			want float64
		}{{false, 1}, {true, 3}} {
			t.Run(fmt.Sprintf("%s/take=%v", h.name, c.take), func(t *testing.T) {
				n := h.newNet()
				defer n.Close()
				delivered := make(chan struct{}, 1)
				ep, err := n.Listen(h.addrFor(1), func(_ context.Context, m *message.Message) {
					if c.take {
						m.Vars = nil
					}
					delivered <- struct{}{}
				})
				if err != nil {
					t.Fatal(err)
				}
				s := n.Open("s3")
				hop := func() {
					if err := s.Send(ctx, ep.Addr(), m); err != nil {
						t.Fatal(err)
					}
					<-delivered
				}
				for i := 0; i < 16; i++ {
					hop()
				}
				if a := testing.AllocsPerRun(1000, hop); a != c.want {
					t.Errorf("a delivered frame of one allocates %v objects, want %v", a, c.want)
				}
			})
		}
	}
}

// TestSenderKeepsNothingAfterReturn pins the other half of message
// ownership, the one the engine's outboxes reuse their storage on
// (transport.Sender): Send and SendBatch have encoded the frame by the
// time they return, so the caller may overwrite every field of a sent
// Message, its Vars map and the batch slice at once, and the receiver
// still decodes what was sent.
func TestSenderKeepsNothingAfterReturn(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			n := h.newNet()
			defer n.Close()
			got := make(chan *message.Message, 3)
			ep, err := n.Listen(h.addrFor(1), func(_ context.Context, m *message.Message) { got <- keep(m) })
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			build := func(seq int) *message.Message {
				return &message.Message{
					Type: message.TypeNotify, Composite: "C", Instance: "i1", From: "a", To: "b",
					Seq: seq, Version: 7, Vars: map[string]string{"x": fmt.Sprint(seq)},
				}
			}
			overwrite := func(m *message.Message) {
				m.Vars["x"] = "overwritten"
				*m = message.Message{
					Type: message.TypeFault, Composite: "Z", Instance: "z", From: "z", To: "z",
					Seq: 99, Version: 99, Vars: map[string]string{"z": "z"}, Error: "z", ReplyTo: "z",
				}
			}
			s := n.Open("a")
			ctx := context.Background()
			one := build(1)
			if err := s.Send(ctx, ep.Addr(), one); err != nil {
				t.Fatalf("Send: %v", err)
			}
			overwrite(one)
			batch := []*message.Message{build(2), build(3)}
			if err := s.SendBatch(ctx, ep.Addr(), batch); err != nil {
				t.Fatalf("SendBatch: %v", err)
			}
			for _, m := range batch {
				overwrite(m)
			}
			batch[0], batch[1] = one, one
			for seq := 1; seq <= 3; seq++ {
				select {
				case m := <-got:
					if want := build(seq); !reflect.DeepEqual(m, want) {
						t.Errorf("delivery %d decodes as %+v, want %+v", seq, m, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("delivery %d never arrived", seq)
				}
			}
		})
	}
}

// TestHopCostAllocs pins the per-frame allocation budget of the pieces
// every hop pays, so a regression shows up in `go test` before the
// benchmark of record runs. Endpoint.Addr is called per routed message
// and must not format anything (TCP formatted its listen address on each
// call: 3 allocations). One Sender.Send through a Synchronous InMem
// network runs the whole encode -> deliver -> decode -> handler path
// inline, so the count is deterministic, and the pipeline adds nothing to
// the codec's own budget (message.TestCodecAllocBudget): the frame, then
// the Message and its record copy — plus, when the message carries
// variables as every Chain hop does, the two allocations of a small map.
func TestHopCostAllocs(t *testing.T) {
	for _, h := range harnesses() {
		n := h.newNet()
		ep, err := n.Listen(h.addrFor(1), func(context.Context, *message.Message) {})
		if err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(100, func() { _ = ep.Addr() }); a != 0 {
			t.Errorf("%s: Endpoint.Addr allocates %v per call, want 0", h.name, a)
		}
		n.Close()
	}

	n := NewInMem(InMemOptions{Synchronous: true})
	defer n.Close()
	if _, err := n.Listen("sink", func(context.Context, *message.Message) {}); err != nil {
		t.Fatal(err)
	}
	s := n.Open("src")
	ctx := context.Background()
	for _, c := range []struct {
		name    string
		m       *message.Message
		ceiling float64
	}{
		{"a minimal notify", &message.Message{Type: message.TypeNotify}, 3},
		{"a Chain hop", &message.Message{
			Type: message.TypeNotify, Composite: "Chain8", Instance: "i12345",
			From: "s3", To: "s4", Version: 1, Vars: map[string]string{"x": "3"},
		}, 5},
	} {
		if a := testing.AllocsPerRun(1000, func() { _ = s.Send(ctx, "sink", c.m) }); a > c.ceiling {
			t.Errorf("Sender.Send of %s allocates %v per frame, ceiling %v", c.name, a, c.ceiling)
		}
	}
}

// TestWarmSendAllocatesNothingToEncode: once a sender has run, the frame
// it encodes goes into a buffer the wire gave back, on either wire. In
// memory the one Send decodes too, into the fresh Message a Synchronous
// delivery gets, so the budget is what Send costs beyond message.Decode
// of the same frame into a fresh Message; over TCP the peer is a raw
// reader that decodes nothing, so it is the whole Send.
func TestWarmSendAllocatesNothingToEncode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops frame buffers on purpose")
	}
	ctx := context.Background()
	m := &message.Message{
		Type: message.TypeNotify, Composite: "Chain8", Instance: "i12345",
		From: "s3", To: "s4", Version: 1, Vars: map[string]string{"x": "3"},
	}
	frame, err := message.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	decode := testing.AllocsPerRun(1000, func() {
		_ = message.Decode(frame, new(message.Message), func(*message.Message) {})
	})

	mem := NewInMem(InMemOptions{Synchronous: true})
	defer mem.Close()
	if _, err := mem.Listen("sink", func(context.Context, *message.Message) {}); err != nil {
		t.Fatal(err)
	}
	s := mem.Open("s3")
	if a := testing.AllocsPerRun(1000, func() { _ = s.Send(ctx, "sink", m) }) - decode; a != 0 {
		t.Errorf("inmem: a warm Send allocates %v objects beyond the decode's %v, want 0", a, decode)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()
	tn := NewTCP()
	defer tn.Close()
	s, to := tn.Open("s3"), ln.Addr().String()
	if a := testing.AllocsPerRun(1000, func() {
		if err := s.Send(ctx, to, m); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("tcp: a warm Send allocates %v objects, want 0", a)
	}
}

func BenchmarkInMemSend(b *testing.B) {
	n := NewInMem(InMemOptions{Synchronous: true})
	defer n.Close()
	ep, _ := n.Listen("sink", func(context.Context, *message.Message) {})
	m := &message.Message{Type: message.TypeNotify, Vars: map[string]string{"a": "1", "b": "2"}}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := n.Send(ctx, ep.Addr(), m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPSend(b *testing.B) {
	n := NewTCP()
	defer n.Close()
	var count atomic.Int64
	ep, err := n.Listen("127.0.0.1:0", func(context.Context, *message.Message) { count.Add(1) })
	if err != nil {
		b.Fatal(err)
	}
	m := &message.Message{Type: message.TypeNotify, Vars: map[string]string{"a": "1", "b": "2"}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Send(ctx, ep.Addr(), m); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	deadline := time.Now().Add(10 * time.Second)
	for count.Load() < int64(b.N) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}
