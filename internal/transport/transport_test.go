package transport

import (
	"context"
	"errors"
	"fmt"
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
				got = append(got, m)
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

// TestHandlerOwnsTheMessage pins the contract the engine's bag hand-over
// rests on (docs/transport.md, "Who owns a delivered message"): every
// delivery decodes a Message of its own, so a handler may keep it and
// write to it. One message sent twice — as two frames, and as two slots
// of one batch — reaches the handler as distinct Messages with distinct
// Vars maps, and what the handler writes into one is seen neither by the
// other delivery nor by the sender's original.
func TestHandlerOwnsTheMessage(t *testing.T) {
	hs := harnesses()
	hs = append(hs, harness{
		name:    "inmem-sync",
		newNet:  func() Network { return NewInMem(InMemOptions{Synchronous: true}) },
		addrFor: hs[0].addrFor,
	})
	for _, h := range hs {
		t.Run(h.name, func(t *testing.T) {
			n := h.newNet()
			defer n.Close()
			var mu sync.Mutex
			var got []*message.Message
			var sawOnArrival []string
			ep, err := n.Listen(h.addrFor(1), func(_ context.Context, m *message.Message) {
				mu.Lock()
				defer mu.Unlock()
				sawOnArrival = append(sawOnArrival, m.Vars["x"])
				m.Vars["x"] = "written by the handler"
				m.Vars["more"] = "and kept"
				m.Instance = "renamed"
				got = append(got, m)
			})
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			sent := &message.Message{
				Type: message.TypeNotify, Composite: "C", Instance: "i1",
				From: "a", To: "b", Vars: map[string]string{"x": "1"},
			}
			ctx := context.Background()
			for i := 0; i < 2; i++ {
				if err := n.Send(ctx, ep.Addr(), sent); err != nil {
					t.Fatalf("Send: %v", err)
				}
			}
			if err := n.SendBatch(ctx, ep.Addr(), []*message.Message{sent, sent}); err != nil {
				t.Fatalf("SendBatch: %v", err)
			}
			waitFor(t, func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(got) == 4
			}, "four deliveries")
			mu.Lock()
			defer mu.Unlock()
			for i, m := range got {
				if sawOnArrival[i] != "1" {
					t.Errorf("delivery %d arrived with x=%q: an earlier handler's write leaked into it", i, sawOnArrival[i])
				}
				if m == sent || reflect.ValueOf(m.Vars).Pointer() == reflect.ValueOf(sent.Vars).Pointer() {
					t.Errorf("delivery %d hands the handler the sender's own message or map", i)
				}
				for j := 0; j < i; j++ {
					if m == got[j] || reflect.ValueOf(m.Vars).Pointer() == reflect.ValueOf(got[j].Vars).Pointer() {
						t.Errorf("deliveries %d and %d share a message or a map", j, i)
					}
				}
			}
			if sent.Instance != "i1" || len(sent.Vars) != 1 || sent.Vars["x"] != "1" {
				t.Errorf("the sender's original was written: %v", sent)
			}
		})
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
			ep, err := n.Listen(h.addrFor(1), func(_ context.Context, m *message.Message) { got <- m })
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
// memory the one Send decodes too, so the budget is what Send costs
// beyond UnmarshalFrame of the same frame; over TCP the peer is a raw
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
	decode := testing.AllocsPerRun(1000, func() { _, _, _ = message.UnmarshalFrame(frame) })

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
