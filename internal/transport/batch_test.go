package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfserv/internal/message"
)

// TestContractBatchFIFO: the messages of one SendBatch reach the handler
// sequentially in slice order — per-(destination, instance) FIFO — on
// both transports.
func TestContractBatchFIFO(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			n := h.newNet()
			defer n.Close()
			var mu sync.Mutex
			got := map[string][]int{} // instance -> seqs in arrival order
			ep, err := n.Listen(h.addrFor(1), func(_ context.Context, m *message.Message) {
				mu.Lock()
				got[m.Instance] = append(got[m.Instance], m.Seq)
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
			const instances, per = 3, 20
			var batch []*message.Message
			for seq := 0; seq < per; seq++ {
				for i := 0; i < instances; i++ {
					batch = append(batch, &message.Message{
						Type: message.TypeNotify, Instance: fmt.Sprintf("i%d", i), Seq: seq,
					})
				}
			}
			s := n.Open("batcher")
			if err := s.SendBatch(context.Background(), ep.Addr(), batch); err != nil {
				t.Fatalf("SendBatch: %v", err)
			}
			waitFor(t, func() bool {
				mu.Lock()
				defer mu.Unlock()
				total := 0
				for _, seqs := range got {
					total += len(seqs)
				}
				return total == len(batch)
			}, "batch delivery")
			mu.Lock()
			defer mu.Unlock()
			for inst, seqs := range got {
				for i, seq := range seqs {
					if seq != i {
						t.Fatalf("instance %s arrived out of order: %v", inst, seqs)
					}
				}
			}
		})
	}
}

// TestContractBatchedEqualsSequential: a batched round delivers exactly
// the multiset of messages the equivalent sequential sends deliver, on
// both transports.
func TestContractBatchedEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	mkMsgs := func(n int) []*message.Message {
		ms := make([]*message.Message, n)
		for i := range ms {
			ms[i] = &message.Message{
				Type: message.TypeNotify, Composite: "C", Instance: "i1",
				From: "src", To: "dst", Seq: i,
				Vars: map[string]string{"v": fmt.Sprintf("%d", rng.Intn(1000))},
			}
		}
		return ms
	}
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			deliver := func(batched bool, ms []*message.Message) map[int]string {
				n := h.newNet()
				defer n.Close()
				var mu sync.Mutex
				got := map[int]string{}
				ep, err := n.Listen(h.addrFor(1), func(_ context.Context, m *message.Message) {
					mu.Lock()
					got[m.Seq] = m.Vars["v"]
					mu.Unlock()
				})
				if err != nil {
					t.Fatal(err)
				}
				s := n.Open("src")
				if batched {
					if err := s.SendBatch(context.Background(), ep.Addr(), ms); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, m := range ms {
						if err := s.Send(context.Background(), ep.Addr(), m); err != nil {
							t.Fatal(err)
						}
					}
				}
				waitFor(t, func() bool {
					mu.Lock()
					defer mu.Unlock()
					return len(got) == len(ms)
				}, "all deliveries")
				mu.Lock()
				defer mu.Unlock()
				return got
			}
			ms := mkMsgs(25)
			seq := deliver(false, ms)
			bat := deliver(true, ms)
			if len(seq) != len(bat) {
				t.Fatalf("sequential delivered %d, batched %d", len(seq), len(bat))
			}
			for k, v := range seq {
				if bat[k] != v {
					t.Fatalf("message %d: sequential %q, batched %q", k, v, bat[k])
				}
			}
		})
	}
}

// TestInMemBatchDropDeterminism: drop decisions are per message in send
// order, so under one seed a batched round loses exactly the messages
// the equivalent sequential sends lose.
func TestInMemBatchDropDeterminism(t *testing.T) {
	const total, seed = 400, 23
	run := func(batched bool) []int {
		n := NewInMem(InMemOptions{DropRate: 0.4, Seed: seed, Synchronous: true})
		defer n.Close()
		var got []int
		ep, _ := n.Listen("sink", func(_ context.Context, m *message.Message) {
			got = append(got, m.Seq)
		})
		ms := make([]*message.Message, total)
		for i := range ms {
			ms[i] = &message.Message{Type: message.TypeNotify, Seq: i}
		}
		s := n.Open("src")
		if batched {
			// Several frames, mirroring rounds of work.
			for start := 0; start < total; start += 40 {
				if err := s.SendBatch(context.Background(), ep.Addr(), ms[start:start+40]); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for _, m := range ms {
				if err := s.Send(context.Background(), ep.Addr(), m); err != nil {
					t.Fatal(err)
				}
			}
		}
		return got
	}
	seq := run(false)
	bat := run(true)
	if len(seq) == 0 || len(seq) == total {
		t.Fatalf("drop injection inert: %d of %d delivered", len(seq), total)
	}
	if len(seq) != len(bat) {
		t.Fatalf("sequential delivered %d, batched %d", len(seq), len(bat))
	}
	for i := range seq {
		if seq[i] != bat[i] {
			t.Fatalf("survivor %d: sequential seq %d, batched seq %d", i, seq[i], bat[i])
		}
	}
}

// TestTCPSingleAndBatchFramesInterleave: a raw connection interleaving
// frames of one message (what Send emits) with frames of several (what
// SendBatch emits) is fully decoded — one layout, one read path.
func TestTCPSingleAndBatchFramesInterleave(t *testing.T) {
	tn := NewTCP()
	defer tn.Close()
	var mu sync.Mutex
	var got []int
	ep, err := tn.Listen("127.0.0.1:0", func(_ context.Context, m *message.Message) {
		mu.Lock()
		got = append(got, m.Seq)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writeFrame := func(payload []byte) {
		t.Helper()
		var prefix [4]byte
		binary.BigEndian.PutUint32(prefix[:], uint32(len(payload)))
		if _, err := conn.Write(append(prefix[:], payload...)); err != nil {
			t.Fatal(err)
		}
	}
	msg := func(seq int) *message.Message {
		return &message.Message{Type: message.TypeNotify, Instance: "i1", Seq: seq}
	}
	single, err := message.Marshal(msg(1))
	if err != nil {
		t.Fatal(err)
	}
	writeFrame(single)
	batch, err := message.MarshalBatch([]*message.Message{msg(2), msg(3), msg(4)})
	if err != nil {
		t.Fatal(err)
	}
	writeFrame(batch)
	single2, err := message.Marshal(msg(5))
	if err != nil {
		t.Fatal(err)
	}
	writeFrame(single2) // same connection
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 5
	}, "mixed frame delivery")
	mu.Lock()
	defer mu.Unlock()
	seen := map[int]bool{}
	for _, s := range got {
		seen[s] = true
	}
	for want := 1; want <= 5; want++ {
		if !seen[want] {
			t.Fatalf("message %d lost; got %v", want, got)
		}
	}
}

// TestContractBatchStats: one SendBatch is one frame — FramesOut counts
// 1 while MsgsOut counts the batch width, on both transports.
func TestContractBatchStats(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			n := h.newNet()
			defer n.Close()
			var seen atomic.Int64
			ep, err := n.Listen(h.addrFor(1), func(context.Context, *message.Message) { seen.Add(1) })
			if err != nil {
				t.Fatal(err)
			}
			ms := make([]*message.Message, 8)
			for i := range ms {
				ms[i] = &message.Message{Type: message.TypeNotify, Seq: i}
			}
			s := n.Open("batcher")
			if err := s.SendBatch(context.Background(), ep.Addr(), ms); err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return seen.Load() == 8 }, "batch delivery")
			out := n.Stats().Nodes["batcher"]
			if out.FramesOut != 1 || out.MsgsOut != 8 {
				t.Fatalf("sender stats = %+v, want FramesOut=1 MsgsOut=8", out)
			}
			in := n.Stats().Nodes[ep.Addr()]
			if in.MsgsIn != 8 || in.BytesIn != out.BytesOut {
				t.Fatalf("receiver stats = %+v (sender %+v)", in, out)
			}
			// Empty batch: a no-op, not a frame.
			if err := s.SendBatch(context.Background(), ep.Addr(), nil); err != nil {
				t.Fatal(err)
			}
			if fo := n.Stats().Nodes["batcher"].FramesOut; fo != 1 {
				t.Fatalf("empty batch emitted a frame (FramesOut=%d)", fo)
			}
		})
	}
}

func BenchmarkSendBatch(b *testing.B) {
	for _, h := range harnesses() {
		for _, width := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("%s/width-%d", h.name, width), func(b *testing.B) {
				n := h.newNet()
				defer n.Close()
				var seen atomic.Int64
				ep, err := n.Listen(h.addrFor(1), func(context.Context, *message.Message) { seen.Add(1) })
				if err != nil {
					b.Fatal(err)
				}
				ms := make([]*message.Message, width)
				for i := range ms {
					ms[i] = &message.Message{Type: message.TypeNotify, Vars: map[string]string{"a": "1", "b": "2"}}
				}
				s := n.Open("bench")
				ctx := context.Background()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.SendBatch(ctx, ep.Addr(), ms); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				deadline := time.Now().Add(10 * time.Second)
				for seen.Load() < int64(b.N*width) && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
