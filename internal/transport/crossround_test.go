package transport

// Contract tests for CROSS-ROUND batching (FlowOptions.FlushDelay):
// writers merging everything queued for a destination into one wire
// frame per write. Alongside the merge-enabled variants of the whole
// fault-injection suite (faultImpls "+merge"), these pin the three
// properties the ISSUE's refinement demands:
//
//   1. FlushDelay=0 never touches a frame — one wire frame per accepted
//      Send/SendBatch, exactly the sender's encoding.
//   2. With delay enabled, a drained backlog is delivered in fewer
//      frames (FramesMerged/MergedMsgsPerFrame observable) with
//      acceptance order intact, and MaxBatchBytes splits oversized
//      batches without reordering.
//   3. Merged delivery ≡ sequential delivery under one seed, faults
//      included; and FIFO survives a reconnect with a partially merged
//      queue.

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"selfserv/internal/message"
)

// TestTCPFlushDelayZeroByteIdentical pins the delay=0 contract: every
// accepted Send is exactly one wire frame whose payload is byte-for-byte
// message.Marshal's, and a SendBatch is one frame equal to
// message.MarshalBatch — nothing merged, nothing rewritten.
func TestTCPFlushDelayZeroByteIdentical(t *testing.T) {
	n := NewTCP(testFlow(16, QueueBlock)) // FlushDelay stays 0
	defer n.Close()
	peer := newRawPeer(t, "127.0.0.1:0")
	peer.mu.Lock()
	peer.draining = true
	peer.mu.Unlock()

	ctx := context.Background()
	var sent []*message.Message
	for i := 0; i < 5; i++ {
		m := seqMsg(i, 0)
		sent = append(sent, m)
		if err := n.Send(ctx, peer.Addr(), m); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	batch := []*message.Message{seqMsg(5, 0), seqMsg(6, 0), seqMsg(7, 0)}
	if err := n.SendBatch(ctx, peer.Addr(), batch); err != nil {
		t.Fatalf("send batch: %v", err)
	}

	waitFor(t, func() bool {
		peer.mu.Lock()
		defer peer.mu.Unlock()
		return len(peer.got) == 8
	}, "all 8 messages")
	peer.mu.Lock()
	frames := append([][]byte(nil), peer.frames...)
	peer.mu.Unlock()

	if len(frames) != 6 {
		t.Fatalf("wire frames = %d, want 6 (5 sends + 1 batch): delay=0 must never merge", len(frames))
	}
	for i, m := range sent {
		want, err := message.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frames[i], want) {
			t.Fatalf("frame %d differs from message.Marshal:\n got: %q\nwant: %q", i, frames[i], want)
		}
	}
	wantBatch, err := message.MarshalBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frames[5], wantBatch) {
		t.Fatalf("batch frame differs from MarshalBatch:\n got: %q\nwant: %q", frames[5], wantBatch)
	}
	if st := n.Stats().Nodes[peer.Addr()]; st.FramesMerged != 0 || st.MergedWrites != 0 {
		t.Fatalf("merge stats nonzero at FlushDelay=0: %+v", st)
	}
}

// TestContractCrossRoundMergeCoalescesBacklog pins the merge win on both
// implementations: a backlog accumulated behind a stalled peer drains in
// FEWER wire deliveries than frames accepted, every message still in
// acceptance order, and the merge is visible in the destination's stats
// (FramesMerged > 0, MergedMsgsPerFrame > 1).
func TestContractCrossRoundMergeCoalescesBacklog(t *testing.T) {
	const queueLen = 6
	for _, impl := range faultImpls() {
		if !strings.HasSuffix(impl.name, "+merge") {
			continue
		}
		t.Run(impl.name, func(t *testing.T) {
			n := impl.newNet(testFlow(queueLen, QueueShed))
			defer n.Close()
			peer := impl.newStalled(t, n)
			ctx := context.Background()

			// Fill until the queue sheds WITH the queue at the cap, so the
			// writer is guaranteed a multi-frame backlog to merge.
			var accepted []int
			wedged := false
			for i := 0; i < 300 && !wedged; i++ {
				err := n.Send(ctx, peer.Addr(), seqMsg(i, impl.pad/8))
				switch {
				case err == nil:
					accepted = append(accepted, i)
				case errors.Is(err, ErrQueueFull):
					wedged = n.Stats().Nodes[peer.Addr()].QueueDepth == queueLen
				default:
					t.Fatalf("send %d: %v", i, err)
				}
			}
			if !wedged {
				t.Fatal("peer never wedged at its queue cap")
			}

			got := peer.Drain(t, len(accepted))
			assertSeqs(t, got, accepted)

			st := n.Stats().Nodes[peer.Addr()]
			if st.FramesMerged == 0 {
				t.Fatalf("FramesMerged = 0 after draining a %d-frame backlog; stats = %+v", queueLen, st)
			}
			if mpf := st.MergedMsgsPerFrame(); mpf <= 1 {
				t.Fatalf("MergedMsgsPerFrame = %v, want > 1", mpf)
			}
		})
	}
}

// TestTCPNoReorderAcrossReconnectWithMerge re-runs the reconnect FIFO
// contract with the batcher active: the peer dies mid-stream with a
// PARTIALLY MERGED queue (frames folded into an in-flight batch plus
// frames still queued) and comes back; what arrives is strictly
// increasing with everything accepted after the restore present — a
// merged batch reconnects and retransmits exactly like a single frame.
//
// The cut is phased: the pre-cut prefix is confirmed delivered first,
// and the peer stays down long enough for the dead socket's RST to land
// before it returns. Without app-level acks TCP cannot flag a frame
// that was written INTO the dying socket (true of the unmerged writer
// too); the contract is about what the writer does once the failure is
// observable — resend the failed (possibly merged) frame first, then
// the rest, in order.
func TestTCPNoReorderAcrossReconnectWithMerge(t *testing.T) {
	flow := testFlow(64, QueueBlock)
	flow.FlushDelay = 2 * time.Millisecond
	n := NewTCP(flow)
	defer n.Close()
	peer := newRawPeer(t, "127.0.0.1:0")
	peer.mu.Lock()
	peer.draining = true
	peer.mu.Unlock()

	ctx := context.Background()
	const total = 60
	send := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := n.Send(ctx, peer.Addr(), seqMsg(i, 0)); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
	}
	send(0, 20)
	waitFor(t, func() bool {
		peer.mu.Lock()
		defer peer.mu.Unlock()
		return len(peer.got) == 20
	}, "the pre-cut prefix")

	peer.cut()
	send(20, 40) // accepted into the queue; the writer merges and hits the dead socket
	time.Sleep(100 * time.Millisecond)
	peer.restore(t)
	send(40, total) // provably post-restore: must all arrive, in order

	waitFor(t, func() bool {
		peer.mu.Lock()
		defer peer.mu.Unlock()
		return len(peer.got) > 0 && peer.got[len(peer.got)-1].Seq == total-1
	}, "the final frame after reconnect")

	peer.mu.Lock()
	got := append([]*message.Message(nil), peer.got...)
	frames := len(peer.frames)
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
	for i := 40; i < total; i++ {
		if !seen[i] {
			t.Fatalf("frame %d (sent after restore) never arrived", i)
		}
	}
	if frames >= len(got) {
		t.Fatalf("%d wire frames for %d messages: the outage backlog never merged", frames, len(got))
	}
	if r := n.Stats().Nodes[peer.Addr()].Reconnects; r < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", r)
	}
}

// TestInMemMergedEqualsSequentialUnderFaults pins determinism across the
// knob: under ONE seed with drops and a mid-traffic outage, a network
// with FlushDelay enabled delivers exactly the same message stream, in
// the same order, as one without — merging changes frame counts, never
// delivery. (The batched-vs-sequential twin for sender-side batching is
// TestInMemBatchedEqualsSequentialUnderFaults.)
func TestInMemMergedEqualsSequentialUnderFaults(t *testing.T) {
	run := func(flushDelay time.Duration) ([]string, NodeStats) {
		flow := testFlow(64, QueueBlock)
		flow.FlushDelay = flushDelay
		n := NewInMem(InMemOptions{Synchronous: true, DropRate: 0.3, Seed: 424242, Flow: flow})
		defer n.Close()
		var got []string
		ep, err := n.Listen("peer", func(_ context.Context, m *message.Message) {
			got = append(got, m.Vars["v"])
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		send := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				m := &message.Message{Type: message.TypeNotify, Vars: map[string]string{"v": strconv.Itoa(i)}}
				if err := n.Send(ctx, ep.Addr(), m); err != nil {
					t.Fatal(err)
				}
			}
		}
		send(0, 10)
		n.Cut(ep.Addr())
		send(10, 25) // queued: the cross-round backlog the drain merges
		n.Restore(ep.Addr())
		send(25, 30)
		return got, n.Stats().Nodes[ep.Addr()]
	}

	seq, seqStats := run(0)
	mer, merStats := run(2 * time.Millisecond)
	if len(seq) != len(mer) {
		t.Fatalf("unmerged delivered %d, merged %d — the knob changed delivery", len(seq), len(mer))
	}
	for i := range seq {
		if seq[i] != mer[i] {
			t.Fatalf("delivery %d: unmerged %q, merged %q", i, seq[i], mer[i])
		}
	}
	if len(seq) == 30 || len(seq) == 0 {
		t.Fatalf("want a partial loss under DropRate=0.3, delivered %d/30", len(seq))
	}
	if seqStats.FramesMerged != 0 {
		t.Fatalf("unmerged run recorded FramesMerged = %d", seqStats.FramesMerged)
	}
	if merStats.FramesMerged == 0 {
		t.Fatal("merged run recorded no FramesMerged despite a 15-frame outage backlog")
	}
}

// TestInMemMergeNeverCrossesReregistration pins that the drain's merge
// respects handler identity: frames accepted for an endpoint
// registration are delivered to THAT registration's handler even when a
// re-Listen happens mid-stall — the batcher splits rather than handing
// a newer frame to the stale handler (merged ≡ sequential across
// Listen churn).
func TestInMemMergeNeverCrossesReregistration(t *testing.T) {
	flow := testFlow(16, QueueBlock)
	flow.FlushDelay = time.Millisecond
	n := NewInMem(InMemOptions{Synchronous: true, Flow: flow})
	defer n.Close()

	var oldGot, newGot []int
	ep, err := n.Listen("peer", func(_ context.Context, m *message.Message) { oldGot = append(oldGot, m.Seq) })
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
	if _, err := n.Listen("peer", func(_ context.Context, m *message.Message) { newGot = append(newGot, m.Seq) }); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		if err := n.Send(ctx, "peer", seqMsg(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	n.Release("peer")

	if want := []int{0, 1}; len(oldGot) != 2 || oldGot[0] != 0 || oldGot[1] != 1 {
		t.Fatalf("old handler got %v, want %v", oldGot, want)
	}
	if want := []int{2, 3}; len(newGot) != 2 || newGot[0] != 2 || newGot[1] != 3 {
		t.Fatalf("new handler got %v, want %v (a merged batch crossed the re-registration)", newGot, want)
	}
}

// TestInMemMaxBatchBytesSplitsBatches pins the byte cap deterministically:
// a drained backlog whose frames fit two-per-cap yields exactly
// ceil(n/2) deliveries, order preserved, stats counting each split batch.
func TestInMemMaxBatchBytesSplitsBatches(t *testing.T) {
	probe, err := message.Marshal(seqMsg(0, 64))
	if err != nil {
		t.Fatal(err)
	}
	flow := testFlow(16, QueueBlock)
	flow.FlushDelay = time.Millisecond
	flow.MaxBatchBytes = 2*len(probe) + len(probe)/2 // two fit, three don't
	n := NewInMem(InMemOptions{Synchronous: true, Flow: flow})
	defer n.Close()

	var got []*message.Message
	ep, err := n.Listen("peer", func(_ context.Context, m *message.Message) { got = append(got, m) })
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n.Hold(ep.Addr())
	want := make([]int, 6)
	for i := 0; i < 6; i++ {
		if err := n.Send(ctx, ep.Addr(), seqMsg(i, 64)); err != nil {
			t.Fatal(err)
		}
		want[i] = i
	}
	n.Release(ep.Addr())

	assertSeqs(t, got, want)
	st := n.Stats().Nodes[ep.Addr()]
	if st.MergedWrites != 3 {
		t.Fatalf("MergedWrites = %d, want 3 (six frames, two per byte cap)", st.MergedWrites)
	}
	if st.FramesMerged != 3 {
		t.Fatalf("FramesMerged = %d, want 3", st.FramesMerged)
	}
	if mpf := st.MergedMsgsPerFrame(); mpf != 2 {
		t.Fatalf("MergedMsgsPerFrame = %v, want exactly 2", mpf)
	}
}
