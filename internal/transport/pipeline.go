package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"selfserv/internal/message"
)

// pipeline is the half of a Network both implementations share, embedded
// in TCP and InMem: the stats book (Stats and AvailabilityRecorder are
// promoted from it), the flow options, the send breakers, and the one
// Sender implementation, which ends in the network's own wire.
type pipeline struct {
	*statsBook
	flow     FlowOptions
	breakers *sendBreakers // nil unless flow.Breaker is set
	wire     wire
	// room is the size of the header the wire puts in front of a payload
	// (TCP's length prefix; none in memory): the sender has the encoder
	// leave it free, so the buffer a frame is encoded into is the one sent.
	room int
}

func newPipeline(flow FlowOptions, w wire, room int) pipeline {
	book := newStatsBook()
	return pipeline{statsBook: book, flow: flow, breakers: newSendBreakers(flow, book), wire: w, room: room}
}

// wire is what a network puts beneath the shared sender: accept takes one
// encoded, breaker-admitted frame into the destination's bounded queue
// (TCP) or onto its receive side (InMem). Nil means accepted — charged
// to its sender (outFrame.charge), and its buffer the wire's to free; an
// error leaves the buffer with the sender. The errors are the
// flow-control contract: ErrSendDeadline,
// ErrUnknownAddress, ErrClosed, ctx.Err().
type wire interface {
	accept(ctx context.Context, to string, f outFrame) error
}

// outFrame is one encoded frame on its way to a wire. key is the frame's
// LOGICAL source — its first message's From (engine outboxes batch
// exactly one source per frame) — and picks the receive lane on both
// networks: unlike a connection or peer address it is stable across
// reconnects (per-sender FIFO survives them) and distinct for senders
// sharing a host, which an IP key would collapse onto one lane.
type outFrame struct {
	buf  *frameBuf // pipeline.room bytes for the wire to fill in, then the message.MarshalBatch payload
	msgs int
	key  string
	out  *nodeCounters // the sender's counters; nil for unattributed sends
}

// maxPooledFrame is the largest buffer framePool keeps: a wide batch's
// buffer is left to the collector rather than pinned for chain hops of a
// few dozen bytes.
const maxPooledFrame = 16 << 10

// framePool recycles the buffers frames are encoded into.
var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// frameBuf is the buffer one frame is encoded into (b). The sender takes
// it from framePool; once a wire has accepted the frame, the wire owns it
// and frees it at the one point nothing reads it any more: TCP when its
// last byte is written, InMem once it is decoded. A refused frame is freed
// by the sender (docs/transport.md, "Who owns a frame's bytes").
type frameBuf struct{ b []byte }

// encodeFrame encodes ms, behind room bytes, into a pooled buffer.
func encodeFrame(room int, ms ...*message.Message) (*frameBuf, error) {
	fb := framePool.Get().(*frameBuf)
	b, err := message.AppendWithRoom(fb.b[:0], room, ms...)
	fb.b = b
	if err != nil {
		fb.free()
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	return fb, nil
}

// free puts fb back in framePool. Nothing may read fb after.
func (fb *frameBuf) free() {
	if cap(fb.b) <= maxPooledFrame {
		framePool.Put(fb)
	}
}

// charge counts the frame on its sender. A wire calls it the moment the
// frame can no longer be refused — the sender pays at acceptance, for the
// whole frame, whatever is dropped later — with the bytes that
// wire carries for it.
func (f outFrame) charge(bytes int) {
	if f.out == nil {
		return
	}
	f.out.msgsOut.Add(int64(f.msgs))
	f.out.bytesOut.Add(int64(bytes))
	f.out.framesOut.Add(1)
}

// Open implements Opener on both networks. The handle pins the sender's
// stats counters; everything else it needs is the shared pipeline.
func (p *pipeline) Open(from string) Sender {
	return &sender{p: p, from: from, out: p.node(from)}
}

// Send implements Network on both networks (unattributed batch of one).
func (p *pipeline) Send(ctx context.Context, to string, m *message.Message) error {
	return (&sender{p: p}).Send(ctx, to, m)
}

// SendBatch implements Network on both networks (unattributed).
func (p *pipeline) SendBatch(ctx context.Context, to string, ms []*message.Message) error {
	return (&sender{p: p}).SendBatch(ctx, to, ms)
}

// sender is the Sender: encode once, breaker gate, hand the frame to the
// wire. Network.Send/SendBatch are its instance with no out counters.
type sender struct {
	p    *pipeline
	from string
	out  *nodeCounters
}

func (s *sender) From() string { return s.from }

// Send is the batch of one without the slice detour: the same frame
// layout with count 1 (see docs/transport.md).
func (s *sender) Send(ctx context.Context, to string, m *message.Message) error {
	fb, err := encodeFrame(s.p.room, m)
	if err != nil {
		return err
	}
	return s.submit(ctx, to, outFrame{buf: fb, msgs: 1, key: m.From, out: s.out})
}

func (s *sender) SendBatch(ctx context.Context, to string, ms []*message.Message) error {
	if len(ms) == 0 {
		return nil
	}
	fb, err := encodeFrame(s.p.room, ms...)
	if err != nil {
		return err
	}
	return s.submit(ctx, to, outFrame{buf: fb, msgs: len(ms), key: ms[0].From, out: s.out})
}

// submit gates the frame on the destination's breaker BEFORE the wire —
// an open breaker refuses with circuit.ErrOpen at the cost of no dial,
// no queue slot and no deadline wait — and feeds it the wire's verdict.
// A refused frame's buffer comes back here: no wire kept it.
func (s *sender) submit(ctx context.Context, to string, f outFrame) error {
	err := s.p.breakers.allow(to)
	if err == nil {
		err = s.p.wire.accept(ctx, to, f)
		s.p.breakers.record(to, err)
	}
	if err != nil {
		f.buf.free()
	}
	return err
}

// The shape of every listener's receive side. recvLaneCount is enough
// stripes that distinct senders rarely share a lane, and few enough that
// an idle endpoint costs a handful of parked goroutines; recvLaneLen, in
// jobs, is the receive-side mirror of defaultQueueLen.
const (
	recvLaneCount = 8
	recvLaneLen   = 256
)

// recvLanes is a listener's bounded receive side: recvLaneCount channels
// of recvLaneLen jobs, one worker each. A job is hashed onto a lane by its
// frame's logical source (outFrame.key) and a lane delivers its jobs one
// at a time in arrival order — so cross-frame per-sender FIFO is a
// contract, not a scheduling accident, and a burst costs recvLaneCount
// goroutines, not one per frame. A full lane blocks whoever feeds it (the
// TCP read loop, and through the kernel the sender's write queue; in
// memory the sender itself), never drops. J is what the wire queues: TCP
// decodes on the read loop — the payload is in the connection's buffer,
// which the next read overwrites — and queues messages, InMem queues the
// payload and decodes on the worker.
type recvLanes[J any] struct {
	rc      *nodeCounters // the listener's RecvLanes/RecvQueueDepth gauges
	chans   []chan J
	deliver func(J)
	settled func(J) // optional: runs after a job is delivered and counted out
	stopped atomic.Bool
	workers sync.WaitGroup
}

func newRecvLanes[J any](rc *nodeCounters, deliver, settled func(J)) *recvLanes[J] {
	l := &recvLanes[J]{rc: rc, chans: make([]chan J, recvLaneCount), deliver: deliver, settled: settled}
	rc.recvLanes.Store(int64(len(l.chans)))
	for i := range l.chans {
		l.chans[i] = make(chan J, recvLaneLen)
		l.workers.Add(1)
		go l.work(l.chans[i])
	}
	return l
}

// put queues j on key's lane, blocking while the lane is full.
func (l *recvLanes[J]) put(key string, j J) {
	l.rc.recvQueueDepth.Add(1)
	l.chans[laneFor(key, len(l.chans))] <- j
}

// laneFor hashes a lane key onto one of n receive lanes (FNV-1a).
func laneFor(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(n))
}

func (l *recvLanes[J]) work(lane chan J) {
	defer l.workers.Done()
	for j := range lane {
		if !l.stopped.Load() {
			l.deliver(j)
		}
		l.rc.recvQueueDepth.Add(-1)
		if l.settled != nil {
			l.settled(j)
		}
	}
}

// stop ends delivery: from now on the workers discard what is queued and
// whatever producers still put, so nobody stays blocked on a full lane.
// When to call it is each network's shutdown rule: a TCP endpoint stops
// at once and drops what is queued (as the write side drops accepted
// frames at Close); InMem first waits until everything accepted has been
// delivered. Call reap once no producer can put any more; it retires the
// workers. Every discarded job is counted out of the depth gauge, which
// outlives the listener (a re-Listen on the same address inherits the
// counters); the lane-count gauge is left alone, because a newer
// listener may already have stored its own value.
func (l *recvLanes[J]) stop() { l.stopped.Store(true) }

func (l *recvLanes[J]) reap() {
	for _, lane := range l.chans {
		close(lane)
	}
	l.workers.Wait()
}
