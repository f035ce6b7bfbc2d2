package engine

import (
	"context"
	"errors"

	"selfserv/internal/message"
	"selfserv/internal/transport"
)

// outbox collects one firing round's outbound notifications keyed by
// destination address, so a round that notifies several peers hosted at
// the same address pays ONE wire frame for them instead of one per
// notification (the coalescing the ROADMAP's batching item asks for).
// Messages stay in enqueue order per destination and destinations flush
// in first-use order, so per-(destination, instance) FIFO is preserved:
// the receiver's handler sees a round's messages exactly as a sequential
// sender would have emitted them.
//
// An outbox is single-round, single-goroutine state: build, flush, drop.
// Rounds address at most a handful of peers, so destinations live in a
// linearly-scanned slice — no per-round map allocation on the hot path —
// and the round of ONE notification, which every chain hop is, allocates
// nothing at all: the first destination and its first message are held
// inline, as values (an outbox is returned by value, so it cannot point
// into itself), and the slices exist from the second add on.
type outbox struct {
	addr  string           // first destination
	first *message.Message // its first message; nil: nothing enqueued
	// From the second add on: every destination in first-use order
	// (addrs[0] is addr) and every message (batches[0][0] is first).
	addrs   []string
	batches [][]*message.Message
}

// add enqueues m for addr.
func (o *outbox) add(addr string, m *message.Message) {
	if o.first == nil {
		o.addr, o.first = addr, m
		return
	}
	if o.addrs == nil {
		o.addrs = []string{o.addr}
		o.batches = [][]*message.Message{{o.first}}
	}
	for i, a := range o.addrs {
		if a == addr {
			o.batches[i] = append(o.batches[i], m)
			return
		}
	}
	o.addrs = append(o.addrs, addr)
	o.batches = append(o.batches, []*message.Message{m})
}

// empty reports whether nothing was enqueued.
func (o *outbox) empty() bool { return o.first == nil }

// frames returns the number of destinations, one wire frame each.
func (o *outbox) frames() int {
	if o.addrs == nil && o.first != nil {
		return 1
	}
	return len(o.addrs)
}

// msgs returns the total number of enqueued messages.
func (o *outbox) msgs() int {
	if o.addrs == nil && o.first != nil {
		return 1
	}
	n := 0
	for _, ms := range o.batches {
		n += len(ms)
	}
	return n
}

// flush sends every destination's batch through s, one frame per
// destination. A destination that refuses its frame — a full bounded
// queue (transport.ErrQueueFull), an expired send deadline
// (transport.ErrSendDeadline), or any other transport error — does NOT
// stop the round: the remaining destinations still get their frames, so
// one slow peer stalls only its own traffic. All failures are joined
// into the returned error, which callers surface to the coordinator's
// fault path instead of silently dropping the round.
func (o *outbox) flush(ctx context.Context, s transport.Sender) error {
	if o.first == nil {
		return nil
	}
	if o.addrs == nil {
		return errors.Join(s.Send(ctx, o.addr, o.first))
	}
	var errs []error
	for i, addr := range o.addrs {
		ms := o.batches[i]
		var err error
		if len(ms) == 1 {
			err = s.Send(ctx, addr, ms[0])
		} else {
			err = s.SendBatch(ctx, addr, ms)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
