package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"selfserv/internal/expr"
	"selfserv/internal/journal"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/transport"
)

// origin is the sending side of one peer of one plan version: a
// coordinator (from is its state), a wrapper (message.WrapperID) or, as a
// copy of the wrapper's with from replaced, an event pseudo-source. What
// a start, notify or done message looks like, which replica it goes to
// and the postprocessing loop that decides whether it goes are written
// once, here. An origin holds no lock and is read-only once filled in.
type origin struct {
	dir       *Directory
	composite string
	version   uint64 // pins routing: an instance finishes on the plan version it started on
	from      string
	funcEnv   expr.Env // function layer shared by every evaluation
}

// message fills m, storage the caller owns (an outbox's, mostly), with
// the message that carries vars to peer to. Its type follows from the two
// ends — what goes to the wrapper is a termination notice, what the
// wrapper sends is a start — so Recover rebuilds it rather than trust a
// journaled one. seq is the sender's per-instance stamp; zero
// (journal-less) leaves the frame's bytes as they always were.
func (o *origin) message(m *message.Message, instance, to string, seq uint64, vars map[string]string) {
	typ := message.TypeNotify
	if to == message.WrapperID {
		typ = message.TypeDone
	} else if o.from == message.WrapperID {
		typ = message.TypeStart
	}
	*m = message.Message{
		Type:      typ,
		Composite: o.composite,
		Instance:  instance,
		From:      o.from,
		To:        to,
		Version:   o.version,
		Seq:       int(seq),
		Vars:      vars,
	}
}

// route resolves the replica of peer to that owns the (instance, tenant)
// key: the same on every sender, so all of an instance's notifications,
// its start message included, converge on one coordinator object, and
// pinned to this origin's plan version, so an in-flight instance keeps
// flowing through the tables it started on while a newer version is live.
func (o *origin) route(to, instance, tenant string) (string, error) {
	addr, found := o.dir.RouteV(o.composite, o.version, to, instance, tenant)
	if !found {
		return "", fmt.Errorf("engine: no address for peer %q of %s v%d", to, o.composite, o.version)
	}
	return addr, nil
}

// notify is the postprocessing phase, the wrapper's start phase included
// (the wrapper is the "sender" for entry states): each target whose
// precompiled condition holds on vars gets a message — vars itself, or a
// copy with the target's actions applied — enqueued in box under the
// address route picks. Nothing is sent: the caller flushes the finished
// outbox, where peers sharing a host coalesce into one frame, once its
// journal record is on the fd.
//
// A journaling sender passes seq, its per-instance send counter (each
// message takes the next number, by which receivers dedup redelivery),
// and may pass logged, to which each message is appended in journal form:
// To is the LOGICAL peer, since recovery re-resolves addresses through the
// restarted fleet's directory. Nil otherwise; pointers, not callbacks, so
// a round allocates nothing for them.
func (o *origin) notify(box *outbox, targets []routing.CompiledTarget, instance string, vars map[string]string, seq *uint64, logged *[]journal.OutMsg) error {
	for _, target := range targets {
		ok, err := evalGuard(target.Condition, vars, o.funcEnv)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		outVars := vars
		if len(target.Actions) > 0 {
			outVars, err = applyActions(target.Actions, vars, o.funcEnv)
			if err != nil {
				return err
			}
		}
		addr, err := o.route(target.To, instance, vars[TenantVar])
		if err != nil {
			return err
		}
		var stamp uint64
		if seq != nil {
			*seq++
			stamp = *seq
		}
		m := box.next(addr)
		o.message(m, instance, target.To, stamp, outVars)
		if logged != nil {
			*logged = append(*logged, journal.OutMsg{Type: string(m.Type), To: target.To, Seq: stamp, Vars: outVars})
		}
	}
	return nil
}

// outbox collects one firing round's outbound notifications keyed by
// destination address, so a round that notifies several peers hosted at
// the same address pays ONE wire frame for them instead of one per
// notification (the coalescing the ROADMAP's batching item asks for).
// Messages stay in enqueue order per destination and destinations flush
// in first-use order, so per-(destination, instance) FIFO is preserved:
// the receiver's handler sees a round's messages exactly as a sequential
// sender would have emitted them.
//
// An outbox is single-goroutine storage that outlives its round: a firing
// worker owns one for life, and the wrapper's start phase and RaiseEvent
// borrow one from outboxes. The round's messages live in it by value —
// origin.message fills them in place — and flush hands the Sender
// pointers into it, which the Sender keeps no longer than the call
// (transport.Sender). reset zeroes what a round left, so no bag stays
// pinned, and keeps the capacity: once an outbox has held a round as wide
// as the next, that round allocates nothing, neither a message nor a
// slice. Rounds address at most a handful of peers, so destinations are
// scanned linearly, with no per-round map.
type outbox struct {
	buf   []message.Message  // the round's messages, in enqueue order
	dest  []int              // dest[i] indexes addrs: buf[i]'s destination
	addrs []string           // destinations in first-use order
	batch []*message.Message // flush's view of one destination's messages
}

// outboxes lends an outbox to the sends that run on no firing worker.
var outboxes = sync.Pool{New: func() any { return new(outbox) }}

// next enqueues a zero message for addr and returns it to be filled
// before the next call.
func (o *outbox) next(addr string) *message.Message {
	d := slices.Index(o.addrs, addr)
	if d < 0 {
		d = len(o.addrs)
		o.addrs = append(o.addrs, addr)
	}
	o.dest = append(o.dest, d)
	o.buf = append(o.buf, message.Message{})
	return &o.buf[len(o.buf)-1]
}

// empty reports whether nothing was enqueued.
func (o *outbox) empty() bool { return len(o.buf) == 0 }

// frames returns the number of destinations, one wire frame each.
func (o *outbox) frames() int { return len(o.addrs) }

// msgs returns the total number of enqueued messages.
func (o *outbox) msgs() int { return len(o.buf) }

// reset empties o for its next round.
func (o *outbox) reset() {
	clear(o.buf)
	o.buf, o.dest, o.addrs, o.batch = o.buf[:0], o.dest[:0], o.addrs[:0], o.batch[:0]
}

// release empties a borrowed outbox and hands it back to outboxes.
func (o *outbox) release() {
	o.reset()
	outboxes.Put(o)
}

// flush sends every destination's batch through s, one frame per
// destination. A destination that refuses its frame — a bounded queue
// still full at the send deadline (transport.ErrSendDeadline), or any
// other transport error — does NOT stop the round: the remaining
// destinations still get their frames, so one slow peer stalls only its
// own traffic. All failures are joined into the returned error, which
// callers surface to the coordinator's fault path instead of silently
// dropping the round.
func (o *outbox) flush(ctx context.Context, s transport.Sender) error {
	var errs []error
	for d, addr := range o.addrs {
		o.batch = o.batch[:0]
		for i := range o.buf {
			if o.dest[i] == d {
				o.batch = append(o.batch, &o.buf[i])
			}
		}
		var err error
		if len(o.batch) == 1 {
			err = s.Send(ctx, addr, o.batch[0])
		} else {
			err = s.SendBatch(ctx, addr, o.batch)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
