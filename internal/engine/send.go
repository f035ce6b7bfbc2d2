package engine

import (
	"context"
	"errors"
	"fmt"

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

// message builds the message that carries vars to peer to. Its type
// follows from the two ends — what goes to the wrapper is a termination
// notice, what the wrapper sends is a start — so Recover rebuilds it
// rather than trust a journaled one. seq is the sender's per-instance
// stamp; zero (journal-less) leaves the frame's bytes as they always were.
func (o *origin) message(instance, to string, seq uint64, vars map[string]string) *message.Message {
	typ := message.TypeNotify
	if to == message.WrapperID {
		typ = message.TypeDone
	} else if o.from == message.WrapperID {
		typ = message.TypeStart
	}
	return &message.Message{
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
		m := o.message(instance, target.To, stamp, outVars)
		if logged != nil {
			*logged = append(*logged, journal.OutMsg{Type: string(m.Type), To: target.To, Seq: stamp, Vars: outVars})
		}
		box.add(addr, m)
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
