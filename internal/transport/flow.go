package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"selfserv/internal/circuit"
)

// This file defines the flow-control and connection-lifecycle contract
// shared by both Network implementations. The pre-flow-control transport
// was fire-and-forget: under heavy fan-in a slow peer's frames piled up
// in kernel buffers (or, in memory, in unbounded goroutines) and the
// only failure handling was a single blind TCP retry. Flow control makes
// the sender's cost bounded and observable:
//
//   - every destination has a BOUNDED write queue of frames;
//   - a full queue blocks the sender, up to SendDeadline;
//   - queue depth, blocked sends, and reconnects are visible in Stats,
//     keyed by the DESTINATION address (the slow peer is the one you
//     want to identify);
//   - a cached connection lives until the network closes, and a failed
//     one is re-established with jittered exponential backoff instead
//     of one blind retry.
//
// Each piece has ONE definition, here or in pipeline.go, that both wires
// call; faults_test.go runs the contract against TCP and InMem anyway.

// ErrSendDeadline reports a send abandoned because the destination's
// write queue stayed full for the whole send deadline. The frame was NOT
// accepted: it will never be delivered.
var ErrSendDeadline = errors.New("transport: send deadline exceeded")

// Default flow-control parameters (see FlowOptions).
const (
	defaultQueueLen     = 256
	defaultSendDeadline = 5 * time.Second
)

// Reconnect backoff: the first re-dial waits backoffBase, each further
// attempt doubles it up to backoffMax, jittered to 50-100%.
const (
	backoffBase = 25 * time.Millisecond
	backoffMax  = 2 * time.Second
)

// FlowOptions tune per-destination flow control. The zero value means:
// 256-frame queues, a 5s send deadline, no breakers.
// Every accepted frame goes on the wire alone, never coalesced.
type FlowOptions struct {
	// QueueLen caps the per-destination write queue, in frames. A send
	// finding the queue full waits for space. 0 means 256.
	QueueLen int
	// SendDeadline bounds how long a send may wait for queue space. 0
	// means 5s. A context deadline earlier than this wins.
	SendDeadline time.Duration
	// Breaker enables a per-DESTINATION circuit breaker on the send path
	// with these settings; nil (the default) disables breakers entirely.
	// With a breaker, repeated send failures toward one destination
	// (send-deadline expiries, failed first dials) trip
	// its breaker open, and further sends to it fail fast with
	// circuit.ErrOpen BEFORE touching the write queue — a wedged peer
	// costs its callers an error check, not a queue slot and a deadline
	// wait. Breaker trips are visible in Stats (NodeStats.BreakerOpens).
	Breaker *circuit.Options
}

// withDefaults fills zero fields with the documented defaults.
func (o FlowOptions) withDefaults() FlowOptions {
	if o.QueueLen <= 0 {
		o.QueueLen = defaultQueueLen
	}
	if o.SendDeadline <= 0 {
		o.SendDeadline = defaultSendDeadline
	}
	return o
}

// admit takes one slot of the bounded queue toward to (space has
// QueueLen of them; the wire frees a slot once the frame has left its
// queue) — the single definition of the full-queue rule, so both wires
// refuse sends with the same wait and wording. A full queue counts one
// SendBlocked on dst, then waits min(SendDeadline, ctx deadline) and
// fails with ErrSendDeadline (or ctx.Err() when the context ended
// first). stop
// wakes a waiter whose queue is going away, with the wire's own stopErr.
func (o FlowOptions) admit(ctx context.Context, to string, dst *nodeCounters, space chan<- struct{}, stop <-chan struct{}, stopErr error) error {
	select {
	case space <- struct{}{}:
		return nil
	default:
	}
	dst.sendBlocked.Add(1)
	wait := o.SendDeadline
	if dl, ok := ctx.Deadline(); ok {
		if until := time.Until(dl); until < wait {
			wait = until
		}
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case space <- struct{}{}:
		return nil
	case <-timer.C:
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("%w: %s still full after %v (%d frames queued)",
			ErrSendDeadline, to, wait, o.QueueLen)
	case <-ctx.Done():
		return ctx.Err()
	case <-stop:
		return stopErr
	}
}

// backoff computes jittered exponential reconnect delays. It is shared
// by every connection of one network, and each network seeds its own
// source from its construction time, its process and a per-process
// count, so daemons re-dialing one restarted peer draw different delays.
type backoff struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// backoffSeeds tells apart networks built in the same clock tick.
var backoffSeeds atomic.Int64

func newBackoff() *backoff {
	seed := time.Now().UnixNano() ^ int64(os.Getpid())<<32 ^ backoffSeeds.Add(1)<<48
	return &backoff{rng: rand.New(rand.NewSource(seed))}
}

// delay returns the sleep before reconnect attempt n (n >= 1):
// min(backoffBase<<(n-1), backoffMax), jittered to 50-100% so reconnect
// storms from many peers decorrelate.
func (b *backoff) delay(attempt int) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	b.mu.Lock()
	f := 0.5 + 0.5*b.rng.Float64()
	b.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// sendBreakers is the per-destination breaker set the shared sender
// consults (nil when FlowOptions.Breaker is nil — every method is
// nil-safe, so the send path never branches). Trips are mirrored into
// the destination's node stats.
type sendBreakers struct {
	group *circuit.Group
}

func newSendBreakers(flow FlowOptions, book *statsBook) *sendBreakers {
	if flow.Breaker == nil {
		return nil
	}
	g := circuit.NewGroup(*flow.Breaker)
	g.OnOpen(func(dest string) { book.node(dest).breakerOpens.Add(1) })
	return &sendBreakers{group: g}
}

// allow admits or refuses a send toward to. A refusal wraps
// circuit.ErrOpen and cost the caller no queue slot.
func (b *sendBreakers) allow(to string) error {
	if b == nil {
		return nil
	}
	if err := b.group.Get(to).Allow(); err != nil {
		return fmt.Errorf("transport: to %s: %w", to, err)
	}
	return nil
}

// record feeds one send outcome to the destination's breaker. Flow
// refusals (send deadline), context expiry while queued, and
// dead-destination dials count as failures; acceptance counts as
// success; structural errors (closed network, encode) count as neither.
func (b *sendBreakers) record(to string, err error) {
	if b == nil {
		return
	}
	switch {
	case err == nil:
		b.group.Get(to).Success()
	case errors.Is(err, ErrSendDeadline),
		errors.Is(err, ErrUnknownAddress),
		errors.Is(err, context.DeadlineExceeded):
		b.group.Get(to).Failure()
	}
}
