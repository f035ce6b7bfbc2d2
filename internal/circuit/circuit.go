// Package circuit implements per-destination circuit breakers: the
// fail-fast layer of the availability-under-churn story. A breaker
// watches the rolling outcome window of calls toward one destination (a
// community member, a transport peer) and, when the recent failure rate
// crosses a threshold, OPENS: further calls are refused immediately with
// ErrOpen instead of burning a timeout, a retry budget, or a bounded
// queue slot on a peer that is known to be wedged. After a cool-down the
// breaker admits one probe call (half-open); its outcome decides between
// closing again and re-opening.
//
// The package is deliberately clock-injectable (Options.Now): every
// transition — including the open → half-open cool-down — is decided by
// the injected clock, so the contract tests drive a breaker through its
// whole lifecycle without sleeping.
package circuit

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrOpen reports a call refused because the breaker is open (or because
// its one half-open probe is already out). The call was NOT attempted.
var ErrOpen = errors.New("circuit: breaker open")

// State is a breaker's position in the closed → open → half-open cycle.
type State int

const (
	// Closed admits every call; outcomes feed the rolling window.
	Closed State = iota
	// Open refuses every call until the cool-down elapses.
	Open
	// HalfOpen has admitted its one probe call and refuses the rest; the
	// probe's success closes the breaker, its failure re-opens it.
	HalfOpen
)

// String returns the conventional lowercase name of the state.
func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "closed"
}

// Default breaker parameters (see Options).
const (
	DefaultWindow     = 16
	DefaultThreshold  = 0.5
	DefaultMinSamples = 4
	DefaultOpenFor    = 2 * time.Second
)

// Options tune a breaker. The zero value means: a 16-outcome rolling
// window, open at a 50% failure rate once 4 samples are in, stay open
// for 2s, then admit one half-open probe.
type Options struct {
	// Window is the rolling outcome window size, in calls. 0 means 16.
	Window int
	// Threshold is the failure fraction of the window at or above which
	// the breaker opens. 0 means 0.5. (Threshold > 1 never opens — a
	// practical way to disable tripping while keeping the accounting.)
	Threshold float64
	// MinSamples is the minimum number of recorded outcomes before the
	// window is judged at all; below it the breaker stays closed no
	// matter the failures (a single early failure must not trip a fresh
	// breaker). 0 means 4, or Window if that is smaller: a window never
	// holds more samples than its size.
	MinSamples int
	// OpenFor is the cool-down an open breaker waits before admitting
	// its half-open probe. 0 means 2s.
	OpenFor time.Duration
	// Now is the clock; nil means time.Now. Tests inject a manual clock
	// so cool-downs are deterministic.
	Now func() time.Time
}

// withDefaults fills zero fields with the documented defaults.
func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.Threshold <= 0 {
		o.Threshold = DefaultThreshold
	}
	if o.MinSamples <= 0 {
		o.MinSamples = DefaultMinSamples
	}
	o.MinSamples = min(o.MinSamples, o.Window)
	if o.OpenFor <= 0 {
		o.OpenFor = DefaultOpenFor
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Breaker is one circuit breaker. Safe for concurrent use.
type Breaker struct {
	opts Options

	mu       sync.Mutex
	state    State
	window   []bool // ring of outcomes, true = failure
	size     int    // filled entries in window
	head     int    // next write position
	failures int    // failures among the filled entries
	openedAt time.Time
	onOpen   func()
}

// New returns a closed breaker.
func New(opts Options) *Breaker {
	o := opts.withDefaults()
	return &Breaker{opts: o, window: make([]bool, o.Window)}
}

// OnOpen registers fn to run (synchronously, without the breaker lock)
// every time the breaker transitions to Open — the stats hook.
func (b *Breaker) OnOpen(fn func()) {
	b.mu.Lock()
	b.onOpen = fn
	b.mu.Unlock()
}

// Allow asks to place one call. nil admits it — the caller MUST then
// report the outcome with Success or Failure, or a half-open breaker
// would wait for its probe forever. ErrOpen (wrapped with the remaining
// cool-down) refuses it; refused calls must NOT be reported.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return nil
	case Open:
		remaining := b.opts.OpenFor - b.opts.Now().Sub(b.openedAt)
		if remaining > 0 {
			return fmt.Errorf("%w for another %v", ErrOpen, remaining)
		}
		// Cool-down elapsed: this call becomes the half-open probe.
		b.state = HalfOpen
		return nil
	default: // HalfOpen
		return fmt.Errorf("%w (half-open probe already out)", ErrOpen)
	}
}

// Success reports a successful admitted call, and whether it closed the
// breaker: true exactly when it moved a half-open breaker to closed,
// the one recovery a caller may act on.
func (b *Breaker) Success() (closed bool) { return b.record(false) }

// Failure reports a failed admitted call.
func (b *Breaker) Failure() { b.record(true) }

func (b *Breaker) record(failed bool) (closed bool) {
	b.mu.Lock()
	var opened func()
	switch b.state {
	case HalfOpen:
		if failed {
			// The peer is still sick: re-open and restart the cool-down.
			opened = b.openLocked()
		} else {
			// Recovered: close with a clean window, so the failures that
			// opened the breaker don't instantly re-trip it.
			b.state = Closed
			b.resetWindowLocked()
			closed = true
		}
	default:
		// Closed — and Open, for stragglers admitted before the trip:
		// their outcomes keep feeding the window harmlessly.
		b.pushLocked(failed)
		if b.state == Closed && b.size >= b.opts.MinSamples &&
			float64(b.failures) >= b.opts.Threshold*float64(b.size) {
			opened = b.openLocked()
		}
	}
	b.mu.Unlock()
	if opened != nil {
		opened()
	}
	return closed
}

// openLocked transitions to Open and returns the registered OnOpen hook
// (to be run after the lock is released). Caller holds b.mu.
func (b *Breaker) openLocked() func() {
	b.state = Open
	b.openedAt = b.opts.Now()
	b.resetWindowLocked()
	return b.onOpen
}

func (b *Breaker) resetWindowLocked() {
	for i := range b.window {
		b.window[i] = false
	}
	b.size, b.head, b.failures = 0, 0, 0
}

// pushLocked files one outcome into the rolling window. Caller holds b.mu.
func (b *Breaker) pushLocked(failed bool) {
	if b.size == len(b.window) {
		if b.window[b.head] {
			b.failures--
		}
	} else {
		b.size++
	}
	b.window[b.head] = failed
	if failed {
		b.failures++
	}
	b.head = (b.head + 1) % len(b.window)
}

// State returns the breaker's current state. An open breaker whose
// cool-down has elapsed still reports Open until the next Allow turns it
// half-open (transitions happen on calls, not on a timer).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Group is a lazily-populated set of breakers sharing one Options,
// keyed by destination. Safe for concurrent use.
type Group struct {
	opts Options

	mu       sync.Mutex
	breakers map[string]*Breaker
	onOpen   func(key string)
}

// NewGroup returns an empty group; breakers are created on first Get.
func NewGroup(opts Options) *Group {
	return &Group{opts: opts.withDefaults(), breakers: map[string]*Breaker{}}
}

// OnOpen registers fn to run with the key of any group breaker that
// opens (including breakers created after the call).
func (g *Group) OnOpen(fn func(key string)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.onOpen = fn
	for key, b := range g.breakers {
		key := key
		b.OnOpen(func() { fn(key) })
	}
}

// Get returns the breaker for key, creating it closed on first use.
func (g *Group) Get(key string) *Breaker {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.breakers[key]
	if !ok {
		b = New(g.opts)
		if g.onOpen != nil {
			fn, key := g.onOpen, key
			b.OnOpen(func() { fn(key) })
		}
		g.breakers[key] = b
	}
	return b
}
