package circuit

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// clock is a manual test clock.
type clock struct {
	mu  sync.Mutex
	now time.Time
}

func newClock() *clock { return &clock{now: time.Unix(1000, 0)} }

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testOptions(clk *clock) Options {
	return Options{Window: 8, Threshold: 0.5, MinSamples: 4, OpenFor: time.Second, Now: clk.Now}
}

// call drives one admitted call through the breaker.
func call(t *testing.T, b *Breaker, ok bool) {
	t.Helper()
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow refused unexpectedly: %v", err)
	}
	if ok {
		b.Success()
	} else {
		b.Failure()
	}
}

func TestClosedUntilThreshold(t *testing.T) {
	clk := newClock()
	b := New(testOptions(clk))
	opens := 0
	b.OnOpen(func() { opens++ })
	// Below MinSamples nothing trips, even at 100% failures.
	for i := 0; i < 3; i++ {
		call(t, b, false)
	}
	if b.State() != Closed {
		t.Fatalf("state after 3 failures = %v, want closed (MinSamples=4)", b.State())
	}
	// The 4th failure reaches MinSamples at a 100% rate: open.
	call(t, b, false)
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	if opens != 1 {
		t.Fatalf("opens = %d, want 1", opens)
	}
}

// TestWindowBelowMinSamplesStillOpens: a window smaller than the default
// MinSamples caps the sample count, so MinSamples is capped at the
// window; otherwise such a breaker could never trip.
func TestWindowBelowMinSamplesStillOpens(t *testing.T) {
	b := New(Options{Window: 2, Now: newClock().Now})
	for i := 0; i < 2; i++ {
		call(t, b, false)
	}
	if b.State() != Open {
		t.Fatalf("state after 2 failures in a 2-outcome window = %v, want open", b.State())
	}
}

func TestSuccessesKeepItClosed(t *testing.T) {
	clk := newClock()
	b := New(testOptions(clk))
	// Fail every fourth call: the rolling rate peaks at 2/8 = 25%,
	// under the 50% threshold at every checkpoint.
	for i := 0; i < 16; i++ {
		call(t, b, i%4 != 1)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed at 25%% failures", b.State())
	}
}

func TestRollingWindowForgetsOldOutcomes(t *testing.T) {
	clk := newClock()
	o := testOptions(clk)
	o.Window, o.MinSamples, o.Threshold = 4, 4, 1.0 // trips only on an all-failure window
	b := New(o)
	// F F F S: the lone success blocks the all-failure condition.
	for i := 0; i < 3; i++ {
		call(t, b, false)
	}
	call(t, b, true)
	// Three more failures overwrite the three OLD failures in the ring;
	// the success (4th slot) is still inside, so still closed.
	for i := 0; i < 3; i++ {
		call(t, b, false)
		if b.State() != Closed {
			t.Fatalf("tripped while the success is still in the window")
		}
	}
	// The next failure ages the success out: window is all failures. Open.
	call(t, b, false)
	if b.State() != Open {
		t.Fatalf("state = %v, want open once the success aged out", b.State())
	}
}

func TestOpenRefusesFastThenHalfOpens(t *testing.T) {
	clk := newClock()
	b := New(testOptions(clk))
	for i := 0; i < 4; i++ {
		call(t, b, false)
	}
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	// Refused while the cool-down runs.
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow during cool-down = %v, want ErrOpen", err)
	}
	// After the cool-down the next Allow is the half-open probe.
	clk.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow after cool-down = %v, want probe admitted", err)
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// A second call while the probe is out is refused.
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second Allow in half-open = %v, want ErrOpen", err)
	}
	// Probe succeeds: closed, with a clean window (4 fresh failures
	// needed to trip again, not 1). Success reports the recovery once.
	if !b.Success() {
		t.Fatal("the probe's Success did not report closing the breaker")
	}
	if b.State() != Closed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}
	for i := 0; i < 3; i++ {
		call(t, b, false)
	}
	if b.State() != Closed {
		t.Fatalf("window not reset on close: tripped after %d failures", 3)
	}
	if err := b.Allow(); err != nil || b.Success() {
		t.Fatalf("a closed breaker's Success reported a recovery (Allow = %v)", err)
	}
}

func TestHalfOpenProbeFailureReopens(t *testing.T) {
	clk := newClock()
	b := New(testOptions(clk))
	opens := 0
	b.OnOpen(func() { opens++ })
	for i := 0; i < 4; i++ {
		call(t, b, false)
	}
	clk.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state after probe failure = %v, want open", b.State())
	}
	if opens != 2 {
		t.Fatalf("opens = %d, want 2", opens)
	}
	// The cool-down restarted: still refused before it elapses again.
	clk.Advance(time.Second / 2)
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow = %v, want ErrOpen (cool-down restarted)", err)
	}
	clk.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow = %v, want second probe admitted", err)
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

func TestOnOpenHook(t *testing.T) {
	clk := newClock()
	b := New(testOptions(clk))
	opened := 0
	b.OnOpen(func() { opened++ })
	for i := 0; i < 4; i++ {
		call(t, b, false)
	}
	if opened != 1 {
		t.Fatalf("OnOpen ran %d times, want 1", opened)
	}
	clk.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Failure()
	if opened != 2 {
		t.Fatalf("OnOpen ran %d times after reopen, want 2", opened)
	}
}

func TestThresholdAboveOneNeverOpens(t *testing.T) {
	clk := newClock()
	o := testOptions(clk)
	o.Threshold = 2 // accounting only
	b := New(o)
	for i := 0; i < 32; i++ {
		call(t, b, false)
	}
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed with Threshold > 1", b.State())
	}
}

func TestGroupPerKeyIsolationAndHook(t *testing.T) {
	clk := newClock()
	g := NewGroup(testOptions(clk))
	var openKeys []string
	g.OnOpen(func(key string) { openKeys = append(openKeys, key) })
	for i := 0; i < 4; i++ {
		call(t, g.Get("bad"), false)
		call(t, g.Get("good"), true)
	}
	if s := g.Get("bad").State(); s != Open {
		t.Fatalf("bad state = %v, want open", s)
	}
	if s := g.Get("good").State(); s != Closed {
		t.Fatalf("good state = %v, want closed", s)
	}
	if len(openKeys) != 1 || openKeys[0] != "bad" {
		t.Fatalf("OnOpen keys = %v, want [bad]", openKeys)
	}
	// Get must return the same breaker, not a fresh one.
	if g.Get("bad") != g.Get("bad") {
		t.Fatal("Get not idempotent")
	}
}

func TestConcurrentUse(t *testing.T) {
	clk := newClock()
	b := New(Options{Window: 64, Threshold: 0.9, MinSamples: 64, OpenFor: time.Second, Now: clk.Now})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := b.Allow(); err == nil {
					if i%2 == 0 {
						b.Success()
					} else {
						b.Failure()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// 50% failures < 90% threshold: must still be closed, and the window
	// invariants must have held under concurrency (no panic, sane state).
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open"} {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}
