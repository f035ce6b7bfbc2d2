package community

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"selfserv/internal/circuit"
	"selfserv/internal/qos"
	"selfserv/internal/service"
)

// manualClock is the injected clock of the churn tests' breakers: time
// moves only when a test advances it.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// breakerOpts is the deterministic breaker configuration the churn tests
// share: two consecutive failures open a member's breaker (a window of
// two caps MinSamples at two), and it stays open for a minute of clk.
func breakerOpts(clk *manualClock) *circuit.Options {
	return &circuit.Options{Window: 2, Threshold: 1.0, OpenFor: time.Minute, Now: clk.Now}
}

func book(t *testing.T, c *Community) (service.Response, error) {
	t.Helper()
	return c.Invoke(context.Background(), service.Request{
		Operation: "book", Params: map[string]string{"dest": "d"},
	})
}

func TestHealthStateMachineDrivenByInvocations(t *testing.T) {
	c := New("C", Options{Policy: NewCheapest(), Breaker: breakerOpts(&manualClock{})})
	broken := hotel("Broken", service.SimulatedOptions{})
	if err := c.Join(&Member{Provider: broken, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(member("Backup", 5, service.SimulatedOptions{})); err != nil {
		t.Fatal(err)
	}
	broken.SetDown(true)

	// First failure: the breaker stays closed, still selectable.
	if _, err := book(t, c); err == nil {
		t.Fatal("invoke of dead member succeeded")
	}
	if st := c.BreakerState("Broken"); st != circuit.Closed {
		t.Fatalf("breaker after 1 failure = %v, want closed", st)
	}
	// Second failure: open, excluded from selection.
	if _, err := book(t, c); err == nil {
		t.Fatal("invoke of dead member succeeded")
	}
	if st := c.BreakerState("Broken"); st != circuit.Open {
		t.Fatalf("breaker after 2 failures = %v, want open", st)
	}
	// Cheapest policy would still prefer Broken, but its open breaker
	// refuses it without an attempt: traffic lands on Backup without
	// failover.
	resp, err := book(t, c)
	if err != nil {
		t.Fatalf("request while member dark: %v", err)
	}
	if !strings.HasPrefix(resp.Outputs["addr"], "Backup") {
		t.Fatalf("addr = %q, want Backup", resp.Outputs["addr"])
	}
	if got := c.Availability().Failovers; got != 0 {
		t.Fatalf("Failovers = %d, want 0", got)
	}
}

func TestProbeRecoversDarkMember(t *testing.T) {
	clk := &manualClock{}
	c := New("C", Options{Policy: NewCheapest(), Breaker: breakerOpts(clk)})
	flappy := hotel("Flappy", service.SimulatedOptions{})
	if err := c.Join(&Member{Provider: flappy, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	flappy.SetDown(true)
	for i := 0; i < 2; i++ {
		_, _ = book(t, c)
	}
	if st := c.BreakerState("Flappy"); st != circuit.Open {
		t.Fatalf("breaker = %v, want open", st)
	}
	// Inside the cool-down the open breaker refuses the probe too.
	c.ProbeAll(context.Background())
	if got := c.Availability().Probes; got != 0 {
		t.Fatalf("Probes = %d inside the cool-down, want 0", got)
	}
	// After it, the probe is the half-open call: against a still-dead
	// provider it re-opens the breaker.
	clk.Advance(time.Minute)
	c.ProbeAll(context.Background())
	if st := c.BreakerState("Flappy"); st != circuit.Open {
		t.Fatalf("breaker after failed probe = %v, want open", st)
	}
	// The provider recovers; the next half-open probe closes the breaker
	// — but its reliability restarts toward the prior, not the
	// optimistic 1.
	flappy.SetDown(false)
	clk.Advance(time.Minute)
	c.ProbeAll(context.Background())
	if st := c.BreakerState("Flappy"); st != circuit.Closed {
		t.Fatalf("breaker after recovery probe = %v, want closed", st)
	}
	if rel := c.History().Snapshot("Flappy").Reliability; rel > qos.PriorReliability {
		t.Fatalf("recovered reliability = %v, above the %v prior", rel, qos.PriorReliability)
	}
	if _, err := book(t, c); err != nil {
		t.Fatalf("request after recovery: %v", err)
	}
	a := c.Availability()
	if a.Probes < 2 || a.Recoveries != 1 {
		t.Fatalf("availability = %+v, want >=2 probes and 1 recovery", a)
	}
}

func TestAllDarkDistinctFromNoMember(t *testing.T) {
	c := New("C", Options{Policy: NewCheapest(), Breaker: breakerOpts(&manualClock{})})
	only := hotel("Only", service.SimulatedOptions{})
	if err := c.Join(&Member{Provider: only, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	only.SetDown(true)
	for i := 0; i < 2; i++ {
		_, _ = book(t, c)
	}
	_, err := book(t, c)
	if !errors.Is(err, ErrAllDark) {
		t.Fatalf("all-members-dark err = %v, want ErrAllDark", err)
	}
	if errors.Is(err, ErrNoMember) {
		t.Fatal("ErrAllDark must not alias ErrNoMember")
	}
}

func TestFailoverRescuesOnTheFourthChoice(t *testing.T) {
	c := New("C", Options{
		Policy:   NewCheapest(),
		Failover: 3,
	})
	names := []string{"A", "B", "C3", "D"}
	providers := map[string]*service.Simulated{}
	for i, n := range names {
		p := hotel(n, service.SimulatedOptions{})
		providers[n] = p
		if err := c.Join(&Member{Provider: p, Cost: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// First three choices (cheapest order A, B, C3) are dead; D rescues.
	for _, n := range []string{"A", "B", "C3"} {
		providers[n].SetDown(true)
	}
	resp, err := book(t, c)
	if err != nil {
		t.Fatalf("failover did not rescue: %v", err)
	}
	if !strings.HasPrefix(resp.Outputs["addr"], "D") {
		t.Fatalf("addr = %q, want D", resp.Outputs["addr"])
	}
	if got := c.Availability().Failovers; got != 3 {
		t.Fatalf("Failovers = %d, want 3", got)
	}
}

func TestIdempotentRetryDoesNotReexecute(t *testing.T) {
	c := New("C", Options{})
	p := hotel("A", service.SimulatedOptions{})
	if err := c.Join(&Member{Provider: p, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	req := service.Request{
		Operation: "book", Params: map[string]string{"dest": "d"},
		IdempotencyKey: service.Key{Instance: "trip-42", State: "book"},
	}
	if _, err := c.Invoke(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// A caller-side retry of the SAME logical invocation (same key)
	// replays the cached response instead of booking twice.
	if _, err := c.Invoke(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if invoked, _, _ := p.Counters(); invoked != 1 {
		t.Fatalf("provider executed %d times, want 1", invoked)
	}
	if hits := c.Availability().DedupHits; hits != 1 {
		t.Fatalf("DedupHits = %d, want 1", hits)
	}
}

func TestMemberBreakerTripsAndRecovers(t *testing.T) {
	clk := &manualClock{now: time.Unix(9000, 0)}
	var opened []string
	c := New("C", Options{
		Policy:   NewCheapest(),
		Failover: 1,
		Breaker: &circuit.Options{
			Window: 4, MinSamples: 4, Threshold: 1.0,
			OpenFor: time.Minute, Now: clk.Now,
		},
		OnBreakerOpen: func(m string) { opened = append(opened, m) },
	})
	wedged := hotel("Wedged", service.SimulatedOptions{})
	if err := c.Join(&Member{Provider: wedged, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(member("Steady", 5, service.SimulatedOptions{})); err != nil {
		t.Fatal(err)
	}
	wedged.SetDown(true)

	// Four failures fill the window and trip the breaker (failover keeps
	// the requests succeeding via Steady the whole time).
	for i := 0; i < 4; i++ {
		resp, err := book(t, c)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !strings.HasPrefix(resp.Outputs["addr"], "Steady") {
			t.Fatalf("request %d addr = %q", i, resp.Outputs["addr"])
		}
	}
	if st := c.BreakerState("Wedged"); st != circuit.Open {
		t.Fatalf("breaker state = %v, want open", st)
	}
	if len(opened) != 1 || opened[0] != "Wedged" {
		t.Fatalf("OnBreakerOpen calls = %v", opened)
	}
	wedgedBefore, _, _ := wedged.Counters()

	// While open, the wedged member is refused WITHOUT being invoked.
	for i := 0; i < 3; i++ {
		if _, err := book(t, c); err != nil {
			t.Fatal(err)
		}
	}
	if after, _, _ := wedged.Counters(); after != wedgedBefore {
		t.Fatalf("open breaker still let %d invocations through", after-wedgedBefore)
	}
	a := c.Availability()
	if a.BreakerOpens != 1 || a.BreakerRefusals < 3 {
		t.Fatalf("availability = %+v, want 1 open and >=3 refusals", a)
	}

	// After the cool-down, the half-open probe invocation reaches the
	// (recovered) member and closes the breaker.
	wedged.SetDown(false)
	clk.Advance(2 * time.Minute)
	resp, err := book(t, c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.Outputs["addr"], "Wedged") {
		t.Fatalf("half-open probe addr = %q, want Wedged", resp.Outputs["addr"])
	}
	if st := c.BreakerState("Wedged"); st != circuit.Closed {
		t.Fatalf("breaker state after probe success = %v, want closed", st)
	}
	// Closing the breaker is the recovery: trust restarts toward the
	// prior, and it is counted once.
	if rel := c.History().Snapshot("Wedged").Reliability; rel > qos.PriorReliability {
		t.Fatalf("recovered reliability = %v, above the %v prior", rel, qos.PriorReliability)
	}
	if got := c.Availability().Recoveries; got != 1 {
		t.Fatalf("Recoveries = %d, want 1", got)
	}
}

func TestBreakerRefusalDoesNotBurnRetryBudget(t *testing.T) {
	clk := time.Unix(9000, 0)
	c := New("C", Options{
		Policy:   NewCheapest(),
		Failover: 0, // single delegation
		Breaker: &circuit.Options{
			Window: 2, MinSamples: 2, Threshold: 0.5,
			OpenFor: time.Hour, Now: func() time.Time { return clk },
		},
	})
	dead := hotel("Dead", service.SimulatedOptions{})
	if err := c.Join(&Member{Provider: dead, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(member("Live", 5, service.SimulatedOptions{})); err != nil {
		t.Fatal(err)
	}
	dead.SetDown(true)
	for i := 0; i < 2; i++ {
		_, _ = book(t, c) // trip Dead's breaker (each is the one delegation)
	}
	// Even with Failover=0, an open-breaker refusal is not an attempt:
	// the single delegation goes to Live.
	resp, err := book(t, c)
	if err != nil {
		t.Fatalf("request after breaker opened: %v", err)
	}
	if !strings.HasPrefix(resp.Outputs["addr"], "Live") {
		t.Fatalf("addr = %q, want Live", resp.Outputs["addr"])
	}
}

func TestStartStopHealthChecks(t *testing.T) {
	// The loop runs every OpenFor of real time; the breaker's own clock
	// stands still, so once open it stays open.
	opts := breakerOpts(&manualClock{})
	opts.OpenFor = time.Millisecond
	c := New("C", Options{Breaker: opts})
	down := hotel("Down", service.SimulatedOptions{})
	if err := c.Join(&Member{Provider: down, Cost: 1}); err != nil {
		t.Fatal(err)
	}
	down.SetDown(true)
	c.StartHealthChecks(context.Background())
	c.StartHealthChecks(context.Background()) // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for c.BreakerState("Down") != circuit.Open {
		if time.Now().After(deadline) {
			t.Fatal("background probes never opened the dead member's breaker")
		}
		time.Sleep(time.Millisecond)
	}
	c.StopHealthChecks()
	c.StopHealthChecks() // idempotent
	if got := c.Availability().Probes; got == 0 {
		t.Fatalf("Probes = %d after background loop ran", got)
	}
}
