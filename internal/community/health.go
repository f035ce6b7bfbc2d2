package community

import (
	"context"
	"math/rand"
	"slices"
	"time"

	"selfserv/internal/service"
)

// probeTimeout bounds each health probe.
const probeTimeout = time.Second

// Prober is the optional health-probe contract a member provider may
// implement (service.Simulated does): a cheap liveness check that does
// NOT execute an operation. Providers without it are probed optimistically
// — a probe succeeds, and real invocations trip their breaker again if
// they are still broken.
type Prober interface {
	Probe(ctx context.Context) error
}

// ProbeAll runs one deterministic probe round over every current member
// (no-op when breakers are disabled). A probe is a call its member's
// breaker admits like any other: always when closed, and as the one
// half-open call once OpenFor has passed; an open breaker refuses it. Its
// outcome feeds the breaker as an invocation's would, so a probe that
// closes a breaker is a recovery. The background loop calls ProbeAll on
// each tick; contract tests call it directly.
func (c *Community) ProbeAll(ctx context.Context) {
	if c.breakers == nil {
		return
	}
	c.mu.RLock()
	members := slices.Clone(c.members) // in name order
	c.mu.RUnlock()
	for _, m := range members {
		if c.breakers.Get(m.name).Allow() != nil {
			continue
		}
		c.probes.Add(1)
		c.recordOutcome(m.name, probe(ctx, m.Provider) == nil)
	}
}

// probe runs the provider's Probe (optimistic success for providers
// without one) under the probe timeout.
func probe(ctx context.Context, p service.Provider) error {
	pr, ok := p.(Prober)
	if !ok {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	return pr.Probe(ctx)
}

// StartHealthChecks launches the background probe loop (no-op when
// breakers are disabled or the loop is running). It runs ProbeAll every
// breaker OpenFor, plus a random extra of up to a tenth of it, so a
// fleet of hosts does not probe in lockstep. Stop with StopHealthChecks.
func (c *Community) StartHealthChecks(ctx context.Context) {
	if c.breakers == nil {
		return
	}
	c.mu.Lock()
	if c.stop != nil {
		c.mu.Unlock()
		return // already running
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.stop, c.done = stop, done
	c.mu.Unlock()

	jitter := rand.New(rand.NewSource(c.now().UnixNano()))
	go func() {
		defer close(done)
		for {
			t := time.NewTimer(c.openFor + time.Duration(jitter.Int63n(int64(c.openFor/10)+1)))
			select {
			case <-t.C:
				c.ProbeAll(ctx)
			case <-stop:
				t.Stop()
				return
			case <-ctx.Done():
				t.Stop()
				return
			}
		}
	}()
}

// StopHealthChecks stops the background probe loop and waits for it to
// exit (no-op when not running).
func (c *Community) StopHealthChecks() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
