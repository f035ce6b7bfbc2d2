// Package community implements SELF-SERV service communities:
// "containers of alternative services" that describe a desired capability
// without naming a provider. At runtime a community receives operation
// requests and delegates each one to a current member, choosing by "the
// parameters of the request, the characteristics of the members, the
// history of past executions and the status of ongoing executions" (§2).
//
// A Community implements service.Provider, so composite statecharts bind
// to communities exactly as they bind to elementary services — the
// delegation is transparent to coordinators (in the demo, Accommodation
// Booking is a community while the other four are elementary).
//
// One state machine decides whether a member may be picked at all: its
// circuit breaker (Options.Breaker). The invariant is that a member whose
// breaker is open receives no operation. Invocations, probes (ProbeAll)
// and the cool-down all act through that breaker, and a success that
// closes it is the one recovery: the member's reliability is reset toward
// qos.PriorReliability.
package community

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selfserv/internal/circuit"
	"selfserv/internal/expr"
	"selfserv/internal/qos"
	"selfserv/internal/service"
)

// ErrNoMember reports that no member was eligible for a request.
var ErrNoMember = errors.New("community: no eligible member")

// ErrAllDark reports that no member was invoked and at least one
// eligible member was refused by its open circuit breaker. Distinct from
// ErrNoMember so callers can tell "this request matches nobody" (a
// routing problem) from "everyone who could serve it is down" (an
// availability incident worth retrying later).
var ErrAllDark = errors.New("community: every eligible member's breaker is open")

// Member is one alternative provider inside a community.
type Member struct {
	// Provider executes the actual operations.
	Provider service.Provider
	// Cost is the advertised price per invocation (arbitrary units);
	// selection policies may weigh it.
	Cost float64
	// Attributes are static member characteristics ("city"="sydney",
	// "stars"="4"); membership predicates match them against requests.
	Attributes map[string]string
	// Predicate optionally restricts which requests the member can serve:
	// an expression over request parameters (prefixed "req.") and member
	// attributes (bare names). Empty accepts everything. Join compiles it
	// once; later edits to the field are not seen.
	Predicate string
}

// Name returns the member's provider name.
func (m *Member) Name() string { return m.Provider.Name() }

// joined is a member as the community holds it: with the name it joined
// under and the predicate Join compiled.
type joined struct {
	*Member
	name string
	pred *expr.Program // nil when Predicate is empty
}

// eligible evaluates the member's predicate against a request.
func (m *joined) eligible(req service.Request) (bool, error) {
	if m.pred == nil {
		return true, nil
	}
	env := expr.NewMapEnv()
	for k, v := range m.Attributes {
		env.BindText(k, v)
	}
	for k, v := range req.Params {
		env.BindText("req."+k, v)
	}
	ok, err := m.pred.EvalBool(env)
	if err != nil {
		return false, fmt.Errorf("community: member %q predicate: %w", m.Name(), err)
	}
	return ok, nil
}

// Options configure a community. Its QoS history smooths with
// qos.DefaultAlpha and its idempotency-dedup cache (always on: requests
// without an IdempotencyKey pass through untouched) holds
// service.DefaultIdempotencyCapacity outcomes.
type Options struct {
	// Policy selects among eligible members; nil defaults to RoundRobin.
	Policy Policy
	// Failover retries the next-best member at once when one fails, up
	// to Failover additional attempts. Zero reproduces the paper's
	// single delegation.
	Failover int
	// Breaker enables a per-member circuit breaker with these settings;
	// nil disables breakers, and with them probing. A member whose
	// breaker is open is refused instantly (no invocation, no
	// retry-budget consumption) and failover moves on to the next
	// choice. Its OpenFor is also the period of the probe loop
	// StartHealthChecks runs.
	Breaker *circuit.Options
	// OnFailover, if non-nil, observes each failover retry (called with
	// the member the retry is delegated to). Hosts mirror these into
	// transport-level node stats.
	OnFailover func(member string)
	// OnBreakerOpen, if non-nil, observes each member breaker tripping
	// open.
	OnBreakerOpen func(member string)
	// Now is the clock used to time member invocations for the QoS
	// history; nil uses time.Now. Deterministic tests inject a fake.
	Now func() time.Time
}

// Community is a container of alternative services behind one name.
type Community struct {
	name     string
	policy   Policy
	history  *qos.History
	failov   int
	now      func() time.Time
	breakers *circuit.Group // nil when breakers are disabled
	openFor  time.Duration  // the breakers' cool-down, the probe loop's period
	dedup    *service.Idempotent
	onFail   func(member string)

	failovers    atomic.Int64
	breakerOpens atomic.Int64
	refusals     atomic.Int64
	probes       atomic.Int64
	recoveries   atomic.Int64

	mu sync.RWMutex
	// members is sorted by name — the policy's deterministic input order —
	// by Join and Leave, so a delegation neither collects nor sorts names.
	members []*joined
	stop    chan struct{} // the probe loop's; nil when it is not running
	done    chan struct{}
}

// New returns an empty community with the given public name.
func New(name string, opts Options) *Community {
	p := opts.Policy
	if p == nil {
		p = NewRoundRobin()
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	c := &Community{
		name:    name,
		policy:  p,
		history: qos.NewHistory(qos.DefaultAlpha),
		failov:  opts.Failover,
		now:     opts.Now,
		onFail:  opts.OnFailover,
	}
	if opts.Breaker != nil {
		c.breakers = circuit.NewGroup(*opts.Breaker)
		c.openFor = cmp.Or(opts.Breaker.OpenFor, circuit.DefaultOpenFor)
		onOpen := opts.OnBreakerOpen
		c.breakers.OnOpen(func(member string) {
			c.breakerOpens.Add(1)
			if onOpen != nil {
				onOpen(member)
			}
		})
	}
	c.dedup = service.NewIdempotent(coreInvoker{c}, service.DefaultIdempotencyCapacity)
	return c
}

// coreInvoker adapts the community's delegation loop to service.Provider
// so the idempotency-dedup layer can wrap it: Community.Invoke = dedup
// over invokeOnce. Failover retries INSIDE one logical invocation share
// the attempt loop; retries OF the logical invocation (an engine
// re-firing after a delegation timeout, carrying the same
// IdempotencyKey) are absorbed by the dedup layer instead of executing
// twice.
type coreInvoker struct{ c *Community }

func (ci coreInvoker) Name() string         { return ci.c.name }
func (ci coreInvoker) Operations() []string { return ci.c.Operations() }
func (ci coreInvoker) Invoke(ctx context.Context, req service.Request) (service.Response, error) {
	return ci.c.invokeOnce(ctx, req)
}

// Unwrap returns the community's dedup layer, the provider Invoke
// delegates to: crash recovery walks Unwrap chains to the
// service.Idempotent it primes with journaled outcomes, so a re-fired
// round replays a completed booking instead of delegating it again.
func (c *Community) Unwrap() service.Provider { return c.dedup }

// Join adds (or replaces) a member, compiling its predicate. Communities
// are dynamic: providers join and leave at runtime.
func (c *Community) Join(m *Member) error {
	if m == nil || m.Provider == nil {
		return fmt.Errorf("community %q: nil member", c.name)
	}
	j := &joined{Member: m, name: m.Name()}
	if m.Predicate != "" {
		var err error
		if j.pred, err = expr.Compile(m.Predicate); err != nil {
			return fmt.Errorf("community %q: member %q: %w", c.name, m.Name(), err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, found := c.findLocked(j.name); found {
		c.members[i] = j
	} else {
		c.members = slices.Insert(c.members, i, j)
	}
	return nil
}

// Leave removes the named member (no-op when absent).
func (c *Community) Leave(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, found := c.findLocked(name); found {
		c.members = slices.Delete(c.members, i, i+1)
	}
}

// findLocked returns where name is, or belongs, in members. Caller holds
// c.mu.
func (c *Community) findLocked(name string) (int, bool) {
	return slices.BinarySearchFunc(c.members, name, func(j *joined, name string) int { return strings.Compare(j.name, name) })
}

// Members returns the current member names, sorted.
func (c *Community) Members() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, len(c.members))
	for i, m := range c.members {
		names[i] = m.name
	}
	return names
}

// History exposes the community's QoS observations (read-mostly; used by
// experiments and monitoring).
func (c *Community) History() *qos.History { return c.history }

// Name implements service.Provider.
func (c *Community) Name() string { return c.name }

// Operations implements service.Provider: the union of member operations.
func (c *Community) Operations() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	seen := map[string]bool{}
	for _, m := range c.members {
		for _, op := range m.Provider.Operations() {
			seen[op] = true
		}
	}
	ops := make([]string, 0, len(seen))
	for op := range seen {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	return ops
}

// Invoke implements service.Provider: it selects a member via the policy
// and delegates, recording QoS history. A member whose circuit breaker
// refuses is passed over for the next choice without using an attempt.
// With Failover > 0 it retries failed invocations on the next choice at
// once, excluding members already tried.
// Requests carrying an IdempotencyKey are deduplicated first: a retry of
// an already-completed logical invocation replays the cached response.
func (c *Community) Invoke(ctx context.Context, req service.Request) (service.Response, error) {
	return c.dedup.Invoke(ctx, req)
}

// invokeOnce is the delegation loop behind the dedup layer.
func (c *Community) invokeOnce(ctx context.Context, req service.Request) (service.Response, error) {
	tried := map[string]bool{}
	attempts := c.failov + 1
	invoked, refused := 0, 0
	var lastErr error
	for invoked < attempts {
		m, err := c.selectMember(req, tried)
		if err != nil {
			if invoked == 0 && refused > 0 {
				err = fmt.Errorf("%w: %d member(s) for %s.%s in community %q await their breakers' cool-down",
					ErrAllDark, refused, req.Service, req.Operation, c.name)
			}
			if lastErr != nil {
				return service.Response{}, fmt.Errorf("%w (last failure: %v)", err, lastErr)
			}
			return service.Response{}, err
		}
		tried[m.Name()] = true
		if c.breakers != nil {
			if err := c.breakers.Get(m.Name()).Allow(); err != nil {
				// An open breaker refuses instantly: no invocation happened,
				// so this does NOT consume the retry budget — move straight
				// to the next candidate.
				c.refusals.Add(1)
				refused++
				lastErr = fmt.Errorf("member %q: %w", m.Name(), err)
				continue
			}
		}
		if invoked > 0 {
			// A failover retry.
			c.failovers.Add(1)
			if c.onFail != nil {
				c.onFail(m.Name())
			}
		}
		invoked++
		c.history.Begin(m.Name())
		start := c.now()
		resp, err := m.Provider.Invoke(ctx, req)
		c.history.End(m.Name(), c.now().Sub(start), err == nil)
		c.recordOutcome(m.Name(), err == nil)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break // don't burn retries on a cancelled context
		}
	}
	return service.Response{}, fmt.Errorf("community %q: all %d attempt(s) failed: %w", c.name, invoked, lastErr)
}

// recordOutcome feeds one invocation or probe result to the member's
// breaker. A success that closes the breaker is the recovery: trust
// restarts toward the prior, never at the optimistic 1, so flapping does
// not pay (see qos.ResetToPrior).
func (c *Community) recordOutcome(member string, ok bool) {
	if c.breakers == nil {
		return
	}
	b := c.breakers.Get(member)
	if !ok {
		b.Failure()
	} else if b.Success() {
		c.history.ResetToPrior(member)
		c.recoveries.Add(1)
	}
}

// selectMember snapshots eligible members and applies the policy.
func (c *Community) selectMember(req service.Request, exclude map[string]bool) (*Member, error) {
	c.mu.RLock()
	candidates := make([]*Member, 0, len(c.members))
	for _, m := range c.members {
		if exclude[m.name] {
			continue
		}
		ok, err := m.eligible(req)
		if err != nil {
			// A broken predicate disqualifies the member, not the request.
			continue
		}
		if !ok {
			continue
		}
		candidates = append(candidates, m.Member)
	}
	c.mu.RUnlock()
	if len(candidates) == 0 {
		return nil, fmt.Errorf("%w for %s.%s in community %q", ErrNoMember, req.Service, req.Operation, c.name)
	}
	m, err := c.policy.Select(req, candidates, c.history)
	if err != nil {
		return nil, fmt.Errorf("community %q: policy %s: %w", c.name, c.policy.Name(), err)
	}
	return m, nil
}

// Availability is a snapshot of the community's churn-survival counters.
type Availability struct {
	// Failovers counts failover retries (delegations after the first
	// attempt of a logical invocation failed).
	Failovers int64
	// BreakerOpens counts member circuit breakers tripping open.
	BreakerOpens int64
	// BreakerRefusals counts delegations refused instantly by an open
	// breaker.
	BreakerRefusals int64
	// DedupHits counts duplicate invocations absorbed by the idempotency
	// cache (retries that did not re-execute).
	DedupHits int64
	// Probes counts probes a breaker admitted (see ProbeAll).
	Probes int64
	// Recoveries counts breakers closed again by a success, invocation
	// or probe.
	Recoveries int64
}

// Availability returns the community's churn-survival counters.
func (c *Community) Availability() Availability {
	return Availability{
		Failovers:       c.failovers.Load(),
		BreakerOpens:    c.breakerOpens.Load(),
		BreakerRefusals: c.refusals.Load(),
		DedupHits:       c.dedup.Hits(),
		Probes:          c.probes.Load(),
		Recoveries:      c.recoveries.Load(),
	}
}

// BreakerState reports the named member's breaker state (Closed when
// breakers are disabled).
func (c *Community) BreakerState(member string) circuit.State {
	if c.breakers == nil {
		return circuit.Closed
	}
	return c.breakers.Get(member).State()
}
