// Package limits implements per-tenant token-bucket rate limits and load
// shedding: the traffic-isolation half of the availability-under-churn
// story. A shared tier serves many tenants; without admission control,
// one abusive caller can saturate the hosts' bounded queues and starve
// everyone (the noisy-neighbour failure). A Limiter gives every tenant
// its own token bucket — refilled continuously at Rate tokens/second up
// to Burst — and SHEDS (refuses immediately, ErrShed) requests that find
// the bucket empty, so overload surfaces as fast, attributable rejections
// of the offending tenant instead of queueing delay for all of them.
//
// Like package circuit, the clock is injectable (Options.Now), so refill
// arithmetic is exact and the contract tests never sleep.
package limits

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrShed reports a request refused by admission control: the tenant's
// token bucket was empty. The request was NOT queued; callers retry
// later or propagate the rejection.
var ErrShed = errors.New("limits: rate limit exceeded")

// DefaultTenant is the bucket key used for requests carrying no tenant
// tag: anonymous traffic shares one bucket rather than bypassing
// admission control.
const DefaultTenant = "$anonymous"

// Limit is one tenant's bucket shape.
type Limit struct {
	// Rate is the sustained admission rate, in requests per second.
	// Zero or negative means unlimited (no bucket, never shed).
	Rate float64
	// Burst is the bucket capacity: how many requests may be admitted
	// instantaneously after an idle period. Zero means max(Rate, 1).
	Burst float64
}

// withDefaults fills the burst default.
func (l Limit) withDefaults() Limit {
	if l.Burst <= 0 {
		l.Burst = l.Rate
		if l.Burst < 1 {
			l.Burst = 1
		}
	}
	return l
}

// Options configure a Limiter.
type Options struct {
	// Default is the bucket shape for tenants without an override.
	// Default.Rate <= 0 disables limiting for them entirely.
	Default Limit
	// PerTenant overrides the bucket shape for specific tenants (e.g. a
	// "visa"-sized tenant buys a bigger bucket; an abusive one is
	// clamped). A Rate <= 0 override makes that tenant unlimited.
	PerTenant map[string]Limit
	// Now is the clock; nil means time.Now.
	Now func() time.Time
}

// Limiter is a set of per-tenant token buckets. Buckets are created
// lazily on a tenant's first request. Safe for concurrent use.
type Limiter struct {
	opts Options

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	limit  Limit
	tokens float64
	last   time.Time
}

// New returns a Limiter. A nil-equivalent Options (Default.Rate <= 0, no
// overrides) admits everything — limiting is strictly opt-in.
func New(opts Options) *Limiter {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Limiter{opts: opts, buckets: map[string]*bucket{}}
}

// limitFor resolves the bucket shape for tenant.
func (l *Limiter) limitFor(tenant string) Limit {
	if lim, ok := l.opts.PerTenant[tenant]; ok {
		return lim
	}
	return l.opts.Default
}

// Allow admits or sheds one request from tenant (empty means
// DefaultTenant). nil admits; an ErrShed-wrapped error (naming the
// tenant) sheds.
func (l *Limiter) Allow(tenant string) error {
	if l == nil {
		return nil // a nil *Limiter admits everything: callers don't branch
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	lim := l.limitFor(tenant)
	if lim.Rate <= 0 {
		return nil
	}
	lim = lim.withDefaults()
	now := l.opts.Now()

	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[tenant]
	if !ok {
		b = &bucket{limit: lim, tokens: lim.Burst, last: now}
		l.buckets[tenant] = b
	}
	// Continuous refill since the last decision, capped at the burst.
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.limit.Rate
		if b.tokens > b.limit.Burst {
			b.tokens = b.limit.Burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return fmt.Errorf("%w: tenant %q over %.3g req/s (burst %.3g)",
			ErrShed, tenant, b.limit.Rate, b.limit.Burst)
	}
	b.tokens--
	return nil
}
