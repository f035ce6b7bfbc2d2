package service

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// SimulatedOptions configure a Simulated provider's performance and
// failure envelope. The paper's demo ran against live toy services; the
// reproduction substitutes deterministic simulated ones so experiments
// are scriptable (see DESIGN.md, substitution table).
type SimulatedOptions struct {
	// BaseLatency is the minimum service time per invocation.
	BaseLatency time.Duration
	// Jitter adds a uniformly random extra in [0, Jitter).
	Jitter time.Duration
	// FailRate in [0,1) makes that fraction of invocations return an
	// error (after the latency has elapsed, like a real timeout/fault).
	FailRate float64
	// Seed drives jitter and failures reproducibly. Zero uses a fixed
	// default.
	Seed int64
	// MaxConcurrent caps in-flight invocations: callers beyond the cap
	// queue (FIFO-ish, via a semaphore) until a slot frees. Zero means
	// unlimited. This models a real provider's capacity — a thread pool,
	// a connection limit — and is what makes per-replica throughput
	// finite in the scale-out experiments: one replica saturates at
	// MaxConcurrent/BaseLatency invocations per second, N replicas at N
	// times that.
	MaxConcurrent int
}

// Simulated is a configurable in-process elementary service.
type Simulated struct {
	name string
	opts SimulatedOptions
	sem  chan struct{} // nil when MaxConcurrent == 0

	mu       sync.Mutex
	ops      map[string]Func
	rng      *rand.Rand
	invoked  int64
	failures int64
	inflight int64
	down     bool
}

// NewSimulated returns a provider with no operations; add them with
// Handle.
func NewSimulated(name string, opts SimulatedOptions) *Simulated {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	s := &Simulated{
		name: name,
		opts: opts,
		ops:  map[string]Func{},
		rng:  rand.New(rand.NewSource(seed)),
	}
	if opts.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, opts.MaxConcurrent)
	}
	return s
}

// Handle registers fn as the implementation of operation op and returns
// the provider for chaining.
func (s *Simulated) Handle(op string, fn Func) *Simulated {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops[op] = fn
	return s
}

// Echo registers an operation that copies its inputs to its outputs,
// useful for wiring tests.
func (s *Simulated) Echo(op string) *Simulated {
	return s.Handle(op, func(_ context.Context, params map[string]string) (map[string]string, error) {
		out := make(map[string]string, len(params))
		for k, v := range params {
			out[k] = v
		}
		return out, nil
	})
}

// Name implements Provider.
func (s *Simulated) Name() string { return s.name }

// Operations implements Provider.
func (s *Simulated) Operations() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := make([]string, 0, len(s.ops))
	for op := range s.ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	return ops
}

// SetDown flips the provider's kill switch: while down, every Invoke
// and Probe fails fast with ErrProviderDown (no latency is simulated —
// a dead process doesn't sleep). This is the chaos lever availability
// experiments use to model provider death and recovery mid-composite.
func (s *Simulated) SetDown(down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = down
}

// Probe implements the community's probe contract (see community
// package's Prober): it succeeds instantly unless the provider is down.
func (s *Simulated) Probe(context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return fmt.Errorf("service %s: %w", s.name, ErrProviderDown)
	}
	return nil
}

// Invoke implements Provider: it sleeps for the configured service time,
// then either fails (per FailRate) or runs the operation handler.
func (s *Simulated) Invoke(ctx context.Context, req Request) (Response, error) {
	s.mu.Lock()
	if s.down {
		s.invoked++
		s.failures++
		s.mu.Unlock()
		return Response{}, fmt.Errorf("service %s.%s: %w", s.name, req.Operation, ErrProviderDown)
	}
	fn := s.ops[req.Operation]
	var extra time.Duration
	if s.opts.Jitter > 0 {
		extra = time.Duration(s.rng.Int63n(int64(s.opts.Jitter)))
	}
	fail := s.opts.FailRate > 0 && s.rng.Float64() < s.opts.FailRate
	s.invoked++
	s.inflight++
	s.mu.Unlock()
	// A plain decrement after serve returns, not a defer: a deferred
	// closure over s is a heap object per call, on every hop of every
	// execution.
	resp, err := s.serve(ctx, req, fn, extra, fail)
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
	return resp, err
}

// serve is the part of Invoke that runs while the call counts as in
// flight; fn is nil for an operation the provider does not have.
func (s *Simulated) serve(ctx context.Context, req Request, fn Func, extra time.Duration, fail bool) (Response, error) {
	if fn == nil {
		return Response{}, fmt.Errorf("%w: %s.%s", ErrUnknownOperation, s.name, req.Operation)
	}
	if s.sem != nil {
		// Capacity gate BEFORE the service time: a saturated provider
		// queues new work rather than serving everything concurrently.
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			return Response{}, fmt.Errorf("service %s.%s: %w", s.name, req.Operation, ctx.Err())
		}
	}
	if d := s.opts.BaseLatency + extra; d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return Response{}, fmt.Errorf("service %s.%s: %w", s.name, req.Operation, ctx.Err())
		}
	}
	if fail {
		s.mu.Lock()
		s.failures++
		s.mu.Unlock()
		return Response{}, fmt.Errorf("service %s.%s: simulated fault", s.name, req.Operation)
	}
	out, err := fn(ctx, req.Params)
	if err != nil {
		s.mu.Lock()
		s.failures++
		s.mu.Unlock()
		return Response{}, fmt.Errorf("service %s.%s: %w", s.name, req.Operation, err)
	}
	return Response{Outputs: out}, nil
}

// Counters reports lifetime invocation/failure counts and the number of
// in-flight invocations (the provider's instantaneous load).
func (s *Simulated) Counters() (invoked, failures, inflight int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.invoked, s.failures, s.inflight
}
