package engine_test

import (
	"context"
	"errors"
	"maps"
	"strconv"
	"sync"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/limits"
	"selfserv/internal/service"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// recordingProvider captures the full service.Request of every
// invocation, so tests can assert on the tenant tag and idempotency key
// the engine attaches. Params is borrowed for the call only, so what it
// keeps is a copy taken during the call: the engine clears its map once
// Invoke returns, and a kept map would pass the TenantVar leak checks
// below because it is empty, not because nothing leaked.
type recordingProvider struct {
	name string
	mu   sync.Mutex
	reqs []service.Request
}

func (p *recordingProvider) Name() string         { return p.name }
func (p *recordingProvider) Operations() []string { return []string{"run"} }
func (p *recordingProvider) Requests() []service.Request {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]service.Request(nil), p.reqs...)
}

func (p *recordingProvider) Invoke(_ context.Context, req service.Request) (service.Response, error) {
	req.Params = maps.Clone(req.Params)
	p.mu.Lock()
	p.reqs = append(p.reqs, req)
	p.mu.Unlock()
	x, _ := strconv.Atoi(req.Params["x"])
	return service.Response{Outputs: map[string]string{"x": strconv.Itoa(x + 1)}}, nil
}

// TestTenantAndIdempotencyKeyReachProviders: the TenantVar input rides
// the composite's dataflow into every firing's service.Request, each
// firing carries a unique idempotency key naming the logical invocation,
// and the reserved variable never leaks into provider params or the
// result document.
func TestTenantAndIdempotencyKeyReachProviders(t *testing.T) {
	const n = 3
	reg := service.NewRegistry()
	provs := make([]*recordingProvider, n)
	for i := 0; i < n; i++ {
		provs[i] = &recordingProvider{name: "svc" + strconv.Itoa(i+1)}
		reg.Register(provs[i])
	}
	f := buildFabric(t, workload.Chain(n), reg, nil)

	out, err := f.wrapper.Execute(ctxWithTimeout(t), map[string]string{
		"x": "0", engine.TenantVar: "acme",
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if out["x"] != strconv.Itoa(n) {
		t.Fatalf("x = %q, want %d", out["x"], n)
	}
	if _, leaked := out[engine.TenantVar]; leaked {
		t.Fatalf("reserved %s leaked into the result document: %v", engine.TenantVar, out)
	}

	keys := map[service.Key]bool{}
	for _, p := range provs {
		reqs := p.Requests()
		if len(reqs) != 1 {
			t.Fatalf("%s invoked %d times, want 1", p.name, len(reqs))
		}
		req := reqs[0]
		if req.Tenant != "acme" {
			t.Errorf("%s saw tenant %q, want acme", p.name, req.Tenant)
		}
		if req.IdempotencyKey == (service.Key{}) {
			t.Errorf("%s saw empty idempotency key", p.name)
		}
		if keys[req.IdempotencyKey] {
			t.Errorf("idempotency key %v reused across firings", req.IdempotencyKey)
		}
		keys[req.IdempotencyKey] = true
		if _, leaked := req.Params[engine.TenantVar]; leaked {
			t.Errorf("%s params contain reserved %s: %v", p.name, engine.TenantVar, req.Params)
		}
	}
}

// TestWrapperShedsRateLimitedTenant: a tenant past its bucket is shed at
// wrapper admission — before any instance state exists — while other
// tenants keep executing, and the shed surfaces in transport stats.
func TestWrapperShedsRateLimitedTenant(t *testing.T) {
	const n = 2
	reg := service.NewRegistry()
	for i := 0; i < n; i++ {
		reg.Register(&recordingProvider{name: "svc" + strconv.Itoa(i+1)})
	}
	net := transport.NewInMem(transport.InMemOptions{})
	t.Cleanup(func() { net.Close() })
	// A frozen clock never refills the bucket: tenant "noisy" gets
	// exactly one admission, everyone else is unlimited.
	now := time.Unix(9000, 0)
	f := buildFabricWith(t, net, workload.Chain(n), reg, engine.HostOptions{Limits: limits.New(limits.Options{
		PerTenant: map[string]limits.Limit{"noisy": {Rate: 0.001, Burst: 1}},
		Now:       func() time.Time { return now },
	})})

	ctx := ctxWithTimeout(t)
	if _, err := f.wrapper.Execute(ctx, map[string]string{"x": "0", engine.TenantVar: "noisy"}); err != nil {
		t.Fatalf("first noisy execution: %v", err)
	}
	if _, err := f.wrapper.Execute(ctx, map[string]string{"x": "0", engine.TenantVar: "noisy"}); !errors.Is(err, limits.ErrShed) {
		t.Fatalf("second noisy execution = %v, want ErrShed", err)
	}
	// Other tenants (and untagged anonymous traffic) are unaffected.
	if _, err := f.wrapper.Execute(ctx, map[string]string{"x": "0", engine.TenantVar: "quiet"}); err != nil {
		t.Fatalf("quiet tenant execution: %v", err)
	}
	if _, err := f.wrapper.Execute(ctx, map[string]string{"x": "0"}); err != nil {
		t.Fatalf("anonymous execution: %v", err)
	}
	if got := net.Stats().Nodes[f.wrapper.Addr()].ShedRequests; got != 1 {
		t.Fatalf("ShedRequests at wrapper = %d, want 1", got)
	}
}

// TestCentralThreadsTenantThroughInvokes: the centralized baseline tags
// its TypeInvoke messages with the tenant, the serving host moves the
// tag into Request.Tenant, and the reserved variable never reaches the
// provider's params.
func TestCentralThreadsTenantThroughInvokes(t *testing.T) {
	const n = 2
	reg := service.NewRegistry()
	provs := make([]*recordingProvider, n)
	for i := 0; i < n; i++ {
		provs[i] = &recordingProvider{name: "svc" + strconv.Itoa(i+1)}
		reg.Register(provs[i])
	}
	net := transport.NewInMem(transport.InMemOptions{})
	t.Cleanup(func() { net.Close() })
	f := buildFabricOn(t, net, workload.Chain(n), reg, nil)

	central, err := newCentral(net, "central-tenant", f.dir, f.plan, nil)
	if err != nil {
		t.Fatalf("NewCentral: %v", err)
	}
	t.Cleanup(func() { central.Close() })

	out, err := central.Execute(ctxWithTimeout(t), map[string]string{
		"x": "0", engine.TenantVar: "acme",
	})
	if err != nil {
		t.Fatalf("central Execute: %v", err)
	}
	if out["x"] != strconv.Itoa(n) {
		t.Fatalf("x = %q, want %d", out["x"], n)
	}
	for _, p := range provs {
		for _, req := range p.Requests() {
			if req.Tenant != "acme" {
				t.Errorf("%s saw tenant %q, want acme", p.name, req.Tenant)
			}
			if _, leaked := req.Params[engine.TenantVar]; leaked {
				t.Errorf("%s params contain reserved %s", p.name, engine.TenantVar)
			}
			if req.IdempotencyKey == (service.Key{}) {
				t.Errorf("%s: remote invoke carried no idempotency key", p.name)
			}
		}
	}
}
