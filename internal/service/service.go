// Package service defines the component-service abstraction of SELF-SERV:
// an elementary service is "an individual Web-accessible application";
// this package provides the Provider interface every invokable thing
// implements (simulated elementary services, service communities, and
// remote SOAP-bound services alike), a thread-safe registry, and a
// configurable simulated provider used to stand in for the paper's real
// airline/hotel/attraction services.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Request asks a provider to execute one operation.
type Request struct {
	// Service is the provider name the caller believes it is invoking
	// (informational; providers may serve several aliases).
	Service string
	// Operation is the operation name.
	Operation string
	// Params carries the text-encoded input parameters; nil reads as
	// empty. It is BORROWED: the caller owns the map and may overwrite
	// or clear it as soon as Invoke returns — the engine binds every
	// firing of a worker into the same map — so a provider reads it
	// during the call and never writes it, keeps it, or returns it as
	// its Outputs. Build outputs in a fresh map, and copy what must
	// outlive the call.
	Params map[string]string
	// Tenant tags the request with the calling tenant for per-tenant
	// traffic controls (rate limits, load shedding; see package limits).
	// Empty means anonymous. Providers treat it as read-only metadata;
	// it never participates in operation semantics.
	Tenant string
	// IdempotencyKey uniquely identifies the LOGICAL invocation this
	// request belongs to, across retries: a failover retry of the same
	// composite firing carries the same key, so dedup layers (see
	// NewIdempotent, community delegation) can recognize and suppress a
	// duplicate execution. The zero Key disables deduplication for the
	// request.
	IdempotencyKey Key
}

// Key names one logical invocation: a coordinator's firing number Seq of
// State within Instance of Composite. It is comparable, so dedup layers
// key their maps by it, and filling one formats nothing. The zero Key
// means "no key". A caller with no firing number (the centralized
// baseline's invoke) leaves Seq zero and makes Instance unique per
// invocation instead.
type Key struct {
	Composite, Instance, State string
	Seq                        uint64
}

// Response carries an operation's outputs.
type Response struct {
	// Outputs maps output parameter names to text-encoded values.
	Outputs map[string]string
}

// Provider executes operations. Implementations must be safe for
// concurrent use.
type Provider interface {
	// Name returns the provider's registered name.
	Name() string
	// Operations lists the operation names the provider accepts, sorted.
	Operations() []string
	// Invoke executes one operation.
	Invoke(ctx context.Context, req Request) (Response, error)
}

// ErrUnknownOperation reports an Invoke with an operation the provider
// does not implement.
var ErrUnknownOperation = errors.New("service: unknown operation")

// ErrUnknownService reports a registry lookup miss.
var ErrUnknownService = errors.New("service: unknown service")

// ErrProviderDown reports an invocation or probe against a provider whose
// process is (simulated as) dead; see Simulated.SetDown.
var ErrProviderDown = errors.New("service: provider down")

// Registry is a thread-safe name -> Provider directory, the in-process
// equivalent of the paper's "pool of services".
type Registry struct {
	mu        sync.RWMutex
	providers map[string]Provider
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{providers: map[string]Provider{}}
}

// Register adds p under its name. Re-registering a name replaces the
// previous provider (services upgrade in place).
func (r *Registry) Register(p Provider) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.providers[p.Name()] = p
}

// Lookup resolves a provider by name.
func (r *Registry) Lookup(name string) (Provider, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.providers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownService, name)
	}
	return p, nil
}

// Names returns all registered provider names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.providers))
	for n := range r.providers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Invoke is a convenience that resolves req.Service and invokes it.
func (r *Registry) Invoke(ctx context.Context, req Request) (Response, error) {
	p, err := r.Lookup(req.Service)
	if err != nil {
		return Response{}, err
	}
	return p.Invoke(ctx, req)
}

// Func adapts a plain function to an operation implementation.
type Func func(ctx context.Context, params map[string]string) (map[string]string, error)
