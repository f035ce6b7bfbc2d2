package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"selfserv/internal/service"
)

// SetDrainDeadline lowers the redeploy drain deadline for one test, so a
// straggler is failed in milliseconds instead of 30 s. Call it before the
// test builds its platforms: the restore runs after their Close.
func SetDrainDeadline(t testing.TB, d time.Duration) {
	old := drainTimeout
	drainTimeout = d
	t.Cleanup(func() { drainTimeout = old })
}

// AsProvider exposes the composite as a service.Provider with a single
// "execute" operation, so composites can be components of other
// composites (hierarchical composition).
func (c *Composite) AsProvider() service.Provider {
	return &compositeProvider{c: c}
}

type compositeProvider struct {
	c *Composite
}

func (p *compositeProvider) Name() string { return p.c.Name() }

func (p *compositeProvider) Operations() []string { return []string{"execute"} }

func (p *compositeProvider) Invoke(ctx context.Context, req service.Request) (service.Response, error) {
	if req.Operation != "execute" {
		return service.Response{}, fmt.Errorf("%w: %s.%s (composites expose 'execute')",
			service.ErrUnknownOperation, p.c.Name(), req.Operation)
	}
	out, err := p.c.Execute(ctx, req.Params)
	if err != nil {
		return service.Response{}, err
	}
	return service.Response{Outputs: out}, nil
}
