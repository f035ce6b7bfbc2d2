package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"selfserv/internal/message"
	"selfserv/internal/service"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// failListenNet wraps a Network and fails Listen for addresses matching
// a substring — the lever for making wrapper creation fail mid-Deploy
// while everything else (host listeners, the first wrapper) works.
type failListenNet struct {
	transport.Network
	failSubstr string
}

func (f *failListenNet) Listen(addr string, h transport.Handler) (transport.Endpoint, error) {
	if f.failSubstr != "" && strings.Contains(addr, f.failSubstr) {
		return nil, fmt.Errorf("injected listen failure for %q", addr)
	}
	return f.Network.Listen(addr, h)
}

// TestRedeployFailureKeepsPreviousLive pins the redeploy-atomicity fix:
// when a redeploy fails at wrapper creation, the previous composite
// must stay registered, routable, and executable — not a closed wrapper
// left in the map.
func TestRedeployFailureKeepsPreviousLive(t *testing.T) {
	inner := transport.NewInMem(transport.InMemOptions{})
	net := &failListenNet{Network: inner}
	p := New(Options{Network: net})
	t.Cleanup(func() {
		p.Close()
		inner.Close()
	})

	workload.RegisterChainProviders(p.Registry(), 2, service.SimulatedOptions{})
	h, err := p.AddHost("host-1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		prov, err := p.Registry().Lookup(fmt.Sprintf("svc%d", i))
		if err != nil {
			t.Fatal(err)
		}
		p.RegisterService(h, prov)
	}

	comp1, err := p.Deploy(workload.Chain(2))
	if err != nil {
		t.Fatalf("first deploy: %v", err)
	}
	wrapperAddr, _ := p.Directory().LookupV("Chain2", 0, message.WrapperID)

	// Second wrapper gets sequence 2: make its listen fail.
	net.failSubstr = "wrapper/Chain2/2"
	if _, err := p.Deploy(workload.Chain(2)); err == nil {
		t.Fatal("redeploy with a failing wrapper listen succeeded")
	}

	// The previous composite is still the registered one, its wrapper is
	// still the published one, and it still executes.
	got, ok := p.Composite("Chain2")
	if !ok || got != comp1 {
		t.Fatalf("composites map lost the previous deployment: %v, %v", got, ok)
	}
	if addr, _ := p.Directory().LookupV("Chain2", 0, message.WrapperID); addr != wrapperAddr {
		t.Fatalf("wrapper address changed across failed redeploy: %q -> %q", wrapperAddr, addr)
	}
	out, err := comp1.Execute(context.Background(), map[string]string{"x": "0"})
	if err != nil || out["x"] != "2" {
		t.Fatalf("previous composite no longer executes: %v, %v", out, err)
	}

	// And once the injected fault clears, redeploy succeeds and replaces.
	net.failSubstr = ""
	comp3, err := p.Deploy(workload.Chain(2))
	if err != nil {
		t.Fatalf("redeploy after fault cleared: %v", err)
	}
	if got, _ := p.Composite("Chain2"); got != comp3 {
		t.Fatal("successful redeploy did not replace the composite")
	}
	out, err = comp3.Execute(context.Background(), map[string]string{"x": "0"})
	if err != nil || out["x"] != "2" {
		t.Fatalf("replacement composite: %v, %v", out, err)
	}
}

// TestPlatformUseAfterClose pins the Close contract: AddHost and Deploy
// reject with ErrClosed, RegisterService is a no-op, Close is
// idempotent — no resurrection, no leaked hosts.
func TestPlatformUseAfterClose(t *testing.T) {
	p := New(Options{})
	workload.RegisterChainProviders(p.Registry(), 1, service.SimulatedOptions{})
	h, err := p.AddHost("host-1")
	if err != nil {
		t.Fatal(err)
	}
	prov, err := p.Registry().Lookup("svc1")
	if err != nil {
		t.Fatal(err)
	}
	p.RegisterService(h, prov)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if _, err := p.AddHost("host-2"); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddHost after Close: err = %v, want ErrClosed", err)
	}
	if _, err := p.Deploy(workload.Chain(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Deploy after Close: err = %v, want ErrClosed", err)
	}
	p.RegisterService(h, prov) // must not panic or resurrect anything
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
