package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/placement"
	"selfserv/internal/service"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// replicatedChain builds a platform hosting Chain(n) with every service
// registered on all of the given hosts (full replication).
func replicatedChain(t testing.TB, n, hosts int, opts Options) (*Platform, *Composite) {
	t.Helper()
	p := New(opts)
	t.Cleanup(func() { p.Close() })
	workload.RegisterChainProviders(p.Registry(), n, service.SimulatedOptions{})
	for h := 0; h < hosts; h++ {
		host, err := p.AddHost(fmt.Sprintf("replica-%d", h))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			prov, err := p.Registry().Lookup(fmt.Sprintf("svc%d", i))
			if err != nil {
				t.Fatal(err)
			}
			p.RegisterService(host, prov)
		}
	}
	comp, err := p.Deploy(workload.Chain(n))
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	return p, comp
}

func scaleoutCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestReplicatedDeployExecutes is the scale-out happy path: every state
// installed on all three replicas, and executions with assorted tenants
// still produce correct results (all notifications of one instance
// converge on one coordinator object — the AND-free chain would corrupt
// x otherwise only under misrouting, so also run Parallel below).
func TestReplicatedDeployExecutes(t *testing.T) {
	p, comp := replicatedChain(t, 3, 3, Options{})
	ctx := scaleoutCtx(t)
	for i := 1; i <= 3; i++ {
		if got := p.Directory().PeerReplicas("Chain3", 0)[fmt.Sprintf("s%d", i)]; len(got) != 3 {
			t.Fatalf("state s%d replicas = %v, want 3", i, got)
		}
	}
	for i := 0; i < 20; i++ {
		inputs := map[string]string{"x": "0"}
		if i%2 == 1 {
			inputs[engine.TenantVar] = fmt.Sprintf("tenant-%d", i%4)
		}
		out, err := comp.Execute(ctx, inputs)
		if err != nil {
			t.Fatalf("Execute %d: %v", i, err)
		}
		if out["x"] != "3" {
			t.Fatalf("Execute %d: x = %q, want 3", i, out["x"])
		}
	}
}

// replicatedTravel deploys Travel with every state on each of three
// replica hosts — fifteen coordinators — and returns the hosts.
func replicatedTravel(t *testing.T, opts Options) (*Composite, []*engine.Host) {
	opts.Funcs = workload.TravelGuards()
	p := New(opts)
	t.Cleanup(func() { p.Close() })
	sc := workload.Travel()
	if _, err := workload.RegisterTravelProviders(p.Registry(), service.SimulatedOptions{}); err != nil {
		t.Fatal(err)
	}
	var hosts []*engine.Host
	for h := 0; h < 3; h++ {
		host, err := p.AddHost(fmt.Sprintf("replica-%d", h))
		if err != nil {
			t.Fatal(err)
		}
		for _, svc := range sc.Services() {
			prov, err := p.Registry().Lookup(svc)
			if err != nil {
				t.Fatal(err)
			}
			p.RegisterService(host, prov)
		}
		hosts = append(hosts, host)
	}
	comp, err := p.Deploy(sc)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	return comp, hosts
}

// TestReplicatedTravelJoin pins correctness of multi-source
// coordination under replication: the travel scenario's downstream
// states merge notifications from several upstream sources, which only
// works if every source's notification for one instance reaches the
// SAME replica of the target coordinator (the deterministic-routing
// convergence property).
func TestReplicatedTravelJoin(t *testing.T) {
	comp, _ := replicatedTravel(t, Options{})
	ctx := scaleoutCtx(t)
	for i := 0; i < 10; i++ {
		req := workload.TravelRequest("tina", "melbourne", true)
		req[engine.TenantVar] = fmt.Sprintf("t%d", i%3)
		out, err := comp.Execute(ctx, req)
		if err != nil {
			t.Fatalf("Execute %d: %v", i, err)
		}
		if out["flightRef"] != "QF-TIN-MEL" || out["carRef"] != "CAR-TIN" {
			t.Fatalf("Execute %d: outputs = %v", i, out)
		}
	}
}

// TestReplicatedTravelEvictsNothingAtTheCap: the same fifteen
// coordinators, journal-less at a cap of 4 instances each, over the four
// routes and eight tenants the benchmark's travel_replicated mixes. Every
// instance retires — CR's fired or untaken — so no host evicts: a
// coordinator that kept its finished instances would evict one per
// execution past the cap.
func TestReplicatedTravelEvictsNothingAtTheCap(t *testing.T) {
	comp, hosts := replicatedTravel(t, Options{HostOptions: engine.HostOptions{MaxInstancesPerState: 4}})
	ctx := scaleoutCtx(t)
	routes := []string{"sydney", "melbourne", "paris", "tokyo"} // near, far, near, far
	for i := 0; i < 240; i++ {
		req := workload.TravelRequest(fmt.Sprintf("c%d", i), routes[i%len(routes)], true)
		req[engine.TenantVar] = fmt.Sprintf("t%d", i%8)
		out, err := comp.Execute(ctx, req)
		if err != nil {
			t.Fatalf("Execute %d: %v", i, err)
		}
		if far := i%2 == 1; (out["carRef"] != "") != far {
			t.Fatalf("Execute %d (%s): outputs = %v", i, routes[i%len(routes)], out)
		}
	}
	for _, h := range hosts {
		if h.Evicted() != 0 || h.Retired() == 0 {
			t.Errorf("%s: %d evicted, %d retired; want 0 and some", h.Addr(), h.Evicted(), h.Retired())
		}
	}
}

// TestScaleoutSpreadsInstances verifies replicas actually share load:
// with enough instances, every replica host receives coordination
// traffic (rendezvous hashing spreads instance keys across the set).
func TestScaleoutSpreadsInstances(t *testing.T) {
	p, comp := replicatedChain(t, 2, 3, Options{})
	ctx := scaleoutCtx(t)
	for i := 0; i < 30; i++ {
		if _, err := comp.Execute(ctx, map[string]string{"x": "0"}); err != nil {
			t.Fatalf("Execute %d: %v", i, err)
		}
	}
	stats := p.Network().Stats()
	for h := 0; h < 3; h++ {
		addr := fmt.Sprintf("replica-%d", h)
		if stats.Nodes[addr].MsgsIn == 0 {
			t.Fatalf("replica %s received no traffic over 30 instances: %+v", addr, stats.Nodes)
		}
	}
}

// TestScaleoutRoutingNeverRPCs pins the routing-never-RPCs invariant
// with a stats assertion: executing N instances produces EXACTLY the
// same total message count whether a state has 1 replica or 3 — replica
// resolution is a pure local computation, so scale-out adds zero
// messages to the coordination path.
func TestScaleoutRoutingNeverRPCs(t *testing.T) {
	const execs = 10
	run := func(replicas int) int64 {
		p, comp := replicatedChain(t, 3, replicas, Options{})
		ctx := scaleoutCtx(t)
		for i := 0; i < execs; i++ {
			// Fixed instance keys so both topologies route the same work.
			if _, err := comp.ExecuteInstance(ctx, fmt.Sprintf("i%d", i), map[string]string{"x": "0"}); err != nil {
				t.Fatalf("Execute %d: %v", i, err)
			}
		}
		return p.Network().Stats().Total().MsgsIn
	}
	single := run(1)
	tripled := run(3)
	if single == 0 {
		t.Fatal("no traffic measured")
	}
	if single != tripled {
		t.Fatalf("scale-out changed the message count: %d msgs with 1 replica, %d with 3 — routing must be RPC-free", single, tripled)
	}
}

// TestScaleoutDedicatedCell pins tenant isolation end to end: with a
// dedicated cell policy, every instance of the dedicated tenant routes
// to one fixed replica subset and other tenants never touch it.
func TestScaleoutDedicatedCell(t *testing.T) {
	pol := placement.Policy{Dedicated: map[string]int{"visa": 1}}
	p, comp := replicatedChain(t, 2, 3, Options{Placement: pol})
	ctx := scaleoutCtx(t)

	dir := p.Directory()
	cell := map[string]bool{}
	for i := 0; i < 50; i++ {
		addr, ok := dir.RouteV("Chain2", 0, "s1", fmt.Sprintf("i%d", i), "visa")
		if !ok {
			t.Fatal("no route for visa")
		}
		cell[addr] = true
	}
	if len(cell) != 1 {
		t.Fatalf("visa cell of size 1 spread over %d replicas: %v", len(cell), cell)
	}
	for i := 0; i < 50; i++ {
		addr, ok := dir.RouteV("Chain2", 0, "s1", fmt.Sprintf("i%d", i), "acme")
		if !ok {
			t.Fatal("no route for acme")
		}
		if cell[addr] {
			t.Fatalf("tenant acme landed on visa's dedicated replica %s", addr)
		}
	}

	// And the isolated tenant still executes correctly.
	out, err := comp.Execute(ctx, map[string]string{"x": "0", engine.TenantVar: "visa"})
	if err != nil || out["x"] != "2" {
		t.Fatalf("visa execute: %v, %v", out, err)
	}
}

// TestScaleoutTCP runs the replicated chain over real TCP sockets to
// make sure nothing in the replica path assumes the in-memory network.
func TestScaleoutTCP(t *testing.T) {
	net := transport.NewTCP()
	p := New(Options{Network: net})
	t.Cleanup(func() {
		p.Close()
		net.Close()
	})
	workload.RegisterChainProviders(p.Registry(), 2, service.SimulatedOptions{})
	for h := 0; h < 2; h++ {
		host, err := p.AddHost("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 2; i++ {
			prov, err := p.Registry().Lookup(fmt.Sprintf("svc%d", i))
			if err != nil {
				t.Fatal(err)
			}
			p.RegisterService(host, prov)
		}
	}
	comp, err := p.Deploy(workload.Chain(2))
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	ctx := scaleoutCtx(t)
	out, err := comp.Execute(ctx, map[string]string{"x": "0", engine.TenantVar: "t1"})
	if err != nil || out["x"] != "2" {
		t.Fatalf("TCP replicated execute: %v, %v", out, err)
	}
}
