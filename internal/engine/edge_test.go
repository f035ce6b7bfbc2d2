package engine_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/expr"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// TestHostIgnoresUnknownCoordinator: a notification for a state that is
// not installed must be dropped without crashing the host.
func TestHostIgnoresUnknownCoordinator(t *testing.T) {
	reg := service.NewRegistry()
	net := transport.NewInMem(transport.InMemOptions{Synchronous: true})
	defer net.Close()
	dir := engine.NewDirectory()
	var logged atomic.Int64
	h, err := engine.NewHost(net, "h1", reg, dir, engine.HostOptions{
		Logf: func(string, ...any) { logged.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	err = net.Send(context.Background(), "h1", &message.Message{
		Type: message.TypeNotify, Composite: "ghost", To: "nowhere", From: "a",
	})
	if err != nil {
		t.Fatal(err)
	}
	if logged.Load() == 0 {
		t.Fatal("unknown coordinator message was not logged")
	}
}

// TestHostInvokeEndpoint exercises the remote-invocation surface directly
// (the path the central baseline uses).
func TestHostInvokeEndpoint(t *testing.T) {
	reg := service.NewRegistry()
	echo := service.NewSimulated("Echo", service.SimulatedOptions{}).Echo("op")
	reg.Register(echo)
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, "h1", reg, dir, engine.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	replies := make(chan *message.Message, 1)
	_, err = net.Listen("caller", func(_ context.Context, m *message.Message) { replies <- keep(m) })
	if err != nil {
		t.Fatal(err)
	}

	send := func(to string) *message.Message {
		t.Helper()
		err := net.Send(context.Background(), "h1", &message.Message{
			Type: message.TypeInvoke, Instance: "tok1", To: to,
			ReplyTo: "caller", Vars: map[string]string{"k": "v"},
		})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-replies:
			return m
		case <-time.After(5 * time.Second):
			t.Fatal("no reply")
			return nil
		}
	}

	if m := send("Echo/op"); m.Error != "" || m.Vars["k"] != "v" || m.Instance != "tok1" {
		t.Fatalf("reply = %+v", m)
	}
	if m := send("Echo/none"); m.Error == "" {
		t.Fatal("unknown operation did not error")
	}
	if m := send("Ghost/op"); m.Error == "" {
		t.Fatal("unknown service did not error")
	}
	if m := send("malformed"); m.Error == "" || !strings.Contains(m.Error, "malformed") {
		t.Fatalf("malformed target reply = %+v", m)
	}
}

// TestWrapperDropsForeignAndLateMessages: messages for other composites or
// finished/unknown instances must be ignored.
func TestWrapperDropsForeignAndLateMessages(t *testing.T) {
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 1, service.SimulatedOptions{})
	f := buildFabric(t, workload.Chain(1), reg, nil)

	// Normal run to learn the wrapper address works.
	out, err := f.wrapper.Execute(ctxWithTimeout(t), map[string]string{"x": "0"})
	if err != nil || out["x"] != "1" {
		t.Fatalf("run: %v %v", out, err)
	}
	wAddr := f.wrapper.Addr()
	// Foreign composite.
	if err := f.net.Send(context.Background(), wAddr, &message.Message{
		Type: message.TypeDone, Composite: "Other", Instance: "i1", From: "s1",
	}); err != nil {
		t.Fatal(err)
	}
	// Late done for a finished instance.
	if err := f.net.Send(context.Background(), wAddr, &message.Message{
		Type: message.TypeDone, Composite: "Chain1", Instance: "i1", From: "s1",
	}); err != nil {
		t.Fatal(err)
	}
	// Fault for unknown instance.
	if err := f.net.Send(context.Background(), wAddr, &message.Message{
		Type: message.TypeFault, Composite: "Chain1", Instance: "zzz", From: "s1", Error: "boom",
	}); err != nil {
		t.Fatal(err)
	}
	// The wrapper still works afterwards.
	out, err = f.wrapper.Execute(ctxWithTimeout(t), map[string]string{"x": "5"})
	if err != nil || out["x"] != "6" {
		t.Fatalf("post-noise run: %v %v", out, err)
	}
}

// TestCentralStallsOnEventChart: the central baseline does not implement
// ECA events, so an event-gated chart must stall with a diagnostic rather
// than hang.
func TestCentralStallsOnEventChart(t *testing.T) {
	f := eventFabric(t, "")
	central, err := newCentral(f.net, "central", f.dir, f.plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	_, err = central.Execute(ctxWithTimeout(t), map[string]string{"item": "x"})
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("err = %v, want stall diagnostic", err)
	}
}

// TestP2PUnderLossyNetworkEventuallyFailsCleanly: with heavy loss the
// execution may hang awaiting a dropped message; the wrapper must respect
// the context deadline and return its error rather than block forever.
func TestP2PUnderLossyNetworkEventuallyFailsCleanly(t *testing.T) {
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 4, service.SimulatedOptions{})
	net := transport.NewInMem(transport.InMemOptions{DropRate: 0.8, Seed: 3})
	defer net.Close()
	f := buildFabricOn(t, net, workload.Chain(4), reg, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.wrapper.Execute(ctx, map[string]string{"x": "0"})
	if err == nil {
		t.Skip("execution survived 80% loss; nothing to assert")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline not honoured")
	}
}

// TestDirectory exercises the peer directory API.
func TestDirectory(t *testing.T) {
	d := engine.NewDirectory()
	if _, ok := d.LookupV("C", 0, "s1"); ok {
		t.Fatal("empty directory resolved something")
	}
	d.Set("C", "s1", "addr1")
	d.Set("C", "s2", "addr2")
	d.Set("D", "s1", "other")
	if addr, ok := d.LookupV("C", 0, "s1"); !ok || addr != "addr1" {
		t.Fatalf("Lookup = %q %v", addr, ok)
	}
	peers := d.PeerReplicas("C", 0)
	if len(peers) != 2 || len(peers["s2"]) != 1 || peers["s2"][0] != "addr2" {
		t.Fatalf("PeerReplicas = %v", peers)
	}
	// PeerReplicas returns a copy.
	peers["s1"][0] = "mutated"
	if addr, _ := d.LookupV("C", 0, "s1"); addr != "addr1" {
		t.Fatal("PeerReplicas exposed internal state")
	}
}

// TestReceiverGuardWaitsOnlyForUndefinedVariables pins both directions
// of the receiver-side guard rule. A guard that references a variable
// the bag does not hold yet is "not complete yet": the clause keeps its
// notification and fires once the variable arrives. Any other
// evaluation error is a fault — including a guard FUNCTION whose own
// error text happens to say "undefined variable", which a substring
// match used to mistake for an incomplete bag, stalling the instance
// forever instead of failing it.
func TestReceiverGuardWaitsOnlyForUndefinedVariables(t *testing.T) {
	funcs := engine.Funcs{"check": func([]expr.Value) (expr.Value, error) {
		return expr.Value{}, errors.New("upstream says: undefined variable zork")
	}}
	net := transport.NewInMem(transport.InMemOptions{Synchronous: true})
	defer net.Close()
	fired := make(chan string, 4)
	reg := service.NewRegistry()
	svc := service.NewSimulated("Svc", service.SimulatedOptions{})
	svc.Handle("run", func(_ context.Context, p map[string]string) (map[string]string, error) {
		fired <- p["who"]
		return nil, nil
	})
	reg.Register(svc)
	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, "guard-host", reg, dir, engine.HostOptions{Funcs: funcs})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for state, cond := range map[string]string{"waits": "ready = 1", "faults": "check(1)"} {
		err := engine.InstallTable(h, "C", &routing.Table{
			State: state, Service: "Svc", Operation: "run",
			Inputs:          []statechart.Binding{{Param: "who", Var: "who"}},
			Preconditions:   []routing.Clause{{Sources: []string{"a"}, Condition: cond}},
			Postprocessings: []routing.Target{{To: message.WrapperID}},
		})
		if err != nil {
			t.Fatalf("Install %s: %v", state, err)
		}
	}
	notices := make(chan *message.Message, 4)
	if _, err := net.Listen("guard-wrapper", func(_ context.Context, m *message.Message) { notices <- keep(m) }); err != nil {
		t.Fatal(err)
	}
	dir.Set("C", message.WrapperID, "guard-wrapper")
	notify := func(from, to string, vars map[string]string) {
		t.Helper()
		err := net.Send(context.Background(), "guard-host", &message.Message{
			Type: message.TypeNotify, Composite: "C", Instance: "i1", From: from, To: to, Vars: vars,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	timeout := time.After(10 * time.Second)

	// Missing variable: no firing and no fault; the variable then arrives
	// (from a sender outside the clause, so nothing new is counted) and
	// the kept notification fires the clause.
	notify("a", "waits", map[string]string{"who": "waits"})
	select {
	case who := <-fired:
		t.Fatalf("%s fired on an incomplete bag", who)
	case m := <-notices:
		t.Fatalf("incomplete bag produced %s", m)
	default: // synchronous network: the arrival was fully processed
	}
	notify("late-data", "waits", map[string]string{"ready": "1"})
	select {
	case who := <-fired:
		if who != "waits" {
			t.Fatalf("fired %q, want waits", who)
		}
	case <-timeout:
		t.Fatal("clause never fired after its variable arrived")
	}
	if m := <-notices; m.Type != message.TypeDone {
		t.Fatalf("after firing got %s, want a termination notice", m)
	}

	// Function error mentioning the phrase: a fault reaches the wrapper.
	notify("a", "faults", map[string]string{"who": "faults"})
	select {
	case m := <-notices:
		if m.Type != message.TypeFault || !strings.Contains(m.Error, "zork") {
			t.Fatalf("got %s, want the guard function's fault", m)
		}
	case who := <-fired:
		t.Fatalf("%s fired despite a failing guard", who)
	case <-timeout:
		t.Fatal("failing guard function stalled the instance instead of faulting it")
	}

	// The hub applies the same rule: the function's failure is the
	// execution's error, not a "stalled" diagnostic.
	chain := workload.Chain(1)
	chain.Root.Transitions[1].Condition = "check(1)"
	chainReg := service.NewRegistry()
	workload.RegisterChainProviders(chainReg, 1, service.SimulatedOptions{})
	f := buildFabric(t, chain, chainReg, funcs)
	central, err := newCentral(f.net, "central", f.dir, f.plan, funcs)
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	if _, err := central.Execute(ctxWithTimeout(t), map[string]string{"x": "0"}); err == nil || !strings.Contains(err.Error(), "zork") {
		t.Fatalf("central err = %v, want the guard function's error", err)
	}
}
