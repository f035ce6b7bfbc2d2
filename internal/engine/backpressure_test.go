package engine_test

// Engine-level half of the flow-control contract: transport
// backpressure SURFACES instead of silently dropping a round. A full
// queue at a peer fails the wrapper's start phase (the caller sees the
// transport error) or faults the instance (a coordinator that cannot
// notify its successor reports it), and a refused destination never
// stops the rest of a round's fan-out.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/message"
	"selfserv/internal/service"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// tightFlow is a 1-frame queue whose full-queue wait is short, so a send
// toward a wedged peer fails fast with ErrSendDeadline.
func tightFlow() transport.FlowOptions {
	return transport.FlowOptions{QueueLen: 1, SendDeadline: 50 * time.Millisecond}
}

// wedge stalls addr and fills its 1-frame queue, so the next send
// toward it fails with ErrSendDeadline.
func wedge(t *testing.T, net *transport.InMem, addr string) {
	t.Helper()
	net.Hold(addr)
	filler := &message.Message{Type: message.TypeNotify, Composite: "filler"}
	if err := net.Send(ctxWithTimeout(t), addr, filler); err != nil {
		t.Fatalf("pre-filling %s: %v", addr, err)
	}
}

func TestExecuteSurfacesStartBackpressure(t *testing.T) {
	net := transport.NewInMem(transport.InMemOptions{Flow: tightFlow()})
	t.Cleanup(func() { net.Close() })
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 2, service.SimulatedOptions{})
	f := buildFabricOn(t, net, workload.Chain(2), reg, nil)

	// Wedge the entry state's host: the wrapper's start flush must
	// refuse the execution with the transport error, not hang or drop.
	wedge(t, net, f.hosts["svc1"].Addr())

	_, err := f.wrapper.Execute(ctxWithTimeout(t), map[string]string{"x": "0"})
	if !errors.Is(err, transport.ErrSendDeadline) {
		t.Fatalf("Execute with a wedged entry host = %v, want ErrSendDeadline surfaced", err)
	}
}

func TestCoordinatorBackpressureFaultsInstance(t *testing.T) {
	net := transport.NewInMem(transport.InMemOptions{Flow: tightFlow()})
	t.Cleanup(func() { net.Close() })
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 2, service.SimulatedOptions{})
	f := buildFabricOn(t, net, workload.Chain(2), reg, nil)

	// Wedge the SECOND state's host: the first coordinator fires fine,
	// then cannot deliver its notification — the instance must fault
	// with the backpressure cause, not stall until the caller times out.
	wedge(t, net, f.hosts["svc2"].Addr())

	_, err := f.wrapper.Execute(ctxWithTimeout(t), map[string]string{"x": "0"})
	if !errors.Is(err, engine.ErrInstanceFault) {
		t.Fatalf("Execute = %v, want an instance fault", err)
	}
	// The cause crossed the wire as fault text, so match on it.
	if !strings.Contains(err.Error(), "send deadline exceeded") {
		t.Fatalf("fault does not carry the backpressure cause: %v", err)
	}
}

func TestStartFanContinuesPastWedgedBranch(t *testing.T) {
	net := transport.NewInMem(transport.InMemOptions{Flow: tightFlow()})
	t.Cleanup(func() { net.Close() })
	reg := service.NewRegistry()
	workload.RegisterParallelProviders(reg, 2, service.SimulatedOptions{})
	f := buildFabricOn(t, net, workload.Parallel(2), reg, nil)

	// Wedge ONE branch's host; the other must still get its start
	// notification even though the round reports the error — one slow
	// peer stalls only its own traffic.
	healthy := f.hosts["svc2"].Addr()
	before := net.Stats().Nodes[healthy].MsgsIn
	wedge(t, net, f.hosts["svc1"].Addr())

	_, err := f.wrapper.Execute(ctxWithTimeout(t), map[string]string{"x": "0"})
	if !errors.Is(err, transport.ErrSendDeadline) {
		t.Fatalf("Execute = %v, want ErrSendDeadline surfaced", err)
	}
	after := net.Stats().Nodes[healthy].MsgsIn
	if after <= before {
		t.Fatalf("healthy branch received no start notification (MsgsIn %d -> %d): "+
			"a wedged destination stopped the whole fan", before, after)
	}
}
