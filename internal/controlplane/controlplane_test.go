package controlplane

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/hostapi"
	"selfserv/internal/message"
	"selfserv/internal/placement"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// daemon simulates one hostd process: a coordinator host on the shared
// in-memory network plus its own admin HTTP server and directory.
type daemon struct {
	host  *engine.Host
	dir   *engine.Directory
	reg   *service.Registry
	admin *httptest.Server
}

// incr is the chain workload's step: x -> x+1.
func incr(_ context.Context, params map[string]string) (map[string]string, error) {
	x, err := strconv.Atoi(params["x"])
	if err != nil {
		return nil, fmt.Errorf("bad x %q: %w", params["x"], err)
	}
	return map[string]string{"x": strconv.Itoa(x + 1)}, nil
}

// newDaemon's registry holds EXACTLY svc<svcIndex> — each daemon is one
// component service's host, the way a real fleet partitions providers.
func newDaemon(t *testing.T, net transport.Network, addr string, svcIndex int) *daemon {
	return newDaemonServing(t, net, addr, svcIndex, incr)
}

// newDaemonServing is newDaemon with svc<svcIndex>'s step spelled out.
func newDaemonServing(t *testing.T, net transport.Network, addr string, svcIndex int, run service.Func) *daemon {
	t.Helper()
	reg := service.NewRegistry()
	s := service.NewSimulated(fmt.Sprintf("svc%d", svcIndex), service.SimulatedOptions{})
	s.Handle("run", run)
	reg.Register(s)
	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, addr, reg, dir, engine.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	admin := httptest.NewServer(hostapi.NewServer(hostapi.NewNode(h, dir, reg.Names, nil)))
	t.Cleanup(admin.Close)
	return &daemon{host: h, dir: dir, reg: reg, admin: admin}
}

// deployWrapper runs one release end to end the way a caller (selfserv
// run) does: start a wrapper on the compiled plan (so its address
// exists), Apply the release announcing that address, then Route the
// wrapper's own directory.
func deployWrapper(t *testing.T, cp *ControlPlane, net transport.Network, addr string, rel *Release) *engine.Wrapper {
	t.Helper()
	wdir := engine.NewDirectory()
	w, err := engine.NewWrapper(net, addr, wdir, rel.Compiled, engine.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	if err := cp.Apply(rel, w.Addr()); err != nil {
		t.Fatal(err)
	}
	rel.Route(wdir)
	return w
}

func execute(t *testing.T, w *engine.Wrapper) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	out, err := w.Execute(ctx, map[string]string{"x": "0"})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return out["x"]
}

// TestRolloutAndRedeploy drives the full control-plane lifecycle:
// validate-then-swap rollout, executions off the hot path, a second
// versioned rollout with the first still serving, and retirement.
func TestRolloutAndRedeploy(t *testing.T) {
	sc := workload.Chain(2)
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	d1 := newDaemon(t, net, "coord-1", 1) // svc1
	d2 := newDaemon(t, net, "coord-2", 2) // svc2
	cp := New(placement.Policy{}, d1.admin.URL, d2.admin.URL)

	rel1, err := cp.Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rel1.Version != 1 {
		t.Fatalf("first release version = %d, want 1", rel1.Version)
	}
	// One prepared artifact: the tables Apply uploads are the declarative
	// source of the compiled plan the release's wrapper executes.
	if rel1.Plan != rel1.Compiled.Plan || rel1.Compiled.Version != rel1.Version {
		t.Fatalf("release plan %p v%d is not its compiled plan's source %p v%d",
			rel1.Plan, rel1.Version, rel1.Compiled.Plan, rel1.Compiled.Version)
	}
	w1 := deployWrapper(t, cp, net, "wrapper-1", rel1)
	if len(rel1.Skipped) != 0 {
		t.Fatalf("skipped hosts on a healthy fleet: %v", rel1.Skipped)
	}
	if got := execute(t, w1); got != "2" {
		t.Fatalf("x = %q, want 2", got)
	}

	// The control plane is never in the hot path: executing more
	// instances issues zero admin calls.
	before := cp.AdminCalls()
	for i := 0; i < 5; i++ {
		if got := execute(t, w1); got != "2" {
			t.Fatalf("x = %q, want 2", got)
		}
	}
	if after := cp.AdminCalls(); after != before {
		t.Fatalf("executions issued %d admin calls; the control plane must stay off the hot path", after-before)
	}

	// v2 rollout while v1 keeps serving.
	rel2, err := cp.Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Version != 2 {
		t.Fatalf("second release version = %d, want 2", rel2.Version)
	}
	w2 := deployWrapper(t, cp, net, "wrapper-2", rel2)
	if got := execute(t, w2); got != "2" {
		t.Fatalf("v2 x = %q, want 2", got)
	}
	// v1 instances still run on v1 — its coordinators are not retired.
	if got := execute(t, w1); got != "2" {
		t.Fatalf("v1 after v2 activation: x = %q, want 2", got)
	}
	if cur := d1.dir.Current(sc.Name); cur != 2 {
		t.Fatalf("daemon current version = %d, want 2", cur)
	}

	// Retire v1 once drained: its routes and coordinators leave.
	if err := cp.Retire(sc.Name, 1); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*daemon{d1, d2} {
		for _, v := range d.dir.Versions(sc.Name) {
			if v == 1 {
				t.Fatalf("v1 still routable on %s after retire", d.host.Addr())
			}
		}
	}
	if got := execute(t, w2); got != "2" {
		t.Fatalf("v2 after retiring v1: x = %q, want 2", got)
	}
}

// TestApplyFailureKeepsLastKnownGood loses a host mid-fleet: the
// rollout that needs it must fail without activating anything, and the
// fleet keeps serving the last-known-good version — last with every
// admin server closed, when the executions must not move AdminCalls.
func TestApplyFailureKeepsLastKnownGood(t *testing.T) {
	sc := workload.Chain(2)
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	d1 := newDaemon(t, net, "coord-1", 1)
	d2 := newDaemon(t, net, "coord-2", 2)
	cp := New(placement.Policy{}, d1.admin.URL, d2.admin.URL)

	rel1, err := cp.Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	w1 := deployWrapper(t, cp, net, "wrapper-1", rel1)
	if got := execute(t, w1); got != "2" {
		t.Fatalf("x = %q, want 2", got)
	}

	// svc2's only host stops answering the ADMIN surface (its
	// coordinator transport stays up — the process is partitioned from
	// the control plane, not from its peers).
	d2.admin.Close()

	rel2, err := cp.Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	err = cp.Apply(rel2, w1.Addr())
	if err == nil {
		t.Fatal("Apply succeeded with a service's only host unreachable")
	}
	if !strings.Contains(err.Error(), "last-known-good") {
		t.Fatalf("Apply error = %v", err)
	}
	if len(rel2.Activated) != 0 {
		t.Fatalf("failed rollout activated hosts: %v", rel2.Activated)
	}
	if cur := d1.dir.Current(sc.Name); cur != rel1.Version {
		t.Fatalf("reachable host moved to %d during a failed rollout", cur)
	}

	// Data-plane autonomy: with the control plane unable to reach half
	// the fleet, v1 executions still complete.
	for i := 0; i < 3; i++ {
		if got := execute(t, w1); got != "2" {
			t.Fatalf("execution %d with control plane degraded: x = %q", i, got)
		}
	}

	// And with it gone entirely: every admin endpoint is down, the fleet
	// serves on last-known-good, and nothing issues an admin call while it
	// does. The executions run for a fixed stretch of wall time rather than
	// a fixed count, so a control plane still probing the dark fleet in the
	// background cannot slip between two fast in-memory executions.
	d1.admin.Close()
	calls := cp.AdminCalls()
	for i, start := 0, time.Now(); time.Since(start) < 20*time.Millisecond; i++ {
		if got := execute(t, w1); got != "2" {
			t.Fatalf("execution %d with every admin server closed: x = %q", i, got)
		}
	}
	if got := cp.AdminCalls(); got != calls {
		t.Fatalf("%d admin calls while the fleet served with its control plane dark; the control plane must stay off the hot path", got-calls)
	}
}

// TestPrepareRejectsInvalidChart pins validate-then-swap: a chart that
// fails validation never produces a release (and so never touches a
// host).
func TestPrepareRejectsInvalidChart(t *testing.T) {
	cp := New(placement.Policy{}, "http://127.0.0.1:1")
	sc := workload.Chain(2)
	sc.Root.Transitions = append(sc.Root.Transitions, statechart.Transition{From: "s1", To: "missing"})
	if _, err := cp.Prepare(sc); err == nil {
		t.Fatal("Prepare accepted an invalid chart")
	}
	if cp.AdminCalls() != 0 {
		t.Fatalf("Prepare touched a host: %d admin calls", cp.AdminCalls())
	}
}

// TestUnversionedAdminWritesAreRefused replays, against a fleet serving
// v1, the pushes the operator CLI used to make beside the control plane:
// a table without a version, a directory push without one (announcing
// its own wrapper) and an uninstall without one. Each is a 400 and the
// live version is untouched. Before every admin write had to name a
// version, the directory push was accepted and resolved to "current": v1's
// $wrapper route became the intruder's, and the live wrapper's next
// Execute ran to its deadline.
func TestUnversionedAdminWritesAreRefused(t *testing.T) {
	sc := workload.Chain(2)
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	d1 := newDaemon(t, net, "coord-1", 1)
	d2 := newDaemon(t, net, "coord-2", 2)
	cp := New(placement.Policy{}, d1.admin.URL, d2.admin.URL)
	rel, err := cp.Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	w := deployWrapper(t, cp, net, "wrapper-1", rel)

	unversioned, err := routing.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	table, err := routing.MarshalTable(unversioned.Tables["s1"])
	if err != nil {
		t.Fatal(err)
	}
	for _, push := range []struct{ path, body string }{
		{"/install?composite=Chain2", string(table)},
		{"/directory?composite=Chain2", message.WrapperID + " wrapper-cli\ns1 coord-1\ns2 coord-2\n"},
		{"/uninstall?composite=Chain2&state=s1", ""},
	} {
		for _, d := range []*daemon{d1, d2} {
			resp, err := http.Post(d.admin.URL+push.path, "text/plain", strings.NewReader(push.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s on %s: HTTP %d, want 400", push.path, d.host.Addr(), resp.StatusCode)
			}
		}
	}
	for _, d := range []*daemon{d1, d2} {
		if got := d.dir.PeerReplicas(sc.Name, rel.Version)[message.WrapperID]; len(got) != 1 || got[0] != "wrapper-1" {
			t.Fatalf("v%d's %s route on %s is %v, want [wrapper-1]", rel.Version, message.WrapperID, d.host.Addr(), got)
		}
	}
	if got := execute(t, w); got != "2" {
		t.Fatalf("live v%d after the refused pushes: x = %q, want 2", rel.Version, got)
	}
}

// TestRestartedControlPlaneAllocatesPastTheFleet: the fleet, not the
// control plane's memory, is the version authority. A fresh control plane
// over a fleet at v2 allocates v3, and the v1, v2 and v3 wrappers all
// complete. A control plane that counted from its own zero allocated v1:
// its Apply got 409 on every host, the unwind uninstalled the v1
// coordinators still serving the v1 wrapper, whose next execution faulted
// ("frame for retired plan version 1 of Chain2/s1 dropped").
func TestRestartedControlPlaneAllocatesPastTheFleet(t *testing.T) {
	sc := workload.Chain(2)
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	d1 := newDaemon(t, net, "coord-1", 1)
	d2 := newDaemon(t, net, "coord-2", 2)
	var wrappers []*engine.Wrapper
	rollout := func(cp *ControlPlane, want uint64) {
		t.Helper()
		rel, err := cp.Prepare(sc)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Version != want {
			t.Fatalf("allocated v%d, want v%d", rel.Version, want)
		}
		wrappers = append(wrappers, deployWrapper(t, cp, net, fmt.Sprintf("wrapper-%d", want), rel))
	}
	cp := New(placement.Policy{}, d1.admin.URL, d2.admin.URL)
	rollout(cp, 1)
	rollout(cp, 2)
	rollout(New(placement.Policy{}, d1.admin.URL, d2.admin.URL), 3)
	for i, w := range wrappers {
		if got := execute(t, w); got != "2" {
			t.Fatalf("v%d wrapper: x = %q, want 2", i+1, got)
		}
	}
}
