package hostapi_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"selfserv/internal/controlplane"
	"selfserv/internal/engine"
	"selfserv/internal/hostapi"
	"selfserv/internal/message"
	"selfserv/internal/placement"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// daemon bundles one simulated hostd process: TCP-coordinator host plus
// admin HTTP server.
type daemon struct {
	host  *engine.Host
	dir   *engine.Directory
	admin *httptest.Server
}

func newDaemon(t *testing.T, net transport.Network, reg *service.Registry) *daemon {
	t.Helper()
	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, "127.0.0.1:0", reg, dir, engine.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	admin := httptest.NewServer(hostapi.NewServer(hostapi.NewNode(h, dir, reg.Names, nil)))
	t.Cleanup(admin.Close)
	return &daemon{host: h, dir: dir, admin: admin}
}

// runWrapper does what selfserv run does with a prepared release: start
// a wrapper in its own "process" (its own TCP transport and directory) on
// the compiled plan, Apply the release announcing the wrapper's address,
// then Route the wrapper's directory.
func runWrapper(t *testing.T, cp *controlplane.ControlPlane, rel *controlplane.Release) (*engine.Wrapper, *transport.TCP) {
	t.Helper()
	wnet := transport.NewTCP()
	t.Cleanup(func() { wnet.Close() })
	wdir := engine.NewDirectory()
	w, err := engine.NewWrapper(wnet, "127.0.0.1:0", wdir, rel.Compiled, engine.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	if err := cp.Apply(rel, w.Addr()); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	rel.Route(wdir)
	return w, wnet
}

func TestDistributedDeployAndExecute(t *testing.T) {
	// Two "processes", each with its own directory, connected over real
	// TCP; a control plane rolls Chain(2) out across them and a wrapper in
	// a third executes it.
	sc := workload.Chain(2)

	reg1 := service.NewRegistry()
	workload.RegisterChainProviders(reg1, 1, service.SimulatedOptions{}) // svc1
	reg2 := service.NewRegistry()
	reg2.Register(mustLookup(t, func() *service.Registry {
		r := service.NewRegistry()
		workload.RegisterChainProviders(r, 2, service.SimulatedOptions{})
		return r
	}(), "svc2"))

	net1 := transport.NewTCP()
	defer net1.Close()
	net2 := transport.NewTCP()
	defer net2.Close()
	d1 := newDaemon(t, net1, reg1)
	d2 := newDaemon(t, net2, reg2)

	cp := controlplane.New(placement.Policy{}, d1.admin.URL, d2.admin.URL)
	rel, err := cp.Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := runWrapper(t, cp, rel)
	if len(rel.Skipped) != 0 {
		t.Fatalf("skipped hosts on a healthy fleet: %v", rel.Skipped)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	out, err := w.Execute(ctx, map[string]string{"x": "0"})
	if err != nil {
		t.Fatalf("Execute across daemons: %v", err)
	}
	if out["x"] != "2" {
		t.Fatalf("x = %q, want 2", out["x"])
	}
	// Each table went over the admin API on its own and carried its once
	// mark: both journal-less daemons let the finished instance go.
	if r1, r2 := d1.host.Retired(), d2.host.Retired(); r1 != 1 || r2 != 1 {
		t.Errorf("retired %d instance(s) at s1's daemon and %d at s2's, want 1 and 1", r1, r2)
	}

	// Info reflects the installations and the version pushed.
	info, err := (&hostapi.Client{BaseURL: d1.admin.URL}).Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.CoordAddr != d1.host.Addr() {
		t.Fatalf("info.CoordAddr = %q", info.CoordAddr)
	}
	if got := info.States["Chain2"]; len(got) != 1 || got[0] != "s1" {
		t.Fatalf("info.States = %v", info.States)
	}
	if got := info.Versions["Chain2"]; got != rel.Version {
		t.Fatalf("info.Versions = %v, want Chain2 at v%d", info.Versions, rel.Version)
	}
}

// TestReplicatedRoutingNeverRPCs rolls Chain(2) out through the control
// plane onto two TCP daemons that each host both services, so every
// state has two replicas, and drives it from a wrapper with its own
// transport.
//
// Routing-never-RPCs pin: the wrapper exchanges EXACTLY one start
// message out and one completion message in per execution, no matter
// how many replicas each state has. Replica resolution is a pure local
// computation over the pushed directory (the paper's routing tables hold
// everything a coordinator needs), so any replica-resolution chatter
// would show up here.
func TestReplicatedRoutingNeverRPCs(t *testing.T) {
	const execs = 24
	sc := workload.Chain(2)
	var urls []string
	var regs []*service.Registry
	for r := 0; r < 2; r++ {
		reg := service.NewRegistry()
		workload.RegisterChainProviders(reg, 2, service.SimulatedOptions{})
		net := transport.NewTCP()
		t.Cleanup(func() { net.Close() })
		d := newDaemon(t, net, reg)
		urls, regs = append(urls, d.admin.URL), append(regs, reg)
	}
	cp := controlplane.New(placement.Policy{}, urls...)
	rel, err := cp.Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	w, wnet := runWrapper(t, cp, rel)
	for state := range rel.Plan.Tables {
		if addrs := rel.Peers[state]; len(addrs) != 2 {
			t.Fatalf("state %s placed on %v, want both replicas", state, addrs)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	before := wnet.Stats().Total()
	for i := 0; i < execs; i++ {
		out, err := w.Execute(ctx, map[string]string{"x": "0", engine.TenantVar: fmt.Sprintf("tenant-%d", i)})
		if err != nil || out["x"] != "2" {
			t.Fatalf("execution %d: out=%v err=%v, want x=2", i, out, err)
		}
	}
	after := wnet.Stats().Total()
	if out, in := after.MsgsOut-before.MsgsOut, after.MsgsIn-before.MsgsIn; out != execs || in != execs {
		t.Fatalf("wrapper sent %d and received %d messages for %d executions, want exactly %d and %d: replica routing must stay RPC-free",
			out, in, execs, execs, execs)
	}
	for r, reg := range regs {
		if inv, _, _ := mustLookup(t, reg, "svc1").(*service.Simulated).Counters(); inv == 0 {
			t.Errorf("replica %d of s1 served none of %d instances", r, execs)
		}
	}
}

func mustLookup(t *testing.T, reg *service.Registry, name string) service.Provider {
	t.Helper()
	p, err := reg.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReplicaDirectoryAndUninstall covers the scale-out admin surface:
// a pushed peer's address list becomes its replica set (and a re-push
// replaces it), and /uninstall removes a state's coordinator and its
// /info entry.
func TestReplicaDirectoryAndUninstall(t *testing.T) {
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 1, service.SimulatedOptions{})
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	d := newDaemon(t, net, reg)
	c := &hostapi.Client{BaseURL: d.admin.URL}

	if err := c.PushDirectory("C", 1, map[string][]string{
		"s1": {"addr-b", "addr-a"},
		"s2": {"addr-c"},
	}, placement.Policy{}); err != nil {
		t.Fatal(err)
	}
	if got := d.dir.PeerReplicas("C", 1)["s1"]; len(got) != 2 || got[0] != "addr-a" || got[1] != "addr-b" {
		t.Fatalf("s1 replicas = %v", got)
	}
	// Re-push REPLACES the set (a departed replica must disappear).
	if err := c.PushDirectory("C", 1, map[string][]string{"s1": {"addr-a"}}, placement.Policy{}); err != nil {
		t.Fatal(err)
	}
	if got := d.dir.PeerReplicas("C", 1)["s1"]; len(got) != 1 || got[0] != "addr-a" {
		t.Fatalf("s1 replicas after re-push = %v", got)
	}

	// Install then uninstall a real coordinator through the admin API.
	if err := c.Install("Chain1", chain1(t, 1).Tables["s1"]); err != nil {
		t.Fatalf("Install: %v", err)
	}
	info, err := c.Info()
	if err != nil || len(info.States["Chain1"]) != 1 {
		t.Fatalf("info after install = %+v, %v", info, err)
	}
	if err := c.Uninstall("Chain1", "s1", 1); err != nil {
		t.Fatalf("Uninstall: %v", err)
	}
	info, err = c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if _, still := info.States["Chain1"]; still {
		t.Fatalf("state survived uninstall: %+v", info.States)
	}
	if _, ok := d.dir.LookupV("Chain1", 1, "s1"); ok {
		t.Fatal("directory still routes to the uninstalled coordinator")
	}

	t.Run("uninstall without params", func(t *testing.T) {
		if err := c.Post("/uninstall?composite=C", "text/plain", nil); err == nil {
			t.Fatal("accepted")
		}
	})
}

// TestVersionedPushesRejectStale pins the rollout-ordering guarantee:
// version-stamped directory pushes and activations are totally ordered
// per composite, and a host never regresses to an older snapshot no
// matter how a control plane retries or races. The placement policy is
// gated the same way: the first push fixes it, and a push with another
// is refused, over HTTP and in process, before any replica set changes.
func TestVersionedPushesRejectStale(t *testing.T) {
	reg := service.NewRegistry()
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	d := newDaemon(t, net, reg)
	c := &hostapi.Client{BaseURL: d.admin.URL}

	if err := c.PushDirectory("C", 2, map[string][]string{"s1": {"addr-v2"}}, placement.Policy{}); err != nil {
		t.Fatal(err)
	}
	err := c.PushDirectory("C", 1, map[string][]string{"s1": {"addr-v1"}}, placement.Policy{})
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("stale directory push: err = %v, want 409", err)
	}
	// Same-version re-push is a retry, not a regression: accepted.
	if err := c.PushDirectory("C", 2, map[string][]string{"s1": {"addr-v2b"}}, placement.Policy{}); err != nil {
		t.Fatalf("same-version re-push: %v", err)
	}
	if got := d.dir.PeerReplicas("C", 0)["s1"]; len(got) != 0 {
		t.Fatalf("unactivated version already routable: %v", got)
	}

	if err := c.Activate("C", 2); err != nil {
		t.Fatal(err)
	}
	if got := d.dir.PeerReplicas("C", 0)["s1"]; len(got) != 1 || got[0] != "addr-v2b" {
		t.Fatalf("replicas after activate = %v", got)
	}
	err = c.Activate("C", 1)
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("stale activation: err = %v, want 409", err)
	}
	// Idempotent re-activation of the current version is fine.
	if err := c.Activate("C", 2); err != nil {
		t.Fatalf("re-activate current: %v", err)
	}

	cell := placement.Policy{Dedicated: map[string]int{"visa": 1}}
	err = c.PushDirectory("C", 3, map[string][]string{"s1": {"addr-v3"}}, cell)
	if err == nil || !strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), `{"dedicated":{"visa":1}}`) {
		t.Fatalf("push with another policy over HTTP: err = %v, want a 409 naming the policy", err)
	}
	node := hostapi.NewNode(d.host, d.dir, reg.Names, nil)
	err = node.PushDirectory("C", 3, map[string][]string{"s1": {"addr-v3"}}, cell)
	if !errors.Is(err, hostapi.ErrPolicy) {
		t.Fatalf("push with another policy in process: err = %v, want ErrPolicy", err)
	}
	if got := d.dir.PeerReplicas("C", 3); len(got) != 0 {
		t.Fatalf("a refused push staged v3's replica sets: %v", got)
	}
	if got := d.dir.PeerReplicas("C", 2)["s1"]; len(got) != 1 || got[0] != "addr-v2b" {
		t.Fatalf("v2 replicas after the refused pushes = %v", got)
	}
	if info, err := c.Info(); err != nil || info.Versions["C"] != 2 {
		t.Fatalf("info after the refused pushes = %+v, %v; want C at v2", info, err)
	}
	// The policy the host routes with, spelled with empty maps, is
	// accepted: a nil map and an empty one are the same policy.
	same := placement.Policy{Tenants: map[string]int{}, Dedicated: map[string]int{}}
	if err := node.PushDirectory("C", 3, map[string][]string{"s1": {"addr-v3"}}, same); err != nil {
		t.Fatalf("push with the host's own policy: %v", err)
	}
}

// TestInfoTracksTheHostAcrossVersions: /info reports the host's own
// coordinator table. The server used to keep a second copy, keyed by
// composite only, that drifted both ways: uninstalling one version of a
// state dropped the composite from /info while the other version's
// coordinator still served, and retiring every version left the composite
// listed, empty, forever.
func TestInfoTracksTheHostAcrossVersions(t *testing.T) {
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 1, service.SimulatedOptions{})
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	d := newDaemon(t, net, reg)
	c := &hostapi.Client{BaseURL: d.admin.URL}
	states := func() map[string][]string {
		t.Helper()
		info, err := c.Info()
		if err != nil {
			t.Fatal(err)
		}
		return info.States
	}
	install := func(version uint64) {
		t.Helper()
		if err := c.Install("Chain1", chain1(t, version).Tables["s1"]); err != nil {
			t.Fatal(err)
		}
	}

	install(1)
	install(2)
	if err := c.Uninstall("Chain1", "s1", 2); err != nil {
		t.Fatal(err)
	}
	if got := states()["Chain1"]; len(got) != 1 || got[0] != "s1" {
		t.Errorf("/info lists %v for Chain1 with v1's coordinator still installed (host: %v)", got, d.host.States())
	}

	install(2)
	for _, v := range []uint64{1, 2} {
		if err := c.Retire("Chain1", v); err != nil {
			t.Fatal(err)
		}
	}
	if got, listed := states()["Chain1"]; listed {
		t.Fatalf("/info still lists Chain1: %v after every version was retired (host: %v)", got, d.host.States())
	}
}

// chain1 is Chain(1) compiled and stamped with version.
func chain1(t *testing.T, version uint64) *routing.CompiledPlan {
	t.Helper()
	plan, err := routing.Compile(workload.Chain(1))
	if err != nil {
		t.Fatal(err)
	}
	plan.SetVersion(version)
	return plan
}

// postTable pushes a table document the typed Client would never send —
// one without a version, or one that does not compile.
func postTable(t *testing.T, c *hostapi.Client, composite string, table *routing.Table) error {
	t.Helper()
	data, err := routing.MarshalTable(table)
	if err != nil {
		t.Fatal(err)
	}
	return c.Post("/install?composite="+composite, "text/xml", data)
}

func TestAdminErrors(t *testing.T) {
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 1, service.SimulatedOptions{})
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	d := newDaemon(t, net, reg)
	c := &hostapi.Client{BaseURL: d.admin.URL}

	t.Run("install bad xml", func(t *testing.T) {
		err := c.Post("/install?composite=C", "text/xml", []byte("not xml"))
		if err == nil || !strings.Contains(err.Error(), "400") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("install without composite", func(t *testing.T) {
		err := c.Post("/install", "text/xml", []byte("<x/>"))
		if err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("install for absent service", func(t *testing.T) {
		table, err := routing.CompileTable(&routing.Table{Version: 1, State: "s", Service: "missing", Operation: "op"})
		if err != nil {
			t.Fatal(err)
		}
		err = c.Install("C", table)
		if err == nil || !strings.Contains(err.Error(), "409") {
			t.Fatalf("err = %v", err)
		}
	})
	// The daemon compiles a pushed table on receipt: a guard that does not
	// parse fails the deployment there, before any coordinator or replica
	// registration exists for an instance to run into.
	t.Run("install with an ill-formed guard", func(t *testing.T) {
		err := postTable(t, c, "C", &routing.Table{Version: 1, State: "s", Service: "svc1", Operation: "run",
			Preconditions: []routing.Clause{{Sources: []string{message.WrapperID}, Condition: "x > ("}}})
		if err == nil || !strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), "compile") {
			t.Fatalf("err = %v, want a 409 naming the compile failure", err)
		}
		if got := d.host.States(); len(got) != 0 {
			t.Errorf("host has coordinators %v after a refused install", got)
		}
		if got := d.dir.PeerReplicas("C", 0); len(got) != 0 {
			t.Errorf("directory lists %v after a refused install", got)
		}
	})
	t.Run("directory malformed", func(t *testing.T) {
		err := c.Post("/directory?composite=C&version=1", "application/json", []byte(`{"peers": {"s1": "addr"}}`))
		if err == nil || !strings.Contains(err.Error(), "400") {
			t.Fatalf("err = %v, want 400", err)
		}
	})
	t.Run("healthz", func(t *testing.T) {
		resp, err := d.admin.Client().Get(d.admin.URL + "/healthz")
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("healthz: %v %v", resp, err)
		}
		resp.Body.Close()
	})
	// Every write names a plan version: version 0 would resolve to the
	// composite's current version inside the engine and overwrite the live
	// version's routes.
	t.Run("install without a version", func(t *testing.T) {
		err := postTable(t, c, "Chain1", chain1(t, 0).Plan.Tables["s1"])
		if err == nil || !strings.Contains(err.Error(), "400") {
			t.Fatalf("err = %v, want 400", err)
		}
		if got := d.host.States(); len(got) != 0 {
			t.Errorf("host has coordinators %v after a version-less install", got)
		}
	})
	t.Run("directory without a version", func(t *testing.T) {
		for _, path := range []string{"/directory?composite=D", "/directory?composite=D&version=0"} {
			err := c.Post(path, "application/json", []byte(`{"peers": {"`+message.WrapperID+`": ["intruder"]}}`))
			if err == nil || !strings.Contains(err.Error(), "400") {
				t.Fatalf("%s: err = %v, want 400", path, err)
			}
		}
		if got := d.dir.PeerReplicas("D", 0); len(got) != 0 {
			t.Errorf("directory lists %v after an unversioned push", got)
		}
	})
	t.Run("uninstall without a version", func(t *testing.T) {
		err := c.Post("/uninstall?composite=C&state=s", "text/plain", nil)
		if err == nil || !strings.Contains(err.Error(), "400") {
			t.Fatalf("err = %v, want 400", err)
		}
	})
	t.Run("info from a dead daemon", func(t *testing.T) {
		if _, err := (&hostapi.Client{BaseURL: "http://127.0.0.1:1"}).Info(); err == nil {
			t.Fatal("reached a dead daemon")
		}
	})
}

// TestRecoverEndpoint pins the recovery resource: POST replays the
// journal once and answers what it rebuilt (200), a journal-less daemon
// answers 409 (ErrNoJournal through the Client), a failing replay 500
// with its error, and a GET is refused without replaying.
func TestRecoverEndpoint(t *testing.T) {
	reg := service.NewRegistry()
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, "recover-host", reg, dir, engine.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// serve starts one admin server per configuration: a Node's hook is
	// fixed when it is built.
	serve := func(recoverFn func(context.Context) (engine.RecoveryStats, error)) *hostapi.Client {
		admin := httptest.NewServer(hostapi.NewServer(hostapi.NewNode(h, dir, reg.Names, recoverFn)))
		t.Cleanup(admin.Close)
		return &hostapi.Client{BaseURL: admin.URL}
	}
	ctx := context.Background()

	c := serve(nil)
	if _, err := c.Recover(ctx); !errors.Is(err, hostapi.ErrNoJournal) || !strings.Contains(err.Error(), "HTTP 409") {
		t.Fatalf("journal-less Recover err = %v, want a 409 wrapping ErrNoJournal", err)
	}

	var calls int
	c = serve(func(context.Context) (engine.RecoveryStats, error) {
		calls++
		return engine.RecoveryStats{Coordinators: 3, Wrappers: 1}, nil
	})
	stats, err := c.Recover(ctx)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Coordinators != 3 || stats.Wrappers != 1 {
		t.Fatalf("recover stats = %s", stats)
	}
	resp, err := http.Get(c.BaseURL + "/recover")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /recover = %d, want 405", resp.StatusCode)
	}
	if calls != 1 {
		t.Fatalf("recover fn ran %d times for one POST and one GET, want 1", calls)
	}

	c = serve(func(context.Context) (engine.RecoveryStats, error) {
		return engine.RecoveryStats{}, fmt.Errorf("segment torn beyond repair")
	})
	if _, err := c.Recover(ctx); err == nil || !strings.Contains(err.Error(), "HTTP 500") || !strings.Contains(err.Error(), "segment torn") {
		t.Fatalf("failing replay err = %v, want a 500 naming the replay's error", err)
	}
}

// TestRefusalsAnswerAlikeInProcessAndOverHTTP: every refusal a Node
// answers with a sentinel comes back from a Client over HTTP as a 409
// wrapping the same sentinel, so errors.Is gives one answer for both
// controlplane.Admin implementations.
func TestRefusalsAnswerAlikeInProcessAndOverHTTP(t *testing.T) {
	peers := map[string][]string{"s1": {"addr"}}
	cell := placement.Policy{Dedicated: map[string]int{"visa": 1}}
	sentinels := []error{hostapi.ErrStale, hostapi.ErrPolicy, hostapi.ErrNoJournal}
	cases := []struct {
		name  string
		setup func(a controlplane.Admin) error // must succeed
		call  func(a controlplane.Admin) error // must be refused
		want  error
	}{
		{
			name:  "stale directory push",
			setup: func(a controlplane.Admin) error { return a.PushDirectory("C", 2, peers, placement.Policy{}) },
			call:  func(a controlplane.Admin) error { return a.PushDirectory("C", 1, peers, placement.Policy{}) },
			want:  hostapi.ErrStale,
		},
		{
			name:  "push with a foreign policy",
			setup: func(a controlplane.Admin) error { return a.PushDirectory("C", 1, peers, placement.Policy{}) },
			call:  func(a controlplane.Admin) error { return a.PushDirectory("C", 2, peers, cell) },
			want:  hostapi.ErrPolicy,
		},
		{
			name: "stale activation",
			setup: func(a controlplane.Admin) error {
				return errors.Join(a.PushDirectory("C", 2, peers, placement.Policy{}), a.Activate("C", 2))
			},
			call: func(a controlplane.Admin) error { return a.Activate("C", 1) },
			want: hostapi.ErrStale,
		},
		{
			name:  "journal-less recover",
			setup: func(controlplane.Admin) error { return nil },
			call: func(a controlplane.Admin) error {
				_, err := a.Recover(context.Background())
				return err
			},
			want: hostapi.ErrNoJournal,
		},
	}
	// node builds a fresh journal-less Node, so every case starts on an
	// empty directory.
	node := func(t *testing.T) *hostapi.Node {
		net := transport.NewInMem(transport.InMemOptions{})
		t.Cleanup(func() { net.Close() })
		reg, dir := service.NewRegistry(), engine.NewDirectory()
		h, err := engine.NewHost(net, "host", reg, dir, engine.HostOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		return hostapi.NewNode(h, dir, reg.Names, nil)
	}
	admins := []struct {
		name string
		new  func(t *testing.T) controlplane.Admin
	}{
		{"Node", func(t *testing.T) controlplane.Admin { return node(t) }},
		{"Client", func(t *testing.T) controlplane.Admin {
			srv := httptest.NewServer(hostapi.NewServer(node(t)))
			t.Cleanup(srv.Close)
			return &hostapi.Client{BaseURL: srv.URL}
		}},
	}
	for _, tc := range cases {
		for _, impl := range admins {
			t.Run(tc.name+"/"+impl.name, func(t *testing.T) {
				a := impl.new(t)
				if err := tc.setup(a); err != nil {
					t.Fatalf("setup: %v", err)
				}
				err := tc.call(a)
				for _, sentinel := range sentinels {
					if want := sentinel == tc.want; errors.Is(err, sentinel) != want {
						t.Errorf("errors.Is(%v, %v) = %v, want %v", err, sentinel, !want, want)
					}
				}
				if _, overHTTP := a.(*hostapi.Client); overHTTP && !strings.Contains(fmt.Sprint(err), "HTTP 409") {
					t.Errorf("err = %v, want its HTTP 409", err)
				}
			})
		}
	}
}
