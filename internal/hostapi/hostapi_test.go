package hostapi

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"selfserv/internal/deployer"
	"selfserv/internal/engine"
	"selfserv/internal/message"
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
	srv := NewServer(h, dir, reg.Names)
	admin := httptest.NewServer(srv)
	t.Cleanup(admin.Close)
	return &daemon{host: h, dir: dir, admin: admin}
}

func TestDistributedDeployAndExecute(t *testing.T) {
	// Two "processes", each with its own directory, connected over real
	// TCP; a third party deploys Chain(2) across them and executes it.
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

	// Deployer side: remote installers driven through the admin API.
	ri1, err := NewRemoteInstaller(d1.admin.URL)
	if err != nil {
		t.Fatal(err)
	}
	ri2, err := NewRemoteInstaller(d2.admin.URL)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := deployer.Deploy(sc, deployer.Placement{"svc1": {ri1}, "svc2": {ri2}})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}

	// Wrapper side: its own process with its own transport + directory.
	wnet := transport.NewTCP()
	defer wnet.Close()
	wdir := engine.NewDirectory()
	for state, addrs := range dep.Hosts {
		wdir.SetReplicasV(sc.Name, 0, state, addrs)
	}
	w, err := engine.NewWrapper(wnet, "127.0.0.1:0", wdir, dep.Compiled, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Every daemon (and the wrapper) must know all peer locations.
	peers := map[string][]string{message.WrapperID: {w.Addr()}}
	for state, addrs := range dep.Hosts {
		peers[state] = addrs
	}
	for _, ri := range []*RemoteInstaller{ri1, ri2} {
		if err := ri.Client.PushDirectory(sc.Name, 0, peers); err != nil {
			t.Fatal(err)
		}
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

	// Info reflects the installations.
	info, err := ri1.Client.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.CoordAddr != d1.host.Addr() {
		t.Fatalf("info.CoordAddr = %q", info.CoordAddr)
	}
	if got := info.States["Chain2"]; len(got) != 1 || got[0] != "s1" {
		t.Fatalf("info.States = %v", info.States)
	}
}

// TestReplicatedRoutingNeverRPCs deploys Chain(2) through the admin API
// onto two TCP daemons that each host both services, so every state has
// two replicas, and drives it from a wrapper with its own transport.
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
	var installers []*RemoteInstaller
	var regs []*service.Registry
	pl := deployer.Placement{}
	for r := 0; r < 2; r++ {
		reg := service.NewRegistry()
		workload.RegisterChainProviders(reg, 2, service.SimulatedOptions{})
		net := transport.NewTCP()
		t.Cleanup(func() { net.Close() })
		d := newDaemon(t, net, reg)
		ri, err := NewRemoteInstaller(d.admin.URL)
		if err != nil {
			t.Fatal(err)
		}
		for _, svc := range sc.Services() {
			pl[svc] = append(pl[svc], ri)
		}
		installers, regs = append(installers, ri), append(regs, reg)
	}
	dep, err := deployer.Deploy(sc, pl)
	if err != nil {
		t.Fatalf("Deploy across replicas: %v", err)
	}

	wnet := transport.NewTCP()
	defer wnet.Close()
	wdir := engine.NewDirectory()
	peers := map[string][]string{}
	for state, addrs := range dep.Hosts {
		if len(addrs) != 2 {
			t.Fatalf("state %s placed on %v, want both replicas", state, addrs)
		}
		wdir.SetReplicasV(sc.Name, 0, state, addrs)
		peers[state] = addrs
	}
	w, err := engine.NewWrapper(wnet, "127.0.0.1:0", wdir, dep.Compiled, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	peers[message.WrapperID] = []string{w.Addr()}
	for _, ri := range installers {
		if err := ri.Client.PushDirectory(sc.Name, 0, peers); err != nil {
			t.Fatal(err)
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
// repeated "peerID addr" lines accumulate a replica set (and a re-push
// replaces it), and /uninstall removes a state's coordinator and its
// /info entry.
func TestReplicaDirectoryAndUninstall(t *testing.T) {
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 1, service.SimulatedOptions{})
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	d := newDaemon(t, net, reg)
	c := &Client{BaseURL: d.admin.URL}

	if err := c.PushDirectory("C", 0, map[string][]string{
		"s1": {"addr-b", "addr-a"},
		"s2": {"addr-c"},
	}); err != nil {
		t.Fatal(err)
	}
	if got := d.dir.PeerReplicas("C", 0)["s1"]; len(got) != 2 || got[0] != "addr-a" || got[1] != "addr-b" {
		t.Fatalf("s1 replicas = %v", got)
	}
	// Re-push REPLACES the set (a departed replica must disappear).
	if err := c.PushDirectory("C", 0, map[string][]string{"s1": {"addr-a"}}); err != nil {
		t.Fatal(err)
	}
	if got := d.dir.PeerReplicas("C", 0)["s1"]; len(got) != 1 || got[0] != "addr-a" {
		t.Fatalf("s1 replicas after re-push = %v", got)
	}

	// Install then uninstall a real coordinator through the admin API.
	plan, err := routing.Generate(workload.Chain(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Install("Chain1", plan.Tables["s1"]); err != nil {
		t.Fatalf("Install: %v", err)
	}
	info, err := c.Info()
	if err != nil || len(info.States["Chain1"]) != 1 {
		t.Fatalf("info after install = %+v, %v", info, err)
	}
	if err := c.Uninstall("Chain1", "s1", 0); err != nil {
		t.Fatalf("Uninstall: %v", err)
	}
	info, err = c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if _, still := info.States["Chain1"]; still {
		t.Fatalf("state survived uninstall: %+v", info.States)
	}
	if _, ok := d.dir.LookupV("Chain1", 0, "s1"); ok {
		t.Fatal("directory still routes to the uninstalled coordinator")
	}

	t.Run("uninstall without params", func(t *testing.T) {
		if err := c.post("/uninstall?composite=C", "text/plain", nil); err == nil {
			t.Fatal("accepted")
		}
	})
}

// TestVersionedPushesRejectStale pins the rollout-ordering guarantee:
// version-stamped directory pushes and activations are totally ordered
// per composite, and a host never regresses to an older snapshot no
// matter how a control plane retries or races.
func TestVersionedPushesRejectStale(t *testing.T) {
	reg := service.NewRegistry()
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	d := newDaemon(t, net, reg)
	c := &Client{BaseURL: d.admin.URL}

	if err := c.PushDirectory("C", 2, map[string][]string{"s1": {"addr-v2"}}); err != nil {
		t.Fatal(err)
	}
	err := c.PushDirectory("C", 1, map[string][]string{"s1": {"addr-v1"}})
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("stale directory push: err = %v, want 409", err)
	}
	// Same-version re-push is a retry, not a regression: accepted.
	if err := c.PushDirectory("C", 2, map[string][]string{"s1": {"addr-v2b"}}); err != nil {
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
	c := &Client{BaseURL: d.admin.URL}
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
		plan, err := routing.Generate(workload.Chain(1))
		if err != nil {
			t.Fatal(err)
		}
		plan.SetVersion(version)
		if err := c.Install("Chain1", plan.Tables["s1"]); err != nil {
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

func TestAdminErrors(t *testing.T) {
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 1, service.SimulatedOptions{})
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	d := newDaemon(t, net, reg)
	c := &Client{BaseURL: d.admin.URL}

	t.Run("install bad xml", func(t *testing.T) {
		err := c.post("/install?composite=C", "text/xml", []byte("not xml"))
		if err == nil || !strings.Contains(err.Error(), "400") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("install without composite", func(t *testing.T) {
		err := c.post("/install", "text/xml", []byte("<x/>"))
		if err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("install for absent service", func(t *testing.T) {
		err := c.Install("C", &routing.Table{State: "s", Service: "missing", Operation: "op"})
		if err == nil || !strings.Contains(err.Error(), "409") {
			t.Fatalf("err = %v", err)
		}
	})
	// The daemon compiles a pushed table on receipt: a guard that does not
	// parse fails the deployment there, before any coordinator or replica
	// registration exists for an instance to run into.
	t.Run("install with an ill-formed guard", func(t *testing.T) {
		err := c.Install("C", &routing.Table{State: "s", Service: "svc1", Operation: "run",
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
		err := c.post("/directory?composite=C", "text/plain", []byte("only-one-field\n"))
		if err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("directory comments and blanks ok", func(t *testing.T) {
		err := c.post("/directory?composite=C", "text/plain", []byte("# comment\n\npeer addr\n"))
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("healthz", func(t *testing.T) {
		resp, err := d.admin.Client().Get(d.admin.URL + "/healthz")
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("healthz: %v %v", resp, err)
		}
		resp.Body.Close()
	})
	t.Run("remote installer against dead daemon", func(t *testing.T) {
		if _, err := NewRemoteInstaller("http://127.0.0.1:1"); err == nil {
			t.Fatal("reached a dead daemon")
		}
	})
}

// TestRecoverEndpoint pins the recovery resource: a journal-less daemon
// reports Configured=false and rejects replays with 409; with a recover
// function installed, POST replays and reports stats, GET reflects the
// last outcome, and a failing replay surfaces its error (HTTP 500 with
// the status body).
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
	srv := NewServer(h, dir, reg.Names)
	admin := httptest.NewServer(srv)
	defer admin.Close()
	c := &Client{BaseURL: admin.URL}

	st, err := c.RecoveryStatus()
	if err != nil {
		t.Fatalf("RecoveryStatus: %v", err)
	}
	if st.Configured || st.Ran {
		t.Fatalf("journal-less status = %+v, want unconfigured", st)
	}
	if _, err := c.Recover(); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("journal-less Recover err = %v, want 409", err)
	}

	var calls int
	srv.SetRecoverFunc(func(context.Context) (engine.RecoveryStats, error) {
		calls++
		return engine.RecoveryStats{Coordinators: 3, Wrappers: 1}, nil
	})
	st, err = c.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !st.Configured || !st.Ran || st.Stats.Coordinators != 3 || st.Stats.Wrappers != 1 {
		t.Fatalf("recover status = %+v", st)
	}
	if calls != 1 {
		t.Fatalf("recover fn ran %d times, want 1", calls)
	}
	st, err = c.RecoveryStatus()
	if err != nil || !st.Ran || st.Stats.Coordinators != 3 {
		t.Fatalf("status after replay = %+v, %v", st, err)
	}

	srv.SetRecoverFunc(func(context.Context) (engine.RecoveryStats, error) {
		return engine.RecoveryStats{}, fmt.Errorf("segment torn beyond repair")
	})
	st, err = c.Recover()
	if err == nil || !strings.Contains(err.Error(), "segment torn") {
		t.Fatalf("failing replay err = %v", err)
	}
	if st == nil || st.Error == "" {
		t.Fatalf("failing replay status = %+v", st)
	}
}
